"""Variable-exponent Lebesgue/Sobolev machinery on desk-scale grids.

Subpackages by role:

- :mod:`varexp.grid` -- domains, grid functions, gradients, quadrature
- :mod:`varexp.exponents` -- exponent fields, critical exponents
- :mod:`varexp.luxemburg` -- modulars, Luxemburg norms, inequality checks
- :mod:`varexp.sobolev` -- Rayleigh quotients, embedding-constant estimation,
  Talenti constants, localized constants
- :mod:`varexp.concentration` -- bubble sequences, atom detection,
  concentration inequality checks
- :mod:`varexp.experiments` -- scripted experiment drivers with CSV output
- :mod:`varexp.expressions` -- the expression language of exponent and
  sample fields
- :mod:`varexp.cli` -- command-line front end

Allocator policy: under glibc, importing the package sets the process's
malloc thresholds ``M_MMAP_THRESHOLD`` to 32 MiB and ``M_TRIM_THRESHOLD``
to 64 MiB.  Every full-grid temporary then comes from the heap and goes
back to it when freed, so the next solve reuses its pages instead of
unmapping them and faulting fresh ones in on every solve.  32 MiB is the
ceiling of glibc's own dynamic mmap threshold on 64-bit, and 64 MiB the
trim threshold its dynamic rule pairs with it; pinning them also stops
the thresholds moving with the allocation history.  The cost is that up
to 64 MiB of freed memory above the heap top stays mapped.  Under any
other C library nothing is set.
"""

import ctypes
import os

from . import grid, exponents, luxemburg, sobolev, concentration, experiments

# mallopt parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Pin glibc's malloc thresholds (see the module docstring); elsewhere a no-op."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory()

__all__ = ["grid", "exponents", "luxemburg", "sobolev", "concentration", "experiments"]

__version__ = "0.1.0"
