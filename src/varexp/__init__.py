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
"""

from . import grid, exponents, luxemburg, sobolev, concentration, experiments

__all__ = ["grid", "exponents", "luxemburg", "sobolev", "concentration", "experiments"]

__version__ = "0.1.0"
