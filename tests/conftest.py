import numpy as np
import pytest

import varexp.luxemburg as luxemburg_module
from varexp import exponents, grid, sobolev


@pytest.fixture(scope="session")
def critical_square():
    """Constant critical pair p=1.5, q=6 on the square (-1,1)^2 at 384 cells."""
    dom = grid.rectangle(-1.0, 1.0, -1.0, 1.0, 384)
    p = exponents.ExponentField.constant(1.5, dom)
    q = exponents.ExponentField.constant(6.0, dom)
    return dom, p, q


@pytest.fixture(scope="session")
def critical_s_estimate():
    """Guarded estimate of the constant on the critical square (coarser grid)."""
    dom = grid.rectangle(-1.0, 1.0, -1.0, 1.0, 160)
    est = sobolev.minimize_sobolev(1.5, 6.0, dom, seed=0, max_iters=300,
                                   concentration_guard=(3.0, 0.6))
    return est


def random_smooth_values(domain, rng, passes: int = 3):
    """Seeded smooth random field on a grid (shared test helper)."""
    vals = rng.standard_normal(domain.shape)
    for _ in range(passes):
        out = vals.copy()
        cnt = np.ones_like(vals)
        for k in range(vals.ndim):
            lead = [slice(None)] * vals.ndim
            lag = [slice(None)] * vals.ndim
            lead[k] = slice(1, None)
            lag[k] = slice(None, -1)
            out[tuple(lead)] += vals[tuple(lag)]
            out[tuple(lag)] += vals[tuple(lead)]
            cnt[tuple(lead)] += 1
            cnt[tuple(lag)] += 1
        vals = out / cnt
    return vals


def quadrature_masses(domain):
    """The node masses of the midpoint rule: the cell volume on the domain,
    0 off it (shared test helper)."""
    return np.where(domain.inside, domain.cell, 0.0)


def count_evaluations(monkeypatch):
    """The modular evaluations of every later Luxemburg solve, one entry per
    solve, counted at the Newton core (shared test helper)."""
    evals, newton = [], luxemburg_module._newton_norm

    def counting(*args, **kwargs):
        out = newton(*args, **kwargs)
        evals.append(out[0].iterations)
        return out

    monkeypatch.setattr(luxemburg_module, "_newton_norm", counting)
    return evals
