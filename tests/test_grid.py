import json

import numpy as np
import pytest

from varexp.cli import run
from varexp.grid import (CELLS_PER_BALL, GridDomain, GridFunction, as_point, ball,
                         densest_ball, gradient_adjoint, gradient_magnitude,
                         gradient_of_values, interval, rectangle, shift, squared_length)

from oracles import full_grid_probe, monte_carlo_disk_area

STENCIL_DOMAINS = [interval(0, 1, 40), rectangle(-1, 1, 0, 3, (24, 17)),
                   ball((0.3, -0.2), 0.8, 40)]
STENCIL_IDS = ["interval", "unequal-rectangle", "ball"]


def _config_domain(spec: dict, out) -> float:
    """The measure of the domain a config's spec gives, as the CLI reads it."""
    cfg = {"command": "modular", "domain": spec, "p": "2", "u": "1", "out": str(out)}
    assert run(cfg, quiet=True) == 0
    with open(out / "summary.json") as fh:
        return json.load(fh)["metrics"]["value"]


def _reject_config_domain(spec: dict):
    run({"command": "modular", "domain": spec, "p": "2", "u": "1"}, quiet=True)


class TestMakeDomain:
    def test_interval_midpoint_weights(self):
        # every node of a box carries the cell volume
        dom = interval(0.0, 1.0, 10)
        assert dom.inside.shape == (10,) and dom.inside.all()
        assert dom.cell == pytest.approx(0.1)
        assert dom.cell * dom.inside.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rectangle_measure_exact(self):
        dom = rectangle(0.0, 2.0, 0.0, 3.0, 8)
        assert dom.cell * dom.inside.sum() == pytest.approx(6.0, rel=1e-12)

    def test_ball_measure_close_to_pi(self):
        dom = ball((0.0, 0.0), 1.0, 256)
        assert dom.cell * dom.inside.sum() == pytest.approx(np.pi, rel=0.01)
        mc = monte_carlo_disk_area(1.0)
        assert dom.cell * dom.inside.sum() == pytest.approx(mc, rel=0.02)

    def test_make_domain_specs(self, tmp_path):
        # a config's domain spec, read by the CLI
        assert _config_domain({"shape": "interval", "bounds": [0, 1], "resolution": 16},
                              tmp_path / "a") == pytest.approx(1.0, abs=1e-12)
        assert _config_domain({"shape": "ball", "center": [0, 0], "radius": 2.0,
                               "resolution": 32},
                              tmp_path / "b") == pytest.approx(4 * np.pi, rel=0.05)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            interval(0, 1, 3)

    def test_rejects_fractional_resolution(self):
        builders = [
            lambda: _reject_config_domain({"shape": "interval", "bounds": [0, 1],
                                           "resolution": 40.7}),
            lambda: _reject_config_domain({"shape": "ball", "center": [0, 0],
                                           "radius": 1.0, "resolution": 32.5}),
            lambda: interval(0, 1, 40.7),
            lambda: rectangle(0, 1, 0, 1, (10.5, 12)),
        ]
        for build in builders:
            with pytest.raises(ValueError, match="resolution"):
                build()

    def test_whole_float_resolution_accepted(self, tmp_path):
        for res in (40, 40.0):
            assert interval(0, 1, res).resolution == (40,)
            spec = {"shape": "interval", "bounds": [0, 1], "resolution": res}
            assert _config_domain(spec, tmp_path / str(res)) == pytest.approx(1.0)
        assert rectangle(0, 1, 0, 1, (10.0, 12)).resolution == (10, 12)

    @pytest.mark.parametrize("spec, key", [
        ({"shape": "interval", "bounds": [0, 1], "radius": 5, "center": [3]}, "radius"),
        ({"shape": "ball", "center": [0, 0], "radius": 1.0, "bounds": [0, 1]}, "bounds"),
        ({"shape": "ball", "center": [0, 0], "radius": "1"}, "radius"),
        ({"shape": "ball", "center": [0, True], "radius": 1.0}, "center"),
        ({"shape": "interval", "bounds": [0, "1"]}, "bounds"),
        ({"shape": "rectangle", "bounds": [[0, 1], [0, 1]], "resolution": [8, 8]},
         "resolution"),
        ({"shape": "interval"}, "bounds"),
    ])
    def test_rejects_malformed_spec(self, spec, key):
        with pytest.raises(ValueError, match=repr(key)):
            _reject_config_domain({"resolution": 16, **spec})

    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            interval(1.0, 1.0, 16)
        # a ball's radius must be positive: its box then has a positive extent
        for radius in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError, match="extent"):
                ball((0, 0), radius, 16)

    def test_a_ball_needs_cells_per_ball_across(self):
        dom = interval(0, 1, 64)
        h = dom.h[0]
        assert dom.resolves(CELLS_PER_BALL * h / 2)
        assert not dom.resolves(np.nextafter(CELLS_PER_BALL * h / 2, 0))

    def test_weights_are_the_cell_volume_inside(self):
        # the cell volume is every in-domain node's weight, so a cell that
        # underflows to 0 (which would drop every node's mass) is refused
        dom = ball((0.2, -0.1), 0.9, 20)
        assert dom.cell == float(np.prod(dom.h))
        with pytest.raises(ValueError, match="cell volume"):
            rectangle(0, 1e-170, 0, 1e-170, 16)

    def test_containment_checks(self):
        outer = interval(0, 1, 32)
        assert outer.contains(interval(0.25, 0.5, 8))
        assert not outer.contains(interval(-0.1, 0.5, 8))
        sq = rectangle(-1, 1, -1, 1, 16)
        assert sq.contains(ball((0.0, 0.0), 0.99, 8))
        assert not sq.contains(ball((0.5, 0.0), 0.8, 8))
        big = ball((0.0, 0.0), 1.0, 16)
        assert big.contains(ball((0.2, 0.0), 0.5, 8))
        assert not big.contains(rectangle(-0.9, 0.9, -0.9, 0.9, 8))
        seg = ball(0.5, 0.5, 16)
        assert seg.contains(ball(0.3, 0.2, 8))
        assert not seg.contains(ball(0.8, 0.25, 8))
        assert seg.contains(interval(0.1, 0.9, 8))
        assert not seg.contains(interval(-0.1, 0.9, 8))
        assert interval(0, 2, 16).contains(ball(1.0, 1.0, 8))
        assert not interval(0, 2, 16).contains(ball(1.5, 1.0, 8))

    def test_ball_is_not_its_bounding_rectangle(self):
        disk = ball((0.5, -0.25), 0.75, 16)
        box = rectangle(-0.25, 1.25, -1.0, 0.5, 16)
        assert (disk.lo, disk.hi) == (box.lo, box.hi)
        assert disk != box

    def test_center_of_a_ball_is_its_own_center(self):
        # (lo + hi) / 2 of the bounding box is an ulp off 0.1 here
        assert ball((0.1, 0.2), 0.3, 16).center == (0.1, 0.2)
        assert ball(0.1, 0.3, 16).center == (0.1,)
        assert rectangle(0.1, 0.7, -0.2, 0.3, 8).center == ((0.1 + 0.7) / 2, (-0.2 + 0.3) / 2)
        assert interval(0.1, 0.7, 8).center == ((0.1 + 0.7) / 2,)

    def test_equal_domains_built_apart_share_one_key(self):
        for build in (lambda: interval(0, 1, 16), lambda: rectangle(0, 1, 0, 2, (8, 12)),
                      lambda: ball((0.1, 0.2), 0.3, 16)):
            a, b = build(), build()
            assert a is not b
            assert a == b and hash(a) == hash(b)


def test_densest_ball_sizes_and_weighs_the_probe_in_cells():
    # unequal spacings: the radius is counted in cells of the coarser axis
    dom = rectangle(-1, 1, -0.5, 0.5, (32, 20))
    density = np.random.default_rng(3).random(dom.shape)
    point, nodes, mass = densest_ball(density, dom, 3.0)
    mask = np.zeros(dom.shape, dtype=bool)
    mask[nodes] = True
    i, j = np.unravel_index(np.argmax(density), dom.shape)
    assert point == (dom.axes[0][i], dom.axes[1][j])
    assert np.array_equal(mask, dom.distance_from(point) <= 3.0 * max(dom.h))
    assert not np.array_equal(mask, dom.distance_from(point) <= 3.0 * min(dom.h))
    assert mass == float(density[mask].sum())


@pytest.mark.parametrize("dom", [interval(0, 1, 40), interval(0, 1, 11),
                                 rectangle(-1, 1, -0.5, 0.5, (32, 20)),
                                 rectangle(0, 1, 0, 3, (17, 40)),
                                 ball((0.3, -0.2), 0.8, 48)],
                         ids=["interval", "rounded-reach", "wide-rectangle",
                              "tall-rectangle", "ball"])
def test_windowed_probe_is_the_full_grid_rule(dom):
    # the probe measures distances on a box around the peak only; its nodes,
    # their order and so the bits of its mass are the full-grid rule's, also
    # for peaks on the array edge and for radii of whole cells.  On 11 cells
    # of [0, 1], 3 h / h rounds below 3 while the node 3 cells from the
    # first one is in the ball, so the box needs its extra node.
    rng = np.random.default_rng(11)
    edge = np.zeros(dom.shape, dtype=bool)
    for k in range(dom.dim):
        edge |= ~shift(np.ones(dom.shape, dtype=bool), k, 1)
        edge |= ~shift(np.ones(dom.shape, dtype=bool), k, -1)
    edge_nodes = np.argwhere(edge)
    for trial in range(60):
        density = rng.random(dom.shape)
        if trial % 2:
            density[tuple(edge_nodes[rng.integers(len(edge_nodes))])] = 2.0
        for cells in (1.0, 2.5, 3.0, 4.0, 8.0):
            point, nodes, mass = densest_ball(density, dom, cells)
            want_point, want_mask, want_mass = full_grid_probe(density, dom, cells)
            mask = np.zeros(dom.shape, dtype=bool)
            mask[nodes] = True
            assert point == want_point
            assert np.array_equal(mask, want_mask)
            assert np.array_equal(density[nodes], density[want_mask])
            assert mass == want_mass


class TestAsPoint:
    def test_accepts_scalar_list_and_tuple(self):
        assert as_point(0.5) == (0.5,)
        assert as_point(2, dim=1) == (2.0,)
        assert as_point([0, 1.5]) == (0.0, 1.5)
        assert as_point((0.25, -1), dim=2) == (0.25, -1.0)
        assert all(type(c) is float for c in as_point(np.array([1, 2])))

    @pytest.mark.parametrize("x, dim", [([0.5], 2), (0.5, 2), ((0.0, 7.0), 1),
                                        ([[0.0, 1.0]], 2), ("ab", None)])
    def test_rejects_wrong_length_or_non_numbers(self, x, dim):
        with pytest.raises(ValueError):
            as_point(x, dim)


class TestGradient:
    def test_zero_field(self):
        dom = interval(0, 1, 32)
        g = gradient_of_values(np.zeros(dom.shape), dom)
        assert not np.any(g)

    def test_matches_analytic_derivative(self):
        dom = interval(0.0, 1.0, 256)
        x = dom.axes[0]
        u = GridFunction(dom, x * (1 - x))
        g = gradient_of_values(u.values, dom)[0]
        analytic = 1 - 2 * x
        h = dom.h[0]
        interior = slice(1, -1)
        assert np.max(np.abs(g[interior] - analytic[interior])) <= 2 * h

    def test_hat_function_stencil(self):
        dom = interval(0, 1, 32)
        vals = np.zeros(32)
        vals[10] = 0.7
        g = gradient_of_values(GridFunction(dom, vals).values, dom)[0]
        h = dom.h[0]
        nz = np.nonzero(g)[0]
        assert list(nz) == [9, 10]
        assert g[9] == pytest.approx(0.7 / h)
        assert g[10] == pytest.approx(-0.7 / h)

    def test_constant_zero_gradient_in_interior(self):
        dom = ball((0.0, 0.0), 1.0, 64)
        u = GridFunction(dom, np.ones(dom.shape))
        g = gradient_magnitude(u)
        deep = dom.interior.copy()
        for k in range(2):
            lead = [slice(None)] * 2
            lag = [slice(None)] * 2
            lead[k] = slice(1, None)
            lag[k] = slice(None, -1)
            shifted = np.zeros_like(deep)
            shifted[tuple(lag)] = deep[tuple(lead)]
            deep &= shifted
            shifted = np.zeros_like(deep)
            shifted[tuple(lead)] = deep[tuple(lag)]
            deep &= shifted
        assert np.all(g[deep] == 0.0)

    @pytest.mark.parametrize("a", [
        np.arange(1.0, 6.0),
        np.arange(1.0, 13.0).reshape(3, 4),
        np.array([[True, False, True], [False, True, True]]),
    ], ids=["1d-float", "2d-float", "2d-bool"])
    def test_shift_is_the_zero_extended_neighbour(self, a):
        before = a.copy()
        for axis in range(a.ndim):
            n = a.shape[axis]
            for step in (1, -1):
                out = shift(a, axis, step)
                assert out.shape == a.shape and out.dtype == a.dtype
                for idx in np.ndindex(a.shape):
                    j = idx[axis] + step
                    src = idx[:axis] + (j,) + idx[axis + 1:]
                    assert out[idx] == (a[src] if 0 <= j < n else 0)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("dom", STENCIL_DOMAINS, ids=STENCIL_IDS)
    def test_stencils_keep_the_bits_of_the_vector_major_layout(self, dom):
        # the component-major stencils against the (*grid, dim) layout they
        # replaced, both built from shift: equal bytes, signed zeros included
        rng = np.random.default_rng(5)
        v = GridFunction(dom, rng.standard_normal(dom.shape)).values
        want = np.empty(dom.shape + (dom.dim,))
        for k in range(dom.dim):
            want[..., k] = (shift(v, k, 1) - v) / dom.h[k]
        g = gradient_of_values(v, dom)
        assert g.shape == (dom.dim,) + dom.shape
        assert np.moveaxis(g, 0, -1).tobytes() == want.tobytes()
        assert squared_length(g).tobytes() == np.sum(want * want, axis=-1).tobytes()

        z = rng.standard_normal(dom.shape + (dom.dim,))
        z[~dom.inside] = 0.0
        z[rng.random(z.shape) < 0.2] = -0.0
        want_adj = np.zeros(dom.shape)
        for k in range(dom.dim):
            zk = z[..., k]
            want_adj += (shift(zk, k, -1) - zk) / dom.h[k]
        adj = gradient_adjoint(np.ascontiguousarray(np.moveaxis(z, -1, 0)), dom)
        assert adj.tobytes() == want_adj.tobytes()

    def test_shift_rejects_other_steps(self):
        for step in (0, 2, -2):
            with pytest.raises(ValueError, match="step"):
                shift(np.ones(4), 0, step)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(3)
        for dom in (interval(0, 1, 40), rectangle(0, 1, 0, 2, (12, 16))):
            v = rng.standard_normal(dom.shape)
            z = rng.standard_normal((dom.dim,) + dom.shape)
            dv = gradient_of_values(v, dom)
            lhs = float(np.sum(dv * z))
            rhs = float(np.sum(v * gradient_adjoint(z, dom)))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestGridFunction:
    def test_masked_nodes_forced_to_zero(self):
        dom = ball((0.0, 0.0), 1.0, 32)
        u = GridFunction(dom, np.ones(dom.shape))
        assert np.all(u.values[~dom.inside] == 0.0)
        assert np.all(u.values[dom.inside] == 1.0)

    def test_dirichlet_projection_zeroes_boundary_layer(self):
        dom = interval(0, 1, 32)
        u = GridFunction(dom, np.ones(32), dirichlet=True)
        assert u.values[0] == 0.0 and u.values[-1] == 0.0
        assert np.all(u.values[1:-1] == 1.0)

    def test_shape_mismatch(self):
        dom = interval(0, 1, 32)
        with pytest.raises(ValueError):
            GridFunction(dom, np.ones(31))

    @pytest.mark.parametrize("dom", [interval(0, 1, 16), rectangle(-1, 1, 0, 1, (12, 8)),
                                     ball((0.3, -0.2), 0.8, 20)],
                             ids=["interval", "rectangle", "ball"])
    def test_radial_vanishes_on_the_boundary_layer(self, dom):
        # a profile that is nonzero everywhere, so only the projection zeroes
        f = GridFunction.radial(dom, lambda rho: 1.0 + rho, dom.center, 0.5)
        assert np.all(f.values[~dom.interior] == 0.0)
        rho = dom.distance_from(dom.center)
        assert np.array_equal(f.values[dom.interior], 1.0 + rho[dom.interior] / 0.5)


# each input check of GridDomain: the arguments that trip it and its message
DOMAIN_CHECKS = {
    "three_dimensions": (((0.0,) * 3, (1.0,) * 3, (4,) * 3), "dimensions 1 and 2"),
    "resolution_per_axis": (((0.0,), (1.0,), (4, 4)), "one entry per axis"),
}


@pytest.mark.parametrize("check", sorted(DOMAIN_CHECKS))
def test_domain_input_checks(check):
    args, message = DOMAIN_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        GridDomain(*args)
