import numpy as np
import pytest

from varexp import concentration
from varexp.cli import READERS
from varexp.concentration import (BubbleSequence, check_refined_inequality,
                                  classify_dichotomy, cutoff_profile,
                                  detect_atoms, make_bubbles, measure_masses,
                                  mollifier, reverse_holder_check, smooth_bump,
                                  talenti_profile)
from varexp.exponents import ExponentField
from varexp.grid import GridDomain, GridFunction, ball, interval, rectangle
from varexp.luxemburg import luxemburg_norm, modular
from varexp.sobolev import talenti_constant

from conftest import quadrature_masses
from oracles import full_grid_probe


def _const_critical(res=192, extent=1.0):
    dom = rectangle(-extent, extent, -extent, extent, res)
    p = ExponentField.constant(1.5, dom)
    q = ExponentField.constant(6.0, dom)
    return dom, p, q


class TestProfiles:
    @pytest.mark.parametrize("profile", [smooth_bump, mollifier,
                                         talenti_profile(2, 1.5),
                                         cutoff_profile(0.4)])
    def test_supported_in_unit_ball(self, profile):
        rho = np.linspace(1.0, 3.0, 50)
        assert not np.any(profile(rho))
        inner = profile(np.linspace(0.0, 0.9, 50))
        assert np.all(inner >= 0)
        assert inner[0] > 0

    def test_one_cos2_taper(self):
        # smooth_bump is the cutoff with no plateau, and the Talenti profile is
        # its extremal core times the cutoff at ``inner``, bit for bit
        rho = np.linspace(0.0, 1.5, 3001)
        assert np.array_equal(smooth_bump(rho), cutoff_profile(0.0)(rho))
        r = 1.5
        core = (1.0 + (rho / 0.25) ** (r / (r - 1.0))) ** (-(2 - r) / r)
        want = np.where(rho < 1.0, core, 0.0) * cutoff_profile(0.6)(rho)
        assert np.array_equal(talenti_profile(2, r)(rho), want)

    def test_profile_from_spec(self):
        # a config's profile spec, read by the CLI
        read = READERS["profile"]
        assert read("profile", "bump") is smooth_bump
        f = read("profile", {"name": "talenti", "n": 2, "r": 1.5})
        assert f(np.array([0.0]))[0] > 0
        rho = np.linspace(0.0, 1.5, 301)
        assert np.array_equal(read("profile", {"name": "talenti"})(rho),
                              talenti_profile(2, 1.5, core=0.25, inner=0.6)(rho))
        assert np.array_equal(read("profile", {"name": "cutoff"})(rho),
                              cutoff_profile(0.5)(rho))
        with pytest.raises(ValueError):
            read("profile", "gaussian")

    @pytest.mark.parametrize("spec, key", [
        ({"name": "talenti", "r": "1.5", "n": 2}, "r"),
        ({"name": "talenti", "n": "2"}, "n"),
        ({"name": "cutoff", "plateau": "0.3"}, "plateau"),
        ({"name": "talenti", "core": True}, "core"),
    ])
    def test_profile_from_spec_rejects_non_numbers(self, spec, key):
        with pytest.raises(ValueError, match=repr(key)):
            READERS["profile"]("profile", spec)


class TestMakeBubbles:
    def test_identity_scale_returns_normalized_profile(self):
        dom, p, q = _const_critical(128)
        rho = dom.distance_from((0.0, 0.0))
        raw = GridFunction(dom, smooth_bump(rho / 0.5), dirichlet=True)
        unit = raw.with_values(raw.values / luxemburg_norm(raw, q).value)
        seq = make_bubbles(lambda r: smooth_bump(r / 0.5), (0.0, 0.0), [1.0], p, q)
        assert np.allclose(seq.terms[0].values, unit.values, atol=1e-9)

    def test_unit_norm_invariant(self):
        dom, p, q = _const_critical(192)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.5, 0.35, 0.25], p, q)
        for t in seq.terms:
            assert luxemburg_norm(t, q).value == pytest.approx(1.0, abs=1e-9)

    def test_support_shrinks_with_scale(self):
        dom, p, q = _const_critical(192)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.5, 0.25], p, q)
        rho = dom.distance_from((0.0, 0.0))
        h = max(dom.h)
        for lam, t in zip(seq.scales, seq.terms):
            support = np.abs(t.values) > 0
            assert rho[support].max() < lam + np.sqrt(2) * h

    def test_one_distance_field_per_call(self, monkeypatch):
        dom, p, q = _const_critical(64)
        want = [GridFunction.radial(dom, smooth_bump, (0.1, 0.0), lam).values
                for lam in (0.5, 0.35, 0.25)]
        calls = []
        real = GridDomain.distance_from
        monkeypatch.setattr(GridDomain, "distance_from",
                            lambda self, point: calls.append(point) or real(self, point))
        seq = make_bubbles(smooth_bump, (0.1, 0.0), [0.5, 0.35, 0.25], p, q)
        assert len(calls) == 1
        # each term is the radial sample, normalized
        for t, w in zip(seq.terms, want):
            assert np.array_equal(t.values, w / luxemburg_norm(GridFunction(dom, w), q).value)

    def test_rejects_under_resolved_scale(self):
        dom, p, q = _const_critical(64)
        with pytest.raises(ValueError, match="under-resolved"):
            make_bubbles(smooth_bump, (0.0, 0.0), [0.5, 2 * max(dom.h)], p, q)

    def test_rejects_exterior_center(self):
        dom, p, q = _const_critical(64)
        with pytest.raises(ValueError, match="interior"):
            make_bubbles(smooth_bump, (2.0, 0.0), [0.5], p, q)

    def test_rejects_non_decreasing_scales(self):
        dom, p, q = _const_critical(64)
        with pytest.raises(ValueError):
            make_bubbles(smooth_bump, (0.0, 0.0), [0.25, 0.5], p, q)


class TestMeasureMasses:
    def test_disjoint_support(self):
        dom, p, q = _const_critical(192)
        rho = dom.distance_from((0.6, 0.6))
        u = GridFunction(dom, smooth_bump(rho / 0.2), dirichlet=True)
        [(nu, mu)] = measure_masses(u, p, q, (-0.6, -0.6), [0.3])
        assert nu == 0.0
        assert mu <= 1e-12

    def test_whole_domain_recovers_modular(self):
        _, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4], p, q)
        u = seq.terms[0]
        with pytest.warns(UserWarning, match="clipped"):
            # radius 6 covers the whole square of side 2
            [(nu, _)] = measure_masses(u, p, q, (0.0, 0.0), [6.0])
        assert nu == pytest.approx(modular(u, q), rel=1e-12)

    def test_concentrated_bubble_mass(self):
        dom, p, q = _const_critical(256)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.15], p, q)
        [(nu, _)] = measure_masses(seq.terms[0], p, q, (0.0, 0.0), [0.5])
        assert nu >= 0.99

    def test_ball_cover_additivity(self):
        dom, p, q = _const_critical(128)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(dom.shape)
        u = GridFunction(dom, vals, dirichlet=True)
        total = modular(u, q)
        centers = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)]
        delta = 0.45  # disjoint balls
        nus = [measure_masses(u, p, q, c, [delta])[0].nu for c in centers]
        covered = np.zeros(dom.shape, dtype=bool)
        for c in centers:
            covered |= dom.distance_from(c) <= delta
        leftover = float(np.sum(
            (quadrature_masses(dom) * np.abs(u.values) ** q.values)[~covered]))
        assert sum(nus) + leftover == pytest.approx(total, abs=1e-10)

    def test_warns_when_ball_exits(self):
        dom, p, q = _const_critical(64)
        u = GridFunction(dom, np.ones(dom.shape), dirichlet=True)
        with pytest.warns(UserWarning, match="clipped"):
            measure_masses(u, p, q, (0.9, 0.9), [0.5])

    def test_rejects_tiny_ball(self):
        dom, p, q = _const_critical(64)
        u = GridFunction(dom, np.ones(dom.shape), dirichlet=True)
        with pytest.raises(ValueError):
            measure_masses(u, p, q, (0.0, 0.0), [0.5 * max(dom.h)])

    @pytest.mark.parametrize("cells", [3.0, 3.99])
    def test_rejects_a_ball_under_cells_per_ball_across(self, cells):
        # the rule make_bubbles and localized_constant follow: GridDomain.resolves
        dom, p, q = _const_critical(64)
        u = GridFunction(dom, np.ones(dom.shape), dirichlet=True)
        with pytest.raises(ValueError, match="under-resolved"):
            measure_masses(u, p, q, (0.0, 0.0), [0.5, cells * max(dom.h)])

    def test_accepts_a_ball_cells_per_ball_across(self):
        dom, p, q = _const_critical(64)
        u = GridFunction(dom, np.ones(dom.shape), dirichlet=True)
        [(nu, _)] = measure_masses(u, p, q, (0.0, 0.0), [4.0 * max(dom.h)])
        assert nu > 0.0

    def test_rejects_empty_deltas(self):
        dom, p, q = _const_critical(64)
        u = GridFunction(dom, np.ones(dom.shape), dirichlet=True)
        with pytest.raises(ValueError, match="deltas must not be empty"):
            measure_masses(u, p, q, (0.0, 0.0), [])

    def test_one_pair_per_radius(self):
        dom, p, q = _const_critical(128)
        u = make_bubbles(smooth_bump, (0.0, 0.0), [0.4], p, q).terms[0]
        deltas = [0.2, 0.5, 0.8]
        pairs = measure_masses(u, p, q, (0.0, 0.0), deltas)
        assert len(pairs) == 3
        assert [pair.nu for pair in pairs] == sorted(pair.nu for pair in pairs)
        for delta, pair in zip(deltas, pairs):
            sel = dom.distance_from((0.0, 0.0)) <= delta
            want = np.sum((quadrature_masses(dom) * np.abs(u.values) ** 6.0)[sel])
            assert pair.nu == pytest.approx(want, rel=1e-12)


class TestDetectAtoms:
    def test_single_bubble_atom(self):
        dom, p, q = _const_critical(256)
        h = max(dom.h)
        seq = make_bubbles(smooth_bump, (0.3, -0.2), [8 * h], p, q)
        rep = detect_atoms(seq.terms[-1], p, q)
        assert len(rep.atoms) == 1
        atom = rep.atoms[0]
        assert abs(atom.point[0] - 0.3) <= h and abs(atom.point[1] + 0.2) <= h
        assert atom.nu + rep.ac_mass == pytest.approx(rep.total_nu, rel=1e-12)

    def test_diffuse_field_finds_nothing(self):
        dom, p, q = _const_critical(128)
        u = GridFunction(dom, np.ones(dom.shape), dirichlet=True)
        u = u.with_values(u.values / luxemburg_norm(u, q).value)
        rep = detect_atoms(u, p, q)
        assert len(rep.atoms) == 0
        assert rep.ac_mass == pytest.approx(rep.total_nu)


    def test_reports_what_the_full_grid_probe_reports(self, monkeypatch):
        # two bubbles, one against the array edge, and a diffuse rest: the
        # windowed probe finds the same atoms with the same bits
        dom, p, q = _const_critical(96)
        vals = (smooth_bump(dom.distance_from((0.2, -0.3)) / 0.07)
                + smooth_bump(dom.distance_from((-0.95, 0.5)) / 0.07)
                + 0.05 * smooth_bump(dom.distance_from((0.0, 0.0)) / 0.9))
        u = GridFunction(dom, vals, dirichlet=True)
        u = u.with_values(u.values / luxemburg_norm(u, q).value)
        rep = detect_atoms(u, p, q)
        assert len(rep.atoms) == 2
        monkeypatch.setattr(concentration, "densest_ball", full_grid_probe)
        assert detect_atoms(u, p, q) == rep


class TestRefinedInequality:
    def test_bubble_matrix_within_slack(self):
        dom, p, q = _const_critical(256)
        for profile in (smooth_bump, talenti_profile(2, 1.5)):
            seq = make_bubbles(profile, (0.0, 0.0), [0.45, 0.3, 0.2], p, q)
            rep = check_refined_inequality(seq, p, q, delta_list=[0.5, 0.9])
            assert rep.s_bar_source == "talenti"
            assert rep.all_within
            assert not rep.normalization_violation

    def test_supplied_s_bar_is_used(self):
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4], p, q)
        rep = check_refined_inequality(seq, p, q, s_bar=1.0, delta_list=[0.5])
        assert rep.s_bar == 1.0
        assert rep.s_bar_source == "supplied"
        assert rep.all_within

    def test_oversized_s_bar_fails_cells(self):
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4], p, q)
        rep = check_refined_inequality(seq, p, q, s_bar=100.0, delta_list=[0.5])
        assert not rep.all_within
        assert not rep.normalization_violation

    def test_broken_normalization_is_flagged_not_scored(self):
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4, 0.3], p, q)
        halved = BubbleSequence(
            seq.center, seq.scales,
            tuple(t.with_values(0.5 * t.values) for t in seq.terms),
        )
        rep = check_refined_inequality(halved, p, q, delta_list=[0.5])
        assert rep.normalization_violation
        assert all(not r.norm_ok for r in rep.rows)

    def test_node_masses_formed_once_per_term(self, monkeypatch):
        # each term's gradient is taken once, whatever the number of radii
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4, 0.3], p, q)
        calls = []
        real = concentration.gradient_magnitude
        monkeypatch.setattr(concentration, "gradient_magnitude",
                            lambda u: calls.append(u) or real(u))
        rep = check_refined_inequality(seq, p, q, delta_list=[0.5, 0.8])
        assert len(rep.rows) == 4
        assert len(calls) == 2

    def test_requires_delta_list(self):
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4], p, q)
        for empty in ([], np.array([])):
            with pytest.raises(ValueError, match="delta_list must not be empty"):
                check_refined_inequality(seq, p, q, delta_list=empty)

    def test_delta_array_reads_as_the_list(self):
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4], p, q)
        rep = check_refined_inequality(seq, p, q, delta_list=np.array([0.5, 0.8]))
        assert rep == check_refined_inequality(seq, p, q, delta_list=[0.5, 0.8])


class TestReverseHolder:
    def test_zero_cutoff(self):
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.3], p, q)
        rep = reverse_holder_check(list(seq.terms), [GridFunction(dom, np.zeros(dom.shape))],
                                   p, q, s=2.5)
        (_, lhs, rhs, ok), = rep.rows
        assert lhs == 0.0 and rhs == 0.0 and ok

    def test_unit_cutoff_bounds_s(self):
        dom, p, q = _const_critical(192)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.3], p, q)
        s = talenti_constant(2, 1.5)
        ones = GridFunction(dom, np.ones(dom.shape))
        rep = reverse_holder_check(list(seq.terms), [ones], p, q, s=s)
        (_, lhs, rhs, ok), = rep.rows
        assert lhs == pytest.approx(s, rel=1e-6)   # nu has unit total mass
        assert rhs >= s                            # gradient side dominates
        assert ok

    def test_rejects_overflowing_node_masses(self):
        # w |u|^q passes the float range on the bump's core: the nu masses
        # are rejected where they are formed, with no numpy warning
        dom, p, q = _const_critical(64)
        u = GridFunction(dom, 1e80 * smooth_bump(dom.distance_from((0.0, 0.0)) / 0.5))
        ones = GridFunction(dom, np.ones(dom.shape))
        with pytest.raises(ValueError, match="overflows"):
            reverse_holder_check([u], [ones], p, q, s=2.5)

    def test_centered_cutoffs(self):
        dom, p, q = _const_critical(192)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.35, 0.25, 0.15], p, q)
        rho = dom.distance_from((0.0, 0.0))
        cutoffs = [GridFunction(dom, cutoff_profile(0.5)(rho / 0.9)),
                   GridFunction(dom, cutoff_profile(0.4)(rho / 0.6))]
        rep = reverse_holder_check(list(seq.terms), cutoffs, p, q,
                                   s=talenti_constant(2, 1.5))
        assert rep.all_within


class TestClassifyDichotomy:
    def test_constant_sequence_converges(self):
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4], p, q)
        verdict = classify_dichotomy([seq.terms[0]] * 4, q)
        assert verdict.kind == "strongly_convergent"
        assert all(d == 0 for d in verdict.diffs)

    def test_bubble_sequence_concentrates(self):
        dom, p, q = _const_critical(256)
        h = max(dom.h)
        seq = make_bubbles(smooth_bump, (0.1, 0.2),
                           [0.5, 0.25, 0.125, 0.0625, 4 * h], p, q)
        verdict = classify_dichotomy(list(seq.terms), q)
        assert verdict.kind == "single_atom"
        assert abs(verdict.center[0] - 0.1) <= h
        assert abs(verdict.center[1] - 0.2) <= h

    def test_translating_bump_is_inconclusive(self):
        dom, p, q = _const_critical(128)
        terms = []
        for k in range(4):
            c = (-0.45 + 0.3 * k, 0.0)
            f = GridFunction(dom, smooth_bump(dom.distance_from(c) / 0.4),
                             dirichlet=True)
            nv = luxemburg_norm(f, q).value
            terms.append(f.with_values(f.values / nv))
        verdict = classify_dichotomy(terms, q)
        assert verdict.kind == "inconclusive"

    @pytest.mark.parametrize("kind", ["bubbles", "translating"])
    def test_masses_are_the_full_grid_probe_masses(self, kind, monkeypatch):
        dom, p, q = _const_critical(128)
        h = max(dom.h)
        if kind == "bubbles":
            terms = list(make_bubbles(smooth_bump, (0.1, 0.2), [0.5, 0.25, 8 * h], p, q).terms)
        else:
            terms = []
            for k in range(3):
                f = GridFunction(dom, smooth_bump(dom.distance_from((-0.3 + 0.3 * k, 0.1)) / 0.4),
                                 dirichlet=True)
                terms.append(f.with_values(f.values / luxemburg_norm(f, q).value))
        verdict = classify_dichotomy(terms, q)
        assert verdict.kind == {"bubbles": "single_atom", "translating": "inconclusive"}[kind]
        monkeypatch.setattr(concentration, "densest_ball", full_grid_probe)
        assert classify_dichotomy(terms, q) == verdict

    def test_rejects_unnormalized_input(self):
        dom, p, q = _const_critical(128)
        seq = make_bubbles(smooth_bump, (0.0, 0.0), [0.4, 0.3], p, q)
        bad = [t.with_values(2.0 * t.values) for t in seq.terms]
        with pytest.raises(ValueError, match="unit q-norm"):
            classify_dichotomy(bad, q)


def _unit_bubble(res):
    _, p, q = _const_critical(res)
    return make_bubbles(smooth_bump, (0.0, 0.0), [0.5], p, q).terms[0]


# each input check of the module: the call that trips it and its message
INPUT_CHECKS = {
    "talenti_profile_r": (lambda: talenti_profile(2, 2.5), "need 1 < r < n"),
    "bubbles_p_q_domains": (lambda: make_bubbles(
        smooth_bump, (0.0, 0.0), [0.5], _const_critical(32)[1], _const_critical(48)[2]),
        "p and q live on different domains"),
    "bubbles_vanish": (lambda: make_bubbles(
        np.zeros_like, (0.0, 0.0), [0.5], *_const_critical(32)[1:]), "vanishes on the grid"),
    "classify_one_term": (lambda: classify_dichotomy(
        [_unit_bubble(32)], _const_critical(32)[2]), "at least two"),
    "classify_two_domains": (lambda: classify_dichotomy(
        [_unit_bubble(32), _unit_bubble(48)], _const_critical(32)[2]),
        "sequence elements live on different domains"),
}


@pytest.mark.parametrize("check", sorted(INPUT_CHECKS))
def test_input_checks(check):
    call, message = INPUT_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        call()
