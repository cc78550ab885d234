import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blab import (
    BlaschkeProduct,
    BoundReport,
    BoundarySet,
    DomainError,
    EmptyRegionError,
    ModelFunction,
    StolzSpec,
    chord_check,
    envelope_fit,
    envelope_grid,
    lemma_bound,
    lemma_check,
    lemma_lhs,
    schwarz_pick_bound,
    schwarz_pick_check,
    theorem_bound,
    theorem_check,
    three_point_check,
)

GAUGES = [
    ModelFunction.linear(),
    ModelFunction.truncated_power(2.0),
    ModelFunction.exp_tangential(1.0),
]

nonneg = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
disk_point = st.builds(
    lambda r, th: r * complex(math.cos(th), math.sin(th)),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
circle_point = st.builds(
    lambda th: complex(math.cos(th), math.sin(th)),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


class TestThreePoint:
    def test_hand_equal_arguments(self):
        assert three_point_check(ModelFunction.linear(), 0.5, 0.5, 0.5)

    def test_hand_linear_unbalanced(self):
        # phi(0.5) = 0.5 <= phi(1.5) = 1.5
        assert three_point_check(ModelFunction.linear(), 1.5, 0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            three_point_check(ModelFunction.linear(), -0.1, 0.0, 0.0)

    @pytest.mark.parametrize("phi", GAUGES, ids=lambda p: p.kind)
    @given(x=nonneg, y=nonneg, u=nonneg)
    @settings(max_examples=120, deadline=None)
    def test_holds_for_all_gauges(self, phi, x, y, u):
        assert three_point_check(phi, x, y, u)

    def test_vectorized(self):
        rng = np.random.default_rng(3)
        x, y, u = rng.uniform(0, 2, (3, 500))
        out = three_point_check(ModelFunction.truncated_power(2.0), x, y, u)
        assert out.shape == (500,) and out.all()


class TestChord:
    def test_hand_cases(self):
        # z = 0: |t| <= 2|t| for any unimodular t
        assert chord_check(0.0, 0.5j, 1.0)
        # lam = 0: |t - z| <= 2|t|, true since |t - z| < 2
        assert chord_check(0.9, 0.0, -1.0)

    def test_vectorized_bulk(self):
        rng = np.random.default_rng(11)
        n = 100_000
        z = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        lam = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        t = np.exp(2j * np.pi * rng.uniform(0, 1, n))
        assert chord_check(z, lam, t).all()

    @given(z=disk_point, lam=disk_point, t=circle_point)
    @settings(max_examples=300, deadline=None)
    def test_holds_everywhere(self, z, lam, t):
        assert chord_check(z, lam, t)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            chord_check(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            chord_check(0.0, 0.0, 0.5)  # t off the circle


class TestLemmaPointwise:
    def test_lhs_at_disk_center(self):
        # z = 0: phi(1/3) / 1 with t = 1, any lam modulus
        val = lemma_lhs(0.0, 1.0, 0.5, ModelFunction.linear())
        assert val == pytest.approx(1.0 / 3.0)

    def test_lhs_at_vertex_lambda(self):
        # lam = 0: phi(|t|/3) / 1 = phi(1/3)
        val = lemma_lhs(0.7j, 1.0, 0.0, ModelFunction.linear())
        assert val == pytest.approx(np.abs(1.0 - 0.7j * 0.0) / 3.0 / abs(1.0 - 0.0))
        assert val == pytest.approx(1.0 / 3.0)

    def test_lhs_allows_circle_z(self):
        # z on the circle is legal; only lam must stay interior
        val = lemma_lhs(1.0, 1.0, 0.5, ModelFunction.linear())
        assert val == pytest.approx((0.5 / 3.0) / 0.5)

    def test_lhs_rejects_exterior(self):
        with pytest.raises(DomainError):
            lemma_lhs(1.5, 1.0, 0.0, ModelFunction.linear())
        with pytest.raises(DomainError):
            lemma_lhs(0.0, 1.0, 1.0, ModelFunction.linear())

    def test_bound_constant(self):
        assert lemma_bound(ModelFunction.linear(), 1.0) == 3.0
        assert lemma_bound(ModelFunction.truncated_power(2.0), 0.5) == 4.5

    @pytest.mark.parametrize("phi", GAUGES, ids=lambda p: p.kind)
    def test_gauge_chain_reaches_boundary_distance(self, phi):
        # phi(d(z,E)/6) <= phi(|t - z|lam||/3) for t in E: the step that turns
        # the sampled lemma into the derivative bound denominator
        rng = np.random.default_rng(29)
        E = BoundarySet.from_points([0.4])
        t = complex(np.exp(0.4j))
        for _ in range(200):
            z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            lam = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            lhs = phi(E.distance(z) / 6.0)
            rhs = phi(abs(t - z * abs(lam)) / 3.0)
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


class TestLemmaSampled:
    def test_no_violations_across_gauges(self):
        for i, (phi, k) in enumerate(
            [
                (ModelFunction.linear(), 1.0),
                (ModelFunction.truncated_power(2.0), 0.5),
                (ModelFunction.exp_tangential(1.0), 1.0),
            ]
        ):
            spec = StolzSpec.at_vertex(phi, 0.3, k)
            rep = lemma_check(spec, 5000, seed=40 + i)
            assert rep.samples == 5000
            assert rep.violations == 0
            assert 0.0 < rep.worst_ratio <= 1.0 + 1e-12

    def test_witness_list_sorted_and_capped(self):
        spec = StolzSpec.at_vertex(ModelFunction.truncated_power(2.0), 0.0, 1.0)
        rep = lemma_check(spec, 3000, seed=7, keep=6)
        assert len(rep.worst_k) == 6
        ratios = [w["ratio"] for w in rep.worst_k]
        assert ratios == sorted(ratios, reverse=True)
        assert rep.worst_witness == rep.worst_k[0]
        assert set(rep.worst_k[0]) == {"ratio", "z", "t", "lambda"}

    def test_deterministic(self):
        spec = StolzSpec.at_vertex(ModelFunction.exp_tangential(0.5), 1.0, 2.0)
        a = lemma_check(spec, 2000, seed=13)
        b = lemma_check(spec, 2000, seed=13)
        assert a.to_payload() == b.to_payload()
        assert a.worst_k == b.worst_k

    def test_empty_region(self):
        spec = StolzSpec.at_vertex(ModelFunction.linear(), 0.0, 0.5)
        with pytest.raises(EmptyRegionError):
            lemma_check(spec, 100, seed=0)

    def test_needs_single_vertex(self):
        E = BoundarySet.from_arcs([(0.0, 1.0)])
        spec = StolzSpec(ModelFunction.linear(), E, 1.0)
        with pytest.raises(DomainError, match="vertex"):
            lemma_check(spec, 100, seed=0)
        two = StolzSpec(ModelFunction.linear(), BoundarySet.from_points([0.0, 1.0]), 1.0)
        with pytest.raises(DomainError, match="vertex"):
            lemma_check(two, 100, seed=0)

    def test_degenerate_window_pins_lambda_to_radius(self):
        # linear gauge at K = 1 admits only the radius itself
        spec = StolzSpec.at_vertex(ModelFunction.linear(), 0.0, 1.0)
        rep = lemma_check(spec, 1000, seed=3)
        assert rep.violations == 0
        for w in rep.worst_k:
            lam = w["lambda"]
            assert abs(lam.imag) < 1e-6
            assert lam.real > 0.0

    @pytest.mark.parametrize("seed", [-1, None, 1.5, True, (13, -2)])
    def test_seed_components_must_be_nonnegative_integers(self, seed):
        spec = StolzSpec.at_vertex(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError, match="seed component must be a nonnegative integer"):
            lemma_check(spec, 100, seed=seed)

    def test_numpy_integer_seed_is_the_integer(self):
        spec = StolzSpec.at_vertex(ModelFunction.exp_tangential(0.5), 1.0, 2.0)
        a = lemma_check(spec, 500, seed=np.int64(13))
        assert a.to_payload() == lemma_check(spec, 500, seed=13).to_payload()

    def test_sample_count_validation(self):
        spec = StolzSpec.at_vertex(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError):
            lemma_check(spec, 0, seed=1)


class TestSchwarzPick:
    def test_hand_equality_single_zero_origin(self):
        # B(0) = 0.5 for the zero 0.5; bound (1 - 0.25)/1 = 0.75 = |B'(0)|
        p = BlaschkeProduct([0.5])
        assert schwarz_pick_bound(p, 0.0) == pytest.approx(0.75)
        assert abs(p.derivative(0.0)) == pytest.approx(0.75)

    def test_matches_naive_formula_mid_disk(self):
        p = BlaschkeProduct([0.5, -0.3 + 0.4j, 0.1j])
        rng = np.random.default_rng(5)
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        naive = (1.0 - np.abs(p(z)) ** 2) / (1.0 - np.abs(z) ** 2)
        assert np.allclose(schwarz_pick_bound(p, z), naive, rtol=1e-10)

    def test_at_a_zero(self):
        # B(a) = 0 so the bound is 1/(1 - |a|^2), and |B'(a)| stays below it
        a = 0.6
        p = BlaschkeProduct([a, -0.2])
        got = schwarz_pick_bound(p, a)
        assert got == pytest.approx((1.0 - 0.0) / (1.0 - a * a), rel=1e-12)
        assert abs(p.derivative(a)) <= got

    def test_near_rim_no_cancellation(self):
        p = BlaschkeProduct([0.5, -0.3 + 0.4j])
        z = (1.0 - 1e-12) * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        bound = schwarz_pick_bound(p, z)
        assert np.all(np.isfinite(bound)) and np.all(bound > 0.0)
        assert schwarz_pick_check(p, z).all()

    def test_check_accepts_scalar_and_raises_outside(self):
        p = BlaschkeProduct([0.4])
        assert schwarz_pick_check(p, 0.2) is True
        with pytest.raises(DomainError):
            schwarz_pick_bound(p, 1.0)

    def test_accepts_raw_zero_list(self):
        assert schwarz_pick_bound([0.5], 0.0) == pytest.approx(0.75)


class TestTheoremBound:
    def test_hand_value_center(self):
        spec = StolzSpec.at_vertex(ModelFunction.linear(), 0.0, 1.0)
        lhs, rhs = theorem_bound([0.5], 0.0, spec)
        assert lhs == pytest.approx(0.75)
        # 2 * (2*1 + 1)^2 * 0.5 / (1/6)^2 = 9 * 36 = 324
        assert rhs == pytest.approx(324.0)

    def test_membership_enforced_and_waivable(self):
        spec = StolzSpec.at_vertex(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError, match="zero #0"):
            theorem_bound([0.9j], 0.0, spec)
        lhs, rhs = theorem_bound([0.9j], 0.0, spec, check_zeros=False)
        assert np.isfinite(rhs)

    def test_exterior_z_rejected(self):
        spec = StolzSpec.at_vertex(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError):
            theorem_bound([0.5], 1.0 + 0j, spec)

    def test_vacuous_infinity_under_exp_gauge(self):
        # exp gauge underflows next to the vertex: bound +inf, vacuously true
        spec = StolzSpec.at_vertex(ModelFunction.exp_tangential(1.0), 0.0, 1.0)
        lhs, rhs = theorem_bound([0.5], 1.0 - 1e-9, spec)
        assert np.isfinite(lhs) and np.isinf(rhs)

    def test_power_branch_constant_identity(self):
        # below the knee: rhs * (d/6)^(2 gamma) == 2 (2C + K)^2 alpha
        gamma, K = 2.0, 1.0
        phi = ModelFunction.truncated_power(gamma)
        spec = StolzSpec.at_vertex(phi, 0.0, K)
        zeros = [0.5, 0.25]
        alpha = 0.5 + 0.75
        E = spec.boundary
        rng = np.random.default_rng(19)
        z = np.sqrt(rng.uniform(0, 1, 300)) * np.exp(2j * np.pi * rng.uniform(0, 1, 300))
        _, rhs = theorem_bound(zeros, z, spec, check_zeros=False)
        d = E.distance(z)
        const = 2.0 * lemma_bound(phi, K) ** 2 * alpha
        assert np.allclose(rhs * (d / 6.0) ** (2 * gamma), const, rtol=1e-12)

    def test_check_report_shape(self):
        spec = StolzSpec.at_vertex(ModelFunction.linear(), 0.0, 1.0)
        rng = np.random.default_rng(23)
        z = 0.8 * np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
        rep = theorem_check([0.5, 0.25], z, spec)
        assert isinstance(rep, BoundReport)
        assert rep.samples == 500 and rep.violations == 0
        assert set(rep.worst_witness) == {"ratio", "z", "lhs", "rhs"}
        assert 0.0 < rep.worst_ratio < 1.0
        assert rep.worst_witness["lhs"] <= rep.worst_witness["rhs"]

    def test_check_near_rim_and_near_vertex(self):
        spec = StolzSpec.at_vertex(ModelFunction.truncated_power(2.0), 0.0, 1.0)
        radii = 1.0 - 10.0 ** np.linspace(-12, -0.5, 200)
        z = radii * np.exp(1j * np.linspace(0.0, 2 * np.pi, 200))
        rep = theorem_check([0.5, 0.75, 0.875], z, spec)
        assert rep.violations == 0


class TestEnvelope:
    def setup_method(self):
        self.E = BoundarySet.from_points([0.0])
        self.p = BlaschkeProduct([0.9, 0.95, 0.99, 0.5j])

    def test_holds_on_fit_grid_by_construction(self):
        grid = envelope_grid(self.E)
        fit = envelope_fit(self.p, self.E, 1.0, grid)
        vals = np.abs(self.p.derivative(grid))
        env = fit.envelope(self.E.distance(grid))
        assert np.all(vals <= env * (1.0 + 1e-12))
        assert fit.grid_size == grid.size
        assert fit.c1 > 0.0 and fit.c2 >= 0.0 and fit.rho == 1.0

    def test_c2_zero_when_c1_caps_everything(self):
        # zeros crowd angle 0 while E sits at -1: the derivative peaks far
        # from E, so the far cap alone is the envelope
        E = BoundarySet.from_points([np.pi])
        fit = envelope_fit(BlaschkeProduct([0.5]), E, 1.0, envelope_grid(E))
        assert fit.c2 == 0.0

    def test_guards(self):
        grid = envelope_grid(self.E)
        with pytest.raises(DomainError):
            envelope_fit(self.p, self.E, 0.0, grid)
        with pytest.raises(DomainError):
            envelope_fit(self.p, self.E, 1.0, np.array([], dtype=complex))
        with pytest.raises(DomainError):
            envelope_fit(self.p, self.E, 1.0, np.array([1.5 + 0j]))
        with pytest.raises(DomainError, match="touches"):
            envelope_fit(self.p, self.E, 1.0, np.array([1.0 + 0j, 0.1j]))
        with pytest.raises(DomainError, match="c1"):
            envelope_fit(self.p, self.E, 1.0, np.array([0.999 + 0j]))

    def test_envelope_evaluation(self):
        fit = envelope_fit(self.p, self.E, 2.0, envelope_grid(self.E))
        with pytest.raises(DomainError):
            fit.envelope(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = fit.envelope(2.0)
            assert np.isfinite(far)
            if fit.c2 > 0.0:
                assert np.isinf(fit.envelope(1e-300))

    def test_grid_properties(self):
        a = envelope_grid(self.E, depth=10, rays=8, ring=32)
        b = envelope_grid(self.E, depth=10, rays=8, ring=32)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= 1.0 + 1e-15)
        assert np.all(self.E.distance(a) > 0.0)

    def test_grid_covers_arcs(self):
        E = BoundarySet.from_arcs([(0.0, 1.0)])
        grid = envelope_grid(E, depth=6, rays=4, ring=16)
        # endpoint and midpoint anchors all sprout rays
        assert grid.size > 16


class TestReportPayload:
    def test_complex_flattening(self):
        w = {"ratio": 0.5, "z": 0.1 + 0.2j, "t": 1.0 + 0j, "lambda": 0.3 + 0j}
        rep = BoundReport(samples=10, violations=0, worst_ratio=0.5, worst_witness=w)
        payload = rep.to_payload()
        assert payload["worst_witness"]["z"] == [0.1, 0.2]
        assert payload["worst_witness"]["lambda"] == [0.3, 0.0]
        assert payload["samples"] == 10

    def test_none_witness(self):
        rep = BoundReport(samples=0, violations=0, worst_ratio=0.0, worst_witness=None)
        assert rep.to_payload()["worst_witness"] is None
