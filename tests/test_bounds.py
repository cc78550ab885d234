import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blab.bounds
from blab import (
    BlaschkeProduct,
    BoundReport,
    BoundarySet,
    DomainError,
    EmptyRegionError,
    ModelFunction,
    PowerLaw,
    SamplingError,
    StolzSpec,
    chord_check,
    envelope_fit,
    envelope_grid,
    in_stolz,
    lemma_bound,
    lemma_check,
    lemma_lhs,
    sample_zeros,
    schwarz_pick_bound,
    schwarz_pick_check,
    theorem_bound,
    theorem_check,
    three_point_check,
    truncation_tail,
)
from blab import cli
from blab.bounds import _LazyDerivative
from blab.products import _block_width
from test_regions import vertex_spec

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
            spec = vertex_spec(phi, 0.3, k)
            rep = lemma_check(spec, 5000, seed=40 + i)
            assert rep.samples == 5000
            assert rep.violations == 0
            assert 0.0 < rep.worst_ratio <= 1.0 + 1e-12

    def test_witness_list_sorted_and_capped(self):
        spec = vertex_spec(ModelFunction.truncated_power(2.0), 0.0, 1.0)
        rep = lemma_check(spec, 3000, seed=7)
        assert len(rep.worst_k) == 10
        ratios = [w["ratio"] for w in rep.worst_k]
        assert ratios == sorted(ratios, reverse=True)
        assert rep.worst_witness == rep.worst_k[0]
        assert set(rep.worst_k[0]) == {"ratio", "z", "t", "lambda"}

    def test_deterministic(self):
        spec = vertex_spec(ModelFunction.exp_tangential(0.5), 1.0, 2.0)
        a = lemma_check(spec, 2000, seed=13)
        b = lemma_check(spec, 2000, seed=13)
        assert a.to_payload() == b.to_payload()
        assert a.worst_k == b.worst_k

    def test_empty_region(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 0.5)
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
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        rep = lemma_check(spec, 1000, seed=3)
        assert rep.violations == 0
        for w in rep.worst_k:
            lam = w["lambda"]
            assert abs(lam.imag) < 1e-6
            assert lam.real > 0.0

    @pytest.mark.parametrize("seed", [-1, None, 1.5, True, (13, -2)])
    def test_seed_components_must_be_nonnegative_integers(self, seed):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError, match="seed component must be a nonnegative integer"):
            lemma_check(spec, 100, seed=seed)

    def test_numpy_integer_seed_is_the_integer(self):
        spec = vertex_spec(ModelFunction.exp_tangential(0.5), 1.0, 2.0)
        a = lemma_check(spec, 500, seed=np.int64(13))
        assert a.to_payload() == lemma_check(spec, 500, seed=13).to_payload()

    def test_sample_count_validation(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError):
            lemma_check(spec, 0, seed=1)

    def test_admissible_radii_too_rare(self):
        # phi(u) = u^2 <= K u needs u <= 1e-12: no uniform draw gets there
        spec = vertex_spec(ModelFunction.truncated_power(2.0), 0.0, 1e-12)
        with pytest.raises(SamplingError, match=r"admissible radii too rare: 0 of \d+ draws"):
            lemma_check(spec, 10, seed=1)


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


NAN = complex(np.nan, 0.0)
NAN_SPEC = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
NAN_PRODUCT = BlaschkeProduct([0.5, -0.3j])
# each disk or circle check must refuse a nan point: nan fails every comparison
NAN_CALLS = {
    "evaluate": lambda: NAN_PRODUCT.evaluate(NAN),
    "derivative": lambda: NAN_PRODUCT.derivative(NAN),
    "truncation_tail": lambda: truncation_tail([0.5], NAN),
    "theorem_check": lambda: theorem_check(NAN_PRODUCT, [0.1, NAN, 0.2j], NAN_SPEC,
                                           check_zeros=False),
    "theorem_bound": lambda: theorem_bound(NAN_PRODUCT, NAN, NAN_SPEC, check_zeros=False),
    "schwarz_pick_bound": lambda: schwarz_pick_bound(NAN_PRODUCT, NAN),
    "schwarz_pick_check": lambda: schwarz_pick_check(NAN_PRODUCT, NAN),
    "chord_check/z": lambda: chord_check(NAN, 0.5, 1.0),
    "chord_check/lam": lambda: chord_check(0.1, NAN, 1.0),
    "chord_check/t": lambda: chord_check(0.1, 0.5, NAN),
    "lemma_lhs/z": lambda: lemma_lhs(NAN, 1.0, 0.5, ModelFunction.linear()),
    "lemma_lhs/t": lambda: lemma_lhs(0.1, NAN, 0.5, ModelFunction.linear()),
    "lemma_lhs/lam": lambda: lemma_lhs(0.1, 1.0, NAN, ModelFunction.linear()),
    "envelope_fit": lambda: envelope_fit(NAN_PRODUCT, NAN_SPEC.boundary, 1.0,
                                         np.append(envelope_grid(NAN_SPEC.boundary), NAN)),
    "in_stolz": lambda: in_stolz([0.5, NAN], NAN_SPEC),
}


@pytest.mark.parametrize("call", sorted(NAN_CALLS))
def test_nan_points_are_refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            NAN_CALLS[call]()


class TestTheoremBound:
    def test_hand_value_center(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        lhs, rhs = theorem_bound([0.5], 0.0, spec)
        assert lhs == pytest.approx(0.75)
        # 2 * (2*1 + 1)^2 * 0.5 / (1/6)^2 = 9 * 36 = 324
        assert rhs == pytest.approx(324.0)

    def test_membership_enforced_and_waivable(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError, match="zero #0"):
            theorem_bound([0.9j], 0.0, spec)
        lhs, rhs = theorem_bound([0.9j], 0.0, spec, check_zeros=False)
        assert np.isfinite(rhs)

    def test_exterior_z_rejected(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        with pytest.raises(DomainError):
            theorem_bound([0.5], 1.0 + 0j, spec)

    def test_vacuous_infinity_under_exp_gauge(self):
        # exp gauge underflows next to the vertex: bound +inf, vacuously true
        spec = vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 1.0)
        lhs, rhs = theorem_bound([0.5], 1.0 - 1e-9, spec)
        assert np.isfinite(lhs) and np.isinf(rhs)

    def test_power_branch_constant_identity(self):
        # below the knee: rhs * (d/6)^(2 gamma) == 2 (2C + K)^2 alpha
        gamma, K = 2.0, 1.0
        phi = ModelFunction.truncated_power(gamma)
        spec = vertex_spec(phi, 0.0, K)
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
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        rng = np.random.default_rng(23)
        z = 0.8 * np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
        rep = theorem_check([0.5, 0.25], z, spec)
        assert isinstance(rep, BoundReport)
        assert rep.samples == 500 and rep.violations == 0
        assert set(rep.worst_witness) == {"ratio", "z", "lhs", "rhs"}
        assert 0.0 < rep.worst_ratio < 1.0
        assert rep.worst_witness["lhs"] <= rep.worst_witness["rhs"]

    def test_check_refuses_an_empty_point_array(self):
        # as envelope_fit refuses an empty grid, and before any work: even
        # before the zeros are read
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        for zeros in ([0.5], [2.0]):
            with pytest.raises(DomainError, match="^empty point array$"):
                theorem_check(zeros, np.array([]), spec)

    def test_check_near_rim_and_near_vertex(self):
        spec = vertex_spec(ModelFunction.truncated_power(2.0), 0.0, 1.0)
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
        # a grid point on E is vacuous: it changes neither c1 nor c2
        on_e = envelope_fit(self.p, self.E, 1.0, np.concatenate([[1.0 + 0j], grid]))
        fit = envelope_fit(self.p, self.E, 1.0, grid)
        assert (on_e.c1, on_e.c2, on_e.grid_size) == (fit.c1, fit.c2, grid.size + 1)
        with pytest.raises(DomainError, match="c1"):
            envelope_fit(self.p, self.E, 1.0, np.array([0.999 + 0j]))

    @pytest.mark.parametrize("rho", [np.nan, np.inf])
    def test_non_finite_rho_is_refused(self, rho):
        # nan would fit c2 = nan; inf would warn on 0 * inf and do the same
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                envelope_fit(self.p, self.E, rho, envelope_grid(self.E))

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

    @pytest.mark.parametrize("name", ["depth", "rays", "ring"])
    def test_grid_counts_are_nonnegative(self, name):
        # a negative count is refused by name; zero is a valid count
        with pytest.raises(DomainError, match=f"^{name} must be nonnegative, got -1$"):
            envelope_grid(self.E, **{name: -1})
        assert envelope_grid(self.E, **{name: 0}).size > 0

    def test_grid_covers_arcs(self):
        E = BoundarySet.from_arcs([(0.0, 1.0)])
        grid = envelope_grid(E, depth=6, rays=4, ring=16)
        # endpoint and midpoint anchors all sprout rays
        assert grid.size > 16


def full_fit(product, boundary_set, rho, grid, vals=None):
    """(c1, c2, grid size) with |B'| evaluated at every grid point: the reference."""
    d = boundary_set.distance(grid)
    if vals is None:
        vals = np.abs(product.derivative(grid))
    c1 = float(np.max(vals[d >= 0.5]))
    with np.errstate(divide="ignore"):
        logplus = np.maximum(np.log(vals / c1, where=vals > 0,
                                    out=np.full_like(vals, -np.inf)), 0.0)
    return c1, max(float(np.max(d ** rho * logplus)), 0.0), grid.size


def pruned_fit(product, boundary_set, rho, grid):
    fit = envelope_fit(product, boundary_set, rho, grid)
    return fit.c1, fit.c2, fit.grid_size


@pytest.fixture
def evaluated(monkeypatch):
    """Sizes of the point arrays passed to BlaschkeProduct.derivative."""
    sizes = []
    derivative = BlaschkeProduct.derivative

    def counted(self, z):
        sizes.append(np.size(z))
        return derivative(self, z)

    monkeypatch.setattr(BlaschkeProduct, "derivative", counted)
    return sizes


def vertex_product(seed, count=60):
    spec = StolzSpec(ModelFunction.exp_tangential(1.0), BoundarySet.from_points([0.0]), 1.0)
    return BlaschkeProduct(sample_zeros(spec, count, seed=seed, law=PowerLaw(2.0, 0.5)))


def alone_differs(product, z):
    """True where B'(z) alone in a call has other bits than inside a block."""
    return product.derivative(z[None])[0] != product.derivative(np.array([z, 0.0]))[0]


def tight_ceiling(product, z):
    lazy = _LazyDerivative(product, z)
    lazy.tighten(np.arange(z.size))
    return lazy.ceiling


class TestCeiling:
    """The pruned passes skip a point only where its ceiling is below what
    is needed, so every ceiling must bound the computed |B'| there."""

    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 2.0 ** -30, 2.0 ** -40],
                             ids=["1e-6", "1e-9", "2^-30", "2^-40"])
    def test_ceiling_bounds_the_computed_derivative(self, gap):
        rng = np.random.default_rng(int(-np.log2(gap)))
        for n in (1, 2, 5, 40):
            # a cluster of zeros at gaps about `gap` (one of them repeated), and interior zeros
            theta = rng.uniform(0, 2 * np.pi) + gap * rng.uniform(-50, 50, n)
            zeros = (1.0 - gap * rng.uniform(1, 4, n)) * np.exp(1j * theta)
            zeros[n // 2:] = np.sqrt(rng.uniform(0, 1, n - n // 2)) * np.exp(
                2j * np.pi * rng.uniform(0, 1, n - n // 2))
            zeros = np.append(zeros, zeros[0])
            product = BlaschkeProduct(zeros)
            steps = gap * np.logspace(-17, 0, 240) * np.exp(2j * np.pi * rng.uniform(0, 1, 240))
            rim = (1.0 - np.logspace(-1, -12, 200)) * np.exp(1j * (theta[0] + np.linspace(-1, 1, 200)))
            z = np.concatenate([
                zeros, (zeros[:, None] + steps).ravel(),  # on and stacked next to the zeros
                rim, np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))])
            z = z[np.abs(z) < 1.0]
            ceiling = tight_ceiling(product, z)
            assert np.all(np.abs(product.derivative(z)) <= ceiling)
            assert np.isfinite(ceiling).all()

    def test_ceiling_is_the_factor_sum_away_from_the_zeros(self):
        # far from the zeros sum_k |b_k'| is well under 1/(1 - |z|^2)
        product = BlaschkeProduct([0.9, 0.9j, -0.5])
        z = 0.95 * np.exp(1j * np.linspace(3.5, 4.5, 50))
        ceiling = tight_ceiling(product, z)
        s = sum((1.0 - abs(a) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2 for a in product.zeros)
        assert np.all(ceiling < 0.5 / (1.0 - np.abs(z) ** 2))
        np.testing.assert_allclose(ceiling, s, rtol=1e-5)


class TestEnvelopePruning:
    """envelope_fit evaluates |B'| only where it can set c1 or c2; the fit
    must be the full evaluation's to the bit."""

    @pytest.mark.parametrize("depth", [8, 10])
    def test_cantor_grids_match_the_full_evaluation(self, depth, evaluated):
        E = BoundarySet.cantor([0.0, 2.0 * np.pi], 1.0 / 3.0, depth)
        spec = StolzSpec(ModelFunction.exp_tangential(1.0), E, 1.0)
        grid = envelope_grid(E, depth=12, rays=4, ring=32)
        for seed in (1, 2, 3):
            product = BlaschkeProduct(sample_zeros(spec, 60, seed=seed, law=PowerLaw(2.0, 0.5)))
            vals = np.abs(product.derivative(grid))
            for rho in (0.5, 1.0, 2.0):
                evaluated.clear()
                assert pruned_fit(product, E, rho, grid) == full_fit(product, E, rho, grid, vals)
                if depth == 10:  # 1,263 of 331,808 points at seed 1, rho 1; c1 < 1 at seed 3
                    assert sum(evaluated) <= (0.1 if seed == 3 else 0.01) * grid.size

    @pytest.mark.parametrize("sets", ["c1", "c2"])
    def test_lone_last_point_keeps_the_bits_of_the_full_pass(self, sets):
        # a grid 1 mod the block width leaves its last point alone in the full
        # pass unless it joins the block before it; the point that sets c1 (or
        # c2) goes last, so the fit reads its bits
        E = BoundarySet.from_points([0.0])
        rng = np.random.default_rng(5)
        for seed in range(1, 6):
            product = vertex_product(seed)
            cols = _block_width(product.degree)
            base = np.concatenate([envelope_grid(E), np.sqrt(rng.uniform(0, 1, 2 * cols)) * np.exp(
                2j * np.pi * rng.uniform(0, 1, 2 * cols))])
            d, vals = E.distance(base), np.abs(product.derivative(base))
            c1 = np.max(vals[d >= 0.5])
            with np.errstate(divide="ignore"):
                key = np.where(d >= 0.5, vals, -1.0) if sets == "c1" else d * np.log(vals / c1)
            k = np.argmax(key)
            grid = np.append(np.delete(base, k)[:2 * cols], base[k])
            assert grid.size % cols == 1 and not alone_differs(product, grid[-1])
            assert pruned_fit(product, E, 1.0, grid) == full_fit(product, E, 1.0, grid)

    def test_single_survivor_is_not_evaluated_alone(self, evaluated):
        # c1 comes from next to the zero at -0.9, so that of the points near
        # E = {0} only the one at radius 0.95 has a positive bound; evaluated
        # alone, it has the bits it has inside a block
        E = BoundarySet.from_points([0.0])
        product = BlaschkeProduct([-0.9] + [0.1 * np.exp(2j * np.pi * k / 9) for k in range(9)])
        survivor = 0.95 * np.exp(0.01j)
        assert not alone_differs(product, survivor)
        far = np.concatenate([[-0.9 + 0.001j], 0.25 * np.exp(2j * np.pi * np.arange(16) / 16)])
        near = np.array([0.6, 0.65 * np.exp(0.1j), 0.7, survivor])
        grid = np.concatenate([far, near])
        evaluated.clear()
        got = pruned_fit(product, E, 1.0, grid)
        assert evaluated == [far.size, 1]
        assert got == full_fit(product, E, 1.0, grid)
        assert got[1] > 0.0

    def test_points_on_the_circle(self, evaluated):
        # 1 - |z|^2 leaves no room for a Schwarz-Pick bound there: always evaluated
        E = BoundarySet.from_points([0.0])
        product = vertex_product(2)
        zeros = product.zeros.zeros
        rim = np.concatenate([zeros / np.abs(zeros), np.exp(1j * np.linspace(0.05, 6.2, 50))])
        grid = np.concatenate([envelope_grid(E), rim])
        got = pruned_fit(product, E, 1.0, grid)
        assert sum(evaluated) >= rim.size
        assert got == full_fit(product, E, 1.0, grid)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_points_on_zeros_take_the_fallback(self, rho):
        E = BoundarySet.from_points([0.0])
        product = vertex_product(3)
        zeros = product.zeros.zeros
        grid = np.concatenate([zeros[::7], envelope_grid(E), zeros[3::11]])
        assert pruned_fit(product, E, rho, grid) == full_fit(product, E, rho, grid)

    @pytest.mark.parametrize("zeros", [[1.0 - 1e-6],
                                       (1.0 - 1e-6) * np.exp([0.01j, -0.01j])])
    def test_zero_next_to_the_circle_evaluated_on_itself(self, zeros):
        # there the computed |B'| (1 - |z|^2) exceeds 1 by rounding (4.5e-11
        # for the single zero), which the bound's allowance must cover
        E = BoundarySet.from_points([0.0])
        product = BlaschkeProduct(zeros)
        grid = np.concatenate([envelope_grid(E), np.asarray(zeros, dtype=complex)])
        assert pruned_fit(product, E, 1.0, grid) == full_fit(product, E, 1.0, grid)


def full_check(product, z, spec, rtol=1e-9, check_zeros=True):
    """theorem_check with |B'| evaluated at every point: the reference."""
    lhs, rhs = theorem_bound(product, z, spec, check_zeros=check_zeros)
    lhs = np.atleast_1d(np.asarray(lhs))
    rhs = np.atleast_1d(np.asarray(rhs))
    zv = np.atleast_1d(np.asarray(z, dtype=complex))
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.isinf(rhs), 0.0, lhs / rhs)
    bad = lhs > rhs * (1.0 + rtol)
    worst = int(np.argmax(ratio))
    witness = {"ratio": float(ratio[worst]), "z": complex(zv[worst]),
               "lhs": float(lhs[worst]), "rhs": float(rhs[worst])}
    return BoundReport(samples=int(lhs.size), violations=int(np.count_nonzero(bad)),
                       worst_ratio=float(ratio[worst]), worst_witness=witness)


def same_check(product, z, spec, rtol=1e-9, **kw):
    """theorem_check's report is the full evaluation's at tolerance rtol; repr tells
    nan, -0.0 and every bit."""
    got = theorem_check(product, z, spec, **kw)
    assert repr(got) == repr(full_check(product, z, spec, rtol=rtol, **kw))
    return got


ARC = BoundarySet.from_arcs([(0.0, math.pi / 4.0)])


def theorem_products(spec, seed):
    """The products and grids of verify-theorem1 on the README config, at this seed."""
    for j in range(20):
        n = int(np.random.default_rng([seed, 101, j]).integers(2, 201))
        zeros = sample_zeros(spec, n, seed=(seed, j), law=PowerLaw(2.0, 0.5))
        yield BlaschkeProduct(zeros), cli._disk_points(np.random.default_rng([seed, 202, j]), 2000)


class TestTheoremPruning:
    """theorem_check evaluates |B'| only where it can change the report; the
    report must be the full evaluation's to the bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("phi", GAUGES, ids=["linear", "power", "exp"])
    def test_theorem_products_match_the_full_evaluation(self, phi, seed):
        spec = StolzSpec(phi, ARC, 1.0)
        for product, grid in theorem_products(spec, seed):
            same_check(product, grid, spec, check_zeros=False)

    def test_bench_config_evaluates_at_most_a_twentieth(self, tmp_path, evaluated):
        cfg = tmp_path / "theorem.json"
        cfg.write_text(json.dumps({
            "region": {"model": {"kind": "power", "gamma": 2.0}, "K": 1.0,
                       "set": {"arcs": [[0.0, math.pi / 4.0]]}},
            "products": {"count": 20, "min_degree": 2, "max_degree": 200},
            "grid_points": 2000, "law": {"kind": "power", "exponent": 2.0, "scale": 0.5},
            "seed": 1}))
        assert cli.main(["verify-theorem1", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert sum(evaluated) <= 0.05 * 40_000  # 1,280 points

    def test_every_rhs_infinite(self, evaluated):
        # the exp gauge vanishes next to the vertex: every ratio is 0 and only
        # the witness, the first point, is evaluated
        spec = vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 1.0)
        z = (1.0 - np.linspace(1e-9, 5e-9, 50)) * np.exp(1j * np.linspace(-1e-10, 1e-10, 50))
        rep = same_check([0.5, 0.9j], z, spec, check_zeros=False)
        assert evaluated[:-1] == [1]  # the last call is the reference's
        assert rep.worst_ratio == 0.0 and rep.worst_witness["lhs"] > 0.0

    @pytest.mark.parametrize("rtol", [-0.5, -1.0, -3.0])
    def test_negative_rtol_forces_violations(self, rtol, monkeypatch):
        monkeypatch.setattr(blab.bounds, "_THEOREM_RTOL", rtol)
        spec = StolzSpec(ModelFunction.truncated_power(2.0), ARC, 1.0)
        product, grid = next(theorem_products(spec, 2))
        rep = same_check(product, grid, spec, rtol=rtol, check_zeros=False)
        assert rep.violations > 0 if rtol <= -1.0 else rep.violations == 0
        vertex = vertex_spec(ModelFunction.exp_tangential(1.0), 0.0, 1.0)
        z = np.concatenate([grid[:50], 1.0 - np.linspace(1e-9, 5e-9, 10)])
        if rtol < -1.0:  # an infinite rhs times 1 + rtol < 0 is -inf: violated too
            assert same_check(product, z, vertex, rtol=rtol, check_zeros=False).violations == 60

    def test_grid_one_past_a_block_keeps_the_last_points_bits(self, evaluated):
        # a grid 1 mod the block width leaves its last point alone in the full
        # pass unless it joins the block before it; the witness goes last
        spec = StolzSpec(ModelFunction.truncated_power(2.0), ARC, 1.0)
        checked = 0
        for product, grid in theorem_products(spec, 3):
            cols = _block_width(product.degree)
            if 2 * cols + 1 > grid.size:
                continue
            grid = grid[:2 * cols + 1]
            lhs, rhs = theorem_bound(product, grid, spec, check_zeros=False)
            k = int(np.argmax(lhs / rhs))
            grid = np.append(np.delete(grid, k), grid[k])
            assert grid.size % cols == 1 and not alone_differs(product, grid[-1])
            evaluated.clear()
            rep = same_check(product, grid, spec, check_zeros=False)
            assert rep.worst_witness["z"] == grid[-1] and sum(evaluated[:-1]) < grid.size
            checked += 1
        assert checked >= 10

    def test_points_on_zeros_and_next_to_the_circle(self):
        spec = StolzSpec(ModelFunction.truncated_power(2.0), ARC, 1.0)
        product, grid = next(theorem_products(spec, 1))
        zeros = product.zeros.zeros
        radii = 1.0 - np.logspace(-1, -12, 200)
        rim = radii * np.exp(1j * np.linspace(-0.5, 1.5, 200))
        for z in (np.concatenate([zeros, grid[:300]]), np.concatenate([grid[:300], rim]),
                  np.concatenate([rim, zeros * (1.0 + 1e-13)])):
            same_check(product, z, spec, check_zeros=False)

    def test_non_finite_derivative_gives_the_full_result(self, evaluated):
        # next to a zero of modulus 1e-300, a - z is subnormal and B H comes
        # out nan; the leave-one-out sum gives |B'| = |b_1'| |b_2| |b_3| there.
        # The ceilings' derivation does not hold in subnormals, so no point is
        # skipped, though the ratios next to the zero opposite E dwarf that
        # point's ceiling
        spec = StolzSpec(ModelFunction.truncated_power(2.0), ARC, 1.0)
        tiny = 1e-300
        product = BlaschkeProduct([tiny, 0.5, 0.9 * np.exp(3j)])
        z = np.concatenate([0.95 * np.exp(1j * np.linspace(2.5, 3.5, 100)),
                            [tiny * (1.0 + 2.0 ** -52)]])
        assert abs(product.derivative(z[-1])) == pytest.approx(0.45, rel=1e-14)
        evaluated.clear()
        same_check(product, z, spec, check_zeros=False)
        assert sum(evaluated[:-1]) >= z.size  # the last call is the reference's

    def test_scalar_and_two_dimensional_points_and_error_order(self):
        spec = vertex_spec(ModelFunction.linear(), 0.0, 1.0)
        same_check([0.5, 0.25], 0.3 + 0.1j, spec)
        z = 0.5 * np.exp(1j * np.arange(6.0))
        assert theorem_check([0.5, 0.25], z.reshape(2, 3), spec) == same_check([0.5, 0.25], z, spec)
        with pytest.raises(DomainError, match="zero #0"):
            theorem_check([0.9j], 1.5, spec)
        with pytest.raises(DomainError, match="strictly inside"):
            theorem_check([0.9j], 1.5, spec, check_zeros=False)


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
