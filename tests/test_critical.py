import math

import numpy as np
import pytest

import blab.critical
from blab import (
    BlaschkeProduct,
    CriticalSet,
    DomainError,
    RootFindingError,
    SumSeries,
    ZeroSequence,
    blaschke_sum,
    critical_points,
    critical_sum,
    log_weighted_sum,
    protas_sum,
    BoundarySet,
    ModelFunction,
    PowerLaw,
    StolzSpec,
    sample_zeros,
)
from winding import ContourError, argument_principle_count


pv = np.polynomial.polynomial


def expand_rational(product):
    """B = prefactor * P / Q with P = prod (a - z), Q = prod (1 - conj(a) z).

    Returns (p_coeffs, q_coeffs, prefactor), coefficients ascending. The
    expansion loses accuracy for high degrees with zeros near the circle; it
    is an independent cross-check of the factor-wise evaluation.
    """
    if not isinstance(product, BlaschkeProduct):
        product = BlaschkeProduct(product)
    zs = product.zeros.zeros
    p = np.asarray([1.0 + 0.0j])
    q = np.asarray([1.0 + 0.0j])
    for a in zs:
        p = np.convolve(p, np.asarray([a, -1.0], dtype=np.complex128))
        q = np.convolve(q, np.asarray([1.0, -np.conj(a)]))
    return p, q, complex(np.prod(np.conj(zs) / np.abs(zs)))


def rational_value(form, z):
    p, q, pref = form
    return pref * pv.polyval(z, p) / pv.polyval(z, q)


def rational_derivative(form, z):
    """B' from the quotient rule on the expanded coefficients."""
    p, q, pref = form
    num = pv.polyval(z, pv.polyder(p)) * pv.polyval(z, q) - pv.polyval(z, p) * pv.polyval(
        z, pv.polyder(q))
    return pref * num / pv.polyval(z, q) ** 2


def random_product(seed, n_lo=2, n_hi=20, r_hi=0.9):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    r = np.sqrt(rng.uniform(0.01, r_hi**2, n))
    return BlaschkeProduct(r * np.exp(2j * np.pi * rng.uniform(0, 1, n)))


class TestCriticalPoints:
    def test_degree_one_has_none(self):
        cs = critical_points([0.5])
        assert cs.count == 0 and cs.degree == 1
        assert cs.points.size == 0 and cs.residuals.size == 0

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
    def test_symmetric_pair_critical_at_origin(self, a):
        # B = (a^2 - z^2)/(1 - a^2 z^2) up to a unimodular factor; B' ~ z
        cs = critical_points([a, -a])
        assert cs.count == 1
        assert abs(cs.points[0]) < 1e-10
        assert cs.residuals[0] < 1e-12

    def test_two_real_zeros_hand_location(self):
        # free critical point of [0.6, 0.7] computed once and pinned
        cs = critical_points([0.6, 0.7])
        assert cs.points[0] == pytest.approx(0.65283517 + 0j, abs=1e-7)

    def test_double_zero_pinned_exactly(self):
        a = 0.4 + 0.3j
        cs = critical_points([a, a])
        assert cs.count == 1
        assert complex(cs.points[0]) == a  # exact, no float drift
        assert cs.residuals[0] == 0.0

    def test_triple_zero(self):
        cs = critical_points([0.6, 0.6, 0.6])
        assert cs.count == 2
        assert np.all(cs.points == 0.6)

    def test_mixed_multiplicity(self):
        a, b = 0.5, -0.3 + 0.2j
        cs = critical_points([a, a, b])
        assert cs.count == 2
        assert np.any(cs.points == a)
        free = cs.points[cs.points != a]
        assert free.size == 1 and abs(free[0]) < 1.0
        assert np.max(cs.residuals) < 1e-10

    @pytest.mark.parametrize("seed", range(12))
    def test_random_products_full_count(self, seed):
        p = random_product(10_000 + seed)
        cs = critical_points(p)
        assert cs.count == p.degree - 1
        assert np.all(np.abs(cs.points) < 1.0)
        if cs.count:
            assert np.max(cs.residuals) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_count_agrees_with_winding(self, seed):
        # zeros capped at |z| = 0.9 keep the criticals inside the hyperbolic
        # hull, well away from the near-rim contour
        p = random_product(20_000 + seed, r_hi=0.9)
        cs = critical_points(p)
        assert argument_principle_count(p, 1.0 - 1e-6) == cs.count

    def test_sorted_by_modulus_then_angle(self):
        p = random_product(31)
        pts = critical_points(p).points
        order = np.lexsort((np.angle(pts), -np.abs(pts)))
        assert np.array_equal(pts, pts[order])

    def test_accepts_zero_sequence_and_list(self):
        a = critical_points([0.5, -0.5]).points
        b = critical_points(ZeroSequence([0.5, -0.5])).points
        assert np.array_equal(a, b)

    def test_deep_radial_cluster_fails_honestly(self):
        # geometric radial zeros 1 - 2^-k: by k = 30 the free points can no
        # longer be certified; the error carries the partial set
        zs = (1.0 - 0.5 ** np.arange(1, 31)).astype(complex)
        with pytest.raises(RootFindingError) as info:
            critical_points(zs)
        assert info.value.partial is not None
        assert len(info.value.partial) == 29
        # the message names the worst point and the float64 floor it hit
        partial = info.value.partial
        worst = int(np.argmax(np.abs(BlaschkeProduct(zs).derivative(partial))))
        msg = str(info.value)
        assert f"at point {worst} of 29" in msg
        assert "float64 floor spacing(|c|)*|B''(c)|" in msg
        assert "float64 limit" in msg

    def test_sweep_cap_names_live_estimates(self, monkeypatch):
        monkeypatch.setattr(blab.critical, "_MAX_SWEEPS", 2)
        rng = np.random.default_rng(100)
        zs = (1.0 - rng.uniform(1e-3, 0.5, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        with pytest.raises(RootFindingError, match=r"within 2 sweeps: \d+ of 99 estimates"):
            critical_points(zs)

    @staticmethod
    def _drop_one_estimate(monkeypatch, live=None):
        """Make the solver lose its last estimate (and, given `live`, stall)."""
        solve = blab.critical._aberth_free_points

        def short(unique, mult):
            w, moving = solve(unique, mult)
            return w[:-1], moving if live is None else live

        monkeypatch.setattr(blab.critical, "_aberth_free_points", short)

    def test_short_count_names_the_count(self, monkeypatch):
        p = random_product(5, n_lo=10, n_hi=10)
        full = critical_points(p).points
        self._drop_one_estimate(monkeypatch)
        with pytest.raises(RootFindingError) as info:
            critical_points(p)
        assert str(info.value) == "found 8 interior critical points, expected 9"
        partial = info.value.partial
        assert partial.size == 8
        assert np.array_equal(partial, partial[np.lexsort((np.angle(partial), -np.abs(partial)))])
        assert np.min(np.abs(partial[:, None] - full[None, :]), axis=1).max() < 1e-12

    def test_stalled_short_count_gains_the_count_clause(self, monkeypatch):
        p = random_product(5, n_lo=10, n_hi=10)
        self._drop_one_estimate(monkeypatch, live=3)
        with pytest.raises(RootFindingError) as info:
            critical_points(p)
        assert str(info.value) == (
            "found 8 interior critical points, expected 9; "
            "simultaneous iteration did not converge within 500 sweeps: "
            "3 of 9 estimates still moving")
        assert info.value.partial.size == 8

    def test_iter_and_count(self):
        cs = critical_points([0.5, -0.5])
        vals = list(cs)
        assert len(vals) == cs.count == 1
        assert isinstance(vals[0], complex)


def _sampled_vertex_zeros(gauge, n, seed):
    phi = {"linear": ModelFunction.linear(),
           "exp": ModelFunction.exp_tangential(1.0)}[gauge]
    spec = StolzSpec(phi, BoundarySet.from_points([0.0]), 2.0)
    return sample_zeros(spec, n, seed=seed, law=PowerLaw(2.0, 0.5)).zeros


class TestCriticalPointsOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_roots_of_expanded_numerator(self, seed):
        # B' = u (P'Q - PQ') / Q^2: the interior roots of the expanded
        # numerator are the critical points, found without the solver
        p = random_product(50_000 + seed, n_lo=2, n_hi=12, r_hi=0.9)
        pc, qc, _ = expand_rational(p)
        num = pv.polysub(pv.polymul(pv.polyder(pc), qc), pv.polymul(pc, pv.polyder(qc)))
        roots = pv.polyroots(num)
        oracle = roots[np.abs(roots) < 1.0]
        got = critical_points(p).points
        assert oracle.size == got.size == p.degree - 1
        dist = np.abs(oracle[:, None] - got[None, :])
        nearest = dist.argmin(axis=1)
        assert np.unique(nearest).size == got.size  # one-to-one
        assert np.max(dist.min(axis=1)) < 1e-8

    @pytest.mark.parametrize("gauge, n", [("linear", 200), ("exp", 100)])
    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_sets_solve(self, gauge, n, seed):
        zs = _sampled_vertex_zeros(gauge, n, seed)
        cs = critical_points(zs)
        assert cs.count == n - 1
        gaps = np.abs(cs.points[:, None] - cs.points[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert np.min(gaps) > 0.0  # pairwise distinct
        assert np.max(cs.residuals) < 1e-8

    def test_random_degree_400_clustered(self):
        rng = np.random.default_rng(400)
        zs = (1.0 - rng.uniform(1e-3, 0.5, 400)) * np.exp(2j * np.pi * rng.uniform(0, 1, 400))
        cs = critical_points(zs)
        assert cs.count == 399
        assert np.max(cs.residuals) < 1e-8


class TestArgumentPrinciple:
    def test_hand_counts(self):
        assert argument_principle_count([0.5, -0.5], 0.9) == 1
        assert argument_principle_count([0.5], 0.9) == 0

    def test_small_contour_misses_far_critical(self):
        # the only critical point of [0.6, 0.7] sits near 0.653
        assert argument_principle_count([0.6, 0.7], 0.05) == 0

    def test_critical_on_contour_detected(self):
        # double zero: B'(0.5) = 0 exactly, and theta = 0 sits on the grid
        with pytest.raises(ContourError, match="on the contour"):
            argument_principle_count([0.5, 0.5], 0.5)

    def test_too_few_nodes_give_a_wrong_whole_count(self):
        # the increments telescope to whole turns, so an under-resolved
        # contour miscounts without any error
        assert argument_principle_count([0.5, -0.5, 0.9j], 0.9, nodes=4) == 0
        assert argument_principle_count([0.5, -0.5, 0.9j], 0.9, nodes=16) == 2

    def test_radius_domain(self):
        for r in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                argument_principle_count([0.5], r)

    def test_explicit_nodes(self):
        p = random_product(77, n_lo=5, n_hi=8)
        cs = critical_points(p)
        assert argument_principle_count(p, 0.999, nodes=1 << 14) == cs.count


class TestRationalForm:
    def test_single_zero_coefficients(self):
        p, q, pref = expand_rational([0.5])
        assert np.allclose(p, [0.5, -1.0])
        assert np.allclose(q, [1.0, -0.5])
        assert pref == pytest.approx(1.0)
        assert len(p) - 1 == 1

    def test_symmetric_pair_closed_form(self):
        a = 0.6
        form = expand_rational([a, -a])
        z = np.linspace(-0.9, 0.9, 41) + 0.1j
        expect = (a * a - z * z) / (1.0 - a * a * z * z)
        assert np.allclose(rational_value(form, z), expect, rtol=1e-13)

    def test_prefactor_unimodular(self):
        _, _, pref = expand_rational([0.3 + 0.4j, -0.2j, 0.8])
        assert abs(pref) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_factor_evaluation(self, seed):
        p = random_product(40_000 + seed, n_hi=12)
        form = expand_rational(p)
        rng = np.random.default_rng(seed)
        z = 0.8 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        assert np.allclose(rational_value(form, z), p(z), rtol=1e-9, atol=1e-12)
        assert np.allclose(rational_derivative(form, z), p.derivative(z), rtol=1e-8, atol=1e-11)

    def test_derivative_vanishes_at_critical_points(self):
        p = BlaschkeProduct([0.5, -0.5])
        form = expand_rational(p)
        assert abs(rational_derivative(form, 0.0)) < 1e-14


class TestSumSeries:
    def test_partial_sums_and_total(self):
        s = SumSeries([1.0, 0.5, 0.25])
        assert np.allclose(s.partial_sums, [1.0, 1.5, 1.75])
        assert s.total == 1.75

    def test_rows_one_based(self):
        s = SumSeries([2.0, 3.0])
        assert s.rows() == [(1, 2.0, 2.0), (2, 3.0, 5.0)]

    def test_empty(self):
        s = SumSeries([])
        assert s.total == 0.0 and s.rows() == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
    def test_refuses_terms_that_are_not_finite_and_nonnegative(self, bad):
        with pytest.raises(DomainError, match="series terms must be finite and nonnegative"):
            SumSeries([0.5, bad])
        assert SumSeries([0.5, -0.0, 0.0]).total == 0.5


class TestCriticalSum:
    def test_origin_point_hand_value(self):
        E = BoundarySet.from_points([0.0])
        s = critical_sum(np.asarray([0.0 + 0.0j]), E, rho=2.0, beta=1.0, eps=0.5)
        # gap 1, distance 1, exponent 1.5: the single term is 1
        assert s.total == pytest.approx(1.0)

    def test_exponent_clamps_to_zero(self):
        # rho - beta + eps < 0 drops the distance factor entirely
        E = BoundarySet.from_points([0.0])
        pts = np.asarray([0.3 + 0.1j, -0.5j])
        s = critical_sum(pts, E, rho=1.0, beta=2.0, eps=0.5)
        assert s.total == pytest.approx(np.sum(1.0 - np.abs(pts)))

    def test_input_polymorphism(self):
        E = BoundarySet.from_points([0.0])
        cs = critical_points([0.3, -0.5, 0.2j])
        via_set = critical_sum(cs, E, 1.0, 1.0, 0.5).total
        via_arr = critical_sum(np.asarray(cs.points), E, 1.0, 1.0, 0.5).total
        via_seq = critical_sum(ZeroSequence(cs.points), E, 1.0, 1.0, 0.5).total
        assert via_set == via_arr == via_seq

    def test_validation(self):
        E = BoundarySet.from_points([0.0])
        with pytest.raises(DomainError):
            critical_sum(np.asarray([0.1 + 0j]), E, rho=0.0, beta=1.0, eps=0.5)
        with pytest.raises(DomainError):
            critical_sum(np.asarray([0.1 + 0j]), E, rho=1.0, beta=1.0, eps=0.0)

    @pytest.mark.parametrize("pts", [[1.5, 0.5], [2.0], [np.nan]])
    def test_points_outside_the_open_disk_are_refused(self, pts):
        # [1.5, 0.5] summed to 0.0 from the terms -0.354 and 0.354, and [2.0] to -1.0
        with pytest.raises(DomainError, match="strictly inside the unit disk"):
            critical_sum(pts, BoundarySet.from_points([0.0]), 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rho", "beta", "eps"])
    def test_non_finite_parameters_are_refused(self, name, value):
        # a nan rho or beta would make every term, and the total, nan
        E = BoundarySet.from_points([0.0])
        params = {"rho": 1.0, "beta": 1.0, "eps": 0.5, name: value}
        with pytest.raises(DomainError, match="finite"):
            critical_sum(np.asarray([0.1 + 0j]), E, **params)


class TestLogWeightedSum:
    def test_origin_floor(self):
        # gap 1: log 1/(1-0) = 0 floored to 1, term = 1
        s = log_weighted_sum(np.asarray([0.0 + 0.0j]), eps=1.0)
        assert s.total == pytest.approx(1.0)

    def test_deep_point_closed_form(self):
        gap = math.exp(-10.0)
        s = log_weighted_sum(np.asarray([complex(1.0 - gap)]), eps=1.0)
        assert s.total == pytest.approx(gap / 100.0, rel=1e-12)

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            log_weighted_sum(np.asarray([0.5 + 0j]), eps=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_is_refused(self, eps):
        # a NaN eps gave a NaN total with no error
        with pytest.raises(DomainError, match="positive and finite"):
            log_weighted_sum(np.asarray([0.5, 0.9j]), eps)

    @pytest.mark.parametrize("pts", [[1.5, 0.5], [1.0], [np.nan]])
    def test_points_outside_the_open_disk_are_refused(self, pts):
        # [1.5, 0.5] gave nan with a RuntimeWarning
        with pytest.raises(DomainError, match="strictly inside the unit disk"):
            log_weighted_sum(pts, 0.5)


class TestProtasSum:
    def test_single_zero_hand(self):
        assert protas_sum(np.asarray([0.5 + 0j]), 0.5) == pytest.approx(math.sqrt(0.5))

    def test_geometric_closed_form(self):
        n = np.arange(1, 21)
        zs = (1.0 - 0.5**n).astype(complex)
        q = 2.0**-0.4
        expect = q * (1.0 - q**20) / (1.0 - q)
        assert protas_sum(zs, 0.4) == pytest.approx(expect, rel=1e-12)

    def test_power_one_is_gap_sum(self):
        seq = ZeroSequence([0.5, 0.3j, -0.7])
        assert protas_sum(seq, 1.0) == pytest.approx(blaschke_sum(seq.zeros))

    def test_power_domain(self):
        for r in (0.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                protas_sum(np.asarray([0.5 + 0j]), r)

    @pytest.mark.parametrize("pts", [[np.nan], [0.5, 1.5], [1j]])
    def test_points_outside_the_open_disk_are_refused(self, pts):
        # [nan] gave nan with a RuntimeWarning
        with pytest.raises(DomainError, match="strictly inside the unit disk"):
            protas_sum(pts, 1)
