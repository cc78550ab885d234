import numpy as np
import pytest

from blab import (
    BlaschkeProduct,
    DomainError,
    InvalidZeroError,
    MeansTable,
    ResolutionError,
    ZeroSequence,
    bergman_integral,
    default_hardy_nodes,
    hardy_mean,
    hp_trend,
    radial_geometric_family,
)


def reference_circle_mean(zeros, p, r, nodes=1 << 15):
    """Trapezoid mean of |B'|^p built from scratch: product eval plus a
    centered finite difference, sharing nothing with the package paths."""
    zeros = np.asarray(zeros, dtype=complex)

    def bval(z):
        out = np.ones_like(z)
        for a in zeros:
            out *= (np.conj(a) / abs(a)) * (a - z) / (1.0 - np.conj(a) * z)
        return out

    theta = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    z = r * np.exp(1j * theta)
    h = 1e-6
    d = (bval(z + h) - bval(z - h)) / (2 * h) + (
        bval(z + 1j * h) - bval(z - 1j * h)
    ) / (2j * h)
    d = d / 2.0
    return float(np.mean(np.abs(d) ** p)) ** (1.0 / p)


class TestHardyMean:
    def test_center_is_derivative_modulus(self):
        assert hardy_mean([0.5], 1.0, 0.0) == pytest.approx(0.75)

    def test_degree_one_p2_closed_form(self):
        a, r = 0.5, 0.7
        closed = (1 - a * a) * np.sqrt((1 + (a * r) ** 2) / (1 - (a * r) ** 2) ** 3)
        assert hardy_mean([a], 2.0, r) == pytest.approx(closed, rel=1e-12)

    def test_matches_independent_reconstruction(self):
        zeros = [0.5, -0.3 + 0.4j, 0.2j]
        got = hardy_mean(zeros, 1.0, 0.8)
        ref = reference_circle_mean(zeros, 1.0, 0.8)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_tiny_radius_approaches_center_value(self):
        p = BlaschkeProduct([0.5, -0.2])
        assert hardy_mean(p, 1.3, 1e-12) == pytest.approx(
            abs(p.derivative(0.0)), rel=1e-9
        )

    def test_nondecreasing_in_radius(self):
        # |B'|^p is subharmonic for every p > 0
        p = BlaschkeProduct([0.6, -0.4 + 0.2j])
        for expo in (0.5, 1.0, 2.0):
            vals = [hardy_mean(p, expo, r) for r in (0.1, 0.4, 0.7, 0.9, 0.95)]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_node_floor_enforced(self):
        p = BlaschkeProduct([0.1, 0.2, 0.3, 0.4, 0.5])
        with pytest.raises(DomainError, match="under-resolves"):
            hardy_mean(p, 1.0, 0.5, nodes=70)

    def test_default_nodes_scale_with_rim_distance(self):
        assert default_hardy_nodes(2, 0.0) == 64
        assert default_hardy_nodes(10, 0.999) == 10_000

    def test_explicit_coarse_nodes_fail_loudly(self):
        rng = np.random.default_rng(9)
        zs = 0.99 * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        with pytest.raises(ResolutionError, match="doubling"):
            hardy_mean(BlaschkeProduct(zs), 0.5, 0.999, nodes=320)

    def test_default_first_pass_over_the_cap_fails_before_evaluating(self):
        # degree 2 at r = 1 - 1e-6 starts at 2e6 nodes, validated at 4e6 > 2^21
        with pytest.raises(ResolutionError,
                           match=r"degree 2 at r = .* 2000000 nodes.*cap 2097152"):
            hardy_mean([0.5, -0.5], 1.0, 1.0 - 1e-6)

    def test_explicit_nodes_over_the_cap_are_honored(self):
        a, r = 0.5, 0.7
        closed = (1 - a * a) * np.sqrt((1 + (a * r) ** 2) / (1 - (a * r) ** 2) ** 3)
        assert hardy_mean([a], 2.0, r, nodes=1_100_000) == pytest.approx(closed, rel=1e-12)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            hardy_mean([0.5], 0.0, 0.5)
        with pytest.raises(DomainError):
            hardy_mean([0.5], 1.0, 1.0)
        with pytest.raises(DomainError):
            hardy_mean([0.5], 1.0, -0.1)


class TestBergmanIntegral:
    def test_degree_one_p2_is_disk_area(self):
        assert bergman_integral([0.5], 2.0) == pytest.approx(np.pi, rel=1e-12)

    def test_p2_counts_covering_degree(self):
        assert bergman_integral([0.5, -0.3j], 2.0) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_small_exponent_finite(self):
        v = bergman_integral([0.5, -0.3j], 0.5)
        assert 0.0 < v < 4.0 * np.pi

    def test_normalized_means_nondecreasing_in_p(self):
        p = BlaschkeProduct([0.5, -0.3j])
        vals = [(bergman_integral(p, q) / np.pi) ** (1.0 / q) for q in (0.5, 1.0, 2.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_node_floor(self):
        with pytest.raises(DomainError):
            bergman_integral([0.5], 2.0, radial_nodes=32, angular_nodes=64)

    def test_explicit_coarse_nodes_fail_loudly(self):
        zs = (1.0 - 10.0 ** np.linspace(-6, -1, 40)).astype(complex)
        with pytest.raises(ResolutionError, match="doubling"):
            bergman_integral(BlaschkeProduct(zs), 2.0, radial_nodes=64, angular_nodes=640)

    def test_exponent_domain(self):
        with pytest.raises(DomainError):
            bergman_integral([0.5], 0.0)


class TestMeansTable:
    def test_sup_over_r(self):
        t = MeansTable([(50, 0.4, 0.9, 1.0), (50, 0.4, 0.99, 2.0), (100, 0.4, 0.9, 1.5)])
        assert t.sup_over_r() == {(50, 0.4): 2.0, (100, 0.4): 1.5}

    def test_value_lookup(self):
        t = MeansTable([(50, 0.4, 0.9, 1.25)])
        assert t.value(50, 0.4, 0.9) == 1.25
        with pytest.raises(KeyError):
            t.value(50, 0.4, 0.99)

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            MeansTable([(10, 1.0, 0.5, -0.1)])


class TestHpTrend:
    def test_rows_cover_grid(self):
        fam = radial_geometric_family(0.5)
        t = hp_trend(fam, 1.0, [3, 5], [0.0, 0.5])
        assert len(t.rows) == 4
        assert set(t.sup_over_r()) == {(3, 1.0), (5, 1.0)}
        # r = 0 row equals the center derivative
        prod = BlaschkeProduct(fam(3))
        assert t.value(3, 1.0, 0.0) == pytest.approx(abs(prod.derivative(0.0)))

    def test_family_degree_mismatch(self):
        with pytest.raises(DomainError, match="family returned"):
            hp_trend(lambda n: [0.5], 1.0, [2], [0.5])


class TestRadialGeometricFamily:
    def test_values(self):
        fam = radial_geometric_family(0.5)
        assert np.array_equal(fam(5), 1.0 - 0.5 ** np.arange(1, 6) + 0j)

    def test_ratio_domain(self):
        for ratio in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                radial_geometric_family(ratio)

    def test_float64_wall_at_fifty_three(self):
        # 1 - 2^-54 rounds to 1.0: the family is constructible only to N = 53
        fam = radial_geometric_family(0.5)
        seq = ZeroSequence(fam(53))
        assert len(seq) == 53
        assert np.abs(seq.zeros).max() < 1.0
        with pytest.raises(InvalidZeroError):
            ZeroSequence(fam(54))
