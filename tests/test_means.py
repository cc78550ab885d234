import numpy as np
import pytest

import blab.means
from blab import (
    BlaschkeProduct,
    BoundarySet,
    DomainError,
    InvalidZeroError,
    MeansTable,
    ModelFunction,
    PowerLaw,
    ResolutionError,
    StolzSpec,
    ZeroSequence,
    bergman_integral,
    hardy_mean,
    hp_trend,
    radial_geometric_family,
    sample_zeros,
)
from blab.products import _block_width

RIM = 1.0 - 1e-6


def sampled_exp_zeros(n):
    """The benchmark's boundary-clustered sets: exp gauge at a vertex, sampling stream 6."""
    spec = StolzSpec(ModelFunction.exp_tangential(1.0), BoundarySet.from_points([0.0]), 1.0)
    return sample_zeros(spec, n, seed=6, law=PowerLaw(2.0, 0.5)).zeros


@pytest.fixture
def handed(monkeypatch):
    """Point counts handed to BlaschkeProduct.derivative, one entry per call."""
    counts = []
    derivative = BlaschkeProduct.derivative

    def counting(self, z):
        counts.append(int(np.size(z)))
        return derivative(self, z)

    monkeypatch.setattr(BlaschkeProduct, "derivative", counting)
    return counts


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

    def test_degree_one_p2_closed_form_on_a_uniform_circle(self):
        a = r = 0.5  # 64 (1 - r a) = 48 >= 40: the unmapped rule
        closed = (1 - a * a) * np.sqrt((1 + (a * r) ** 2) / (1 - (a * r) ** 2) ** 3)
        assert hardy_mean([a], 2.0, r) == pytest.approx(closed, rel=1e-12)

    def test_exponent_sequence_gives_the_single_means(self):
        zeros = sampled_exp_zeros(10)
        for r in (0.5, 0.9, 0.999):
            got = hardy_mean(zeros, [0.4, 1.0, 2.0], r)
            assert got == [hardy_mean(zeros, q, r) for q in (0.4, 1.0, 2.0)]

    def test_exponent_sequence_fails_as_its_first_failing_exponent(self):
        with pytest.raises(DomainError, match="exponent p must be positive"):
            hardy_mean([0.5], [1.0, 0.0], 0.5)
        with pytest.raises(DomainError, match="radius"):
            hardy_mean([0.5], [1.0, 0.0], 1.0)

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

    def test_explicit_coarse_nodes_fail_loudly(self, monkeypatch):
        angles = 2j * np.pi * np.random.default_rng(9).uniform(0, 1, 20)
        wide = BlaschkeProduct(0.99 * np.exp(angles))
        uncapped = hardy_mean(wide, 0.5, 0.999)
        # a cap of 640 nodes leaves one doubling of the start count, 16 per zero
        monkeypatch.setattr(blab.means, "_NODE_CAP", 640)
        # coarse for a uniform rule, resolved by the mapped one at its start
        assert hardy_mean(wide, 0.5, 0.999) == pytest.approx(uncapped, rel=1e-9)
        # 16 mapped nodes per zero cannot resolve |B'|^(1/2) at the rim
        with pytest.raises(ResolutionError,
                           match=r"doubling .* at r = 0.999999 on a pass of 640 nodes$"):
            hardy_mean(BlaschkeProduct(RIM * np.exp(angles)), 0.5, RIM)

    def test_rim_degree_two_needs_no_rim_sized_grid(self, handed):
        # the uniform rule would start at 2e6 nodes here; the rim limit is the degree
        assert 2.0 - 1e-5 < hardy_mean([0.5, -0.5], 1.0, RIM) <= 2.0
        assert sum(handed) <= 1024

    def test_default_start_over_the_cap_fails_before_evaluating(self, handed):
        # 16 nodes per degree: 131073 zeros start past the cap of 2^21 nodes
        with pytest.raises(ResolutionError,
                           match=r"doubling .* degree 131073 at r = 0.5 .* 2097168 nodes"
                                 r".*cap 2097152"):
            hardy_mean(np.full(131073, 0.5), 1.0, 0.5)
        assert handed == []

    def test_degree_one_rim_closed_forms(self):
        a = r = RIM
        gap = (1.0 - r) + r * (1.0 - a)  # 1 - r|a| without cancellation
        lo, hi = gap * (2.0 - gap), 1.0 + (1.0 - gap) ** 2  # 1 -/+ r^2 |a|^2
        one = (1.0 - a * a) / lo
        two = (1.0 - a * a) ** 2 * hi / lo ** 3
        assert hardy_mean([a], 1.0, r) == pytest.approx(one, rel=1e-9)
        assert hardy_mean([a], 2.0, r) ** 2 == pytest.approx(two, rel=1e-9)

    def test_float64_floor_fails_before_evaluating(self, handed):
        a = r = 1.0 - 1e-9  # 1 - r|a| = 2e-9: rounding in B' still under the 1e-6 target
        gap = (1.0 - r) + r * (1.0 - a)
        assert hardy_mean([a], 1.0, r) == pytest.approx(
            (1.0 - a * a) / (gap * (2.0 - gap)), rel=1e-6)
        handed.clear()
        a = r = 1.0 - 1e-12  # 2e-12: rounding alone would move the mean by about 5e-5
        with pytest.raises(ResolutionError, match=r"zero #1 at r = .* float64 floor"):
            hardy_mean([0.5, a], 1.0, r)
        assert handed == []

    def test_h1_mean_rises_to_the_degree(self):
        zeros = sampled_exp_zeros(10)
        radii = (0.5, 0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-5, RIM, 1 - 1e-7, 1 - 1e-9)
        vals = np.array([hardy_mean(zeros, 1.0, r) for r in radii])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals <= 10.0)
        assert vals[-1] > 10.0 * (1.0 - 1e-6)

    def test_doubling_evaluates_only_new_nodes(self, handed):
        # the s-grid at 2N holds the one at N: 80, then 80 more, 160 more, ...
        hardy_mean([0.9, -0.5j, 0.99j, 0.3 + 0.6j, -0.999], 0.3, 0.9999)
        assert handed == [80, 80, 160, 320, 640]

    def test_node_cap_bounds_every_pass(self, handed, monkeypatch):
        monkeypatch.setattr(blab.means, "_NODE_CAP", 512)
        with pytest.raises(ResolutionError, match=r"doubling .* on a pass of 320 nodes"):
            hardy_mean([0.9, -0.5j, 0.99j, 0.3 + 0.6j, -0.999], 0.3, 0.9999)
        # passes of 80, 160 and 320 nodes; the next, 640, would exceed the cap
        assert handed == [80, 80, 160]

    def test_exponents_failing_together_raise_as_the_first_alone(self, handed, monkeypatch):
        # under a cap of 512 nodes both exponents are still off on the pass of 320
        monkeypatch.setattr(blab.means, "_NODE_CAP", 512)
        zeros = [0.9, -0.5j, 0.99j, 0.3 + 0.6j, -0.999]
        with pytest.raises(ResolutionError) as alone:
            hardy_mean(zeros, 0.3, 0.9999)
        with pytest.raises(ResolutionError) as both:
            hardy_mean(zeros, [0.3, 0.25], 0.9999)
        with pytest.raises(ResolutionError) as second:
            hardy_mean(zeros, 0.25, 0.9999)
        assert str(both.value) == str(alone.value) != str(second.value)
        assert handed == [80, 80, 160] * 3

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            hardy_mean([0.5], 0.0, 0.5)
        with pytest.raises(DomainError):
            hardy_mean([0.5], 1.0, 1.0)
        with pytest.raises(DomainError):
            hardy_mean([0.5], 1.0, -0.1)

    def test_exponents_past_the_float_range(self):
        # max |B'| on this circle is 0.9209, so |B'|^1e4 underflows on every
        # node; under eps/1e-6 the 1/p root lifts rounding over 1e-6 (against
        # the p -> 0 limit 0.69568, p = 1e-12 was off by 4e-5 and p = 1e-300
        # gave 1.0)
        B = BlaschkeProduct([0.5, 0.3j, -0.7])
        assert hardy_mean(B, 5000.0, 0.5) == pytest.approx(0.9201, rel=1e-4)
        with pytest.raises(ResolutionError, match=r"\|B'\|\^p at p = 10000.0 is 0 for degree 3 "
                                                  r"at r = 0.5 on a pass of 128 nodes"):
            hardy_mean(B, 1e4, 0.5)
        floor = np.finfo(float).eps / 1e-6
        assert hardy_mean(B, 1.01 * floor, 0.5) == pytest.approx(0.69568, rel=1e-5)
        for q in (0.99 * floor, 1e-12, 1e-300):
            with pytest.raises(DomainError, match=f"floor 2.22e-10 of the 1/p root, got {q}"):
                hardy_mean(B, q, 0.5)

    def test_a_failure_waits_for_the_exponents_before_it(self, monkeypatch):
        # p = 1e4 leaves the float range on the first pass, and p = 1 fails
        # the doubling gate on the second, the last under this cap: p = 1
        # comes first, so its failure is the one raised, as when run alone
        B = BlaschkeProduct([0.5, 0.3j, -0.7])
        monkeypatch.setattr(blab.means, "_NODE_CAP", 256)
        monkeypatch.setattr(blab.means, "_DOUBLING_TARGET", 0.0)
        monkeypatch.setattr(blab.means, "_DOUBLING_GATE", 0.0)
        with pytest.raises(ResolutionError, match="doubling moved the mean .* 256 nodes$"):
            hardy_mean(B, [1.0, 1e4], 0.5)
        with pytest.raises(ResolutionError, match="p = 10000.0 is 0 .* 128 nodes"):
            hardy_mean(B, [1e4, 1.0], 0.5)

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponents_are_refused(self, q):
        # NaN would pass a `p <= 0` test and run every doubling to the node cap
        with pytest.raises(DomainError, match="positive and finite"):
            hardy_mean([0.5], q, 0.5)
        with pytest.raises(DomainError, match="positive and finite"):
            hardy_mean([0.5], [1.0, q], 0.5)


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

    def test_explicit_coarse_nodes_fail_loudly(self, monkeypatch):
        zs = (1.0 - 10.0 ** np.linspace(-6, -1, 40)).astype(complex)
        # 21 panels down to 2^-20 < 1e-6: the rule starts at 4 radial nodes a
        # panel, 84 x 80 nodes, and doubles its radii to 168 x 80 and its angle
        # to 168 x 160; the cap leaves no further doubling, and the radial
        # check is still off
        monkeypatch.setattr(blab.means, "_NODE_CAP", 168 * 160)
        with pytest.raises(ResolutionError, match=r"doubling moved the integral by .* relative "
                                                  r"in radius for degree 40 on a pass of "
                                                  r"168 x 160 nodes$"):
            bergman_integral(BlaschkeProduct(zs), 2.0)

    def test_exponent_domain(self):
        with pytest.raises(DomainError):
            bergman_integral([0.5], 0.0)

    def test_exponent_past_the_float_range(self):
        with pytest.raises(ResolutionError, match=r"\|B'\|\^p at p = 1000.0 is inf for degree 3 "
                                                  r"on a pass of 66 x 18 nodes"):
            bergman_integral([0.5, 0.3j, -0.7], 1000.0)

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponents_are_refused(self, q):
        with pytest.raises(DomainError, match="positive and finite"):
            bergman_integral([0.5], q)

    @pytest.mark.parametrize("n", [5, 10, 50])
    def test_p2_is_n_pi_on_sampled_exp_sets(self, n):
        assert bergman_integral(sampled_exp_zeros(n), 2.0) == pytest.approx(n * np.pi, rel=1e-9)

    def test_p2_is_n_pi_where_newton_alone_stalls(self):
        # one circle of this set has a node at which plain bracketed Newton
        # bounces between the bracket ends; a wrong node there cost 1.1e-2
        rng = np.random.default_rng([3, 1, 5])
        gaps = rng.uniform(0.05, 0.5, 5)
        zeros = (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 5))
        assert bergman_integral(zeros, 2.0) == pytest.approx(5 * np.pi, rel=1e-9)

    def test_p2_is_n_pi_on_interior_zeros(self):
        # gaps >= 0.05: the uniform rule serves most radii (lam = 0 there)
        rng = np.random.default_rng([31, 1, 20])
        gaps = rng.uniform(0.05, 0.5, 20)
        zeros = (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 20))
        assert bergman_integral(zeros, 2.0) == pytest.approx(20 * np.pi, rel=1e-9)

    def test_node_cap_bounds_every_pass(self, handed, monkeypatch):
        monkeypatch.setattr(blab.means, "_NODE_CAP", 1 << 16)
        bergman_integral([0.9, 0.9j, -0.9], 0.5)
        # radial x angular rules, each built at half its angular count and
        # refined once: 70 x 18 and its half-radial check 35 x 18. Both
        # dimensions double: a new 140 x 18 rule refined to 140 x 36, with the
        # old one refined to 70 x 36 as its check; and again, to 280 x 72
        # (140 x 72). Both checks are still off, and doubling both dimensions
        # of 280 x 72 would exceed the cap.
        assert handed == [630, 630, 315, 315, 1260, 1260, 2520, 1260,
                          5040, 5040, 10080, 5040]

    def test_float64_floor_fails_before_evaluating(self, handed):
        # 1 - 2^-40: the p = 2 mass of that zero lies within about 1e-12 of the circle
        with pytest.raises(ResolutionError, match=r"zero #39 as r -> 1 .* float64 floor"):
            bergman_integral(radial_geometric_family(0.5)(40), 2.0)
        assert handed == []

    def test_default_start_over_the_cap_fails_before_evaluating(self, handed, monkeypatch):
        monkeypatch.setattr(blab.means, "_NODE_CAP", 1 << 10)
        with pytest.raises(ResolutionError,
                           match=r"doubling .* degree 3 would start at 70 x 18 nodes, "
                                 r"beyond the node cap 1024"):
            bergman_integral([0.9, 0.9j, -0.9], 0.5)
        assert handed == []

    def test_p2_is_n_pi_at_degree_128(self):
        # the tensor rule that doubled both dimensions on every pass failed
        # here before evaluating: its validating pass was over the node cap
        rng = np.random.default_rng([11, 1, 128])
        gaps = rng.uniform(0.05, 0.5, 128)
        zeros = (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 128))
        assert bergman_integral(zeros, 2.0) == pytest.approx(128 * np.pi, rel=1e-9)

    @pytest.mark.parametrize("zeros, p", [([0.9, 0.9j, -0.9], 0.5), (sampled_exp_zeros(10), 1.0)])
    def test_value_agrees_with_its_angular_and_radial_checks(self, zeros, p, monkeypatch):
        rules = []
        init = blab.means._Rule.__init__

        def recording(self, *args):
            init(self, *args)
            rules.append((self, args))

        monkeypatch.setattr(blab.means._Rule, "__init__", recording)
        value = bergman_integral(zeros, p)
        (fine, args), = [(r, a) for r, a in rules if r.value == [value]]
        half, = [r for r, _ in rules if (r.radial, r.count) == (fine.radial // 2, fine.count)]
        for check in (fine.coarse[0], half.value[0]):
            assert abs(check - value) <= 1e-6 * value
        # the even-node sub-rule is the rule at half the angular count
        coarse = blab.means._Rule(*args[:-1], fine.count // 2)
        assert coarse.value[0] == pytest.approx(fine.coarse[0], rel=1e-13)


class TestAngularRule:
    @staticmethod
    def rule(product, r, count):
        return blab.means._Rule(product, [1.0], r, 1.0 - r, np.ones(r.size), 1.0, count)

    def test_nodes_invert_the_map_and_nest(self):
        product = BlaschkeProduct(sampled_exp_zeros(10))
        pmap = blab.means._PoissonMap(product)
        r = np.array([0.5, 0.99, RIM])
        rule = self.rule(product, r, 160)
        coarse = rule.theta.copy()
        rule.refine()
        assert np.array_equal(rule.theta[:, ::2], coarse)
        rows, n = rule.theta.shape
        phi, dphi, _ = pmap(rule.theta.ravel(), np.repeat(r, n), np.repeat(1.0 - r, n))
        phi0, _, _ = pmap(np.zeros(3), r, 1.0 - r)
        want = phi0[:, None] + 2.0 * np.pi * np.arange(n) / n
        assert np.abs(phi.reshape(rows, n) - want).max() < 1e-12
        assert np.allclose(dphi.reshape(rows, n), rule.dphi, rtol=1e-12)
        assert np.all(np.diff(rule.theta, axis=1) > 0.0) and rule.theta.max() < 2.0 * np.pi

    def test_map_derivatives_match_centred_differences(self):
        # P_t(x) = sum_m t^|m| e^{imx}, so |P_t^(k)| <= k! P_t(0) / w^k with
        # w = 1 - t. A centred difference of step h is off by at most h^2/6
        # times the third derivative of what it differences: by (h/w)^2 S/3 for
        # Phi' and (h/w)^2 S/w for Phi'', where S = lam mean_k P_tk(0), lam <= 1/2,
        # and w is the least 1 - r|a|. Rounding adds about eps max|f| / h.
        zeros = sampled_exp_zeros(10)
        pmap = blab.means._PoissonMap(BlaschkeProduct(zeros))
        for r in (0.5, 0.99, RIM):
            t = r * np.abs(zeros)
            w = ((1.0 - r) + r * (1.0 - np.abs(zeros))).min()
            h = 1e-3 * w
            scale = 0.5 * np.mean((1.0 + t) / (1.0 - t))
            near = np.angle(zeros)[:, None] + w * np.array([-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0])
            theta = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False),
                                    near.ravel() % (2.0 * np.pi)])
            radius = np.full(theta.size, r)
            phi, dphi, d2phi = pmap(theta, radius, 1.0 - radius)
            up, dup, _ = pmap(theta + h, radius, 1.0 - radius)
            down, ddown, _ = pmap(theta - h, radius, 1.0 - radius)
            eps = np.finfo(float).eps
            tol = (h / w) ** 2 * scale / 3.0 + eps * np.abs(up).max() / h
            assert np.abs((up - down) / (2.0 * h) - dphi).max() <= tol
            tol = (h / w) ** 2 * scale / w + eps * np.abs(dup).max() / h
            assert np.abs((dup - ddown) / (2.0 * h) - d2phi).max() <= tol

    def test_one_radius_blocks_keep_the_bits(self):
        # a block whose nodes share one radius forms its radius terms as
        # columns, one spanning two radii per node: the middle block of the
        # mixed call holds half a block of each radius
        pmap = blab.means._PoissonMap(BlaschkeProduct(sampled_exp_zeros(200)))
        half = _block_width(200) // 2
        theta = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, 6 * half)
        r = np.repeat([0.999, RIM], 3 * half)
        mixed = pmap(theta, r, 1.0 - r)
        for part in (slice(None, 3 * half), slice(3 * half, None)):
            alone = pmap(theta[part], r[part], 1.0 - r[part])
            for one, both in zip(alone, mixed):
                assert np.array_equal(one, both[part])

    @pytest.mark.parametrize("n, r, placed", [(50, 0.999, 12_713), (200, RIM, 18_032)])
    def test_fewer_map_evaluations_per_node_than_newton(self, n, r, placed, handed, monkeypatch):
        # placed: the points a safeguarded Newton inversion from a cubic
        # Hermite start handed to the map on these circles; this rule hands
        # 10,037 and 12,855, on the same 6,400 accepted nodes
        zeros, points = sampled_exp_zeros(n), []
        call = blab.means._PoissonMap.__call__

        def counting(self, theta, r, delta):
            points.append(theta.size)
            return call(self, theta, r, delta)

        monkeypatch.setattr(blab.means._PoissonMap, "__call__", counting)
        hardy_mean(zeros, 1.0, r)
        assert sum(handed) == 6400
        assert sum(points) < placed

    def test_unconverged_nodes_fail_loudly(self, monkeypatch):
        monkeypatch.setattr(blab.means, "_MAP_STEPS", 2)
        with pytest.raises(ResolutionError,
                           match=r"left \d+ nodes unconverged after 2 steps.* r = 0.999$"):
            hardy_mean(sampled_exp_zeros(50), 1.0, 0.999)

    def test_resolved_circles_keep_the_uniform_rule(self, monkeypatch):
        # 64 nodes x (1 - r|a|) = 48 >= 40: lam = 0 on this circle
        init = blab.means._PoissonMap.__init__

        def unsummable(self, product):
            init(self, product)
            self._turn = np.full_like(self._turn, np.nan)  # a zero summed would show as NaN

        monkeypatch.setattr(blab.means._PoissonMap, "__init__", unsummable)
        rule = self.rule(BlaschkeProduct([0.5]), np.array([0.5]), 128)
        for _ in range(2):
            rule.refine()
        n = rule.theta.shape[1]
        exact = 2.0 * np.pi * np.arange(n) / n
        assert np.abs(rule.theta[0] - exact).max() <= np.spacing(2.0 * np.pi)
        assert np.all(rule.dphi == 1.0) and np.isfinite(rule.value[0])

    def test_only_unresolved_circles_are_mapped(self):
        # 64 (1 - r/2) < 40 once r > 0.75
        r = np.array([0.5, 0.74, 0.76, 0.99])
        rule = self.rule(BlaschkeProduct([0.5]), r, 128)
        n = rule.theta.shape[1]
        exact = 2.0 * np.pi * np.arange(n) / n
        assert np.abs(rule.theta[:2] - exact).max() <= np.spacing(2.0 * np.pi)
        assert np.all(rule.dphi[:2] == 1.0)
        # a zero on the positive axis fixes the nodes at 0 and pi, and Phi'
        # crosses 1 twice: every other node of a mapped circle moves
        assert np.all((rule.theta[2:] != exact).sum(axis=1) >= n - 2)
        assert np.all((rule.dphi[2:] != 1.0).sum(axis=1) >= n - 2)


class TestMeansTable:
    def test_sup_over_r(self):
        t = MeansTable([(50, 0.4, 0.9, 1.0), (50, 0.4, 0.99, 2.0), (100, 0.4, 0.9, 1.5)])
        assert t.sup_over_r() == {(50, 0.4): 2.0, (100, 0.4): 1.5}

    def test_rows_keep_their_values(self):
        rows = [(50, 0.4, 0.9, 1.25), (50, 0.4, 0.99, 2.0)]
        assert MeansTable(rows).rows == rows

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
        assert t.rows[0][:3] == (3, 1.0, 0.0)
        assert t.rows[0][3] == pytest.approx(abs(prod.derivative(0.0)))

    def test_exponent_sequence_rows_are_the_single_runs(self):
        def fam(n):
            return sampled_exp_zeros(n)

        grid = [0.5, 0.9, 0.999]
        both = hp_trend(fam, [0.4, 0.6], [5, 10], grid).rows
        assert both == (hp_trend(fam, 0.4, [5, 10], grid).rows
                        + hp_trend(fam, 0.6, [5, 10], grid).rows)

    def test_exponents_share_every_evaluation(self, monkeypatch):
        seen = []
        derivative = BlaschkeProduct.derivative

        def recording(self, z):
            seen.append(np.array(z, copy=True))
            return derivative(self, z)

        monkeypatch.setattr(BlaschkeProduct, "derivative", recording)
        fam = radial_geometric_family(0.5)
        hp_trend(fam, [0.4, 0.6], [5, 10], [0.9, 0.99, 0.999])
        both, seen[:] = list(seen), []
        hp_trend(fam, [0.4], [5, 10], [0.9, 0.99, 0.999])
        assert len(both) == len(seen)
        assert all(np.array_equal(a, b) for a, b in zip(both, seen))

    def test_failures_follow_the_exponent_major_order(self, monkeypatch):
        # under a cap of 2048 nodes, 0.5 fails first, at degree 4; 1.2 fails
        # later, at degree 10, and comes first in the order exponent,
        # truncation, radius
        monkeypatch.setattr(blab.means, "_NODE_CAP", 2048)
        zeros = RIM * np.exp(2j * np.pi * np.random.default_rng(9).uniform(0, 1, 20))

        def fam(n):
            return zeros[:n]

        args = ([4, 10], [RIM])
        with pytest.raises(ResolutionError) as single:
            for q in (1.2, 0.5):
                hp_trend(fam, q, *args)
        with pytest.raises(ResolutionError) as both:
            hp_trend(fam, [1.2, 0.5], *args)
        assert "degree 10" in str(single.value)
        assert str(both.value) == str(single.value)
        with pytest.raises(ResolutionError, match="degree 4"):
            hp_trend(fam, 0.5, *args)
        # a bad exponent fails after the exponents before it have run
        with pytest.raises(ResolutionError, match="degree 10"):
            hp_trend(fam, [1.2, -1.0], *args)

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponents_are_refused(self, q):
        with pytest.raises(DomainError, match="positive and finite"):
            hp_trend(radial_geometric_family(), [1.0, q], [2, 4], [0.5])

    def test_a_failure_ends_the_passes(self, handed, monkeypatch):
        # the set of the failure-order test: 0.5 fails degree 4 at the cap,
        # after 64 + 64 + ... + 1024 = 2048 points, and no circle runs after
        # it when it comes first; after 1.2 it leaves 1.2 alone on degree 10,
        # which fails there after 160 + 160 + 320 + 640 = 1280 points
        monkeypatch.setattr(blab.means, "_NODE_CAP", 2048)
        zeros = RIM * np.exp(2j * np.pi * np.random.default_rng(9).uniform(0, 1, 20))
        for ps, points in (([0.5, 1.2], 2048), ([1.2, 0.5], 2048 + 1280)):
            handed.clear()
            with pytest.raises(ResolutionError, match="moved the mean"):
                hp_trend(lambda n: zeros[:n], ps, [4, 10], [RIM])
            assert sum(handed) == points

    def test_no_exponents_give_no_means(self):
        sampled = []

        def fam(n):
            sampled.append(n)
            return radial_geometric_family()(n)

        assert hardy_mean([0.5], [], 0.5) == []
        assert hp_trend(fam, [], [2, 3], [0.5]).rows == []
        assert sampled == [2, 3]

    def test_a_repeated_truncation_samples_the_family_once(self):
        sampled = []

        def fam(n):
            sampled.append(n)
            return radial_geometric_family()(n)

        rows = hp_trend(fam, 1.0, [2, 3, 2], [0.5]).rows
        assert sampled == [2, 3]
        assert [row[0] for row in rows] == [2, 3, 2] and rows[0] == rows[2]

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
