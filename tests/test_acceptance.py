"""End-to-end acceptance suite: one criterion per test, one verdict line each.

Run with -s to see the verdict lines. Every randomized experiment is seeded;
reruns print identical numbers. Two branches of criterion 9 are mathematically
unattainable in float64 (the radial geometric family stops being
representable at N = 53) and are pinned as strict xfails with companion
trend checks at representable depth.
"""
import json
import os
import time

import numpy as np
import pytest

from blab import (
    BlaschkeProduct,
    BoundarySet,
    EmptyRegionError,
    InvalidZeroError,
    ModelFunction,
    PowerLaw,
    StolzSpec,
    cli,
    critical_points,
    critical_sum,
    envelope_fit,
    envelope_grid,
    hp_trend,
    lemma_check,
    protas_sum,
    radial_geometric_family,
    region_is_empty,
    sample_zeros,
    schwarz_pick_check,
    theorem_check,
    type_beta,
)
from test_regions import vertex_spec
from winding import argument_principle_count

R_GRID = [0.9, 0.99, 0.999]


def verdict(tag, ok, detail):
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {tag}: {detail}"


def disk_points(rng, count):
    return np.sqrt(rng.uniform(0.0, 1.0, count)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, count))


def test_criterion_1_lemma_suite():
    gauges = [
        ModelFunction.linear(),
        ModelFunction.truncated_power(1.0),
        ModelFunction.truncated_power(2.0),
        ModelFunction.truncated_power(3.0),
        ModelFunction.exp_tangential(0.5),
        ModelFunction.exp_tangential(1.0),
        ModelFunction.exp_tangential(2.0),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    empty = 0
    for gi, phi in enumerate(gauges):
        for K in (0.5, 1.0, 2.0):
            spec = vertex_spec(phi, 0.0, K)
            if region_is_empty(phi, K):
                with pytest.raises(EmptyRegionError):
                    lemma_check(spec, 10, seed=0)
                empty += 1
                continue
            rep = lemma_check(spec, 100_000, seed=1000 + gi)
            assert rep.samples == 100_000
            assert rep.violations == 0
            worst = max(worst, rep.worst_ratio)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 19 and empty == 2 and elapsed < 30.0
    verdict(1, ok,
            f"{checked} (gauge, K) combos x 1e5 samples: 0 violations, "
            f"worst lhs/bound {worst:.6f}, {empty} empty combos rejected, "
            f"{elapsed:.1f}s < 30s")


def test_criterion_2_theorem_suite():
    gauges = [
        (ModelFunction.linear(), 2.0),
        (ModelFunction.truncated_power(2.0), 1.0),
        (ModelFunction.exp_tangential(1.0), 1.0),
    ]
    sets_ = [
        BoundarySet.from_points([0.0]),
        BoundarySet.from_points([0.0, np.pi / 2]),
        BoundarySet.from_arcs([(0.0, np.pi / 4)]),
    ]
    law = PowerLaw(2.0, 0.5)
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    degrees = []
    for j in range(100):
        phi, K = gauges[j % 3]
        spec = StolzSpec(phi, sets_[(j // 3) % 3], K)
        n = int(np.random.default_rng([2, 7, j]).integers(2, 201))
        zeros = sample_zeros(spec, n, seed=(7, j), law=law)
        grid = disk_points(np.random.default_rng([2, 77, j]), 2000)
        rep = theorem_check(BlaschkeProduct(zeros), grid, spec)
        violations += rep.violations
        worst = max(worst, rep.worst_ratio)
        degrees.append(n)
    elapsed = time.perf_counter() - t0
    ok = (violations == 0 and min(degrees) >= 2 and max(degrees) <= 200
          and max(degrees) > 150 and elapsed < 120.0)
    verdict(2, ok,
            f"100 products (degrees {min(degrees)}-{max(degrees)}) x 2000 grid "
            f"points: 0 violations, worst lhs/rhs {worst:.3e}, {elapsed:.1f}s < 120s")


def test_criterion_3_derivative_fd_oracle():
    worst = 0.0
    for j, deg in enumerate((2, 7, 23, 60, 121, 200)):
        rng = np.random.default_rng([3, j])
        zeros = np.sqrt(rng.uniform(0.01, 0.64, deg)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, deg))
        B = BlaschkeProduct(zeros)
        pts = np.sqrt(rng.uniform(0.0, 0.49, 1000)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 1000))
        exact = B.derivative(pts)
        approx = B.derivative_fd(pts, h=1e-5)
        rel = np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-30)
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-6
    verdict(3, ok,
            f"6 degrees up to 200, 1000 points each: worst FD rel error {worst:.3e} < 1e-6")


def test_criterion_4_critical_point_completeness():
    worst_resid = 0.0
    planted = 0
    for seed in range(50):
        rng = np.random.default_rng([4, seed])
        n = int(rng.integers(2, 51))
        zs = np.sqrt(rng.uniform(0.0004, 0.9025, n)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, n))
        if seed % 10 == 0:
            zs[1] = zs[0]
            zs[2 % n] = zs[0]
            planted += 1
        cs = critical_points(zs)
        assert cs.count == n - 1
        if cs.count:
            worst_resid = max(worst_resid, float(np.max(cs.residuals)))
        p = BlaschkeProduct(zs)
        for r in (0.99, 0.999):
            assert argument_principle_count(p, r) == n - 1
    ok = worst_resid < 1e-8
    verdict(4, ok,
            f"50 products (n in [2,50], {planted} with planted multiplicity): "
            f"all n-1 points found, worst residual {worst_resid:.2e} < 1e-8, "
            f"winding counts agree at r = 0.99 and 0.999")


def test_criterion_5_closed_form_pair():
    worst_loc = 0.0
    worst_rel = 0.0
    for a in (0.3, 0.5, 0.9):
        cs = critical_points([a, -a])
        assert cs.count == 1
        worst_loc = max(worst_loc, abs(complex(cs.points[0])))
        z = 0.8 * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        hand = -2.0 * z * (1.0 - a**4) / (1.0 - a * a * z * z) ** 2
        got = BlaschkeProduct([a, -a]).derivative(z)
        worst_rel = max(worst_rel, float(np.max(np.abs(got - hand) / np.abs(hand))))
    ok = worst_loc <= 1e-10 and worst_rel < 1e-12
    verdict(5, ok,
            f"zeros {{a, -a}}, a in {{0.3, 0.5, 0.9}}: critical point at 0 within "
            f"{worst_loc:.2e} <= 1e-10; hand derivative matches to {worst_rel:.2e}")


def test_criterion_6_type_estimator():
    one_point = type_beta(BoundarySet.from_points([0.7]))
    two_points = type_beta(BoundarySet.from_points([0.0, 2.0]))
    arc = type_beta(BoundarySet.from_arcs([(0.3, 0.3 + np.pi / 4)]))
    cantor = type_beta(BoundarySet.cantor((0.0, 2.0 * np.pi), 1.0 / 3.0, 14))
    target = 1.0 - np.log(2.0) / np.log(3.0)
    ok = (abs(one_point - 1.0) <= 0.05 and abs(two_points - 1.0) <= 0.05
          and abs(arc) <= 0.05 and abs(cantor - target) <= 0.05)
    verdict(6, ok,
            f"beta: point {one_point:.5f} (target 1), pair {two_points:.5f} (target 1), "
            f"arc {arc:.5f} (target 0), middle-thirds Cantor {cantor:.5f} "
            f"(target {target:.5f}), all within 0.05")


def test_criterion_7_schwarz_pick_suite():
    pairs = 0
    for j in range(100):
        rng = np.random.default_rng([7, j])
        deg = int(rng.integers(1, 40))
        zeros = np.sqrt(rng.uniform(1e-4, 0.9604, deg)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, deg))
        radii = 1.0 - 10.0 ** rng.uniform(-12, -0.3, 100)
        z = radii * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        assert schwarz_pick_check(BlaschkeProduct(zeros), z).all()
        pairs += 100
    verdict(7, True, f"{pairs} seeded (B, z) pairs with radii up to 1 - 1e-12: 0 violations")


def zero_ladders(zeros, levels):
    """Radial ladders about each zero: |B'| peaks on the rim side of a zero,
    so the fit grid needs points between every zero and the circle."""
    zs = np.asarray(zeros, dtype=complex)
    e = zs / np.abs(zs)
    u = 1.0 - np.abs(zs)
    pts = [zs]
    for m in range(1, levels + 1):
        pts.append(e * (1.0 - u * 0.5**m))
        pts.append(e * (1.0 - u * (1.0 + 0.5**m)))
    return np.concatenate(pts)


def test_criterion_8_envelope_fit():
    E = BoundarySet.from_points([0.0])
    spec = StolzSpec(ModelFunction.exp_tangential(1.0), E, 1.0)
    zeros = sample_zeros(spec, 60, seed=77, law=PowerLaw(2.0, 0.5))
    B = BlaschkeProduct(zeros)
    base_grid = np.concatenate([envelope_grid(E, depth=12, rays=10, ring=64),
                                zero_ladders(zeros.zeros, 6)])
    fine_grid = np.concatenate([envelope_grid(E, depth=24, rays=20, ring=128),
                                zero_ladders(zeros.zeros, 12)])
    fit = envelope_fit(B, E, 1.0, base_grid)
    refit = envelope_fit(B, E, 1.0, fine_grid)
    drift = abs(refit.c2 - fit.c2) / fit.c2

    rng = np.random.default_rng(5150)
    cloud = [disk_points(rng, 40_000)]
    theta = rng.uniform(-0.4, 0.4, 40_000)
    gap = 10.0 ** rng.uniform(-9.0, -0.3, 40_000)
    cloud.append((1.0 - gap) * np.exp(1j * theta))
    u = 1.0 - np.abs(zeros.zeros)
    box = rng.uniform(-1, 1, (300, 60)) + 1j * rng.uniform(-1, 1, (300, 60))
    cloud.append((zeros.zeros[None, :] + box * u[None, :]).ravel())
    pts = np.concatenate(cloud)
    pts = pts[(np.abs(pts) < 1.0) & (E.distance(pts) > 0.0)]
    ratio = np.abs(B.derivative(pts)) / fit.envelope(E.distance(pts))
    worst = float(ratio.max())

    ok = drift < 0.20 and worst <= 1.10
    verdict(8, ok,
            f"c2 {fit.c2:.6f} -> {refit.c2:.6f} under 2x refinement "
            f"(drift {drift:.2%} < 20%); stored envelope vs {pts.size} "
            f"out-of-sample points: worst |B'|/envelope {worst:.6f} <= 1.10")


_WALL_REASON = ("1 - 2^-54 rounds to 1.0 in float64: the N = 100 truncation of "
                "the radial geometric family is not representable, so the "
                "N = 50 -> 100 comparison cannot be run at machine precision")


@pytest.mark.xfail(strict=True, raises=InvalidZeroError, reason=_WALL_REASON)
def test_criterion_9a_radial_family_p04_as_stated():
    print("criterion 9a: UNATTAINABLE (strict xfail) - " + _WALL_REASON)
    hp_trend(radial_geometric_family(0.5), 0.4, [50, 100], R_GRID)


@pytest.mark.xfail(strict=True, raises=InvalidZeroError, reason=_WALL_REASON)
def test_criterion_9b_radial_family_p06_as_stated():
    print("criterion 9b: UNATTAINABLE (strict xfail) - " + _WALL_REASON)
    hp_trend(radial_geometric_family(0.5), 0.6, [50, 100], R_GRID)


def test_criterion_9_companion_trend_at_representable_depth():
    fam = radial_geometric_family(0.5)
    growth = {}
    for p in (0.4, 0.6):
        sups = hp_trend(fam, p, [25, 50], R_GRID).sup_over_r()
        growth[p] = sups[(50, p)] / sups[(25, p)] - 1.0
    ok = abs(growth[0.4]) < 0.10 and abs(growth[0.6]) < 0.10
    verdict("9 companion", ok,
            f"radial family at representable depth, N = 25 -> 50 sup growth: "
            f"p = 0.4 {growth[0.4]:+.4%} (< 10%, low-exponent branch confirmed); "
            f"p = 0.6 {growth[0.6]:+.4%} (also flat: the > 50% branch has no "
            f"representable analogue, pinned above as strict xfail)")


def test_criterion_9c_tangential_family_bounded_trend():
    spec = vertex_spec(ModelFunction.truncated_power(2.0), 0.0, 1.0)
    law = PowerLaw(2.0, 0.5)

    def fam(n):
        return sample_zeros(spec, n, seed=902, law=law)

    sups = hp_trend(fam, 0.2, [25, 50], R_GRID).sup_over_r()
    growth = sups[(50, 0.2)] / sups[(25, 0.2)] - 1.0
    ok = abs(growth) < 0.10
    verdict("9c", ok,
            f"gamma = 2 tangential family, p = 0.2 (inside the p < 1/(2 gamma) "
            f"range): sup growth N = 25 -> 50 is {growth:+.4%}, bounded trend")


def test_criterion_10_weighted_critical_sum_trend():
    E = BoundarySet.from_points([0.0])
    spec = StolzSpec(ModelFunction.exp_tangential(1.0), E, 1.0)
    zeros = sample_zeros(spec, 100, seed=31, law=PowerLaw(2.0, 0.5))
    totals = {}
    plain = {}
    for n in (25, 50, 100):
        cs = critical_points(BlaschkeProduct(zeros.zeros[:n]))
        totals[n] = critical_sum(cs, E, rho=1.0, beta=1.0, eps=0.5).total
        plain[n] = protas_sum(cs, 1.0)
    g1 = totals[50] / totals[25] - 1.0
    g2 = totals[100] / totals[50] - 1.0
    ok = g1 < 0.10 and g2 < 0.10
    verdict(10, ok,
            f"weighted sums {totals[25]:.6f} -> {totals[50]:.6f} -> {totals[100]:.6f} "
            f"({g1:+.2%}, {g2:+.2%}, both < 10%); unweighted critical gap sums "
            f"{plain[25]:.4f} / {plain[50]:.4f} / {plain[100]:.4f} for contrast")


def test_criterion_11_determinism(tmp_path):
    point_set = {"points": [0.0]}
    exp_region = {"model": {"kind": "exp", "rho": 1.0}, "K": 1.0, "set": point_set}
    power_law = {"kind": "power", "exponent": 2.0, "scale": 0.5}
    jobs = {
        "verify-lemma": {
            "region": {"model": {"kind": "linear"}, "K": 1.0, "set": point_set},
            "samples": 3000,
            "seed": 7,
            "out": {"report": "rep.json", "csv": "witnesses.csv"},
        },
        "verify-theorem1": {
            "region": {"model": {"kind": "power", "gamma": 2.0}, "K": 1.0,
                       "set": point_set},
            "products": {"count": 3, "min_degree": 2, "max_degree": 12},
            "grid_points": 300,
            "law": power_law,
            "seed": 11,
            "out": {"report": "rep.json", "csv": "rows.csv"},
        },
        "means-trend": {
            "family": {"kind": "region_sampled", "region": exp_region,
                       "law": power_law},
            "p_list": [0.5],
            "truncations": [4, 8],
            "r_grid": [0.9, 0.99],
            "seed": 6,
            "out": {"report": "rep.json", "csv": "means.csv"},
        },
        "envelope-fit": {
            "rho": 1.0,
            "sampling": {"region": exp_region, "law": power_law, "count": 12},
            "grid": {"depth": 8, "rays": 6, "ring": 16},
            "seed": 5,
            "out": {"report": "rep.json"},
        },
    }
    compared = 0
    for command, payload in jobs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        out1 = tmp_path / f"{command}-1"
        out2 = tmp_path / f"{command}-2"
        assert cli.main([command, "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2)) and names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (
                f"{command}/{name} differs between reruns")
            compared += 1
    verdict(11, True,
            f"4 randomized subcommands rerun with fixed seeds: "
            f"{compared} artifacts byte-identical")
