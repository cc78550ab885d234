"""The three benchmark workloads: seeded inputs, experiment lists, output checks.

`generate(workload, seed, directory)` writes every input of a workload (zeros
files through `blab.sample_zeros` and `blab.write_zeros`, JSON configs) and
returns the in-memory objects the library-call experiments use. The same seed
gives byte-identical files.

`experiments(workload, inputs)` lists the workload's experiments in run order.
Each is a `blab.cli.main([...])` subcommand call or one call of a public
library function, plus a check that the benchmark runs on its output outside
the timed interval. A check returns a list of problems; empty means correct.
Tolerances are stated next to each check. The library's own gates (residual
< 1e-8, doubling 1e-4 / 1e-6) are left as they are; the checks add oracles on
top of them.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import blab
import blab.cli

WORKLOADS = ("critical", "means", "geometry")
TWO_PI = 2.0 * math.pi

RESIDUAL_MAX = 1e-8  # the solver's own gate, re-read from its artifacts
RIM_DIGITS_MIN = 10.0  # |B'(e^it)| vs the Poisson sum: relative error <= 1e-10
BERGMAN_RTOL = 1e-6  # |integral - n pi| / (n pi) at p = 2
HARDY_SLACK = 1e-9  # H^1 mean of B' on |z| = r stays <= n, up to this relative slack
BETA_TOL = 0.05  # Cantor type estimate vs 1 - log 2 / log 3
FD_RTOL = 1e-6  # centred differences vs the analytic B' at |z| <= 0.7
DISTANCE_ATOL = 1e-12  # boundary distance vs a brute-force sweep over every arc
CURVE_ATOL = 1e-8  # region-boundary points satisfy |1 - lam| = K (1 - |lam|)
RIM_NODES = 4096
ORACLE_POINTS = 256


@dataclass
class Experiment:
    """One timed call and its correctness check.

    `call(out_dir)` returns the CLI exit code (`cli` experiments) or the
    library result; `check(value, out_dir, oracles)` returns problems and may
    record oracle digits in `oracles`.
    """

    name: str
    size: int
    call: Callable
    check: Callable
    cli: bool = False


# ---------------------------------------------------------------------------
# inputs


def _rng(seed, *tags):
    return np.random.default_rng([int(seed), *tags])


def _random_zeros(seed, n, min_gap):
    """n zeros with gaps 1 - |a| ~ U(min_gap, 1/2) and uniform arguments."""
    rng = _rng(seed, 1, n)
    gaps = rng.uniform(min_gap, 0.5, n)
    return (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))


def _disk_points(seed, tag, count, radius=1.0):
    rng = _rng(seed, 2, tag)
    return radius * np.sqrt(rng.uniform(0.0, 1.0, count)) * np.exp(
        1j * rng.uniform(0.0, TWO_PI, count))


GAUGES = {
    "linear": ({"kind": "linear"}, lambda: blab.ModelFunction.linear()),
    "exp": ({"kind": "exp", "rho": 1.0}, lambda: blab.ModelFunction.exp_tangential(1.0)),
    "power": ({"kind": "power", "gamma": 2.0}, lambda: blab.ModelFunction.truncated_power(2.0)),
}
POWER_LAW = {"kind": "power", "exponent": 2.0, "scale": 0.5}
VERTEX = {"points": [0.0]}
CANTOR_14 = {"cantor": {"base": [0.0, TWO_PI], "ratio": 1.0 / 3.0, "depth": 14}}
README_STREAM = 6  # the README's means-trend seed
CANTOR_10 = {"cantor": {"base": [0.0, TWO_PI], "ratio": 1.0 / 3.0, "depth": 10}}


def _vertex_zeros(gauge, k_const, n, seed):
    spec = blab.StolzSpec(GAUGES[gauge][1](), blab.BoundarySet.from_points([0.0]), k_const)
    return blab.sample_zeros(spec, n, seed=seed, law=blab.PowerLaw(2.0, 0.5)).zeros


def _write_config(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def generate(workload, seed, directory):
    """Write the workload's input files into `directory`; return in-memory inputs."""
    seed = int(seed)
    os.makedirs(directory, exist_ok=True)
    zeros = {}
    configs = {}
    arrays = {}

    def zeros_file(name, values):
        blab.write_zeros(os.path.join(directory, f"{name}.txt"), values)
        zeros[name] = np.asarray(values)

    if workload == "critical":
        for n in (50, 100, 200, 300):
            zeros_file(f"rand-{n}", _random_zeros(seed, n, 1e-3))
        # Whether the solver converges on a boundary-clustered set turns on
        # the exact positions of its zeros: seed-drawn sets made the exp
        # n = 200 failure come and go with the seed, and with it the failure
        # count. These sets use the README's fixed stream, as in `means`.
        for g, gauge in enumerate(GAUGES):
            for n in (50, 100, 200):
                zeros_file(f"{gauge}-{n}", _vertex_zeros(gauge, 2.0, n, (README_STREAM, g)))
        for name in zeros:
            configs[name] = _write_config(directory, f"{name}.json", {"zeros": f"{name}.txt"})
        configs["sum"] = _write_config(directory, "sum.json", {
            "zeros": "rand-200.txt", "set": VERTEX, "rho": 1.0, "beta": 1.0, "eps": 0.5})
    elif workload == "means":
        # The seed varies interior random zeros, the control the quadrature
        # resolves; with gaps down to 1e-3, n = 20 fails or needs 5-6 s on
        # about half of all seeds.
        for n in (5, 20):
            zeros_file(f"rand-{n}", _random_zeros(seed, n, 0.05))
        # Quadrature cost moves in x4 node doublings with the exact positions
        # of boundary-clustered zeros; even a rotation of one set moves a
        # Bergman call between 0.5 s and 2.9 s. A seed-drawn set would make
        # the workload's time bimodal in the seed, so these sets, like the
        # README config, use the README's fixed sampling stream.
        spec = blab.StolzSpec(GAUGES["exp"][1](), blab.BoundarySet.from_payload(VERTEX), 1.0)
        for n in (5, 10, 50, 200):
            zeros_file(f"exp-{n}", blab.sample_zeros(
                spec, n, seed=README_STREAM, law=blab.PowerLaw(2.0, 0.5)).zeros)
        configs["trend-sampled"] = _write_config(directory, "trend-sampled.json", {
            "family": {"kind": "region_sampled",
                       "region": {"model": GAUGES["exp"][0], "K": 1.0, "set": VERTEX},
                       "law": POWER_LAW},
            "p_list": [0.4, 0.6], "truncations": [25, 50], "r_grid": [0.9, 0.99, 0.999],
            "seed": README_STREAM, "out": {"report": "rep.json", "csv": "means.csv"}})
        configs["trend-radial"] = _write_config(directory, "trend-radial.json", {
            "family": {"kind": "radial_geometric", "ratio": 0.5},
            "p_list": [1.0], "truncations": [10, 20, 40]})
    elif workload == "geometry":
        zeros_file("theorem-200", blab.sample_zeros(
            blab.StolzSpec(blab.ModelFunction.truncated_power(2.0),
                           blab.BoundarySet.from_arcs([(0.0, math.pi / 4.0)]), 1.0),
            200, seed=(seed, 3), law=blab.PowerLaw(2.0, 0.5)).zeros)
        arrays["fd-points"] = _disk_points(seed, 1, 2000, radius=0.7)
        arrays["distance-points"] = _disk_points(seed, 2, 10_000)
        for name, values in arrays.items():
            blab.write_zeros(os.path.join(directory, f"{name}.txt"), values)
        configs["lemma"] = _write_config(directory, "lemma.json", {
            "region": {"model": GAUGES["exp"][0], "K": 1.0, "set": VERTEX},
            "samples": 100_000, "seed": seed,
            "out": {"report": "rep.json", "csv": "witnesses.csv"}})
        configs["theorem"] = _write_config(directory, "theorem.json", {
            "region": {"model": GAUGES["power"][0], "K": 1.0,
                       "set": {"arcs": [[0.0, math.pi / 4.0]]}},
            "products": {"count": 20, "min_degree": 2, "max_degree": 200},
            "grid_points": 2000, "law": POWER_LAW, "seed": seed})
        configs["beta"] = _write_config(directory, "beta.json", {"set": CANTOR_14})
        configs["region"] = _write_config(directory, "region.json", {
            "model": {"kind": "linear"}, "K": 1.0, "resolution": 256,
            "vertex_angle": 0.0, "out": {"csv": "curve.csv"}})
        configs["envelope"] = _write_config(directory, "envelope.json", {
            "rho": 1.0,
            "sampling": {"region": {"model": GAUGES["exp"][0], "K": 1.0, "set": VERTEX},
                         "law": POWER_LAW, "count": 60},
            "grid": {"depth": 12, "rays": 8, "ring": 32}, "seed": seed})
        configs["envelope-cantor"] = _write_config(directory, "envelope-cantor.json", {
            "rho": 1.0,
            "sampling": {"region": {"model": GAUGES["exp"][0], "K": 1.0, "set": CANTOR_10},
                         "law": POWER_LAW, "count": 60},
            "grid": {"depth": 12, "rays": 4, "ring": 32}, "seed": seed})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"zeros": zeros, "configs": configs, "arrays": arrays}


# ---------------------------------------------------------------------------
# checks


def _canonical_text(payload):
    """The README's canonical report form: sorted keys, indent 2, ASCII, newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _read_report(out_dir, name, problems):
    path = os.path.join(out_dir, name)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        payload = json.loads(text)
    except (OSError, ValueError) as exc:
        problems.append(f"report {name}: {exc}")
        return None
    if _canonical_text(payload) != text:
        problems.append(f"report {name} is not canonical JSON")
    return payload


def _rim_digits(zeros):
    """-log10 of the worst relative gap between |B'| and the Poisson sum on |z| = 1."""
    zeros = np.asarray(zeros)
    z = np.exp(1j * TWO_PI * np.arange(RIM_NODES) / RIM_NODES)
    lhs = np.abs(blab.BlaschkeProduct(zeros).derivative(z))
    rhs = np.sum((1.0 - np.abs(zeros)[:, None] ** 2)
                 / np.abs(z[None, :] - zeros[:, None]) ** 2, axis=0)
    rel = float(np.max(np.abs(lhs - rhs) / rhs))
    return -math.log10(max(rel, 1e-17))


def _rim_check(zeros, oracles, problems):
    digits = _rim_digits(zeros)
    oracles.setdefault("rim_digits", []).append(digits)
    if digits < RIM_DIGITS_MIN:
        problems.append(f"rim oracle: {digits:.2f} digits < {RIM_DIGITS_MIN}")


def _critical_points_ok(n):
    def validate(rep, out_dir):
        res = rep["results"]
        problems = []
        if res["degree"] != n or res["count"] != n - 1:
            problems.append(f"count {res['count']} for degree {res['degree']}, expected {n - 1}")
        if not res["max_residual"] < RESIDUAL_MAX:
            problems.append(f"max residual {res['max_residual']!r}")
        pts = blab.read_zeros(os.path.join(out_dir, res["points_file"])).zeros
        if pts.size != n - 1:
            problems.append(f"points file holds {pts.size} points, expected {n - 1}")
        with open(os.path.join(out_dir, res["residuals_file"]), encoding="utf-8") as fh:
            resid = json.load(fh)["residuals"]
        if len(resid) != n - 1 or not all(r < RESIDUAL_MAX for r in resid):
            problems.append("residuals file disagrees with the gate")
        return problems
    return validate


def _critical_sum_ok(n):
    def validate(rep, out_dir):
        res = rep["results"]
        problems = []
        if res["critical_count"] != n - 1:
            problems.append(f"critical_count {res['critical_count']}, expected {n - 1}")
        for key in ("weighted_total", "log_weighted_total", "unweighted_total"):
            if not (math.isfinite(res[key]) and res[key] > 0.0):
                problems.append(f"{key} = {res[key]!r}")
        return problems
    return validate


def _trend_problems(rep, p_list, truncations):
    """Every sup-over-r Hardy mean lies in (0, N]: M_p <= M_1 <= N for p <= 1."""
    sups = rep["results"]["sup_over_r"]
    problems = []
    if len(sups) != len(p_list) * len(truncations):
        problems.append(f"{len(sups)} sup rows, expected {len(p_list) * len(truncations)}")
    for key, val in sups.items():
        n = int(key.split(",")[0].split("=")[1])
        if not 0.0 < val <= n * (1.0 + HARDY_SLACK):
            problems.append(f"{key}: sup mean {val!r} outside (0, {n}]")
    return problems


def _check_hardy(n):
    def check(value, out_dir, oracles):
        if not 0.0 < value <= n * (1.0 + HARDY_SLACK):
            return [f"H^1 mean {value!r} outside (0, {n}]"]
        return []
    return check


def _check_bergman(zeros):
    n = len(zeros)

    def check(value, out_dir, oracles):
        problems = []
        _rim_check(zeros, oracles, problems)
        rel = abs(value - n * math.pi) / (n * math.pi)
        oracles.setdefault("bergman_digits", []).append(-math.log10(max(rel, 1e-17)))
        if rel > BERGMAN_RTOL:
            problems.append(f"Bergman integral {value!r} misses n*pi by {rel:.2e} relative")
        return problems
    return check


def _report_check(name, validate, zeros=None):
    """Canonical report `name`, validated; plus the rim oracle when `zeros` is given."""
    def check(code, out_dir, oracles):
        problems = []
        if zeros is not None:
            _rim_check(zeros, oracles, problems)
        rep = _read_report(out_dir, name, problems)
        return problems if rep is None else problems + validate(rep, out_dir)
    return check


def _lemma_ok(rep, out_dir):
    res = rep["results"]
    problems = []
    if res["samples"] != 100_000 or res["violations"] != 0:
        problems.append(f"lemma: {res['violations']} violations in {res['samples']} samples")
    if not 0.0 < res["worst_ratio"] <= 1.0:
        problems.append(f"lemma worst ratio {res['worst_ratio']!r}")
    return problems


def _theorem_ok(rep, out_dir):
    res = rep["results"]
    if res["samples"] != 20 * 2000 or res["violations"] != 0:
        return [f"theorem: {res['violations']} violations in {res['samples']} samples"]
    return []


def _beta_ok(rep, out_dir):
    beta = rep["results"]["beta"]
    target = 1.0 - math.log(2.0) / math.log(3.0)
    return [] if abs(beta - target) <= BETA_TOL else [f"beta {beta!r}, target {target:.5f}"]


def _region_ok(rep, out_dir):
    with open(os.path.join(out_dir, rep["results"]["csv_file"]), encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    lam = np.asarray([complex(float(a), float(b)) for a, b in (r.split(",") for r in rows)])
    if lam.size != 256:
        return [f"{lam.size} boundary points, expected 256"]
    err = float(np.max(np.abs(np.abs(1.0 - lam) - (1.0 - np.abs(lam)))))
    return [] if err <= CURVE_ATOL else [f"boundary points off the curve by {err:.2e}"]


def _envelope_ok(rep, out_dir):
    res = rep["results"]
    if not (res["c1"] > 0.0 and math.isfinite(res["c1"]) and math.isfinite(res["c2"])
            and res["c2"] >= 0.0 and res["grid_size"] > 0):
        return [f"envelope fit {res}"]
    return []


def _cantor_arcs(base, ratio, depth):
    """Arcs of the middle-gap generator, expanded independently of blab."""
    starts = np.asarray([base[0]])
    length = base[1] - base[0]
    for _ in range(depth):
        keep = length * ratio
        starts = np.stack([starts, starts + length - keep], axis=1).ravel()
        length = keep
    return starts, starts + length


def _check_distance(points, base, ratio, depth):
    def check(value, out_dir, oracles):
        lo, hi = _cantor_arcs(base, ratio, depth)
        z = points[:ORACLE_POINTS]
        ang = np.mod(np.angle(z), TWO_PI)[:, None]
        inside = ((ang >= lo[None, :]) & (ang <= hi[None, :])).any(axis=1)
        ends = np.exp(1j * np.concatenate([lo, hi]))
        chord = np.abs(z[:, None] - ends[None, :]).min(axis=1)
        want = np.where(inside, np.abs(np.abs(z) - 1.0), chord)
        err = float(np.max(np.abs(value[:ORACLE_POINTS] - want)))
        return [] if err <= DISTANCE_ATOL else [f"distance off by {err:.2e}"]
    return check


def _check_fd(product, points):
    def check(value, out_dir, oracles):
        problems = []
        _rim_check(product.zeros.zeros, oracles, problems)
        exact = product.derivative(points)
        rel = float(np.max(np.abs(value - exact) / np.maximum(np.abs(exact), 1e-30)))
        if rel > FD_RTOL:
            problems.append(f"finite differences off by {rel:.2e} relative")
        return problems
    return check


# ---------------------------------------------------------------------------
# experiment lists


def _cli(name, size, argv, check):
    def call(out_dir):
        return blab.cli.main([argv[0], "--config", argv[1], "--out", out_dir])
    return Experiment(name, size, call, check, cli=True)


def _lib(name, size, fn, check):
    return Experiment(name, size, lambda out_dir: fn(), check)


def experiments(workload, inputs):
    zs, cfg, arr = inputs["zeros"], inputs["configs"], inputs["arrays"]
    out = []
    if workload == "critical":
        for name in ("rand-50", "rand-100", "rand-200", "rand-300",
                     *(f"{g}-{n}" for g in GAUGES for n in (50, 100, 200))):
            n = len(zs[name])
            out.append(_cli(f"critical-points/{name}", n, ("critical-points", cfg[name]),
                            _report_check("critical-points.json", _critical_points_ok(n),
                                          zs[name])))
        out.append(_cli("critical-sum/rand-200", 200, ("critical-sum", cfg["sum"]),
                        _report_check("critical-sum.json", _critical_sum_ok(200))))
    elif workload == "means":
        out.append(_cli("means-trend/region-sampled-exp", 50,
                        ("means-trend", cfg["trend-sampled"]),
                        _report_check("rep.json", lambda rep, d: _trend_problems(
                            rep, [0.4, 0.6], [25, 50]))))
        out.append(_cli("means-trend/radial-geometric", 40, ("means-trend", cfg["trend-radial"]),
                        _report_check("means-trend.json", lambda rep, d: _trend_problems(
                            rep, [1.0], [10, 20, 40]))))
        b50 = blab.BlaschkeProduct(zs["exp-50"])
        out.append(_lib("hardy_mean/exp-50/r=0.999", 50,
                        lambda: blab.hardy_mean(b50, 1.0, 0.999), _check_hardy(50)))
        for name in ("rand-5", "rand-20", "exp-5", "exp-10"):
            prod = blab.BlaschkeProduct(zs[name])
            out.append(_lib(f"bergman_integral/{name}/p=2", len(zs[name]),
                            lambda prod=prod: blab.bergman_integral(prod, 2.0),
                            _check_bergman(zs[name])))
        b200 = blab.BlaschkeProduct(zs["exp-200"])
        out.append(_lib("hardy_mean/exp-200/r=1-1e-6", 200,
                        lambda: blab.hardy_mean(b200, 1.0, 1.0 - 1e-6), _check_hardy(200)))
    elif workload == "geometry":
        out.append(_cli("verify-lemma/readme", 100_000, ("verify-lemma", cfg["lemma"]),
                        _report_check("rep.json", _lemma_ok)))
        out.append(_cli("verify-theorem1/readme", 200, ("verify-theorem1", cfg["theorem"]),
                        _report_check("verify-theorem1.json", _theorem_ok)))
        out.append(_cli("beta-estimate/cantor-14", 14, ("beta-estimate", cfg["beta"]),
                        _report_check("beta-estimate.json", _beta_ok)))
        out.append(_cli("region-boundary/readme", 256, ("region-boundary", cfg["region"]),
                        _report_check("region-boundary.json", _region_ok)))
        out.append(_cli("envelope-fit/readme", 60, ("envelope-fit", cfg["envelope"]),
                        _report_check("envelope-fit.json", _envelope_ok)))
        out.append(_cli("envelope-fit/cantor-10", 60, ("envelope-fit", cfg["envelope-cantor"]),
                        _report_check("envelope-fit.json", _envelope_ok)))
        prod = blab.BlaschkeProduct(zs["theorem-200"])
        fd_pts = arr["fd-points"]
        out.append(_lib("derivative_fd/theorem-200", 200,
                        lambda: prod.derivative_fd(fd_pts, h=1e-5), _check_fd(prod, fd_pts)))
        cantor = CANTOR_14["cantor"]
        dist_set = blab.BoundarySet.cantor(tuple(cantor["base"]), cantor["ratio"], cantor["depth"])
        dist_pts = arr["distance-points"]
        out.append(_lib("distance/cantor-14", dist_pts.size,
                        lambda: dist_set.distance(dist_pts),
                        _check_distance(dist_pts, cantor["base"], cantor["ratio"],
                                        cantor["depth"])))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
