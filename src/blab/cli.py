"""Batch experiment driver: every module behind a seeded, file-driven subcommand.

Usage: blab <subcommand> --config cfg.json [--seed N] [--out DIR]

Configs are strict JSON: unknown fields are rejected with their path, and a
seed is mandatory for anything randomized. Exit codes: 0 clean run, 1 a
verified inequality was violated, 2 bad configuration or unreadable input,
3 numerical failure inside a module (sampling, resolution, root finding).
Reports are canonical JSON (sorted keys, no timestamps): rerunning a config
with the same seed reproduces every output byte for byte.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .bounds import (BoundReport, envelope_fit, envelope_grid, lemma_bound, lemma_check,
                     theorem_check)
from .critical import critical_points, critical_sum, log_weighted_sum, protas_sum
from .errors import BlabError
from .fileio import (_csv, _reject_constant, atomic_write_text, canonical_json, format_zeros,
                     means_csv, points_csv, read_boundary, read_zeros, series_csv, write_report)
from .means import hp_trend, radial_geometric_family
from .products import BlaschkeProduct
from .regions import (BoundarySet, GeometricLaw, ModelFunction, PowerLaw,
                      StolzSpec, _type_beta, region_boundary, sample_zeros)

LEMMA_TAG = "phi(|t - z*|lam|| / 3) / |1 - conj(lam)*z| <= 2*C_phi + K"
THEOREM_TAG = "|B'(z)| <= 2*(2*C_phi + K)^2 * sum(1 - |z_n|) / phi(d(z, E)/6)^2"
ENVELOPE_TAG = "|B'(z)| <= c1 * exp(c2 / d(z, E)^rho)"
CRITICAL_SUM_TAG = "terms (1 - |z'|) * d(z', E)^max(rho - beta + eps, 0)"


class ConfigError(Exception):
    """Configuration rejected; message carries the offending field path."""


# ---------------------------------------------------------------------------
# field validation


def _as_dict(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _fields(cfg, path, required, optional):
    """Validate a config object against its schema, rejecting unknown keys."""
    cfg = _as_dict(cfg, path)
    for key in cfg:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}: unknown field")
    out = {}
    for key, parse in required.items():
        if key not in cfg:
            raise ConfigError(f"{path}.{key}: required field missing")
        out[key] = parse(cfg[key], f"{path}.{key}")
    for key, parse in optional.items():
        if key in cfg:
            out[key] = parse(cfg[key], f"{path}.{key}")
    return out


def _config(cfg, required, optional, **side):
    """The top-level schema plus the fields every subcommand shares.

    `seed` is a nonnegative integer; `out` names the report and the
    subcommand's side files, each a plain file name in the output
    directory. `side` maps each side file to its default name, or to None
    when it is written only if named. The parsed `out` is always present,
    with the side files' defaults filled in.
    """
    names = {name: _file_name for name in ("report", *side)}
    parsed = _fields(cfg, "config", required, dict(
        optional,
        seed=lambda v, p: _integer(v, p, minimum=0),
        out=lambda v, p: _fields(v, p, {}, names),
    ))
    out = parsed.setdefault("out", {})
    for key, default in side.items():
        if default is not None:
            out.setdefault(key, default)
    return parsed


def _check_out_names(out, out_dir):
    """Reject two outputs of one name, and a name that is a directory in out_dir."""
    seen = {}
    for key, name in out.items():
        if name in seen:
            raise ConfigError(f"config.out: {seen[name]} and {key} both name {name!r}")
        if os.path.isdir(os.path.join(out_dir, name)):
            raise ConfigError(f"config.out.{key}: {name!r} is a directory in {out_dir}")
        seen[name] = key


def _number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number")
    if positive and not value > 0.0:
        raise ConfigError(f"{path}: must be positive")
    return value


def _positive(value, path):
    return _number(value, path, positive=True)


def _integer(value, path, minimum=1):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return int(value)


def _string(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string")
    return value


def _file_name(value, path):
    name = _string(value, path)
    if os.path.basename(name) != name or name in (os.curdir, os.pardir) or "\0" in name:
        raise ConfigError(f"{path}: expected a plain file name, got {name!r}")
    return name


def _list_of(parse, noun):
    """Parser of a non-empty array whose items `parse` validates."""
    def parse_list(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty array of {noun}")
        return [parse(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return parse_list


def _kind_parser(kinds):
    """Parser of an object config that names what it describes by "kind".

    `kinds` maps each kind to (constructor, required parameters, optional
    parameters); the validated parameters are the constructor's keywords.
    """
    def parse(value, path):
        kind = _as_dict(value, path).get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{path}.kind: expected {' | '.join(kinds)}")
        maker, required, optional = kinds[kind]
        parsed = _fields(value, path, dict(required, kind=_string), optional)
        del parsed["kind"]
        try:
            return maker(**parsed)
        except BlabError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return parse


_parse_model = _kind_parser({
    "linear": (ModelFunction.linear, {}, {}),
    "power": (ModelFunction.truncated_power, {"gamma": _number}, {}),
    "exp": (ModelFunction.exp_tangential, {"rho": _number}, {}),
})
_parse_law = _kind_parser({
    "geometric": (lambda ratio=0.5: GeometricLaw(ratio), {}, {"ratio": _positive}),
    "power": (PowerLaw, {"exponent": _positive}, {"scale": _positive}),
})


def _parse_boundary(value, path, base_dir):
    if isinstance(value, str):
        full = os.path.join(base_dir, value)
        try:
            return read_boundary(full)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read {full}: {exc}") from exc
        except (BlabError, json.JSONDecodeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad boundary file {full}: {exc}") from exc
    if isinstance(value, dict):
        try:
            return BoundarySet.from_payload(value)
        except (BlabError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}: expected a file path or an inline boundary object")


def _parse_region(value, path, base_dir):
    parsed = _fields(value, path, {
        "model": _parse_model,
        "K": _positive,
        "set": lambda v, p: _parse_boundary(v, p, base_dir),
    }, {})
    return StolzSpec(parsed["model"], parsed["set"], parsed["K"])


def _echo(value):
    """A parsed config value in its report form: the object config it was
    parsed from, with defaults filled in. A region spreads into its parent as
    `model`, `K` and `set`."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if isinstance(item, StolzSpec):
                out.update(model=_echo(item.phi), K=item.k_const, set=_echo(item.boundary))
            else:
                out[key] = _echo(item)
        return out
    if isinstance(value, ModelFunction):
        return {"kind": value.kind, "param": value.param}
    if isinstance(value, GeometricLaw):
        return {"kind": "geometric", "ratio": value.ratio}
    if isinstance(value, PowerLaw):
        return {"kind": "power", "exponent": value.exponent, "scale": value.scale}
    if isinstance(value, BoundarySet):
        return value.to_payload()
    return value


def _side(plan, out_dir, key, text):
    """Write the side file named by out[key], if any; return the name."""
    name = plan["out"].get(key)
    if name is not None:
        atomic_write_text(os.path.join(out_dir, name), text)
    return name


def _disk_points(rng, count):
    return np.sqrt(rng.uniform(0.0, 1.0, count)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, count))


def _resolve_seed(config_seed, flag_seed, required):
    """The seed to run with: --seed, when given, wins over config.seed."""
    seed = config_seed if flag_seed is None else flag_seed
    if required and seed is None:
        raise ConfigError("config.seed: required for randomized experiments "
                          "(or pass --seed)")
    if not required and seed is not None:
        raise ConfigError("seed: this experiment is deterministic; "
                          "remove the seed (config field or --seed flag)")
    if flag_seed is not None:
        _integer(flag_seed, "--seed", minimum=0)
    return seed


# ---------------------------------------------------------------------------
# subcommand runners: prep(cfg, base_dir) -> (plan, seeded), where `seeded`
# says whether the experiment needs a seed; run(plan, out_dir) -> (results,
# exit code), writing the side files through `_side`. `main` resolves
# plan["seed"] and the report's name between the two, and refuses output names
# that collide, before anything runs. The report's `config` is `_echo(plan)`
# without `out` and the zeros read from a file; `_RUNNERS` gives each
# subcommand's inequality and whether its report records the seed.


def _prep_verify_lemma(cfg, base_dir):
    return _config(cfg, {
        "region": lambda v, p: _parse_region(v, p, base_dir),
        "samples": _integer,
    }, {}, csv=None), True


def _run_verify_lemma(plan, out_dir):
    spec = plan["region"]
    report = lemma_check(spec, plan["samples"], plan["seed"])
    _side(plan, out_dir, "csv", _csv(
        "rank,ratio,z_re,z_im,t_re,t_im,lambda_re,lambda_im",
        [(rank, w["ratio"], w["z"].real, w["z"].imag, w["t"].real, w["t"].imag,
          w["lambda"].real, w["lambda"].imag) for rank, w in enumerate(report.worst_k, 1)]))
    results = dict(report.to_payload(), bound=lemma_bound(spec.phi, spec.k_const))
    return results, 1 if report.violations else 0


def _prep_verify_theorem1(cfg, base_dir):
    parsed = _config(cfg, {
        "region": lambda v, p: _parse_region(v, p, base_dir),
        "products": lambda v, p: _fields(v, p, {
            "count": _integer, "min_degree": _integer, "max_degree": _integer}, {}),
        "grid_points": _integer,
    }, {"law": _parse_law}, csv=None)
    prod = parsed["products"]
    if prod["min_degree"] > prod["max_degree"]:
        raise ConfigError("config.products: min_degree exceeds max_degree")
    parsed.setdefault("law", GeometricLaw(0.5))
    return parsed, True


def _run_verify_theorem1(plan, out_dir):
    spec, seed, prod = plan["region"], plan["seed"], plan["products"]
    rows = []
    worst = None
    for j in range(prod["count"]):
        rng = np.random.default_rng([seed, 101, j])
        n = int(rng.integers(prod["min_degree"], prod["max_degree"] + 1))
        zeros = sample_zeros(spec, n, seed=(seed, j), law=plan["law"])
        grid = _disk_points(np.random.default_rng([seed, 202, j]), plan["grid_points"])
        rep = theorem_check(BlaschkeProduct(zeros), grid, spec, check_zeros=False)
        rows.append((j, n, rep.worst_ratio, rep.violations))
        if worst is None or rep.worst_ratio > worst["ratio"]:
            worst = dict(rep.worst_witness, product=j, degree=n)
    _side(plan, out_dir, "csv", _csv("product,degree,worst_ratio,violations", rows))
    report = BoundReport(samples=prod["count"] * plan["grid_points"],
                         violations=sum(row[3] for row in rows),
                         worst_ratio=worst.pop("ratio"), worst_witness=worst)
    return report.to_payload(), 1 if report.violations else 0


def _read_zeros_file(name, base_dir):
    """The zeros file named by config.zeros, relative to the config's directory."""
    full = os.path.join(base_dir, name)
    try:
        return read_zeros(full)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config.zeros: cannot read {full}: {exc}") from exc
    except BlabError as exc:
        raise ConfigError(f"config.zeros: {exc}") from exc


def _prep_critical_points(cfg, base_dir):
    parsed = _config(cfg, {"zeros": _string}, {}, points="critical_points.txt",
                     residuals="critical_points_residuals.json")
    parsed["zero_seq"] = _read_zeros_file(parsed["zeros"], base_dir)
    return parsed, False


def _run_critical_points(plan, out_dir):
    cs = critical_points(BlaschkeProduct(plan["zero_seq"]))
    points_file = _side(plan, out_dir, "points", format_zeros(
        cs.points, header="critical points, one per line: re im"))
    residuals_file = _side(plan, out_dir, "residuals", canonical_json(
        {"residuals": [float(r) for r in cs.residuals]}))
    return {
        "degree": cs.degree,
        "count": cs.count,
        "max_residual": float(np.max(cs.residuals)) if cs.count else 0.0,
        "points_file": points_file,
        "residuals_file": residuals_file,
    }, 0


def _prep_critical_sum(cfg, base_dir):
    parsed = _config(cfg, {
        "zeros": _string,
        "set": lambda v, p: _parse_boundary(v, p, base_dir),
        "rho": _positive,
        "beta": _number,
        "eps": _positive,
    }, {}, csv=None)
    parsed["zero_seq"] = _read_zeros_file(parsed["zeros"], base_dir)
    return parsed, False


def _run_critical_sum(plan, out_dir):
    cs = critical_points(BlaschkeProduct(plan["zero_seq"]))
    weighted = critical_sum(cs, plan["set"], plan["rho"], plan["beta"], plan["eps"])
    results = {
        "critical_count": cs.count,
        "weighted_total": weighted.total,
        "log_weighted_total": log_weighted_sum(cs, plan["eps"]).total,
        "unweighted_total": protas_sum(cs, 1.0),
    }
    _side(plan, out_dir, "csv", series_csv(weighted))
    return results, 0


def _prep_beta_estimate(cfg, base_dir):
    parsed = _config(cfg, {
        "set": lambda v, p: _parse_boundary(v, p, base_dir),
    }, {
        "k_min": _integer,
        "k_max": lambda v, p: _integer(v, p, minimum=2),
    })
    k_min = parsed.setdefault("k_min", 4)
    k_max = parsed.setdefault("k_max", 14)
    if k_max - k_min < 3:
        raise ConfigError("config.k_max: need at least 4 dyadic scales (k_max >= k_min + 3)")
    return parsed, False


def _run_beta_estimate(plan, out_dir):
    grid = 0.5 ** np.arange(plan["k_min"], plan["k_max"] + 1, dtype=np.float64)
    beta, measures = _type_beta(plan["set"], grid)
    return {
        "beta": beta,
        "x_grid": [float(x) for x in grid],
        "neighborhood_measures": measures.tolist(),
    }, 0


def _parse_family(value, path, base_dir):
    def radial(ratio=0.5):
        if not ratio < 1.0:
            raise ConfigError(f"{path}.ratio: must lie in (0, 1)")
        return {"kind": "radial_geometric", "ratio": ratio}

    def sampled(region, law):
        return {"kind": "region_sampled", "region": region, "law": law}

    return _kind_parser({
        "radial_geometric": (radial, {}, {"ratio": _positive}),
        "region_sampled": (sampled, {
            "region": lambda v, p: _parse_region(v, p, base_dir), "law": _parse_law}, {}),
    })(value, path)


def _prep_means_trend(cfg, base_dir):
    parsed = _config(cfg, {
        "family": lambda v, p: _parse_family(v, p, base_dir),
        "p_list": _list_of(_positive, "numbers"),
        "truncations": _list_of(_integer, "integers"),
    }, {"r_grid": _list_of(_number, "numbers")}, csv=None)
    r_grid = parsed.setdefault("r_grid", [0.9, 0.99, 0.999])
    if any(not 0.0 <= r < 1.0 for r in r_grid):
        raise ConfigError("config.r_grid: radii must lie in [0, 1)")
    return parsed, parsed["family"]["kind"] == "region_sampled"


def _run_means_trend(plan, out_dir):
    fam = plan["family"]
    if fam["kind"] == "radial_geometric":
        family = radial_geometric_family(fam["ratio"])
    else:
        def family(n):
            return sample_zeros(fam["region"], n, seed=plan["seed"], law=fam["law"])
    table = hp_trend(family, plan["p_list"], plan["truncations"], plan["r_grid"])
    _side(plan, out_dir, "csv", means_csv(table))
    return {"sup_over_r": {f"N={n},p={p}": v for (n, p), v in table.sup_over_r().items()}}, 0


def _prep_envelope_fit(cfg, base_dir):
    parsed = _config(cfg, {
        "rho": _positive,
    }, {
        "zeros": _string,
        "sampling": lambda v, p: _fields(v, p, {
            "region": lambda vv, pp: _parse_region(vv, pp, base_dir),
            "law": _parse_law,
            "count": _integer,
        }, {}),
        "set": lambda v, p: _parse_boundary(v, p, base_dir),
        "grid": lambda v, p: _fields(v, p, {}, {
            "depth": lambda vv, pp: _integer(vv, pp, minimum=2),
            "rays": _integer,
            "ring": lambda vv, pp: _integer(vv, pp, minimum=8),
        }),
    })
    has_zeros = "zeros" in parsed
    has_sampling = "sampling" in parsed
    if has_zeros == has_sampling:
        raise ConfigError("config: exactly one of zeros | sampling is required")
    if has_zeros:
        parsed["zero_seq"] = _read_zeros_file(parsed["zeros"], base_dir)
        if "set" not in parsed:
            raise ConfigError("config.set: required when zeros come from a file")
    elif "set" not in parsed:
        parsed["set"] = parsed["sampling"]["region"].boundary
    # the grid actually used, defaults filled in, is also the one reported
    parsed["grid"] = {"depth": 14, "rays": 12, "ring": 64, **parsed.get("grid", {})}
    return parsed, has_sampling


def _run_envelope_fit(plan, out_dir):
    if "zero_seq" in plan:
        zeros = plan["zero_seq"]
    else:
        samp = plan["sampling"]
        zeros = sample_zeros(samp["region"], samp["count"], seed=plan["seed"],
                             law=samp["law"])
    grid = envelope_grid(plan["set"], **plan["grid"])
    fit = envelope_fit(BlaschkeProduct(zeros), plan["set"], plan["rho"], grid)
    return {"c1": fit.c1, "c2": fit.c2, "rho": fit.rho, "grid_size": fit.grid_size}, 0


def _prep_region_boundary(cfg, base_dir):
    parsed = _config(cfg, {
        "model": _parse_model,
        "K": _positive,
        "resolution": lambda v, p: _integer(v, p, minimum=2),
    }, {"vertex_angle": _number}, csv="region_boundary.csv")
    parsed.setdefault("vertex_angle", 0.0)
    return parsed, False


def _run_region_boundary(plan, out_dir):
    pts = region_boundary(plan["model"], plan["K"], plan["vertex_angle"],
                          plan["resolution"])
    csv_file = _side(plan, out_dir, "csv", points_csv(pts))
    return {"points": int(pts.size), "csv_file": csv_file}, 0


# name: (prep, run, the inequality checked, whether the report records the seed)
_RUNNERS = {
    "verify-lemma": (_prep_verify_lemma, _run_verify_lemma, LEMMA_TAG, True),
    "verify-theorem1": (_prep_verify_theorem1, _run_verify_theorem1, THEOREM_TAG, True),
    "critical-points": (_prep_critical_points, _run_critical_points, None, False),
    "critical-sum": (_prep_critical_sum, _run_critical_sum, CRITICAL_SUM_TAG, False),
    "beta-estimate": (_prep_beta_estimate, _run_beta_estimate, None, False),
    "means-trend": (_prep_means_trend, _run_means_trend, None, True),
    "envelope-fit": (_prep_envelope_fit, _run_envelope_fit, ENVELOPE_TAG, True),
    "region-boundary": (_prep_region_boundary, _run_region_boundary, None, False),
}


@functools.cache  # built once per process, for every main call in it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="blab",
        description="Blaschke-product laboratory: seeded, file-driven experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    prep, run, inequality, records_seed = _RUNNERS[args.command]
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh, parse_constant=_reject_constant)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{args.config}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            ) from exc
        except ValueError as exc:
            raise ConfigError(f"{args.config}: invalid JSON: {exc}") from exc
        plan, seeded = prep(cfg, os.path.dirname(os.path.abspath(args.config)))
        plan["seed"] = _resolve_seed(plan.get("seed"), args.seed, seeded)
        plan["out"].setdefault("report", f"{args.command}.json")
        _check_out_names(plan["out"], args.out)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    hidden = {"out", "zero_seq"} if records_seed else {"out", "zero_seq", "seed"}
    config = _echo({key: v for key, v in plan.items() if key not in hidden})
    try:
        results, code = run(plan, args.out)
    except BlabError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    report = {"experiment": args.command, "config": config, "results": results}
    if inequality is not None:
        report["inequality"] = inequality
    write_report(os.path.join(args.out, plan["out"]["report"]), report)
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
