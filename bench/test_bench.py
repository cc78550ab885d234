"""Tests of the benchmark itself: `python3 -m pytest bench/test_bench.py`."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import blab  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = workloads.generate(workload, 5, str(tmp_path / "a"))
    b = workloads.generate(workload, 5, str(tmp_path / "b"))
    c = workloads.generate(workload, 6, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    for key in ("zeros", "arrays"):
        assert a[key].keys() == b[key].keys()
        for name in a[key]:
            assert a[key][name].tobytes() == b[key][name].tobytes()


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_named_metric_is_emitted(tmp_path):
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))

    exps = workloads.experiments("geometry", workloads.generate("geometry", 1, str(tmp_path)))
    ledger = run.Ledger(exps, tmp_path)
    ledger.times = [[0.5, 0.25] for _ in exps]
    ledger.status = ["ok"] * len(exps)
    e2e = run.end_to_end_metrics(0.2, ledger)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}

    empty = tracing.Tracer()
    layer = run.per_layer_metrics(tracing, empty, empty, ledger, [1.0], [1.0])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layer.items()}


def test_operation_counts_do_not_depend_on_repeats(tmp_path):
    exps = workloads.experiments("critical", workloads.generate("critical", 1, str(tmp_path)))
    ledger = run.Ledger(exps, tmp_path)
    ledger.status = ["ok"] * len(exps)
    ledger.status[1] = "RootFindingError"
    ledger.times = [[0.5] for _ in exps]
    once = run.result(ledger, {})
    ledger.times = [[0.5] * (1 + i % 3) for i in range(len(exps))]
    assert run.result(ledger, {}) == once
    assert (once["attempted"], once["failed"], once["correct"]) == (len(exps), 1, True)


def test_timed_loop_drops_warm_up_times(tmp_path):
    exps = [workloads.Experiment(f"noop-{i}", 1, lambda out_dir: 0.0,
                                 lambda value, out_dir, oracles: []) for i in range(3)]
    ledger = run.Ledger(exps, tmp_path)
    ledger.batch()
    ledger.batch()
    ledger.closed_loop(0.0)
    assert [len(t) for t in ledger.times] == [1, 1, 1]
    assert ledger.status == ["ok"] * 3 and not any(ledger.problems)


def _cheap_ledger(tmp_path):
    """Fast experiments from every workload, enough to touch each layer."""
    picked = []
    for workload, keep in (
        ("critical", {"critical-points/rand-50", "critical-points/exp-50"}),
        ("means", {"means-trend/radial-geometric", "bergman_integral/rand-5/p=2"}),
        ("geometry", {"verify-lemma/readme", "region-boundary/readme",
                      "envelope-fit/readme", "derivative_fd/theorem-200"}),
    ):
        inputs = workloads.generate(workload, 3, str(tmp_path / workload))
        picked += [e for e in workloads.experiments(workload, inputs) if e.name in keep]
    assert len(picked) == 8
    return run.Ledger(picked, tmp_path / "work")


def test_traced_and_untraced_runs_write_identical_bytes(tmp_path):
    ledger = _cheap_ledger(tmp_path)
    ledger.batch()
    assert ledger.status == ["ok"] * len(ledger.exps), ledger.problems
    first = list(ledger.signature)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ledger.batch()
    finally:
        tracer.uninstall()
    assert not any(ledger.problems), ledger.problems
    assert ledger.signature == first
    for name in ("cli.main", "fileio.read_zeros", "critical.critical_points",
                 "means.bergman_integral", "bounds.lemma_check", "products.evaluate"):
        assert tracer.stats[name]["calls"] >= 1, name


def test_uninstall_restores_every_import_site():
    originals = (blab.cli.sample_zeros, blab.sample_zeros, blab.regions.sample_zeros,
                 blab.BlaschkeProduct.derivative, blab.cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert blab.cli.sample_zeros is blab.sample_zeros is blab.regions.sample_zeros
        assert blab.cli.sample_zeros is not originals[0]
    finally:
        tracer.uninstall()
    assert (blab.cli.sample_zeros, blab.sample_zeros, blab.regions.sample_zeros,
            blab.BlaschkeProduct.derivative, blab.cli.main) == originals


def test_self_time_excludes_other_layers_only():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        blab.hp_trend(blab.radial_geometric_family(0.5), 1.0, [4], [0.5])
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    trend, hardy = tracer.stats["means.hp_trend"], tracer.stats["means.hardy_mean"]
    der = tracer.stats["products.derivative"]
    assert trend["calls"] == hardy["calls"] == 1 and hardy["passes"] >= 2
    assert hardy["nodes"] * 4 == der["factor_evals"]
    # hp_trend keeps the time of the hardy_mean below it (same layer), not that of B'
    assert 0.0 < hardy["self_s"] <= trend["self_s"]
    assert trend["self_s"] + der["self_s"] <= wall


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    got = subprocess.run([sys.executable, "bench/run.py", "--workload", "critical",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
