"""Benchmark for blab: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload critical --seed 1 --seconds 20 --trace 0

The run imports blab from `src/`, generates the workload's inputs from the
seed (set-up, timed nine times, median reported), then runs the workload's
experiments as a closed loop with one client in this process: each call
starts when the previous one has returned. An untimed warm-up pass runs and
checks every experiment once. Then, for `--seconds`, the timed loop's first
pass runs every experiment once and later passes repeat an experiment only
while its last time still fits before the deadline; every repetition must
reproduce the warm-up's output bytes.

`--trace 0` prints the end-to-end metrics. `--trace 1` instead runs an
untraced warm-up pass, then alternates a batch traced from outside by
`tracer.Tracer` with an untraced one, checks that all of them wrote identical
bytes, and prints the per-layer metrics.

Stdout carries an environment line, one row per experiment (a failure keeps
its row, with the exception class as status and its time to failure), a
summary line, and last the result object.
"""
from __future__ import annotations

import os

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)  # before numpy loads, here and in every child

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 9
# the uncapped Hardy first pass must fail fast in this process instead of
# exhausting a shared machine
ADDRESS_SPACE_LIMIT = 2 << 30
IMPORT_PROBE = "import time; t = time.perf_counter(); import blab; print(time.perf_counter() - t)"
DECLARED = re.compile(r"numerical failure \((\w+)\)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("critical", "means", "geometry"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def _import_seconds():
    """Time `import blab` (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout)


def setup(workloads, name, seed, work, reps):
    """Median set-up seconds over `reps` repetitions, and the last inputs."""
    times = []
    for rep in range(reps):
        import_s = _import_seconds()
        t0 = time.perf_counter()
        inputs = workloads.generate(name, seed, str(work / f"inputs-{rep}"))
        exps = workloads.experiments(name, inputs)
        times.append(import_s + time.perf_counter() - t0)
    return statistics.median(times), exps


# ---------------------------------------------------------------------------
# experiments


class Ledger:
    """Per-experiment times, first outcome, and output signature."""

    def __init__(self, exps, work):
        self.exps = exps
        self.out = [work / "out" / f"{i:02d}" for i in range(len(exps))]
        self.times = [[] for _ in exps]
        self.status = [None] * len(exps)
        self.problems = [[] for _ in exps]
        self.signature = [None] * len(exps)
        self.oracles = {}

    def run(self, i):
        """Execute experiment i once; check it the first time, compare bytes later."""
        import blab

        exp, out_dir = self.exps[i], self.out[i]
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        gc.collect()
        sink = io.StringIO()
        value = exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                value = exp.call(str(out_dir))
        except Exception as err:  # a failing experiment is a result row, not an abort
            exc = err
        self.times[i].append(time.perf_counter() - t0)
        if exc is not None:
            status = type(exc).__name__
            problems = [] if isinstance(exc, (blab.BlabError, MemoryError)) else [repr(exc)]
        elif exp.cli and value != 0:
            found = DECLARED.search(sink.getvalue())
            status = found.group(1) if value == 3 and found else f"exit-{value}"
            problems = [] if value == 3 and found else [sink.getvalue().strip()[-300:]]
        else:
            status, problems = "ok", []
        if self.status[i] is None and status == "ok":
            problems = list(exp.check(value, str(out_dir), self.oracles))
            if problems:
                status = "CheckMiss"
        sig = _signature(out_dir, status, value)
        if self.status[i] is None:
            self.status[i], self.problems[i], self.signature[i] = status, problems, sig
        elif sig != self.signature[i]:
            self.problems[i].append("output bytes differ from the first execution")

    def batch(self):
        """Every experiment once; the summed timed intervals, checks excluded."""
        for i in range(len(self.exps)):
            self.run(i)
        return sum(t[-1] for t in self.times)

    def closed_loop(self, seconds):
        """Every experiment once, then repeats that still fit before the deadline.

        Times from earlier calls are dropped first, so a warm-up pass before
        this one leaves only warm executions in the medians.
        """
        self.times = [[] for _ in self.exps]
        start = time.perf_counter()
        deadline = start + seconds
        busy = True
        while busy:
            busy = False
            for i in range(len(self.exps)):
                if self.times[i] and time.perf_counter() + self.times[i][-1] > deadline:
                    continue
                self.run(i)
                busy = True
        return time.perf_counter() - start

    def medians(self):
        return [statistics.median(t) for t in self.times]

    def failed(self):
        return [s != "ok" for s in self.status]


def _signature(out_dir, status, value):
    h = hashlib.sha256(status.encode())
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    if value is not None:
        h.update(value.tobytes() if hasattr(value, "tobytes") else repr(value).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# reporting


def environment(seed):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "blab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(setup_s, ledger):
    med = ledger.medians()
    failed = ledger.failed()
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(sum(med), "s"),
        "exp_max_s": _metric(max(med), "s"),
        "ok_frac": _metric(failed.count(False) / len(failed), "frac"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def result(ledger, metrics):
    """The result object. An operation is one experiment on one input: how
    often the loop re-timed it depends on the clock, so counting executions
    would make `attempted` differ between runs of one seed. A re-timed
    execution must reproduce the first one's bytes, or `correct` is false."""
    failed = ledger.failed()
    return {"correct": not any(ledger.problems), "attempted": len(failed),
            "failed": sum(failed), "metrics": metrics}


def per_layer_metrics(tracing, setup_tracer, batch_tracer, ledger, plain, traced):
    stats = tracing.combine(setup_tracer, batch_tracer, len(traced))
    values = tracing.layer_metrics(stats, batch_tracer.critical_runs)
    values["products.rim_oracle_digits"] = min(ledger.oracles.get("rim_digits", [0.0]))
    values["means.bergman_oracle_digits"] = min(ledger.oracles.get("bergman_digits", [0.0]))
    base = statistics.median(plain)
    values["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    return {name: _metric(val, tracing.unit_of(name)) for name, val in values.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "blab" / "__init__.py").is_file():
        print(f"bench: no blab package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return _run(args, work, workloads, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _run(args, work, workloads, tracing):
    print(json.dumps({"environment": environment(args.seed)}), flush=True)
    setup_tracer = tracing.Tracer()
    if args.trace:
        setup_tracer.install()
    try:
        setup_s, exps = setup(workloads, args.workload, args.seed, work,
                              1 if args.trace else SETUP_REPS)
    finally:
        setup_tracer.uninstall()
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    ledger = Ledger(exps, work)
    if args.trace:
        batch_tracer = tracing.Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        # an untraced warm-up pass: it runs the checks, which must not enter
        # the trace, and its cold first executions stay out of the overhead
        ledger.batch()
        while True:
            batch_tracer.install()
            try:
                traced.append(ledger.batch())
            finally:
                batch_tracer.uninstall()
            plain.append(ledger.batch())
            if time.perf_counter() - start + plain[-1] + traced[-1] > args.seconds:
                break
        measured = time.perf_counter() - start
        metrics = per_layer_metrics(tracing, setup_tracer, batch_tracer, ledger, plain, traced)
    else:
        # an untimed warm-up pass: it runs the checks, and the first execution
        # of an experiment in a process faults its memory in (the Cantor
        # envelope fit ran 13.2 s cold, 10.4 s warm), so mixing cold and warm
        # samples would make a median depend on how many repeats fitted
        ledger.batch()
        measured = ledger.closed_loop(args.seconds)
        metrics = end_to_end_metrics(setup_s, ledger)

    for i, exp in enumerate(exps):
        print(json.dumps({"row": {
            "workload": args.workload, "experiment": exp.name, "size": exp.size,
            "status": ledger.status[i], "seconds": statistics.median(ledger.times[i]),
            "runs": len(ledger.times[i]), "problems": ledger.problems[i]}}))
    print(json.dumps({"summary": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "experiments": len(exps), "measured_s": measured,
        "exp_p50_s": _metric(statistics.median(ledger.medians()), "s"),
        "fail_frac": _metric(sum(ledger.failed()) / len(exps), "frac")}}))
    print(json.dumps(result(ledger, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
