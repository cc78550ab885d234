"""The public surface: the exported names, the README quick start, the imports."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import blab

EXPORTS = [
    "BlabError", "BlaschkeProduct", "BoundReport", "BoundarySet", "ContourError",
    "CriticalSet", "DomainError", "EmptyRegionError", "EnvelopeFit", "GeometricLaw",
    "InvalidZeroError", "MeansTable", "ModelFunction", "PowerLaw", "ResolutionError",
    "RootFindingError", "SamplingError", "StolzSpec", "SumSeries", "ZeroSequence",
    "__version__", "angular_halfwidth", "argument_principle_count", "atomic_write_text",
    "bergman_integral", "blaschke_factor", "blaschke_sum", "canonical_json", "chord_check",
    "complex_pair", "critical_points", "critical_sum",
    "envelope_fit", "envelope_grid", "factor_derivative", "format_zeros", "hardy_mean",
    "hp_trend", "in_stolz", "lemma_bound", "lemma_check", "lemma_lhs", "log_weighted_sum",
    "means_csv", "parse_zero_line", "points_csv", "protas_sum", "radial_geometric_family",
    "read_boundary", "read_zeros", "region_boundary", "region_is_empty", "sample_zeros",
    "schwarz_pick_bound", "schwarz_pick_check", "series_csv", "theorem_bound",
    "theorem_check", "three_point_check", "truncation_tail", "type_beta", "write_boundary",
    "write_report", "write_zeros",
]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names_are_pinned():
    assert sorted(blab.__all__) == EXPORTS
    for name in blab.__all__:
        getattr(blab, name)


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, f"{README}:quick-start", "exec"), scope)
    assert scope["report"].violations == 0
    assert scope["cs"].count == 39


def test_numpy_is_the_only_runtime_dependency():
    # modules that importing blab and blab.cli adds, by top-level package
    code = ("import sys; before = set(sys.modules); import blab, blab.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    src = str(Path(blab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "blab" in out and "numpy" in out
    assert set(out) - set(sys.stdlib_module_names) - {"numpy", "blab"} == set()


def test_every_import_is_used():
    """Each name imported into a module of the package is used there."""
    unused = {}
    for path in sorted(Path(blab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # it imports to export
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
