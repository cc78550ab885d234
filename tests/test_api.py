"""The public surface: the exported names, the README quick start, the imports."""
import ast
import inspect
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

# the parameter names of every exported callable; an exception class that
# keeps the built-in constructor has none to pin
PARAMETERS = {
    "BlaschkeProduct": "zeros",
    "BoundReport": "samples, violations, worst_ratio, worst_witness, worst_k",
    "BoundarySet": "arcs, points, cantor",
    "CriticalSet": "points, residuals, degree",
    "EnvelopeFit": "c1, c2, rho, grid_size",
    "GeometricLaw": "ratio",
    "MeansTable": "rows",
    "ModelFunction": "kind, param",
    "PowerLaw": "exponent, scale",
    "RootFindingError": "message, partial",
    "StolzSpec": "phi, boundary, k_const",
    "SumSeries": "terms",
    "ZeroSequence": "zeros",
    "angular_halfwidth": "phi, k_const, u",
    "argument_principle_count": "product, r, nodes",
    "atomic_write_text": "path, text",
    "bergman_integral": "product, p",
    "blaschke_factor": "z, zero",
    "blaschke_sum": "zeros",
    "canonical_json": "payload",
    "chord_check": "z, lam, t",
    "complex_pair": "z",
    "critical_points": "product",
    "critical_sum": "cs, boundary_set, rho, beta, eps",
    "envelope_fit": "product, boundary_set, rho, grid",
    "envelope_grid": "boundary_set, depth, rays, ring",
    "factor_derivative": "z, zero",
    "format_zeros": "zeros, header",
    "hardy_mean": "product, p, r",
    "hp_trend": "family, p, truncations, r_grid",
    "in_stolz": "lam, spec",
    "lemma_bound": "phi, k_const",
    "lemma_check": "spec, n_samples, seed",
    "lemma_lhs": "z, t, lam, phi",
    "log_weighted_sum": "cs, eps",
    "means_csv": "table",
    "parse_zero_line": "line",
    "points_csv": "points",
    "protas_sum": "zeros, r",
    "radial_geometric_family": "ratio",
    "read_boundary": "path",
    "read_zeros": "path",
    "region_boundary": "phi, k_const, vertex_angle, resolution",
    "region_is_empty": "phi, k_const",
    "sample_zeros": "spec, n, seed, law",
    "schwarz_pick_bound": "product, z",
    "schwarz_pick_check": "product, z",
    "series_csv": "series",
    "theorem_bound": "product, z, spec, check_zeros",
    "theorem_check": "product, z, spec, check_zeros",
    "three_point_check": "phi, x, y, u",
    "truncation_tail": "tail, z",
    "type_beta": "boundary_set, x_grid",
    "write_boundary": "path, boundary_set",
    "write_report": "path, payload",
    "write_zeros": "path, zeros, header",
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names_are_pinned():
    assert sorted(blab.__all__) == EXPORTS
    for name in blab.__all__:
        getattr(blab, name)


def test_exported_parameters_are_pinned():
    got = {}
    for name in blab.__all__:
        obj = getattr(blab, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)
                                 and "__init__" not in vars(obj)):
            continue
        got[name] = ", ".join(str(p.replace(default=p.empty, annotation=p.empty))
                              for p in inspect.signature(obj).parameters.values())
    assert got == PARAMETERS


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


def test_importing_blab_leaves_numpy_random_unloaded():
    # the sampler computes numpy's streams itself; numpy.random's compiled
    # modules load only when a caller asks for them
    code = ("import sys, numpy; had = 'numpy.random' in sys.modules; import blab, blab.cli; "
            "print(had, 'numpy.random' in sys.modules)")
    src = str(Path(blab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    had, has = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.split()
    assert has == had


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
