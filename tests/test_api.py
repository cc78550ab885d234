"""The public surface: the exported names, the README quick start, the imports,
and the argument convention of the scalar-or-array functions."""
import ast
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

import blab

EXPORTS = [
    "BlabError", "BlaschkeProduct", "BoundReport", "BoundarySet", "CriticalSet",
    "DomainError", "EmptyRegionError", "EnvelopeFit", "GeometricLaw",
    "InvalidZeroError", "MeansTable", "ModelFunction", "PowerLaw", "ResolutionError",
    "RootFindingError", "SamplingError", "StolzSpec", "SumSeries", "ZeroSequence",
    "__version__", "angular_halfwidth", "atomic_write_text", "bergman_integral",
    "blaschke_factor", "blaschke_sum", "canonical_json", "chord_check",
    "critical_points", "critical_sum", "envelope_fit", "envelope_grid",
    "factor_derivative", "format_zeros", "hardy_mean", "hp_trend", "in_stolz",
    "lemma_bound", "lemma_check", "lemma_lhs", "log_weighted_sum", "means_csv",
    "parse_zero_line", "points_csv", "protas_sum", "radial_geometric_family",
    "read_boundary", "read_zeros", "region_boundary", "region_is_empty", "sample_zeros",
    "schwarz_pick_bound", "schwarz_pick_check", "series_csv", "theorem_bound",
    "theorem_check", "three_point_check", "truncation_tail", "type_beta",
    "write_boundary", "write_report", "write_zeros",
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
    "atomic_write_text": "path, text",
    "bergman_integral": "product, p",
    "blaschke_factor": "z, zero",
    "blaschke_sum": "zeros",
    "canonical_json": "payload",
    "chord_check": "z, lam, t",
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

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# exported names that nothing in the package or the benchmark calls, each
# kept because it states an object of the paper
UNCALLED = {
    "blaschke_factor": "the Blaschke factor b_a, the product's building block",
    "factor_derivative": "b_a', the factor whose sum over the zeros is B'/B",
    "blaschke_sum": "sum (1 - |z_n|), the Blaschke condition the zeros must meet",
    "truncation_tail": "the certified error of cutting a product to finitely many zeros",
    "three_point_check": "the three-point inequality for the gauge phi, used in the lemma",
    "chord_check": "the chord inequality |t - z| <= 2 |t - z |lam||, used in the lemma",
    "schwarz_pick_check": "the Schwarz-Pick bound on |B'| at one point",
    "theorem_bound": "Theorem 1's two sides at one point",
    "type_beta": "the type beta of the boundary set, Theorem 1's exponent",
    "write_boundary": "the file-format pair of read_boundary, which the CLI reads",
}

# the same for the public methods and properties of exported classes
UNCALLED_MEMBERS = {
    "EnvelopeFit.envelope": "the growth bound c1 exp(c2 / d(z,E)^rho) of the [FG] space "
                            "the abstract names",
}


def test_exported_names_are_pinned():
    assert sorted(blab.__all__) == EXPORTS
    for name in blab.__all__:
        getattr(blab, name)


def public_members():
    """`Class.name` for each public method and property that an exported class defines."""
    return {f"{export}.{name}" for export in blab.__all__
            if isinstance(getattr(blab, export), type)
            for name, value in vars(getattr(blab, export)).items()
            if not name.startswith("_")
            and isinstance(value, (FunctionType, classmethod, staticmethod, property))}


def _references(tree):
    """What a syntax tree reads: the identifier of each Name, and that of each
    Attribute both bare and as `.attr`, the form that calls a method."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.update((node.attr, "." + node.attr))
    return refs


def _definitions(path):
    """(the names it defines, the references it makes) per top-level statement
    of the module at path, less its references to itself; a class gives one
    entry for each method, `Class.method`, and one for the rest of its body."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        name = getattr(stmt, "name", None)
        methods = ([node for node in stmt.body if isinstance(node, ast.FunctionDef)]
                   if isinstance(stmt, ast.ClassDef) else [])
        rest = [node for node in ast.iter_child_nodes(stmt) if node not in methods]
        yield {name}, set().union(*map(_references, rest)) - {name}
        for method in methods:
            yield {name, f"{name}.{method.name}"}, _references(method) - {"." + method.name}


def exports_without_a_caller(exports, kept):
    """The names of `exports` that no code in the repository calls, less `kept`.

    An export is a module-level name, or a public method or property of an
    exported class written `Class.name`. A call is a reference in
    `src/blab/` outside `__init__.py` or in `bench/*.py`: a Name or an
    Attribute for a module-level name, an Attribute `x.name` for a method or
    property, whatever the class of x. A string naming it is not. A
    definition does not call itself, and the definition of a name without a
    caller calls nothing (a class's methods are part of its definition), so
    an error that only such a function raises has no caller either. The
    definitions of the `kept` names do call.
    """
    bench = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8")))
                          for path in sorted((ROOT / "bench").glob("*.py"))))
    statements = [entry for path in sorted((ROOT / "src" / "blab").glob("*.py"))
                  if path.name != "__init__.py" for entry in _definitions(path)]
    missing = set()
    while True:
        called = bench.union(*(refs for names, refs in statements if missing.isdisjoint(names)))
        uncalled = {name for name in exports - kept
                    if ("." + name.partition(".")[2] if "." in name else name) not in called}
        if uncalled == missing:
            return missing
        missing = uncalled


def _without_a_caller(kept):
    return exports_without_a_caller(set(blab.__all__) | public_members(), kept)


def test_every_export_has_a_caller_or_a_paper_reason():
    kept = set(UNCALLED) | set(UNCALLED_MEMBERS)
    assert {name for name in _without_a_caller(kept) if "." not in name} == set()
    # and every name kept for its paper reason still has no caller
    assert set(UNCALLED) <= _without_a_caller(set())


def test_every_public_method_has_a_caller_or_a_paper_reason():
    kept = set(UNCALLED) | set(UNCALLED_MEMBERS)
    assert {name for name in _without_a_caller(kept) if "." in name} == set()
    assert set(UNCALLED_MEMBERS) <= _without_a_caller(set())


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


def test_only_products_names_the_block_rule():
    """Every sum over zeros x points runs on products' blocks, so no other module
    of the package names the block constant or the block width."""
    rule, named = {"_BLOCK", "_block_width"}, {}
    for path in sorted(Path(blab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _references(tree).union(*({a.asname or a.name for a in node.names}
                                           for node in ast.walk(tree)
                                           if isinstance(node, ast.ImportFrom)))
        if names & rule:
            named[path.name] = sorted(names & rule)
    assert named == {"products.py": ["_BLOCK", "_block_width"]}


def _raises_domain_error_under_any(path):
    """Line numbers of `raise DomainError` under an `if` whose test holds an
    any() call outside a `not`: such a test lets a nan argument through."""

    def holds_any(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return False
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "any"):
            return True
        return any(holds_any(child) for child in ast.iter_child_nodes(node))

    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.If) and holds_any(node.test):
            found.extend(sub.lineno for stmt in node.body for sub in ast.walk(stmt)
                         if isinstance(sub, ast.Raise) and sub.exc is not None
                         and "DomainError" in ast.unparse(sub.exc))
    return found


def test_no_domain_error_is_guarded_by_any():
    """Argument checks state the condition that must hold, so nan fails them."""
    guarded = {}
    for path in sorted(Path(blab.__file__).parent.glob("*.py")):
        lines = _raises_domain_error_under_any(path)
        if lines:
            guarded[path.name] = lines
    assert guarded == {}


def test_the_any_guard_detector_sees_one(tmp_path):
    src = tmp_path / "guarded.py"
    src.write_text("import numpy as np\n"
                   "def f(x):\n"
                   "    if np.any(x < 0.0) or x.any():\n"
                   "        raise DomainError('negative')\n"
                   "    if not np.any(x):\n"
                   "        raise DomainError('no nonzero entry')\n")
    assert _raises_domain_error_under_any(src) == [4]


def _requires_comparing_a_modulus_with_one(source):
    """Line numbers of `_require` calls whose condition compares a term holding
    abs(...) or np.abs(...) with one holding the constant 1."""

    def holds(node, test):
        return any(test(sub) for sub in ast.walk(node))

    def is_abs(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) in ("abs", "np.abs")

    def is_one(node):
        return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and node.value == 1)

    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_require")
                and node.args):
            for cmp in (sub for sub in ast.walk(node.args[0]) if isinstance(sub, ast.Compare)):
                terms = [cmp.left, *cmp.comparators]
                if any(holds(t, is_abs) for t in terms) and any(holds(t, is_one) for t in terms):
                    found.append(node.lineno)
                    break
    return found


def test_only_products_checks_the_unit_disk():
    """products owns where a point may lie: every other module calls its checks."""
    checks = {}
    for path in sorted(Path(blab.__file__).parent.glob("*.py")):
        lines = _requires_comparing_a_modulus_with_one(path.read_text(encoding="utf-8"))
        if lines and path.name != "products.py":
            checks[path.name] = lines
    assert checks == {}


def test_the_disk_check_detector_sees_one():
    source = ("def f(z, t, x, tol):\n"
              "    _require(np.abs(z) <= 1.0 + 1e-15, 'closed disk')\n"
              "    _require((x >= 0.0) & (abs(z) < 1), 'open disk')\n"
              "    _require(np.abs(np.abs(t) - 1.0) <= tol, 'circle')\n"
              "    _require(np.abs(x) < 2.0, 'not the disk')\n"
              "    _require((0.0 < x) & (x < 1.0), 'no modulus')\n"
              "    _require(np.abs(z) < True, 'a bool is not 1')\n")
    assert _requires_comparing_a_modulus_with_one(source) == [2, 3, 4]


def _envelope():
    return blab.EnvelopeFit(c1=1.0, c2=0.5, rho=1.0, grid_size=1)


NAN = float("nan")
LINEAR = blab.ModelFunction.linear()


@pytest.mark.parametrize("call, message", [
    (lambda: blab.three_point_check(LINEAR, NAN, 1.0, 1.0), "nonnegative"),
    (lambda: _envelope().envelope(NAN), "positive boundary distance"),
    (lambda: LINEAR(NAN), "x >= 0"),
    (lambda: LINEAR.inverse(NAN), "y >= 0"),
    (lambda: blab.angular_halfwidth(LINEAR, 1.0, NAN), r"in \(0, 1\)"),
    (lambda: blab.BlaschkeProduct([0.5]).derivative_fd(0.1, h=NAN), "step must be positive"),
    (lambda: blab.MeansTable([(1, 1.0, 0.5, NAN)]), "negative mean"),
], ids=["three_point_check", "envelope", "model_function", "inverse", "angular_halfwidth",
        "derivative_fd_step", "means_table_row"])
def test_nan_argument_is_a_domain_error(call, message):
    with pytest.raises(blab.DomainError, match=message):
        call()


_PRODUCT = blab.BlaschkeProduct([0.5, -0.3j, 0.2 + 0.6j])
_SPEC = blab.StolzSpec(blab.ModelFunction.truncated_power(2.0),
                       blab.BoundarySet.from_points([0.0]), 2.0)
_EXP = blab.ModelFunction.exp_tangential(1.0)
_T = complex(np.exp(0.3j))

# each entry point as a function of one argument value (every argument of
# the entry point gets that shape), the value, and the type of a 0-d result
ENTRY_POINTS = {
    "blaschke_factor": (lambda z: blab.blaschke_factor(z, 0.5), 0.1 + 0.2j, complex),
    "factor_derivative": (lambda z: blab.factor_derivative(z, 0.5), 0.1 + 0.2j, complex),
    "truncation_tail": (lambda z: blab.truncation_tail([0.9, 0.95], z), 0.1 + 0.2j, float),
    "evaluate": (_PRODUCT.evaluate, 0.1 + 0.2j, complex),
    "derivative": (_PRODUCT.derivative, 0.1 + 0.2j, complex),
    "derivative_fd": (_PRODUCT.derivative_fd, 0.1 + 0.2j, complex),
    "three_point_check": (lambda x: blab.three_point_check(_EXP, x, x + 0.1, x + 0.2), 0.3,
                          bool),
    "chord_check": (lambda z: blab.chord_check(z, 0.5 * z, _T * z / abs(z)), 0.1 + 0.2j,
                    bool),
    "lemma_lhs": (lambda z: blab.lemma_lhs(z, _T * z / abs(z), 0.5 * z, _EXP), 0.1 + 0.2j,
                  float),
    "schwarz_pick_bound": (lambda z: blab.schwarz_pick_bound(_PRODUCT, z), 0.1 + 0.2j, float),
    "schwarz_pick_check": (lambda z: blab.schwarz_pick_check(_PRODUCT, z), 0.1 + 0.2j, bool),
    "theorem_bound": (lambda z: blab.theorem_bound([0.5], z, _SPEC), 0.1 + 0.2j, float),
    "envelope": (lambda d: _envelope().envelope(d), 0.25, float),
    "model_function": (_EXP, 0.25, float),
    "inverse": (_EXP.inverse, 0.25, float),
    "distance": (_SPEC.boundary.distance, 0.1 + 0.2j, float),
    "in_stolz": (lambda z: blab.in_stolz(z, _SPEC), 0.9 + 0.01j, bool),
    "angular_halfwidth": (lambda u: blab.angular_halfwidth(_EXP, 2.0, u), 0.25, float),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_scalar_or_array_result_types(name):
    """A 0-d argument gives a Python scalar, a shape-(1,) one an array of the same value."""
    call, value, kind = ENTRY_POINTS[name]
    scalar, array = call(np.asarray(value)), call(np.asarray([value]))
    if name == "theorem_bound":  # the pair (|B'|, bound)
        assert all(type(s) is kind and isinstance(a, np.ndarray) and a[0] == s
                   for s, a in zip(scalar, array))
        return
    assert type(scalar) is kind
    assert isinstance(array, np.ndarray) and array.shape == (1,)
    assert array[0] == scalar


# each entry point that takes a count, as a function of that count, and the
# name its refusal of a fraction must give
COUNTS = {
    "sample_zeros": (lambda n: blab.sample_zeros(_SPEC, n, seed=0), "sample size n"),
    "lemma_check": (lambda n: blab.lemma_check(_SPEC, n, 0), "n_samples"),
    "region_boundary": (lambda n: blab.region_boundary(blab.ModelFunction.linear(), 2.0, 0.0, n),
                        "resolution"),
    "radial_geometric_family": (lambda n: blab.radial_geometric_family()(n), "truncation N"),
    "hp_trend": (lambda n: blab.hp_trend(blab.radial_geometric_family(), 1.0, [n], [0.5]),
                 "truncation N"),
    "envelope_grid/depth": (lambda n: blab.envelope_grid(_SPEC.boundary, depth=n), "depth"),
    "envelope_grid/rays": (lambda n: blab.envelope_grid(_SPEC.boundary, rays=n), "rays"),
    "envelope_grid/ring": (lambda n: blab.envelope_grid(_SPEC.boundary, ring=n), "ring"),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_must_be_whole_numbers(name):
    """A fractional count is refused by name; an integral float or numpy integer is that count."""
    call, arg = COUNTS[name]
    with pytest.raises(blab.DomainError, match=f"^{arg} must be an integer, got 2.5$"):
        call(2.5)
    want = pickle.dumps(call(2))
    assert pickle.dumps(call(2.0)) == want and pickle.dumps(call(np.int64(2))) == want


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_refuse_booleans(name, flag):
    """A boolean is no count, as it is no seed: True is refused, not read as 1."""
    call, arg = COUNTS[name]
    with pytest.raises(blab.DomainError, match=f"^{arg} must be an integer, got True$"):
        call(flag)
