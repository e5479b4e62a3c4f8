"""Every module-level import of the package is used by its module.

A stdlib ``ast`` check: a name bound by a top-level ``import`` or
``from ... import`` must be read somewhere in the module, or be listed
in its ``__all__``.  It catches the imports a deletion leaves behind.

Beside it, every library name that the benchmark's span tracer patches
must still exist, so a rename or deletion that would blind the tracer
fails here rather than only in the benchmark's own tests.

And no public function takes a tolerance, slack, threshold or patience:
stopping rules and verdict thresholds are module constants, so an
answer never depends on where a caller chose to stop.

And only the functions that use the descent's seed name it; the others
pass it on with the other descent options.

And no module reaches into an object's underscore-prefixed attribute
through a name other than ``self``/``cls``, unless the enclosing class
defines that attribute (``other._key`` in ``GridDomain.__eq__``): what
another module needs of an object is public.  Likewise no module imports
an underscore-prefixed name from another.

And every public module-level function has a caller outside the tests:
some package module reads it, or a benchmark file names it, or it is on
``UNCALLED_KEEP`` with its reason.  Nothing in the library exists only
for its tests.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "varexp"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(path) == []


TUNABLE = re.compile(r"(^|_)(tol|slack|threshold|patience)(_|$)")


def _public_parameters(path: Path) -> list[tuple[str, str]]:
    """(function, parameter) for each public function and public-class method."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    public = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    public += [item for node in tree.body if isinstance(node, ast.ClassDef)
               and not node.name.startswith("_")
               for item in node.body if isinstance(item, ast.FunctionDef)]
    return [(fn.name, arg.arg) for fn in public if not fn.name.startswith("_")
            for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_public_tolerance_or_threshold_parameter(path):
    assert [f"{fn}({arg})" for fn, arg in _public_parameters(path)
            if TUNABLE.search(arg)] == []


# the functions that use the descent's seed: minimize_sobolev draws its starts
# from it and localized_constant offsets it per ball; every other function
# passes it on with the other descent options
SEED_USERS = {"minimize_sobolev", "localized_constant"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_seed_is_named_only_where_it_is_used(path):
    assert [fn for fn, arg in _public_parameters(path)
            if arg == "seed" and fn not in SEED_USERS] == []


def _class_attributes(cls: ast.ClassDef) -> set[str]:
    """Names the class body binds, and attributes its methods set on self/cls."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    names |= {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
              and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
              and n.value.id in ("self", "cls")}
    return names


def _foreign_private_attributes(path: Path) -> list[str]:
    found = []

    def visit(node, own: set[str]):
        if isinstance(node, ast.ClassDef):
            own = _class_attributes(node)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id not in ("self", "cls") and node.attr.startswith("_")
                and not node.attr.endswith("__") and node.attr not in own):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text(encoding="utf-8")), set())
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_foreign_private_attribute(path):
    assert _foreign_private_attributes(path) == []


def _tracer_targets() -> dict:
    # the lists of names the benchmark's span tracer patches by setattr,
    # read from its source
    tree = ast.parse((SRC.parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("FUNCTION_TARGETS", "FIELD_METHODS")}


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    missing = [f"{mod}.{attr}" for mod, attr, _ in targets["FUNCTION_TARGETS"]
               if not hasattr(importlib.import_module(f"varexp.{mod}"), attr)]
    field_cls = importlib.import_module("varexp.exponents").ExponentField
    missing += [f"ExponentField.{attr}" for attr, _ in targets["FIELD_METHODS"]
                if attr not in field_cls.__dict__]
    assert missing == []
    sobolev = importlib.import_module("varexp.sobolev")
    assert hasattr(sobolev._stiffness_solve, "cache_info")


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{node.module}.{alias.name} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("varexp"))
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_import(path):
    assert _private_imports(path) == []


#: Public functions that nothing in the package or the benchmark calls, kept
#: on purpose, each with its reason.
UNCALLED_KEEP = {
    "expressions.pretty": "the parse/print round-trip test",
    "luxemburg.holder_check": "acceptance 03 pins the paper's Holder lemma",
    "sobolev.domain_monotonicity_check": "acceptance 06 pins domain monotonicity",
    "luxemburg.poincare_ratio": "the one reader of luxemburg's gradient_magnitude import, "
                                "which bench/tracing.py traces; both go once it stops",
}


def _uncalled_public_functions() -> list[str]:
    """Public module-level functions of the package that no package module
    reads outside the function's own body and no benchmark file names.

    Matching is by name, so a read of a like-named local also counts."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((SRC.parents[1] / "bench").glob("*.py")))
    reads = {}
    for mod, tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != owner:
                    reads.setdefault(name, set()).add(mod)
    uncalled = []
    for mod, tree in trees.items():
        for fn in tree.body:
            if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and fn.name not in reads
                    and not re.search(rf"\b{fn.name}\b", bench)):
                uncalled.append(f"{mod}.{fn.name}")
    return uncalled


def test_every_public_function_has_a_caller():
    assert sorted(_uncalled_public_functions()) == sorted(UNCALLED_KEEP)
