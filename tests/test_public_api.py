"""The package surface: every public name resolves, no definition in
``src/repro`` is kept alive only by the tests, and no module imports a name
it never uses."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: The trees whose code counts as a use: the package itself and everything
#: that runs it, apart from the tests.
USERS = ("src", "examples", "benchmarks", "perfbench", "tools")
#: The trees whose imports must all be used.  ``perfbench`` is left out: its
#: files belong to the repository benchmark.
IMPORT_CHECKED = ("src", "tests", "benchmarks", "examples", "tools")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Top-level definitions kept even where only tests reach them.
KEEP = {
    # The inverse oracle test_coefficients_roundtrip checks
    # coefficients_to_residues against.
    "residues_to_coefficients",
    # The lock sanitizer's control API; the sanitizer gate in
    # tests/conftest.py drives it.
    "enable", "disable", "is_enabled", "reset", "isolated", "violations",
    "assert_clean",
    # The sanitizer's held-lock stack, which tests/test_checks.py probes.
    "held",
    # The engine's test circuits.
    "build_diode_limiter", "build_common_source_amplifier",
    "build_differential_amplifier", "add_differential_stage",
    # Builders of the inputs that tests feed to other behaviour.
    "encode_request", "encode_result", "frame_overhead", "corner_sweep",
    "cross_sweep",
    # The documented terminal waterfall of one trace.
    "describe_trace",
    # The reference the compiled kernel is tested against.
    "simulate_hammerstein",
}


#: Settings kept although no flow sets them, with the reason.
SETTINGS_KEPT = {
    "RVFOptions.output_index": "picks the TFT output that is modelled",
    "RVFOptions.input_index": "picks the TFT input that is modelled",
    "extract_caffeine_model.output_index": "picks the TFT output that is modelled",
    "extract_caffeine_model.input_index": "picks the TFT input that is modelled",
    "ac_analysis.assembly": "selects the legacy reference path that "
                            "tests/test_assembly_equivalence.py compares against",
}


def _settings_sources():
    """The option classes and the extraction flow's entry points whose
    defaulted parameters are settings."""
    from repro.baselines import extract_caffeine_model, fit_caffeine
    from repro.circuit import TransientOptions, ac_analysis
    from repro.circuit.linalg import batched_transfer
    from repro.circuit.mna import MNASystem
    from repro.rvf import RVFOptions, extract_rvf_model
    from repro.sweep import SweepResult
    from repro.tft import extract_tft, snapshot_transfer_function

    return (TransientOptions, RVFOptions, extract_tft, snapshot_transfer_function,
            batched_transfer, MNASystem.transfer_function, ac_analysis,
            SweepResult.extract_combined_tft, extract_rvf_model, fit_caffeine,
            extract_caffeine_model)


def test_every_solver_setting_is_set_by_a_flow():
    """Each field of :class:`TransientOptions` and :class:`RVFOptions`, and
    each defaulted keyword of the extraction flow's entry points, is set by
    some call in :data:`USERS` or is listed in :data:`SETTINGS_KEPT`: a
    setting no flow sets belongs in a module constant.

    A call sets a parameter when it names it as a keyword or passes it by
    position (``self`` aside).  Calls match by the called name alone, so a
    same-named call elsewhere counts too.
    """
    import inspect

    parameters, settings = {}, set()
    for source in _settings_sources():
        params = [param for param in inspect.signature(source).parameters.values()
                  if param.name != "self"]
        parameters[source.__name__] = [param.name for param in params]
        settings.update(f"{source.__name__}.{param.name}" for param in params
                        if param.default is not inspect.Parameter.empty)
    passed = set()
    for tree in USERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name not in parameters:
                    continue
                n_positional = next((k for k, arg in enumerate(node.args)
                                     if isinstance(arg, ast.Starred)), len(node.args))
                names = parameters[name][:n_positional]
                names += [kw.arg for kw in node.keywords if kw.arg]
                passed.update(f"{name}.{param}" for param in names)
    unset = sorted(settings - passed - SETTINGS_KEPT.keys())
    assert unset == [], "set by no flow:\n" + "\n".join(unset)
    assert sorted(SETTINGS_KEPT.keys() & passed) == [], "kept settings a flow sets"
    assert sorted(SETTINGS_KEPT.keys() - settings) == [], "SETTINGS_KEPT names no setting"


def test_every_module_imports_and_exports_resolve():
    stale = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.checks.__main__":
            continue                    # runs the checker on import
        module = importlib.import_module(info.name)
        stale.extend(f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                     if not hasattr(module, name))
    assert stale == [], f"__all__ names no attribute: {stale}"


def _names(node: ast.AST):
    """The names ``node`` spells as code: ``Name`` nodes, attributes and
    ``from ... import`` names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_src_definition_is_reached_only_from_tests():
    """Each top-level function or class of a non-``__init__`` module in
    ``src/repro`` is named as code somewhere in :data:`USERS`.

    A name counts when a ``Name``, an ``Attribute`` or a ``from ... import``
    names it.  It does not count inside the definition's own body, in a
    re-export of a ``src/repro`` package ``__init__``, or in the body of
    another definition that is not reached; strings (docstrings, ``__all__``
    entries, messages) never count.  :data:`KEEP` names count as reached, so
    their helpers do too.  Names match by spelling alone, so a definition
    that shares its name with a used one counts as reached.  Methods are out
    of reach for the same reason: their names collide (``merge``,
    ``describe``).
    """
    definitions: dict[str, list[tuple[Path, ast.AST]]] = {}
    reached = set(KEEP)
    for tree in USERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            in_package = path.is_relative_to(PACKAGE)
            is_init = path.name == "__init__.py"
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                if in_package and not is_init and isinstance(stmt, _DEFINITIONS):
                    definitions.setdefault(stmt.name, []).append((path, stmt))
                elif not (in_package and is_init and isinstance(stmt, ast.ImportFrom)):
                    reached.update(_names(stmt))
    frontier = reached & definitions.keys()
    while frontier:
        for _, node in definitions[frontier.pop()]:
            found = set(_names(node)) - reached
            reached |= found
            frontier |= found & definitions.keys()
    unreached = sorted(f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                       for name, nodes in definitions.items() if name not in reached
                       for path, node in nodes)
    assert unreached == [], "reached only from tests:\n" + "\n".join(unreached)
    assert sorted(KEEP - definitions.keys()) == [], "KEEP names no definition"


def _imported_names(tree: ast.AST):
    """``(line, name)`` for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _exported_names(tree: ast.AST):
    """The strings of every ``__all__`` assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            yield from (sub.value for sub in ast.walk(node.value)
                        if isinstance(sub, ast.Constant) and isinstance(sub.value, str))


def _string_annotation_names(tree: ast.AST):
    """The names spelled inside string annotations (``"MNASystem"``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield from (name.id for name in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(name, ast.Name))


def test_no_module_imports_a_name_it_never_uses():
    """Each name a non-``__init__`` module in :data:`IMPORT_CHECKED` imports
    is used there: a ``Name`` node spells it, ``__all__`` lists it, or a
    string annotation names it (the ``TYPE_CHECKING`` imports).  Package
    ``__init__`` modules import in order to re-export."""
    unused = []
    for tree_name in IMPORT_CHECKED:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            used.update(_exported_names(tree), _string_annotation_names(tree))
            unused.extend(f"{path.relative_to(ROOT)}:{line} {name}"
                          for line, name in _imported_names(tree) if name not in used)
    assert unused == [], "imported but never used:\n" + "\n".join(unused)
