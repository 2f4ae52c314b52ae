"""The package's public surface: hetnetsim.__all__ names exactly what
__init__ imports from the package's modules, and every name resolves; and
every module attribute the benchmark's tracer patches exists, with the
arguments it reads at the positions it reads them from, and is watched in
conftest's default trials."""

import ast
import inspect
import sys
from pathlib import Path

import hetnetsim
from conftest import WATCHED
from hetnetsim import Bid, cli, equilibrium, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(hetnetsim.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_lists_exactly_the_imported_names():
    assert sorted(hetnetsim.__all__) == sorted(imported_public_names())


def test_every_exported_name_resolves():
    missing = [name for name in hetnetsim.__all__ if not hasattr(hetnetsim, name)]
    assert missing == []


def test_trial_solver_and_classifier_are_exported():
    assert {"classify", "solve_trial"} <= set(hetnetsim.__all__)


def test_benchmark_patch_targets_resolve():
    # perfbench/spans.py wraps these (module, name) attributes for a traced
    # run; a name a refactor drops would only fail there
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    traced = spans.Tracer(Bid).targets(harness, equilibrium, cli)
    targets = traced + spans.TrialTimer().targets(harness)
    missing = [f"{m.__name__}.{name}" for m, name, _ in targets if not hasattr(m, name)]
    assert targets and missing == []
    # the watched default trials that TestCallContract counts wrap every
    # trial-path name the trace fingerprints: all but the sweep point, the
    # trial's own timer and the emitter
    outside = {(harness, "run_point"), (harness, "run_trial"), (cli, "emit")}
    assert {(m, name) for m, name, _ in traced} - outside <= set(WATCHED)
    # the positions the wrappers read their arguments from: a reordering
    # would only mislabel a traced run
    def params(fn):
        return tuple(inspect.signature(fn).parameters)

    assert params(harness._pool_expansion_pass)[4:6] == ("outcomes", "model")
    assert params(harness.resolve_user_game)[4:6] == ("model", "expansion_enabled")
    assert params(harness.run_trial)[:2] == ("cfg", "n")


def test_no_record_loses_its_attribute_fast_path():
    # reading an instance's __dict__ (vars(self) or .__dict__), building a
    # record without __init__ (object.__new__) and caching into the instance
    # dict (cached_property) make CPython 3.11 drop the instance's inline
    # attribute values, and every later field read pays for it; copying a
    # config section with vars(cfg.user) touches no record on the trial path
    found = []
    for path in sorted(Path(hetnetsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "vars"
                and any(isinstance(a, ast.Name) and a.id == "self" for a in node.args)
            ):
                found.append(f"{where} vars(self)")
            elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
                found.append(f"{where} .__dict__")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{where} object.__new__")
            elif "cached_property" in (getattr(node, "attr", None), getattr(node, "id", None)):
                found.append(f"{where} cached_property")
    assert found == []


def test_only_the_harness_touches_the_collector():
    # run_trial pauses the cyclic garbage collector for a trial and gives the
    # caller back the state it had; a second module that switched it could
    # leave it off, or turn it on under a caller that had paused it
    found = []
    for path in sorted(Path(hetnetsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if "gc" in names:
                found.append(path.name)
    assert found == ["harness.py"]


def test_no_import_cycle_inside_the_package():
    # every import sits at module level, and the package's relative imports
    # form no cycle: an import inside a function hides a cycle until the
    # function first runs
    nested, imports = [], {}
    for path in sorted(Path(hetnetsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        found = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        nested += [f"{path.name}:{n.lineno}" for n in found if id(n) not in top]
        imports[path.stem] = {
            name
            for n in found
            if isinstance(n, ast.ImportFrom) and n.level == 1
            for name in ([n.module] if n.module else [a.name for a in n.names])
        }
    assert nested == []
    # peel off modules that import no module still left; a cycle stays
    while leaves := [m for m, deps in imports.items() if not deps & imports.keys()]:
        for m in leaves:
            del imports[m]
    assert imports == {}
