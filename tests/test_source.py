"""Properties of the package source itself."""

import ast
import re
from pathlib import Path

import pytest

import hatcheck
import hatcheck.cli
from conftest import documented_exit_codes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hatcheck"


def test_no_assert_statements():
    # python -O strips assert, so an invariant checked that way is not checked
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/hatcheck: {found}"


def test_benchmark_reads_only_public_names():
    # perfbench hands its workloads hatcheck.__all__ as `api`, plus
    # cli.entry; a public name they read that is gone breaks the benchmark
    path = ROOT / "perfbench" / "workloads.py"
    read = {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "api")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "api")
        )
    }
    assert "Graph" in read and "entry" in read
    assert callable(hatcheck.cli.entry)
    missing = sorted(read - set(hatcheck.__all__) - {"entry"})
    assert not missing, f"perfbench/workloads.py reads names hatcheck does not export: {missing}"


def test_exit_codes_documented():
    # every EXIT_* code, and no other, is listed in the cli docstring and the README
    codes = {
        value for name, value in vars(hatcheck.cli).items() if name.startswith("EXIT_")
    }
    assert documented_exit_codes(hatcheck.cli.__doc__) == codes
    assert documented_exit_codes((ROOT / "README.md").read_text()) == codes


def test_no_private_names_imported_across_modules():
    # an underscore name is private to its module; one another module
    # needs belongs in the owner's public names
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "hatcheck")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, f"private names imported from other hatcheck modules: {found}"


def test_trace_lines_are_formatted_lazily():
    # _note formats its line only when the defeat is traced; an f-string
    # argument would be formatted on every defeat, traced or not
    calls = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _callee(node) == "_note"
    ]
    assert len(calls) >= 6
    found = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if any(isinstance(arg, ast.JoinedStr) for arg in node.args)
    ]
    assert not found, f"_note calls pass an f-string: {found}"


def test_bound_lines_never_read_exact():
    # `hatcheck bound` prints a large exact value from its digits; a read
    # of .exact in _bound_lines would build its binary value on every
    # query (the ell derivation's read is a real one and is not checked)
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (fn,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_bound_lines"
    ]
    reads = [
        node.lineno for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "exact"
    ]
    assert not reads, f"cli._bound_lines reads .exact at lines {reads}"


def test_runtime_needs_no_mpmath():
    # the package runs on the standard library alone; mpmath is a test
    # referee and a script dependency, listed only in the test extra
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "mpmath" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath")
    ]
    assert not found, f"src/hatcheck imports mpmath at {found}"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    holders = [name for name, reqs in project["optional-dependencies"].items()
               if any(re.match(r"mpmath\b", req) for req in reqs)]
    assert holders == ["test"]


def _functions(node, prefix=""):
    """(qualified name, node) of every function defined in node, nested
    ones included; lambdas are named <lambda>."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            yield name, child
            yield from _functions(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def _own_nodes(fn):
    """The nodes of fn's body, without those of functions defined in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _callee(call) -> str:
    """The name a call calls: f(...) and x.f(...) both call f."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _construct_nodes(match, allowed) -> list:
    """name:line of each node that match(node) accepts in the own body of
    a construct function, nested ones included, that allowed(name, fn)
    does not allow."""
    path = SRC / "construct.py"
    functions = list(_functions(ast.parse(path.read_text(), filename=str(path))))
    # the walk reaches module-level steps and the engines nested in builders
    assert {"_two_colors", "_delegate", "oracle_lemma_rus.engine"} <= {name for name, _ in functions}
    return sorted(
        f"{name}:{node.lineno}"
        for name, fn in functions
        if not allowed(name, fn)
        for node in _own_nodes(fn)
        if match(node)
    )


def _construct_calls(names, allowed) -> list:
    """_construct_nodes for calls to one of names."""
    return _construct_nodes(lambda node: isinstance(node, ast.Call) and _callee(node) in names, allowed)


def test_construct_engines_check_no_guards():
    # an oracle's enumeration is fixed when it is built and checked once,
    # where a strategy enters (defeat, defeat_traced); oracle_closure
    # checks its enumeration need while building, before it lays out its
    # digit ranges; no other function, an engine, a nested helper or a
    # module-level step, checks a guard.
    # Engines may enumerate assignments, as game.enumerate_assignments
    # checks no guard either
    allowed = {"AdversaryOracle.defeat", "AdversaryOracle.defeat_traced", "oracle_closure"}
    found = _construct_calls({"check"}, lambda name, fn: name in allowed)
    assert not found, f"construct functions check guards outside defeat and oracle_closure: {found}"
    path = SRC / "game.py"
    functions = dict(_functions(ast.parse(path.read_text(), filename=str(path))))
    calls = {_callee(node) for node in ast.walk(functions["enumerate_assignments"]) if isinstance(node, ast.Call)}
    assert "check" not in calls, "game.enumerate_assignments checks a guard"


def test_construct_engines_derive_no_views():
    # a sub-game's layout depends on the graph alone, so the builder that
    # delegates to it plans its view once; an engine, a nested helper or
    # a module-level step only applies plans (game.view).  A builder is a
    # function whose own body makes an AdversaryOracle
    def builder(name, fn):
        return any(isinstance(node, ast.Call) and _callee(node) == "AdversaryOracle" for node in _own_nodes(fn))

    found = _construct_calls({"reindex", "view_plan"}, builder)
    assert not found, f"construct functions outside a builder's body derive a view: {found}"


def test_closure_makes_no_view():
    # every kept vertex of the closure keeps its own budget, so a leaf's
    # entries are read from its own table in the strategy's labels
    found = _construct_calls(
        {"view", "view_plan", "induced_subgraph"},
        lambda name, fn: not (name == "oracle_closure" or name.startswith("oracle_closure.")),
    )
    assert not found, f"oracle_closure derives or applies a view: {found}"


def test_construct_checks_only_strategies_for_an_exact_scope():
    # a composing builder accepts any sub-oracle that hosts its sub-game
    # (_hosts); the exact scope check, _expect, is for a strategy entering
    # through defeat or defeat_traced
    allowed = {"AdversaryOracle.defeat", "AdversaryOracle.defeat_traced"}
    found = _construct_calls({"_expect"}, lambda name, fn: name in allowed)
    assert not found, f"construct functions other than defeat and defeat_traced call _expect: {found}"


def test_construct_reads_the_oracle_tree_in_one_place():
    # an oracle's construction lines and enumeration are read off its
    # argument tree by AdversaryOracle's own members (defeat and
    # defeat_traced read self.enumeration); a builder gives its step,
    # parts and own need, and neither nests a part's lines nor takes a
    # max over its parts' needs
    found = _construct_nodes(
        lambda node: isinstance(node, ast.Attribute) and node.attr in {"construction", "enumeration"},
        lambda name, fn: name.startswith("AdversaryOracle."),
    )
    assert not found, f"construct functions outside AdversaryOracle read a construction or an enumeration: {found}"
