"""Every top-level definition in ``src/qcoupling`` is reached from an entry point.

A name-reference walk over the package's source. The roots are the CLI's
``cmd_*`` subcommands and its entry points, every name that
``tests/test_acceptance.py`` uses, and the functions perfbench traces (its
``SPANS`` table in ``perfbench/tracing.py``, read as text). A top-level
function, class or assigned name is reached when module-level code or a
reached definition refers to it; a class counts as one definition, its
methods included. Names are matched by identifier, so the walk can only
overcount what is reached.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "qcoupling"
ENTRY_POINTS = {"main", "build_parser", "resolve_model", "emit_report"}

# Kept although no root reaches them, each for the stated reason.
ALLOWED_UNREACHED = {
    "coupon_collector_tail": "the closed-form tail that tests compare exact and MC tails with",
    "DEFAULT_BACKEND": "perfbench records it in each run's provenance",
}


def _names(node):
    """Identifiers ``node`` refers to: names, attribute names and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _package():
    """(definitions, module-level references): top-level name -> the nodes that
    define it, and the names module-level code outside any definition uses."""
    defs, module_refs = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not name.id.startswith("__"):
                            defs.setdefault(name.id, []).append(stmt.value)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                module_refs.update(_names(stmt))  # such as `if __name__ == "__main__":`
    return defs, module_refs


def _span_targets():
    text = (REPO / "perfbench" / "tracing.py").read_text()
    return {m[1] for m in re.finditer(r'\("qcoupling\.\w+", "(\w+)(?:\.\w+)?"\)', text)}


def _roots(defs, module_refs):
    acceptance = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    subcommands = {name for name in defs if name.startswith("cmd_")}
    return subcommands | ENTRY_POINTS | set(_names(acceptance)) | _span_targets() | module_refs


def _unreached():
    defs, module_refs = _package()
    reached, todo = set(), [n for n in _roots(defs, module_refs) if n in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs[name]:
            todo += [n for n in _names(node) if n in defs and n not in reached]
    return set(defs) - reached, defs


def test_every_definition_is_reached():
    unreached, _ = _unreached()
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == []


def test_allowlist_is_current():
    unreached, defs = _unreached()
    assert set(ALLOWED_UNREACHED) <= set(defs)
    assert set(ALLOWED_UNREACHED) <= unreached


def test_roots_are_found():
    defs, _ = _package()
    spans = _span_targets()
    assert len(spans) >= 25 and spans <= set(defs)
    assert ENTRY_POINTS <= set(defs)
    assert len([name for name in defs if name.startswith("cmd_")]) == 7
