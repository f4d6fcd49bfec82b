"""Every definition in ``src/qcoupling`` is reached from an entry point.

A name-reference walk over the package's source. The roots are the CLI's
``cmd_*`` subcommands and its entry points, every name that
``tests/test_acceptance.py`` uses, and the functions and methods perfbench
traces (its ``SPANS`` table in ``perfbench/tracing.py``, read as text). A
top-level function, class or assigned name is reached when module-level code
or a reached definition refers to it. Each method and property of a class is
a definition of its own, ``Class.name``: it is reached when its class is and
a reached definition refers to its name, and a dunder method is reached with
its class. Names are matched by identifier, so the walk can only overcount
what is reached.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "qcoupling"
ENTRY_POINTS = {"main", "build_parser", "resolve_model", "emit_report"}

# Kept although no root reaches them, each for the stated reason.
ALLOWED_UNREACHED = {
    "DEFAULT_BACKEND": "perfbench records it in each run's provenance",
    "Csr.nbytes": "perfbench's owned_nbytes reads it for coupling.coupling_bytes",
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


def _class_defs(cls):
    """(the class's own nodes, its methods): decorators, bases and body
    statements other than methods, and ``Class.name`` -> each method node."""
    methods = {}
    own = [*cls.decorator_list, *cls.bases, *cls.keywords]
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.setdefault(f"{cls.name}.{stmt.name}", []).append(stmt)
        else:
            own.append(stmt)
    return own, methods


def _package():
    """(definitions, module-level references): each top-level name and each
    ``Class.method`` -> the nodes that define it, and the names module-level
    code outside any definition uses."""
    defs, module_refs = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                own, methods = _class_defs(stmt)
                defs.setdefault(stmt.name, []).extend(own)
                for key, nodes in methods.items():
                    defs.setdefault(key, []).extend(nodes)
            elif isinstance(stmt, ast.FunctionDef):
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
    return {m[1] for m in re.finditer(r'\("qcoupling\.\w+", "(\w+(?:\.\w+)?)"\)', text)}


def _roots(defs, module_refs):
    acceptance = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    subcommands = {name for name in defs if name.startswith("cmd_")}
    spans = _span_targets()
    span_classes = {target.partition(".")[0] for target in spans}
    return subcommands | ENTRY_POINTS | set(_names(acceptance)) | spans | span_classes | module_refs


def _unreached():
    defs, module_refs = _package()
    refs, reached, grew = _roots(defs, module_refs), set(), True
    while grew:  # a method is reached only once its class is, so repeat until nothing grows
        grew = False
        for key, nodes in defs.items():
            owner, _, name = key.rpartition(".")
            if key in reached or (owner and owner not in reached):
                continue
            if key in refs or name in refs or (owner and name.startswith("__")):
                reached.add(key)
                refs.update(n for node in nodes for n in _names(node))
                grew = True
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
