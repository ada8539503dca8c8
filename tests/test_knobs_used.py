"""Every defaulted parameter on a ``def`` in ``src/repro`` is set by the program.

A default that only tests override is a knob the program never turns: it
widens what the tests exercise beyond what the program runs.  This AST
check stands in for a linter rule: each parameter with a default must be
set -- by keyword, by position, or by a ``*args``/``**kw`` spread -- at
some call site in ``src/``, ``scripts/``, ``perfbench/``, ``benchmarks/``
or ``examples/``, or be a test seam named in ``SEAMS`` with its reason.

Calls resolve by name, so the check errs towards "set": ``obj.run(x)``
counts for every ``run`` method.  A class call counts for its
``__init__`` (or a base class's), and ``functools.partial(f, ...)``
for ``f``.  A function a
module-level table stores (``_FUNCTION_CHECKS = (check_a, ...)``, the
suite's ``Workload(..., programs.vpr_like, ...)`` entries) is called
through the table, so its positional parameters count as set.  A
parameter whose name starts with ``_`` binds a value when a closure is
made (``def step(frame, _v=value)``); it is no knob.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
CALLER_DIRS = ("src", "scripts", "perfbench", "benchmarks", "examples")

#: ``"qualname(param)"`` -> why only tests set it.  A seam lets a test
#: substitute a fake, or a bound the program cannot reach in test time.
SEAMS = {
    "HashStore.__init__(slots)": "a tiny table collides and loses counts",
    "HashStore.__init__(tries)": "one probe try collides and loses counts",
    "run_with_plan(max_instructions)":
        "stops hypothesis-generated programs that loop for too long",
    "source_salt(root)": "salts an edited copy of the package",
    "ParallelRunner.__init__(backoff)":
        "fault tests retry without waiting out the backoff ladder",
    "Machine.__init__(path_listener)":
        "a live consumer to compare replayed streams with; perfbench's "
        "machine_mode reads the attribute",
    "ProfilingService.__init__(executor)":
        "replaces the worker pool with a stub that can fail on demand",
    "CircuitBreaker.__init__(clock)":
        "a fake clock steps the breaker past its reset timeout",
}


def _is_static(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in node.decorator_list)


def defaulted_params(tree: ast.Module):
    """``(qualname, call key, param, position or None)`` per default.

    Positions count from the first parameter a caller passes (after
    ``self``/``cls``); keyword-only parameters have none.  A class's
    ``__init__`` is called by the class name.
    """
    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.",
                                 child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                key = (in_class if in_class and child.name == "__init__"
                       else child.name)
                a = child.args
                positional = [*a.posonlyargs, *a.args]
                if in_class and not _is_static(child) and positional:
                    positional = positional[1:]
                first = len(positional) - len(a.defaults)
                params = [*((arg, i) for i, arg in
                            enumerate(positional[first:], first)),
                          *((arg, None) for arg, default in
                            zip(a.kwonlyargs, a.kw_defaults)
                            if default is not None)]
                for arg, index in params:
                    if not arg.arg.startswith("_"):
                        yield qual, key, arg.arg, index
                yield from visit(child, f"{qual}.", None)
            else:
                yield from visit(child, prefix, in_class)
    yield from visit(tree, "", None)


def _callee(func: ast.expr):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _stored(tree: ast.Module):
    """Names of the functions a module-level assignment stores.

    ``_FUNCTION_CHECKS = (check_a, ...)`` or a registry of
    ``Workload(..., programs.vpr_like, ...)``: whatever later calls them
    through the table passes their positional parameters.
    """
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
            calls = {id(n.func) for n in ast.walk(stmt.value)
                     if isinstance(n, ast.Call)}
            for n in ast.walk(stmt.value):
                if isinstance(n, (ast.Name, ast.Attribute)) \
                        and id(n) not in calls:
                    yield _callee(n)


#: Marks a ``**kw`` spread, which sets every keyword.
ALL = "**"


def _calls(tree: ast.Module):
    """``(call key, positions set, every position?, keywords set)``.

    A ``*args`` spread sets every position from its own on; a function a
    table stores has every position set.
    """
    for name in _stored(tree):
        yield name, 0, True, set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        key, args = _callee(call.func), call.args
        if key == "partial" and args:
            key, args = _callee(args[0]), args[1:]
        if key is None:
            continue
        starred = [i for i, a in enumerate(args)
                   if isinstance(a, ast.Starred)]
        positions = starred[0] if starred else len(args)
        names = {k.arg for k in call.keywords if k.arg is not None}
        if any(k.arg is None for k in call.keywords):
            names.add(ALL)
        yield key, positions, bool(starred), names


def unset_params(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``"path: qualname(param)"`` for every default no caller sets."""
    trees = [ast.parse(text) for text in callers]
    bases = {cls.name: [_callee(b) for b in cls.bases]
             for tree in trees for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef)}
    sets: dict[str, list[tuple[int, bool, set[str]]]] = {}
    for tree in trees:
        for key, positions, spread, names in _calls(tree):
            todo = [key]  # a subclass call reaches its bases' __init__
            while todo:
                key = todo.pop()
                sets.setdefault(key, []).append((positions, spread, names))
                todo += bases.get(key, ())
    unset = []
    for path, text in sources.items():
        for qual, key, param, index in defaulted_params(ast.parse(text)):
            if not any(param in names or ALL in names
                       or (index is not None
                           and (index < positions or spread))
                       for positions, spread, names in sets.get(key, ())):
                unset.append(f"{path}: {qual}({param})")
    return unset


def test_checker_follows_positions_spreads_and_tables():
    source = ("import functools\n"
              "class Box:\n"
              "    def __init__(self, size=1, colour=None):\n"
              "        pass\n"
              "    def fill(self, level=0, *, spill=False):\n"
              "        pass\n"
              "def check(func, strict=False):\n"
              "    def step(frame, _v=func):\n"
              "        pass\n"
              "    return step\n"
              "CHECKS = (check,)\n"
              "def lint(func, strict=False):\n"
              "    for check in CHECKS:\n"
              "        check(func, strict)\n"
              "def spread(a=1, b=2, c=3, *, d=4):\n"
              "    pass\n"
              "def bound(a, b=1, c=2):\n"
              "    pass\n")
    caller = ("class Crate(Box):\n"
              "    pass\n"
              "Crate(4).fill(**opts)\n"
              "spread(0, *rest)\n"
              "functools.partial(bound, 0, c=3)\n")
    assert unset_params({"m.py": source}, [source, caller]) == [
        "m.py: Box.__init__(colour)",
        "m.py: lint(strict)",
        "m.py: spread(d)",
        "m.py: bound(b)",
    ]


def _sources(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): p.read_text()
            for p in sorted(root.rglob("*.py"))}


def test_every_default_is_set_by_the_program_or_a_named_seam():
    callers = [p.read_text() for d in CALLER_DIRS
               for p in sorted((ROOT / d).rglob("*.py"))]
    unset = unset_params(_sources(PACKAGE), callers)
    names = {u.split(": ", 1)[1] for u in unset}
    found = [u for u in unset if u.split(": ", 1)[1] not in SEAMS]
    assert not found, "\n".join(["set only by tests:", *found])
    stale = sorted(set(SEAMS) - names)
    assert not stale, f"SEAMS entries no longer needed: {stale}"


def test_seams_are_few_and_explained():
    assert len(SEAMS) <= 12
    assert all(reason.strip() for reason in SEAMS.values())
