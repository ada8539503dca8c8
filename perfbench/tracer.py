"""Spans around calls into the program's layers, recorded from outside.

:class:`Tracer` replaces a function or method of the program with a
wrapper that records one span per call: name, start, end, the span that
was open when it started (per thread), the process, and attributes.  The
program's own code is untouched; the wrapper is rebound wherever the
program imported the function by name, so ``from x import f`` call sites
see it too.  Spans stay in memory.  A process forked after the wrappers
went in (a pool worker) records its own spans and appends them to
``<spill_dir>/spans-<pid>.jsonl`` each time its outermost span ends, so
the parent can merge them with its own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

Span = dict[str, Any]
AttrFn = Callable[..., dict[str, Any]]
AfterFn = Callable[..., dict[str, Any]]


class Tracer:
    def __init__(self, spill_dir: Optional[Path] = None):
        self.spill_dir = spill_dir
        self.spans: list[Span] = []
        self.originals: dict[str, Callable] = {}
        self._owner = self._pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list[int]:
        if os.getpid() != self._pid:
            # A forked worker: start an empty record of its own.
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Optional[AttrFn] = None,
             after: Optional[AfterFn] = None) -> Any:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        span: Span = {"name": name, "id": span_id, "parent": parent,
                      "pid": self._pid, "tid": threading.get_ident()}
        if attrs is not None:
            span.update(attrs(*args, **kwargs))
        stack.append(span_id)
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        else:
            if after is not None:
                span.update(after(result, *args, **kwargs))
            return result
        finally:
            span["t1"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
            if not stack and self._pid != self._owner:
                self._spill()

    def _spill(self) -> None:
        if self.spill_dir is None or not self.spans:
            return
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def wrap(self, target: str, name: str,
             attrs: Optional[AttrFn] = None,
             after: Optional[AfterFn] = None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method``."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        self.originals[target] = original
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, original, args, kwargs, attrs, after)

        setattr(owner, attr, wrapper)
        if not owners:
            _rebind(original, wrapper)

    def collect(self) -> list[Span]:
        """This process's spans plus every spilled worker span."""
        spans = list(self.spans)
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                spans += [json.loads(line) for line in
                          path.read_text().splitlines() if line]
        return spans


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every ``from x import f`` binding in the program at the
    wrapper (modules imported later fetch the patched attribute)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` not nested in another span of that name
    (recursion and wrapper layering count once)."""
    by_id = {(s["pid"], s["id"]): s for s in spans}
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        nested = False
        while parent is not None:
            ancestor = by_id.get((span["pid"], parent))
            if ancestor is None:
                break
            if ancestor["name"] == name:
                nested = True
                break
            parent = ancestor["parent"]
        if not nested:
            out.append(span)
    return out


def total_s(spans: list[Span], name: str) -> float:
    return sum(s["t1"] - s["t0"] for s in outermost(spans, name))


def covered_s(spans: list[Span], start: float, end: float,
              pid: int) -> float:
    """Wall time in ``[start, end]`` inside any span of process ``pid``."""
    intervals = sorted((max(s["t0"], start), min(s["t1"], end))
                       for s in spans if s["pid"] == pid)
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
