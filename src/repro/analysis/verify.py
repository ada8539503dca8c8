"""Static verification of PP/TPP/PPP instrumentation plans.

Given a :class:`~repro.core.pipeline.FunctionPlan` the verifier proves,
without executing anything, the invariants the paper's correctness rests
on (diagnostic codes in parentheses):

* **Numbering** — the live acyclic paths of the profiling DAG are in
  bijection with ``[0, total)``: the enumerated path count matches
  ``PathNumbering.total`` (V101), ids are a gap-free permutation (V102),
  and ``decode``/``number_of`` round-trip (V103, V104).  Functions above
  ``path_cap`` paths fall back to deterministic id sampling (V100 note).
* **Placement** — simulating the placed ops over every live path
  observes *exactly one* counter hit, at the path's own id: no count
  with an uninitialised register (V201), no missing/duplicated/mis-
  indexed count (V202), and no poison on a live path (V203).  Folded
  back-edge op lists are split into their count part (attributed to the
  ending path) and init part (attributed to the starting one) from the
  fold structure itself, so a corrupted ``PlacementResult`` is judged
  as-is.
* **Cold safety** — every cold real edge carries a poison ``SetReg``
  before any count (V301) and every cold loop-entry fold contains one
  (V302); interval analysis over the ops then bounds every counter
  index a poisoned register can reach: at or above ``num_hot`` and
  inside ``counter_span`` for free poisoning, negative (check-skipped)
  for check-style (V303, V304).  Executions that rejoin the hot region
  through a pushed count/init are the paper's documented overcount and
  reported as a note (V305), never an error.
* **Observations** — :func:`verify_observations` generalises the edge
  checks to any registered profiler plugin: every observed edge uid
  must be a real CFG edge (V501) and every placed op must satisfy its
  own declared placement contract via
  :meth:`~repro.core.ops.ObservationOp.validate` (V502).
* **Geometry** — ``num_hot`` equals the numbering total (V401),
  ``counter_span`` covers the hot range (V402), the array/hash store
  decision matches ``hash_threshold`` (V403), ``static_ops`` is honest
  (V404), every instrumented edge uid exists in the CFG (V405), and the
  placement's live set is the numbering's (V105).
* **Counter inference** — :func:`verify_placement` proves a
  flow-conservation probe placement
  (:mod:`repro.analysis.conservation`) correct: the reconstruction
  program solves every tree edge exactly once from already-known counts
  (V601), probes and tree edges partition the real edges with every
  self-loop probed (V602), and reconstruction round-trips exactly on a
  fundamental-cycle basis of the conservation solution space plus
  enumerated execution walks (V603; V604 notes a truncated walk space,
  V600 reports how many counters the proof deletes).
* **Stale-profile matching** — :func:`verify_match` proves a
  :class:`~repro.analysis.match.ModuleMatch` structurally sound: block
  and edge correspondences are injective, land on real CFG nodes/edges,
  pin entry to entry and exit to exit, and agree with each other
  (V701).  :func:`verify_transfer` proves a transferred profile exactly
  flow-conserved with the invocation count pinned from the old
  profile's native channel (V702), proves a self-match transfer
  lossless — identity block maps and a byte-identical serialized
  profile (V703) — and reports coverage statistics, the fraction of
  old counts the transfer retained (V704 note).

:func:`verify_module_plan` folds in :func:`repro.ir.validate` findings
(V000) so one report subsumes structural IR validity, and
:func:`verify_suite` drives the whole workload suite through a
:class:`~repro.engine.session.ProfilingSession`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..cfg.graph import Edge
from ..core.ops import AddReg, CountConst, CountReg, InstrOp, SetReg
from ..core.pipeline import FunctionPlan, ModulePlan, ProfilerConfig
from ..ir.function import Function, Module
from ..ir.validate import validate_module
from ..profiles.edge_profile import FunctionEdgeProfile
from ..workloads import Workload
from .conservation import (DEFAULT_WALK_CAP, VIRTUAL_UID, ProbePlacement,
                           basis_flows, enumerate_walk_flows,
                           plan_function_probes, reconstruct)
from .diagnostics import Diagnostic, Report, Severity
from .sampling import SAMPLE_TARGET, sample_ids

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..engine.session import ProfilingSession
    from ..profiles.edge_profile import EdgeProfile
    from .match import ModuleMatch
    from .transfer import TransferResult

#: Above this many live paths the verifier samples ids instead of
#: enumerating (the full suite tops out near 13k paths per function, so
#: real plans are always enumerated exhaustively).
DEFAULT_PATH_CAP = 50_000

#: Cap on per-function path diagnostics so one broken init does not
#: produce one error per path through it.
_MAX_PATH_DIAGS = 8


class PlanVerificationError(Exception):
    """An instrumentation plan failed static verification."""

    def __init__(self, report: Report):
        self.report = report
        super().__init__(report.format(min_severity=Severity.WARNING))


class _FunctionVerifier:
    """All checks for one instrumented function plan."""

    def __init__(self, fplan: FunctionPlan, config: ProfilerConfig,
                 technique: str, path_cap: int):
        assert fplan.dag is not None and fplan.numbering is not None \
            and fplan.placement is not None
        self.fplan = fplan
        self.dag = fplan.dag
        self.graph = fplan.dag.dag
        self.live = fplan.live
        self.numbering = fplan.numbering
        self.placement = fplan.placement
        self.config = config
        self.technique = technique
        self.path_cap = path_cap
        self.checked = fplan.poison_style == "check"
        self.fname = fplan.func.name
        self.diags: list[Diagnostic] = []
        self._path_diags = 0

    # -- diagnostics helpers -------------------------------------------

    def _add(self, severity: Severity, code: str, message: str,
             hint: str = "", block: Optional[str] = None) -> None:
        self.diags.append(Diagnostic(
            severity=severity, code=code, message=message,
            function=self.fname, block=block, hint=hint))

    def _add_path(self, code: str, message: str, hint: str = "") -> None:
        self._path_diags += 1
        if self._path_diags == _MAX_PATH_DIAGS + 1:
            self._add(Severity.INFO, "V299",
                      "further per-path findings suppressed")
        if self._path_diags <= _MAX_PATH_DIAGS:
            self._add(Severity.ERROR, code, message, hint)

    # -- path enumeration ----------------------------------------------

    def _live_out(self, name: str) -> list[Edge]:
        return [e for e in self.graph.out_edges(name) if e.uid in self.live]

    def _count_live_paths(self) -> int:
        from ..cfg.traversal import reverse_topological_order
        counts: dict[str, int] = {}
        exit_name = self.graph.exit
        for v in reverse_topological_order(self.graph):
            if v == exit_name:
                counts[v] = 1
            else:
                counts[v] = sum(counts.get(e.dst, 0)
                                for e in self._live_out(v))
        entry = self.graph.entry
        assert entry is not None
        return counts.get(entry, 0)

    def _enumerate_live_paths(self) -> list[list[Edge]]:
        entry, exit_name = self.graph.entry, self.graph.exit
        assert entry is not None
        paths: list[list[Edge]] = []
        stack: list[tuple[str, list[Edge]]] = [(entry, [])]
        while stack:
            node, prefix = stack.pop()
            if node == exit_name:
                paths.append(prefix)
                continue
            for e in self._live_out(node):
                stack.append((e.dst, prefix + [e]))
        return paths

    # -- fold splitting -------------------------------------------------

    def _fold_candidates(self, back: Edge
                         ) -> list[tuple[list[InstrOp], list[InstrOp]]]:
        """Possible (count-part, init-part) splits of a folded back-edge
        op list, derived from the list itself plus dummy liveness.

        ``_realize`` folds the tail->exit dummy's op (counting the path
        that just ended) before the entry->header dummy's op
        (initialising the next one), each part at most one op.  A
        two-op fold splits unambiguously; a one-op fold is resolved by
        op type and dummy liveness, with a lone ``CountConst`` — the one
        genuinely ambiguous shape — tried both ways so the verifier
        never miscounts a correct plan.
        """
        fold = self.placement.edge_ops.get(back.uid, [])
        entry_dummy, exit_dummy = self.dag.dummies_for(back)
        if not fold:
            return [([], [])]
        if len(fold) >= 2:
            return [(fold[:1], fold[1:])]
        op = fold[0]
        exit_live = exit_dummy.uid in self.live
        if not exit_live:
            return [([], fold)]
        if entry_dummy is None:
            return [(fold, [])]
        if isinstance(op, SetReg):
            return [([], fold)]
        if isinstance(op, CountReg):
            return [(fold, [])]
        return [(fold, []), ([], fold)]

    # -- checks ---------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        self._check_geometry()
        total = self._count_live_paths()
        if total != self.numbering.total:
            self._add(Severity.ERROR, "V101",
                      f"live path count {total} != numbering total "
                      f"{self.numbering.total}",
                      "the numbering was built for a different live set")
            return self.diags
        if total <= self.path_cap:
            paths = self._enumerate_live_paths()
            self._check_numbering(paths)
            self._check_placement(paths)
        else:
            self._add(Severity.INFO, "V100",
                      f"{total} live paths exceed the enumeration cap "
                      f"({self.path_cap}); sampling "
                      f"{min(total, SAMPLE_TARGET)} ids")
            self._check_sampled(total)
        self._check_cold_safety()
        return self.diags

    # .. numbering ......................................................

    def _check_numbering(self, paths: list[list[Edge]]) -> None:
        numbering = self.numbering
        ids = []
        for path in paths:
            pid = numbering.number_of(path)
            ids.append(pid)
            decoded = numbering.decode(pid)
            if decoded is None or [e.uid for e in decoded] != \
                    [e.uid for e in path]:
                self._add(Severity.ERROR, "V103",
                          f"decode({pid}) does not reproduce the path "
                          f"that numbers to {pid}",
                          "numbering edge values are inconsistent with "
                          "out_order")
                break
        if sorted(ids) != list(range(numbering.total)):
            dupes = len(ids) - len(set(ids))
            self._add(Severity.ERROR, "V102",
                      f"path ids are not a permutation of "
                      f"[0, {numbering.total}) "
                      f"({dupes} duplicate(s), min {min(ids)}, "
                      f"max {max(ids)})",
                      "Ball-Larus edge values must make path sums "
                      "unique and gap-free")
        if numbering.decode(numbering.total) is not None or \
                numbering.decode(-1) is not None:
            self._add(Severity.ERROR, "V104",
                      "decode accepts an out-of-range path number",
                      "decode must return None outside [0, total)")

    def _check_sampled(self, total: int) -> None:
        numbering = self.numbering
        sampled: list[list[Edge]] = []
        for n in sample_ids(total):
            path = numbering.decode(n)
            if path is None or numbering.number_of(path) != n:
                self._add(Severity.ERROR, "V103",
                          f"decode/number_of round-trip fails at id {n}")
                return
            sampled.append(path)
        self._check_placement(sampled)

    # .. placement exactness ............................................

    def _apply(self, ops: Iterable[InstrOp], reg: Optional[int],
               observed: list[int], problems: list[tuple[str, str]]
               ) -> Optional[int]:
        """Simulate ops; ``reg`` is None while unknown.  Counter hits go
        to ``observed``; anomalies to ``problems`` as (code, detail)."""
        for op in ops:
            if isinstance(op, SetReg):
                if op.poison:
                    problems.append(("V203",
                                     "poison SetReg executes on a live "
                                     "path"))
                reg = op.value
            elif isinstance(op, AddReg):
                if reg is not None:
                    reg += op.value
            elif isinstance(op, CountReg):
                if reg is None:
                    problems.append(("V201",
                                     "count with uninitialised path "
                                     "register"))
                elif not (self.checked and reg < 0):
                    observed.append(reg + op.add)
            elif isinstance(op, CountConst):
                observed.append(op.value)
        return reg

    def _interior_ops(self, path: list[Edge]) -> list[list[InstrOp]]:
        ops: list[list[InstrOp]] = []
        for e in path:
            if e.dummy:
                continue
            cfg_edge = self.dag.cfg_edge_for(e)
            assert cfg_edge is not None
            ops.append(self.placement.edge_ops.get(cfg_edge.uid, []))
        return ops

    def _check_one_path(self, path: list[Edge], expected: int) -> None:
        if not path:
            # A single-block function (entry == exit): the lone empty
            # path has no edge to carry ops; the runtime counts it via
            # the invocation channel instead (see repro.core.estimate).
            if expected != 0:
                self._add_path("V202",
                               f"empty path numbered {expected}, not 0")
            return
        starts: list[list[list[InstrOp]]]
        ends: list[list[list[InstrOp]]]
        if path and self.dag.is_entry_dummy(path[0]):
            starts = [[ipart for _, ipart in self._fold_candidates(b)]
                      for b in self.dag.back_edges_into(path[0].dst)]
        else:
            starts = [[[]]]
        if path and self.dag.is_exit_dummy(path[-1]):
            ends = [[cpart for cpart, _ in self._fold_candidates(b)]
                    for b in self.dag.back_edges_from(path[-1].src)]
        else:
            ends = [[[]]]
        interior = self._interior_ops(path)

        for start_options in starts:
            for end_options in ends:
                failure = self._best_failure(start_options, interior,
                                             end_options, expected)
                if failure is not None:
                    code, detail = failure
                    self._add_path(code,
                                   f"path {expected}: {detail}",
                                   "re-run placement; the plan no "
                                   "longer counts this path exactly "
                                   "once")
                    return

    def _best_failure(self, start_options: list[list[InstrOp]],
                      interior: list[list[InstrOp]],
                      end_options: list[list[InstrOp]], expected: int
                      ) -> Optional[tuple[str, str]]:
        """None when some fold split passes; else the first failure."""
        first: Optional[tuple[str, str]] = None
        for ipart in start_options:
            for cpart in end_options:
                problems: list[tuple[str, str]] = []
                observed: list[int] = []
                reg: Optional[int] = None
                reg = self._apply(ipart, reg, observed, problems)
                for ops in interior:
                    reg = self._apply(ops, reg, observed, problems)
                self._apply(cpart, reg, observed, problems)
                if not problems and observed == [expected]:
                    return None
                if first is None:
                    if problems:
                        first = problems[0]
                    elif not observed:
                        first = ("V202", "never counted")
                    elif len(observed) > 1:
                        first = ("V202",
                                 f"counted {len(observed)} times "
                                 f"(indices {observed})")
                    else:
                        first = ("V202",
                                 f"counted at index {observed[0]} "
                                 f"instead of {expected}")
        return first

    def _check_placement(self, paths: list[list[Edge]]) -> None:
        for path in paths:
            self._check_one_path(path, self.numbering.number_of(path))

    # .. cold safety ....................................................

    def _poison_index(self, ops: list[InstrOp]) -> int:
        for i, op in enumerate(ops):
            if isinstance(op, SetReg) and op.poison:
                return i
        return -1

    def _cold_real_edges(self) -> list[Edge]:
        return [e for e in self.graph.edges()
                if not e.dummy and e.uid not in self.live]

    def _exposures(self) -> tuple[dict[str, Optional[tuple[int, int]]],
                                  dict[str, bool]]:
        """Per DAG node: interval of register offsets at which a
        ``CountReg`` can fire before any ``SetReg``, plus whether a
        ``CountConst`` is reachable the same way (the overcount note).

        Back edges are not followed: cross-iteration behaviour is
        governed by the fold lists, which are scanned where the exit
        dummy is crossed, and the hot side of the next iteration is
        covered by the placement check.
        """
        from ..cfg.traversal import reverse_topological_order

        def merge(box: list[Optional[tuple[int, int]]], lo: int, hi: int
                  ) -> None:
            cur = box[0]
            box[0] = (lo, hi) if cur is None else (min(cur[0], lo),
                                                  max(cur[1], hi))

        expo: dict[str, Optional[tuple[int, int]]] = {}
        const_seen: dict[str, bool] = {}
        for v in reverse_topological_order(self.graph):
            box: list[Optional[tuple[int, int]]] = [None]
            consts = False
            for e in self.graph.out_edges(v):
                if self.dag.is_entry_dummy(e):
                    continue
                if self.dag.is_exit_dummy(e):
                    op_lists = [self.placement.edge_ops.get(b.uid, [])
                                for b in self.dag.back_edges_from(e.src)]
                    follow = None
                else:
                    cfg_edge = self.dag.cfg_edge_for(e)
                    assert cfg_edge is not None
                    op_lists = [self.placement.edge_ops.get(cfg_edge.uid,
                                                            [])]
                    follow = e.dst
                for ops in op_lists:
                    offset = 0
                    stopped = False
                    for op in ops:
                        if isinstance(op, CountReg):
                            merge(box, offset + op.add, offset + op.add)
                        elif isinstance(op, AddReg):
                            offset += op.value
                        elif isinstance(op, CountConst):
                            consts = True
                        elif isinstance(op, SetReg):
                            stopped = True
                            break
                    if stopped or follow is None:
                        continue
                    nxt = expo.get(follow)
                    if nxt is not None:
                        merge(box, offset + nxt[0], offset + nxt[1])
                    consts = consts or const_seen.get(follow, False)
            expo[v] = box[0]
            const_seen[v] = consts
        return expo, const_seen

    def _check_poisoned_range(self, where: str, value: int,
                              tail_ops: list[InstrOp],
                              continue_at: Optional[str],
                              expo: dict[str, Optional[tuple[int, int]]]
                              ) -> None:
        lo: Optional[int] = None
        hi: Optional[int] = None

        def merge(a: int, b: int) -> None:
            nonlocal lo, hi
            lo = a if lo is None else min(lo, a)
            hi = b if hi is None else max(hi, b)

        offset = 0
        stopped = False
        for op in tail_ops:
            if isinstance(op, CountReg):
                merge(offset + op.add, offset + op.add)
            elif isinstance(op, AddReg):
                offset += op.value
            elif isinstance(op, SetReg):
                stopped = True
                break
        if not stopped and continue_at is not None:
            reach = expo.get(continue_at)
            if reach is not None:
                merge(offset + reach[0], offset + reach[1])
        if lo is None or hi is None:
            return
        lo_idx, hi_idx = value + lo, value + hi
        if self.checked:
            if hi_idx >= 0:
                self._add(Severity.ERROR, "V303",
                          f"{where}: poisoned register can reach a "
                          f"check-passing count (index {hi_idx} >= 0)",
                          "check-style poison must keep the register "
                          "negative through every count")
            return
        if lo_idx < self.placement.num_hot:
            self._add(Severity.ERROR, "V303",
                      f"{where}: poisoned execution can land in the hot "
                      f"counter range (index {lo_idx} < "
                      f"{self.placement.num_hot})",
                      "free poison values must push every reachable "
                      "index past the hot range")
        if hi_idx >= self.placement.counter_span:
            self._add(Severity.ERROR, "V304",
                      f"{where}: poisoned index {hi_idx} exceeds "
                      f"counter_span {self.placement.counter_span}",
                      "counter_span must cover every poisoned index")

    def _check_cold_safety(self) -> None:
        cold_real = self._cold_real_edges()
        cold_entry = []
        for back in self.dag.back_edges:
            entry_dummy, _exit_dummy = self.dag.dummies_for(back)
            if entry_dummy is not None and entry_dummy.uid not in self.live:
                cold_entry.append(back)
        if not cold_real and not cold_entry:
            return
        expo, const_seen = self._exposures()
        overcount = False
        for e in cold_real:
            cfg_edge = self.dag.cfg_edge_for(e)
            assert cfg_edge is not None
            ops = self.placement.edge_ops.get(cfg_edge.uid, [])
            where = f"cold edge {e.src}->{e.dst}"
            idx = self._poison_index(ops)
            if idx < 0:
                self._add(Severity.ERROR, "V301",
                          f"{where} carries no poison SetReg",
                          "every cold edge must poison the path "
                          "register before any count can fire")
                continue
            if any(isinstance(op, (CountReg, CountConst))
                   for op in ops[:idx]):
                self._add(Severity.ERROR, "V301",
                          f"{where} counts before it poisons",
                          "the poison must precede any count on the "
                          "same edge")
            poison_op = ops[idx]
            assert isinstance(poison_op, SetReg)
            self._check_poisoned_range(where, poison_op.value,
                                       ops[idx + 1:], e.dst, expo)
            if const_seen.get(e.dst, False):
                overcount = True
        for back in cold_entry:
            fold = self.placement.edge_ops.get(back.uid, [])
            where = f"cold loop entry {back.src}->{back.dst}"
            idx = self._poison_index(fold)
            if idx < 0:
                self._add(Severity.ERROR, "V302",
                          f"{where}: folded back-edge ops carry no "
                          f"poison SetReg",
                          "a cold entry dummy folds to a poison on its "
                          "back edge")
                continue
            poison_op = fold[idx]
            assert isinstance(poison_op, SetReg)
            self._check_poisoned_range(where, poison_op.value,
                                       fold[idx + 1:], back.dst, expo)
            if const_seen.get(back.dst, False):
                overcount = True
        if overcount:
            self._add(Severity.INFO, "V305",
                      "a cold execution can rejoin a pushed "
                      "count/init and be recounted as hot (the "
                      "paper's documented PPP overcount)",
                      "expected under push_through_cold; disable "
                      "pushing through cold merges to avoid it")

    # .. geometry .......................................................

    def _check_geometry(self) -> None:
        placement, numbering = self.placement, self.numbering
        if set(numbering.live) != set(self.live):
            self._add(Severity.ERROR, "V105",
                      "numbering live set differs from the plan's",
                      "re-number after the final cold-path pruning")
        if placement.num_hot != numbering.total:
            self._add(Severity.ERROR, "V401",
                      f"placement.num_hot {placement.num_hot} != "
                      f"numbering total {numbering.total}",
                      "hot counters must cover exactly the live path "
                      "ids")
        if placement.counter_span < placement.num_hot:
            self._add(Severity.ERROR, "V402",
                      f"counter_span {placement.counter_span} < num_hot "
                      f"{placement.num_hot}",
                      "the counter space cannot be smaller than the "
                      "hot range")
        expect_hash = numbering.total > self.config.hash_threshold
        if self.fplan.use_hash != expect_hash:
            self._add(Severity.ERROR, "V403",
                      f"use_hash={self.fplan.use_hash} but total "
                      f"{numbering.total} vs hash_threshold "
                      f"{self.config.hash_threshold} implies "
                      f"{expect_hash}",
                      "store mode must follow the numbering span")
        actual_ops = sum(len(v) for v in placement.edge_ops.values())
        if placement.static_ops != actual_ops:
            self._add(Severity.ERROR, "V404",
                      f"static_ops {placement.static_ops} != placed op "
                      f"count {actual_ops}",
                      "static_ops feeds the paper's code-size numbers; "
                      "keep it consistent")
        known_uids = {e.uid for e in self.fplan.func.cfg.edges()}
        for uid in placement.edge_ops:
            if uid not in known_uids:
                self._add(Severity.ERROR, "V405",
                          f"instrumented edge uid {uid} is not an edge "
                          f"of the function's CFG",
                          "ops must target real CFG edges (including "
                          "back edges)")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def verify_function_plan(fplan: FunctionPlan, config: ProfilerConfig,
                         technique: str,
                         path_cap: int = DEFAULT_PATH_CAP
                         ) -> list[Diagnostic]:
    """Statically verify one function's plan; see the module docstring."""
    if not fplan.instrumented:
        reason = fplan.reason or "not instrumented"
        return [Diagnostic(severity=Severity.INFO, code="V001",
                           message=f"skipped: {reason}",
                           function=fplan.func.name)]
    return _FunctionVerifier(fplan, config, technique, path_cap).run()


def verify_module_plan(mplan: ModulePlan,
                       path_cap: int = DEFAULT_PATH_CAP) -> Report:
    """Verify every function plan of a module plan, prefixed by the
    structural IR validation findings (code V000)."""
    report = Report(title=f"verify {mplan.module.name} "
                          f"[{mplan.technique}]")
    for problem in validate_module(mplan.module):
        report.add(Diagnostic(severity=Severity.ERROR, code="V000",
                              message=problem))
    for fplan in mplan.functions.values():
        report.extend(verify_function_plan(fplan, mplan.config,
                                           mplan.technique, path_cap))
    return report


def verify_observations(module, profilers) -> Report:
    """Statically verify registered profilers' observation placements.

    The generic analogue of the plan checks for arbitrary plugins: every
    instrumented edge uid must name a real CFG edge of its function
    (V501), and every placed op must pass its own declared
    :meth:`~repro.core.ops.ObservationOp.validate` contract against the
    edge it rides on (V502) -- e.g. a value record must sit on an edge
    leaving its site's block, a trip increment on a back edge of its
    loop.  ``profilers`` is a sequence of profiler *instances* (anything
    with ``name`` and ``instrument``); pass names through
    :func:`repro.profilers.create_profilers`.
    """
    from ..interp.costs import DEFAULT_COSTS

    names = ", ".join(p.name for p in profilers) or "none"
    report = Report(title=f"observations {module.name} [{names}]")
    for profiler in profilers:
        obs = profiler.instrument(module, DEFAULT_COSTS)
        for fname, fobs in obs.functions.items():
            func = module.functions[fname]
            edges = {e.uid: e for e in func.cfg.edges()}
            for uid, ops in fobs.edge_ops.items():
                edge = edges.get(uid)
                if edge is None:
                    report.add(Diagnostic(
                        severity=Severity.ERROR, code="V501",
                        message=f"{profiler.name}: observed edge uid "
                                f"{uid} is not an edge of the CFG",
                        function=fname,
                        hint="observations must target real CFG edges"))
                    continue
                for op in ops:
                    for problem in op.validate(func, edge):
                        report.add(Diagnostic(
                            severity=Severity.ERROR, code="V502",
                            message=f"{profiler.name}: {problem}",
                            function=fname, block=edge.src,
                            hint="the op's own placement contract is "
                                 "violated"))
    return report


# ---------------------------------------------------------------------------
# Counter inference (flow-conservation probe placements, V6xx)
# ---------------------------------------------------------------------------

#: Cap on per-function round-trip diagnostics.
_MAX_ROUNDTRIP_DIAGS = 4


def verify_placement(func: Function, placement: ProbePlacement,
                     walk_cap: int = DEFAULT_WALK_CAP) -> list[Diagnostic]:
    """Statically prove a conservation probe placement correct.

    Three obligations: the reconstruction program is uniquely solvable
    (V601 — every step solves a fresh tree edge from counts already
    known, with unit coefficients, and no tree edge is left unsolved),
    the cotree is a valid placement (V602 — probes and tree edges
    partition the function's real edges and every self-loop carries a
    probe, since conservation cancels self-loops out of their own
    vertex's equation), and reconstruction round-trips exactly (V603) on
    a fundamental-cycle basis of the conservation solution space plus a
    bounded enumeration of execution-shaped entry->exit walks.
    Reconstruction is linear, so basis exactness extends to every
    realizable execution; the walks cross-check the proof on
    non-negative single-activation flows directly (sampled with the
    shared deterministic helper, noted as V604, when the space exceeds
    ``walk_cap``).
    """
    cfg = func.cfg
    fname = func.name
    diags: list[Diagnostic] = []

    def add(severity: Severity, code: str, message: str,
            hint: str = "") -> None:
        diags.append(Diagnostic(severity=severity, code=code,
                                message=message, function=fname,
                                hint=hint))

    real_uids = {e.uid for e in cfg.edges()}

    # V602: probes + tree must partition the real edges.
    overlap = placement.probe_uids & placement.tree_uids
    if overlap:
        add(Severity.ERROR, "V602",
            f"probe placed on spanning-tree edge(s) "
            f"{sorted(overlap)}",
            "a tree edge's count is inferred; probing it wastes the "
            "counter and breaks the cotree invariant")
    uncovered = real_uids - placement.probe_uids - placement.tree_uids
    if uncovered:
        add(Severity.ERROR, "V602",
            f"edge(s) {sorted(uncovered)} neither probed nor on the "
            f"spanning tree",
            "every real edge must be a probe or inferred from the "
            "conservation equations")
    phantom = (placement.probe_uids | placement.tree_uids) - real_uids
    if phantom:
        add(Severity.ERROR, "V602",
            f"placement references non-CFG edge uid(s) "
            f"{sorted(phantom)}")
    self_loops = {e.uid for e in cfg.edges() if e.src == e.dst}
    loose_loops = self_loops - placement.probe_uids
    if loose_loops:
        add(Severity.ERROR, "V602",
            f"self-loop edge(s) {sorted(loose_loops)} carry no probe",
            "a self-loop cancels out of its vertex's conservation "
            "equation and can never be inferred")

    # V601: the step program must be uniquely solvable in order.
    known = set(placement.probe_uids) | {VIRTUAL_UID}
    pending = set(placement.tree_uids)
    for i, step in enumerate(placement.steps):
        if step.uid not in pending:
            add(Severity.ERROR, "V601",
                f"step {i} solves uid {step.uid}, which is not an "
                f"unsolved tree edge")
            break
        bad_term = next((t for t, _c in step.terms if t not in known),
                        None)
        if bad_term is not None:
            add(Severity.ERROR, "V601",
                f"step {i} (edge uid {step.uid} at {step.vertex}) "
                f"references count {bad_term} before it is known",
                "steps may only read probes, the invocation count, or "
                "earlier steps' results")
            break
        bad_coeff = next((c for _t, c in step.terms if c not in (-1, 1)),
                         None)
        if bad_coeff is not None:
            add(Severity.ERROR, "V601",
                f"step {i} carries non-unit coefficient {bad_coeff}",
                "conservation equations have +/-1 coefficients only")
            break
        pending.discard(step.uid)
        known.add(step.uid)
    else:
        if pending:
            add(Severity.ERROR, "V601",
                f"tree edge(s) {sorted(pending)} are never solved",
                "the equation system does not determine every count")

    if any(d.severity == Severity.ERROR for d in diags):
        return diags  # round-trips are meaningless on a broken placement

    # V603: exact round-trip on the basis flows and enumerated walks.
    flows = basis_flows(cfg, placement)
    walks, exhausted = enumerate_walk_flows(cfg, max_walks=walk_cap)
    if not exhausted:
        add(Severity.INFO, "V604",
            f"walk space exceeds the enumeration cap ({walk_cap}); "
            f"round-trip checked on the basis plus sampled walks")
    flows.extend((1, walks[i]) for i in sample_ids(len(walks)))
    mismatches = 0
    for entry_count, vec in flows:
        probe_counts = {uid: vec.get(uid, 0)
                        for uid in placement.probe_uids}
        recon = reconstruct(placement, probe_counts, entry_count,
                            keep_zeros=True)
        for uid in sorted(real_uids):
            if recon.get(uid, 0) != vec.get(uid, 0):
                mismatches += 1
                if mismatches <= _MAX_ROUNDTRIP_DIAGS:
                    add(Severity.ERROR, "V603",
                        f"reconstruction round-trip fails on edge uid "
                        f"{uid}: expected {vec.get(uid, 0)}, "
                        f"reconstructed {recon.get(uid, 0)} "
                        f"(flow with N={entry_count})",
                        "a reconstruction coefficient is wrong; the "
                        "inferred profile would be silently corrupt")
    if mismatches > _MAX_ROUNDTRIP_DIAGS:
        add(Severity.INFO, "V699",
            f"{mismatches - _MAX_ROUNDTRIP_DIAGS} further round-trip "
            f"mismatches suppressed")
    return diags


def verify_conservation_function(func: Function,
                                 profile: Optional[FunctionEdgeProfile]
                                 = None,
                                 walk_cap: int = DEFAULT_WALK_CAP
                                 ) -> list[Diagnostic]:
    """Plan a probe placement for ``func`` and prove it (V600-V604)."""
    placement = plan_function_probes(func, profile)
    diags = verify_placement(func, placement, walk_cap)
    weighted = "measured" if profile is not None else "static"
    diags.insert(0, Diagnostic(
        severity=Severity.INFO, code="V600",
        message=f"{placement.num_edges} edges, {placement.num_probes} "
                f"probes ({weighted} weights): "
                f"{placement.dropped_fraction:.0%} of edge counters "
                f"proven redundant",
        function=func.name))
    return diags


def verify_conservation(module: Module,
                        profiles: Optional[dict[str, FunctionEdgeProfile]]
                        = None,
                        walk_cap: int = DEFAULT_WALK_CAP) -> Report:
    """Prove a conservation probe placement for every function."""
    report = Report(title=f"conserve {module.name}")
    for name, func in module.functions.items():
        profile = profiles.get(name) if profiles else None
        report.extend(verify_conservation_function(func, profile,
                                                   walk_cap))
    return report


def conserve_suite(session: "ProfilingSession",
                   workloads: Optional[list[Workload]] = None,
                   scale: int = 1,
                   walk_cap: int = DEFAULT_WALK_CAP) -> list[Report]:
    """Prove conservation placements for every workload in the suite.

    Placements are weighted by each workload's measured ground-truth
    edge profile (the PPP setting); modules and traces come through the
    session, and the proof reports themselves are cached under the
    module fingerprint.
    """
    from ..engine.fingerprint import fingerprint_module, fingerprint_text
    from ..workloads import SUITE

    chosen = list(workloads) if workloads is not None else list(SUITE)
    reports: list[Report] = []
    for workload in chosen:
        module = session.expand(workload, scale).module
        _actual, edge_profile, _rv = session.trace(module)
        key = fingerprint_text("conserve-report",
                               fingerprint_module(module), str(walk_cap))
        profiles = edge_profile.functions

        def compute() -> Report:
            return verify_conservation(module, profiles, walk_cap)

        report = session.cache.get_or_compute("conservereport", key,
                                              compute)
        report.title = workload.name
        reports.append(report)
    return reports


def verify_suite(session: "ProfilingSession",
                 workloads: Optional[list[Workload]] = None,
                 techniques: Optional[Iterable[str]] = None,
                 config: Optional[ProfilerConfig] = None,
                 path_cap: int = DEFAULT_PATH_CAP,
                 scale: int = 1) -> list[Report]:
    """Verify the PP/TPP/PPP plans for every workload in the suite.

    Plans (and the traces TPP/PPP plan from) come through the session,
    so repeated runs are served from its artifact cache — and so are the
    verdicts themselves (:meth:`ProfilingSession.verify_report`), making
    a warm suite re-run a pure cache read.
    """
    from ..engine.results import TECHNIQUES
    from ..workloads import SUITE

    chosen = list(workloads) if workloads is not None else list(SUITE)
    techs = tuple(techniques) if techniques is not None else TECHNIQUES
    reports: list[Report] = []
    for workload in chosen:
        module = session.expand(workload, scale).module
        edge_profile = None
        if any(t != "pp" for t in techs):
            _actual, edge_profile, _rv = session.trace(module)
        for technique in techs:
            profile = None if technique == "pp" else edge_profile
            report = session.verify_report(
                session.plan_key(technique, module, profile, config),
                lambda: session.plan(technique, module, profile, config),
                path_cap)
            report.title = f"{workload.name}/{technique}"
            reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Stale-profile matching (V7xx)
# ---------------------------------------------------------------------------

#: Cap on per-function conservation-residual diagnostics.
_MAX_RESIDUAL_DIAGS = 4


def verify_match(old_module: Module, new_module: Module,
                 match: "ModuleMatch") -> Report:
    """Prove a module match structurally sound (V701).

    Injectivity on both sides (no old block claimed twice, no new block
    shared), every matched name a real block of its CFG, the entry and
    exit pinned to their counterparts, confidences inside ``(0, 1]``,
    and every edge correspondence consistent with the block map and
    backed by a real edge on both sides.
    """
    report = Report(title=f"match {old_module.name} -> {new_module.name}")

    def add(code: str, message: str, function: str = "",
            hint: str = "") -> None:
        report.add(Diagnostic(severity=Severity.ERROR, code=code,
                              message=message, function=function,
                              hint=hint))

    seen_old: set[str] = set()
    seen_new: set[str] = set()
    for fm in match.functions:
        if fm.old in seen_old:
            add("V701", f"function {fm.old!r} matched more than once")
        if fm.new in seen_new:
            add("V701", f"new function {fm.new!r} claimed by more than "
                        f"one match")
        seen_old.add(fm.old)
        seen_new.add(fm.new)
        old_func = old_module.functions.get(fm.old)
        new_func = new_module.functions.get(fm.new)
        if old_func is None or new_func is None:
            add("V701", f"match pairs unknown function(s) "
                        f"{fm.old!r} -> {fm.new!r}")
            continue
        old_cfg, new_cfg = old_func.cfg, new_func.cfg
        block_map: dict[str, str] = {}
        claimed: set[str] = set()
        for bm in fm.blocks:
            if bm.old in block_map:
                add("V701", f"block {bm.old!r} matched more than once",
                    fm.old, "the correspondence must be injective")
            if bm.new in claimed:
                add("V701", f"new block {bm.new!r} claimed by more than "
                            f"one old block", fm.old,
                    "the correspondence must be injective")
            block_map[bm.old] = bm.new
            claimed.add(bm.new)
            if bm.old not in old_cfg.blocks:
                add("V701", f"matched block {bm.old!r} is not in the old "
                            f"CFG", fm.old)
            if bm.new not in new_cfg.blocks:
                add("V701", f"matched block {bm.new!r} is not in the new "
                            f"CFG", fm.old)
            if not 0.0 < bm.confidence <= 1.0:
                add("V701", f"match {bm.old!r} -> {bm.new!r} carries "
                            f"confidence {bm.confidence!r} outside (0, 1]",
                    fm.old)
        mapped_entry = block_map.get(old_cfg.entry or "")
        if mapped_entry is not None and mapped_entry != new_cfg.entry:
            add("V701", f"old entry maps to {mapped_entry!r}, not the new "
                        f"entry {new_cfg.entry!r}", fm.old,
                "the virtual exit->entry edge only lines up when entries "
                "correspond")
        mapped_exit = block_map.get(old_cfg.exit or "")
        if mapped_exit is not None and mapped_exit != new_cfg.exit:
            add("V701", f"old exit maps to {mapped_exit!r}, not the new "
                        f"exit {new_cfg.exit!r}", fm.old)
        old_pairs = {(e.src, e.dst) for e in old_cfg.edges()}
        new_pairs = {(e.src, e.dst) for e in new_cfg.edges()}
        for em in fm.edges:
            if em.old not in old_pairs:
                add("V701", f"matched edge {em.old[0]}->{em.old[1]} is "
                            f"not an edge of the old CFG", fm.old)
            if em.new not in new_pairs:
                add("V701", f"matched edge {em.new[0]}->{em.new[1]} is "
                            f"not an edge of the new CFG", fm.old)
            expect = (block_map.get(em.old[0]), block_map.get(em.old[1]))
            if expect != em.new:
                add("V701", f"edge match {em.old[0]}->{em.old[1]} lands "
                            f"on {em.new[0]}->{em.new[1]}, but the block "
                            f"map sends its endpoints to "
                            f"{expect[0]!r}->{expect[1]!r}", fm.old,
                    "edge correspondences must follow the block map")
    return report


def verify_transfer(transfer: "TransferResult",
                    old_profile: Optional["EdgeProfile"] = None
                    ) -> Report:
    """Prove a transferred profile repaired and faithful (V702-V704).

    Every function of the transferred profile must satisfy Kirchhoff
    conservation exactly, with the invocation count N pinned to the old
    profile's native channel (V702).  When the match is a self-match
    (identical fingerprints), the transfer must be lossless: identity
    block maps and a byte-identical serialized profile (V703).  V704 is
    an INFO note carrying the coverage statistics the staleness study
    reports.
    """
    from ..profiles.serialize import edge_profile_to_dict
    from .transfer import conservation_violations

    import json

    stats = transfer.stats
    report = Report(title=f"transfer -> {transfer.profile.module.name}")
    report.add(Diagnostic(
        severity=Severity.INFO, code="V704",
        message=f"{stats.retained:.1%} of old edge counts retained "
                f"({stats.mapped_total} of {stats.old_total}); "
                f"{len(stats.dropped_functions)} executed function(s) "
                f"dropped"
                + (f"; {stats.mapped_paths} path(s) kept, "
                   f"{stats.dropped_paths} dropped"
                   if stats.mapped_paths or stats.dropped_paths else "")))

    for name in sorted(transfer.profile.functions):
        fprofile = transfer.profile.functions[name]
        residuals = conservation_violations(fprofile)
        for block, residual in residuals[:_MAX_RESIDUAL_DIAGS]:
            report.add(Diagnostic(
                severity=Severity.ERROR, code="V702",
                message=f"flow not conserved at {block!r}: "
                        f"inflow - outflow = {residual}",
                function=name, block=block,
                hint="the transferred profile was not repaired against "
                     "the conservation system"))
        if len(residuals) > _MAX_RESIDUAL_DIAGS:
            report.add(Diagnostic(
                severity=Severity.INFO, code="V799",
                message=f"{len(residuals) - _MAX_RESIDUAL_DIAGS} further "
                        f"conservation residuals suppressed",
                function=name))

    if old_profile is not None:
        for fm in transfer.match.functions:
            old_fp = old_profile.functions.get(fm.old)
            new_fp = transfer.profile.functions.get(fm.new)
            if old_fp is None or new_fp is None:
                continue
            if new_fp.entry_count != old_fp.entry_count:
                report.add(Diagnostic(
                    severity=Severity.ERROR, code="V702",
                    message=f"invocation count {new_fp.entry_count} "
                            f"drifted from the native channel's "
                            f"{old_fp.entry_count}",
                    function=fm.new,
                    hint="N is measured, never inferred; the transfer "
                         "must pin it"))

    if transfer.match.identical and old_profile is not None:
        for fm in transfer.match.functions:
            non_identity = [bm for bm in fm.blocks if bm.old != bm.new]
            if non_identity:
                bad = non_identity[0]
                report.add(Diagnostic(
                    severity=Severity.ERROR, code="V703",
                    message=f"self-match maps {bad.old!r} to "
                            f"{bad.new!r}; a module matched against "
                            f"itself must produce the identity",
                    function=fm.old))
        before = json.dumps(edge_profile_to_dict(old_profile),
                            sort_keys=True)
        after = json.dumps(edge_profile_to_dict(transfer.profile),
                           sort_keys=True)
        if before != after:
            report.add(Diagnostic(
                severity=Severity.ERROR, code="V703",
                message="self-match transfer is not byte-identical to "
                        "the original profile",
                hint="with every edge matched, the repair must keep "
                     "every transferred count exactly"))
    return report


def match_suite(session: "ProfilingSession",
                workloads: Optional[list[Workload]] = None,
                scale: int = 1) -> list[Report]:
    """Prove stale-profile matching over the workload suite.

    Two reports per workload: ``<name>/self`` matches the expanded
    module against itself and proves the transfer lossless (V703),
    while ``<name>/stale`` treats the unexpanded compile as the stale
    binary — its traced profile is matched and transferred onto the
    optimizer-expanded module, the realistic re-optimization edit — and
    proves the match sound and the repair exact (V701, V702, V704).
    Reports are cached per fingerprint pair.
    """
    from ..engine.fingerprint import fingerprint_module, fingerprint_text
    from ..workloads import SUITE
    from .match import match_modules
    from .transfer import remap_edge_profile

    chosen = list(workloads) if workloads is not None else list(SUITE)
    reports: list[Report] = []
    for workload in chosen:
        old_module = session.compile(workload, scale)
        new_module = session.expand(workload, scale).module
        old_paths, old_edge, _rv = session.trace(old_module)
        new_paths, new_edge, _rv2 = session.trace(new_module)
        old_fp = fingerprint_module(old_module)
        new_fp = fingerprint_module(new_module)

        def compute_self() -> Report:
            match = match_modules(new_module, new_module)
            transfer = remap_edge_profile(new_edge, new_module, match,
                                          paths=new_paths)
            report = verify_match(new_module, new_module, match)
            merged = verify_transfer(transfer, new_edge)
            report.extend(merged.diagnostics)
            return report

        def compute_stale() -> Report:
            match = match_modules(old_module, new_module)
            transfer = remap_edge_profile(old_edge, new_module, match,
                                          paths=old_paths)
            report = verify_match(old_module, new_module, match)
            merged = verify_transfer(transfer, old_edge)
            report.extend(merged.diagnostics)
            return report

        key_self = fingerprint_text("match-report", new_fp, new_fp,
                                    session.backend)
        report = session.cache.get_or_compute("matchreport", key_self,
                                              compute_self)
        report.title = f"{workload.name}/self"
        reports.append(report)

        key_stale = fingerprint_text("match-report", old_fp, new_fp,
                                     session.backend)
        report = session.cache.get_or_compute("matchreport", key_stale,
                                              compute_stale)
        report.title = f"{workload.name}/stale"
        reports.append(report)
    return reports
