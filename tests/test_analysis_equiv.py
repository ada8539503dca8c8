"""Translation-validation tests: codegen client, pass client, and the
mutation gate.

The contract mirrors the plan verifier's: zero errors on everything the
real pipeline produces (pristine generated code, pristine pass output),
and every seeded corruption from ``analysis.mutate`` detected.
"""

import ast
import re

import pytest

from repro.analysis import Severity
from repro.analysis import equiv as equiv_impl
from repro.analysis.diagnostics import Report
from repro.analysis.equiv import (PASS_NAMES, CodegenValidationError,
                                  _CodegenChecker, apply_pass,
                                  check_function_codegen, check_generated,
                                  check_module_codegen, check_pass,
                                  equiv_module, equiv_suite,
                                  standard_modes)
from repro.analysis.mutate import (CODEGEN_MUTATIONS, PASS_MUTATIONS,
                                   mutate_module, mutate_source)
from repro.engine import ArtifactCache, ProfilingSession, stages
from repro.engine.fingerprint import fingerprint_module
from repro.engine.stages import ground_truth
from repro.interp.codegen import ModeSpec, generate_source
from repro.interp.machine import Machine
from repro.ir.function import Module
from repro.lang import compile_source
from repro.workloads import get_workload

from conftest import with_source
from test_irreducible import irreducible_module


@pytest.fixture(scope="module")
def vpr_module():
    return get_workload("vpr").compile(scale=1)


@pytest.fixture(scope="module")
def vpr_profiles(vpr_module):
    path_profile, edge_profile, _rv = ground_truth(vpr_module,
                                                   backend="tuple")
    return path_profile, edge_profile


@pytest.fixture(scope="module")
def vpr_pass_outputs(vpr_module, vpr_profiles):
    path_profile, edge_profile = vpr_profiles
    return {name: apply_pass(name, vpr_module, edge_profile, path_profile)
            for name in PASS_NAMES}


# ----------------------------------------------------------------------
# Pristine acceptance: zero false positives
# ----------------------------------------------------------------------

class TestPristine:
    def test_codegen_clean_on_workload(self, vpr_module):
        report = check_module_codegen(vpr_module)
        assert report.ok, report.format()
        assert not report.errors() and not report.warnings()

    def test_every_pass_clean_on_workload(self, vpr_module,
                                          vpr_pass_outputs):
        for name, post in vpr_pass_outputs.items():
            report = check_pass(name, vpr_module, post)
            assert report.ok, (name, report.format())

    def test_equiv_module_driver(self, vpr_module):
        results = equiv_module(vpr_module, passes=("cleanup",))
        labels = [label for label, _ in results]
        assert labels == ["codegen", "pass:cleanup"]
        assert all(report.ok for _, report in results)


# ----------------------------------------------------------------------
# The mutation gate
# ----------------------------------------------------------------------

def _detect_codegen(module, kind):
    """(applied, detected, codes) searching func x mode for a site."""
    for func in module.functions.values():
        if not func.sealed:
            continue
        for spec in standard_modes(func):
            result = generate_source(func, module, spec)
            mutated = mutate_source(result.source, kind)
            if mutated is None:
                continue
            report = Report(title=f"mutated:{kind}")
            _CodegenChecker(func, module, spec,
                            with_source(result, mutated),
                            report).run()
            return True, not report.ok, [d.code for d in report.errors()]
    return False, False, []


class TestCodegenMutations:
    @pytest.mark.parametrize("kind", CODEGEN_MUTATIONS)
    def test_detected(self, vpr_module, kind):
        applied, detected, codes = _detect_codegen(vpr_module, kind)
        assert applied, f"{kind}: no site in any function x mode"
        assert detected, f"{kind}: corruption not detected"

    def test_specific_codes(self, vpr_module):
        # Spot-check that corruption families land in their namespaces.
        assert "E107" in _detect_codegen(vpr_module, "cg-drop-cost")[2]
        # The emitter never writes ``if not ...``, so an inverted test
        # is an unrecognized shape.
        assert "E101" in _detect_codegen(vpr_module, "cg-flip-branch")[2]

    def test_branch_on_wrong_register_caught(self):
        # A well-shaped ``if regs[K]:`` on the wrong slot parses but
        # decides the branch on the wrong condition.
        module = compile_source(_LOOP_PROGRAM)
        func = module.functions["main"]
        spec = ModeSpec()
        result = generate_source(func, module, spec)
        match = re.search(r"^(\s*)if regs\[(\d+)\]:$", result.source, re.M)
        wrong = int(match.group(2)) + 1
        source = (result.source[:match.start()]
                  + f"{match.group(1)}if regs[{wrong}]:"
                  + result.source[match.end():])
        assert "E103" in _hand_edit_codes(func, module, spec, result, source)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown codegen mutation"):
            mutate_source("", "cg-bogus")


_LOOP_PROGRAM = """
    func main() { s = 0;
        for (i = 0; i < 50; i = i + 1) { if (i % 3 == 0) { s = s + i; } }
        return s; }"""


def _hand_edit_codes(func, module, spec, result, source):
    """Error codes the codegen checker reports for edited source."""
    report = Report(title="hand-edited")
    _CodegenChecker(func, module, spec,
                    with_source(result, source),
                    report).run()
    return [d.code for d in report.errors()]


def _localize_looping_slot(source):
    """Promote a slot that a looping segment writes to a ``_rK`` local:
    loaded in the prologue, kept live across ``continue``, written back
    before every ``return``."""
    loop = next(m for m in re.finditer(
        r"^    def _seg_\d+\(frame, regs\):\n", source, re.M)
        if "continue" in source[m.end():].split("    def ")[0])
    end = source.find("    def ", loop.end())
    slot = re.search(r"regs\[(\d+)\] = regs\[\d+\] \+",
                     source[loop.end():end]).group(1)
    body = source[loop.end():end].replace(f"regs[{slot}]", f"_r{slot}")
    body = re.sub(r"^(\s*)(return .*)$",
                  rf"\1regs[{slot}] = _r{slot}\n\1\2", body, flags=re.M)
    return (source[:loop.end()] + f"        _r{slot} = regs[{slot}]\n"
            + body + source[end:])


def _invert_first_branch(source):
    """Rewrite the first ``if regs[K]: A`` / ``B`` into the equivalent
    ``if not regs[K]: B`` / ``A`` (arms swapped, same semantics)."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        for field in ("body", "orelse"):
            stmts = getattr(node, field, None)
            if not isinstance(stmts, list):
                continue
            for i, stmt in enumerate(stmts):
                if (isinstance(stmt, ast.If)
                        and isinstance(stmt.test, ast.Subscript)):
                    inverted = ast.If(
                        test=ast.UnaryOp(op=ast.Not(), operand=stmt.test),
                        body=stmts[i + 1:], orelse=[])
                    stmts[i:] = [inverted, *stmt.body]
                    return ast.unparse(ast.fix_missing_locations(tree))
    raise AssertionError("no branch to invert")


class TestUnmodelledShapes:
    """The checker models exactly the shapes the emitter produces.
    Register locals and inverted branch tests are rejected as E101,
    even where the edited code would compute the same thing."""

    @pytest.mark.parametrize("shape", ["localized-registers",
                                       "inverted-branch"])
    def test_unmodelled_shape_rejected(self, shape):
        module = compile_source(_LOOP_PROGRAM)
        func = module.functions["main"]
        spec = ModeSpec()
        result = generate_source(func, module, spec)
        source = result.source
        assert _hand_edit_codes(func, module, spec, result, source) == []
        if shape == "localized-registers":
            edited = _localize_looping_slot(source)
            assert re.search(r"^\s*_r\d+ = regs\[\d+\]$", edited, re.M)
        else:
            edited = _invert_first_branch(source)
            assert re.search(r"^\s*if not regs\[\d+\]:$", edited, re.M)
        assert "E101" in _hand_edit_codes(func, module, spec, result, edited)


class TestHookSlotShapes:
    """Hooked code has one shape per edge: the checked call of the
    edge's own slot.  Any other hook shape is E101; a well-shaped call
    of another edge's slot is an observation-stream error."""

    _HOOK = re.compile(r"if _hk\[(\d+)\] is not None: _hk\[\d+\]\(frame\)")

    @pytest.mark.parametrize("edit,code", [
        ("if _hk[{k}] is not None: _hk[{n}](frame)", "E101"),
        ("_hk[{k}](frame)", "E101"),
        ("_h0(frame)", "E101"),
        ("if _hk[{n}] is not None: _hk[{n}](frame)", "E105"),
    ], ids=["call-other-slot", "unchecked", "per-plan-param",
            "wrong-slot"])
    def test_hook_edit_flagged(self, edit, code):
        module = compile_source(_LOOP_PROGRAM)
        func = module.functions["main"]
        spec = ModeSpec(hooks=True)
        result = generate_source(func, module, spec)
        assert _hand_edit_codes(func, module, spec, result,
                                result.source) == []
        slot = int(self._HOOK.search(result.source).group(1))
        edited = self._HOOK.sub(
            edit.format(k=slot, n=slot + 1), result.source, count=1)
        assert code in _hand_edit_codes(func, module, spec, result, edited)


class TestPassMutations:
    @pytest.mark.parametrize("kind", PASS_MUTATIONS)
    def test_detected(self, vpr_module, vpr_pass_outputs, kind):
        applied = detected = False
        for name in PASS_NAMES:
            mutated = mutate_module(vpr_pass_outputs[name], kind)
            if mutated is None:
                continue
            applied = True
            report = check_pass(name, vpr_module, mutated)
            if not report.ok:
                detected = True
                break
        assert applied, f"{kind}: no site in any pass output"
        assert detected, f"{kind}: corruption not detected"

    def test_mutation_copies_the_module(self, vpr_module, vpr_profiles):
        # Optimizer passes share Instr objects between the pre- and
        # post-module; mutating in place would corrupt both sides
        # identically and hide the corruption from the checker.
        path_profile, edge_profile = vpr_profiles
        post = apply_pass("cleanup", vpr_module, edge_profile,
                          path_profile)
        mutated = mutate_module(post, "opt-const-nudge")
        assert mutated is not None and mutated is not post
        assert check_pass("cleanup", vpr_module, post).ok

    def test_unknown_kind_rejected(self, vpr_module):
        with pytest.raises(ValueError, match="unknown pass mutation"):
            mutate_module(vpr_module, "opt-bogus")


# ----------------------------------------------------------------------
# One exploration per pre-function, replayed against every pass
# ----------------------------------------------------------------------

def _diagnostics(report):
    return [(d.severity, d.code, d.function, d.message) for d in report]


@pytest.fixture(scope="module")
def counted_equiv():
    """``name -> (module, equiv_module pass reports, explored function
    names, replayed function names)``, computed once per workload."""
    runs = {}

    def run(name):
        if name not in runs:
            module = get_workload(name).compile(scale=1)
            explored = []
            replayed = []
            real_explore = equiv_impl._explore
            real_replay = equiv_impl._replay

            def counting(func, *args, **kwargs):
                explored.append(func.name)
                return real_explore(func, *args, **kwargs)

            def replaying(func, *args, **kwargs):
                replayed.append(func.name)
                return real_replay(func, *args, **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(equiv_impl, "_explore", counting)
                patch.setattr(equiv_impl, "_replay", replaying)
                reports = equiv_module(module)[1:]  # after codegen
            runs[name] = (module, reports, explored, replayed)
        return runs[name]

    return run


@pytest.fixture(scope="module")
def vpr_warm_memo(vpr_module, vpr_pass_outputs):
    """A path memo already used by the six pristine vpr passes."""
    memo = {}
    for name, post in vpr_pass_outputs.items():
        assert check_pass(name, vpr_module, post, memo=memo).ok, name
    return memo


class TestSharedExploration:
    @pytest.mark.parametrize("name,functions", [
        ("vpr", 4), ("applu", 3), ("parser", 7), ("apsi", 3)])
    def test_explores_each_function_once(self, counted_equiv, name,
                                         functions):
        module, _reports, explored, _replayed = counted_equiv(name)
        reducible = [fname for fname, func in module.functions.items()
                     if not equiv_impl._is_irreducible(func.cfg)]
        assert len(reducible) == functions
        assert sorted(explored) == sorted(reducible)

    @pytest.mark.parametrize("name", ["vpr", "applu", "parser"])
    def test_sharing_changes_no_verdict(self, counted_equiv, name):
        module, reports, _explored, _replayed = counted_equiv(name)
        path_profile, edge_profile, _rv = ground_truth(module,
                                                       backend="tuple")
        assert [label for label, _ in reports] == \
            [f"pass:{p}" for p in PASS_NAMES]
        for pass_name, (_label, shared) in zip(PASS_NAMES, reports):
            post = apply_pass(pass_name, module, edge_profile,
                              path_profile)
            fresh = check_pass(pass_name, module, post)
            assert _diagnostics(shared) == _diagnostics(fresh), pass_name

    @pytest.mark.parametrize("kind", PASS_MUTATIONS)
    def test_mutation_detected_through_warm_memo(
            self, vpr_module, vpr_pass_outputs, vpr_warm_memo, kind):
        # A memo that kept post-side state in its pre-paths would let a
        # corruption replay against what the previous passes left there.
        applied = False
        for name in PASS_NAMES:
            mutated = mutate_module(vpr_pass_outputs[name], kind)
            if mutated is None:
                continue
            applied = True
            shared = check_pass(name, vpr_module, mutated,
                                memo=vpr_warm_memo)
            if not shared.ok:
                fresh = check_pass(name, vpr_module, mutated)
                assert _diagnostics(shared) == _diagnostics(fresh)
                break
        else:
            pytest.fail(f"{kind}: corruption not detected"
                        if applied else f"{kind}: no site in any pass "
                                        f"output")

    def test_passes_leave_the_pre_module_unchanged(self, vpr_module,
                                                   vpr_profiles):
        # Passes share Instr objects between the pre- and post-module;
        # one exploration serves all six only while none of them edits
        # the pre-module.
        path_profile, edge_profile = vpr_profiles
        before = fingerprint_module(vpr_module)
        for name in PASS_NAMES:
            apply_pass(name, vpr_module, edge_profile, path_profile)
            assert fingerprint_module(vpr_module) == before, name


# ----------------------------------------------------------------------
# Pairs a pass left unchanged are not replayed
# ----------------------------------------------------------------------

_CALL_CHAIN = """
    global g;
    global buf[8];
    func leaf(x) {{ return x * 3 + {k}; }}
    func mid(x) {{ g = g + 1; return leaf(x) + 2; }}
    func main() {{ s = 0;
        for (i = 0; i < 5; i = i + 1) {{ s = s + mid(i); }}
        return s; }}"""


def _with_functions(module, **functions):
    """A module with ``module``'s globals and function objects, except
    those named in ``functions`` (``None`` drops one)."""
    out = Module(module.name)
    out.global_scalars = dict(module.global_scalars)
    out.global_arrays = dict(module.global_arrays)
    for fname, func in module.functions.items():
        func = functions.get(fname, func)
        if func is not None:
            out.functions[fname] = func
    return out


@pytest.fixture(scope="module")
def pass_outputs():
    """``name -> (module, {pass: post-module})``, once per workload."""
    outputs = {}

    def get(name):
        if name not in outputs:
            module = get_workload(name).compile(scale=1)
            path_profile, edge_profile, _rv = ground_truth(module,
                                                           backend="tuple")
            outputs[name] = (module, {
                pass_name: apply_pass(pass_name, module, edge_profile,
                                      path_profile)
                for pass_name in PASS_NAMES})
        return outputs[name]

    return get


class TestUnchangedPairs:
    @pytest.mark.parametrize("name", ["vpr", "applu", "parser"])
    def test_skip_changes_no_verdict(self, pass_outputs, name):
        module, posts = pass_outputs(name)
        skipped = 0
        for pass_name, post in posts.items():
            memo = {}
            skipped += sum(equiv_impl._unchanged(func, module, post, memo)
                           for func in module.functions.values())
            fast = check_pass(pass_name, module, post, memo=memo)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(equiv_impl, "_unchanged",
                              lambda *args: False)
                full = check_pass(pass_name, module, post)
            # Equal reports include the unchanged pairs' diagnostics.
            assert _diagnostics(fast) == _diagnostics(full), pass_name
        assert skipped, f"{name}: no pass left a function unchanged"

    @pytest.mark.parametrize("name,replays", [
        ("vpr", 193), ("applu", 97), ("parser", 154)])
    def test_replays_only_changed_pairs(self, counted_equiv, name,
                                        replays):
        _module, _reports, _explored, replayed = counted_equiv(name)
        assert len(replayed) == replays

    def test_same_or_identically_printed_functions_are_unchanged(self):
        pre = compile_source(_CALL_CHAIN.format(k=1))
        reprinted = compile_source(_CALL_CHAIN.format(k=1))
        assert reprinted.functions["leaf"] is not pre.functions["leaf"]
        for post in (_with_functions(pre), reprinted):
            memo = {}
            assert all(equiv_impl._unchanged(func, pre, post, memo)
                       for func in pre.functions.values())

    def test_changed_callee_body_is_a_change(self):
        pre = compile_source(_CALL_CHAIN.format(k=1))
        leaf = compile_source(_CALL_CHAIN.format(k=2)).functions["leaf"]
        post = _with_functions(pre, leaf=leaf)
        for fname in ("leaf", "mid", "main"):
            assert not equiv_impl._unchanged(pre.functions[fname], pre,
                                             post, {}), fname
        # ``mid`` is the very same object, yet its callee's new return
        # value reaches it.
        report = check_pass("cleanup", pre, post)
        assert ("E201", "mid") in {(d.code, d.function)
                                   for d in report.errors()}

    @pytest.mark.parametrize("edit", ["scalar", "array"])
    def test_changed_global_is_a_change(self, edit):
        pre = compile_source(_CALL_CHAIN.format(k=1))
        post = _with_functions(pre)
        if edit == "scalar":
            post.global_scalars["g"] = 1
        else:
            post.global_arrays["buf"] = 16
        for func in pre.functions.values():
            assert not equiv_impl._unchanged(func, pre, post, {}), \
                func.name

    def test_missing_callee_is_a_change(self):
        pre = compile_source(_CALL_CHAIN.format(k=1))
        post = _with_functions(pre, leaf=None)
        for fname in ("mid", "main"):
            assert not equiv_impl._unchanged(pre.functions[fname], pre,
                                             post, {}), fname

    def test_dropped_callee_is_reported_on_its_callers(self):
        pre = compile_source(_CALL_CHAIN.format(k=1))
        post = _with_functions(pre, leaf=None)
        report = check_pass("cleanup", pre, post)
        found = {(d.code, d.function): d.message for d in report.errors()}
        assert set(found) == {("E207", "leaf"), ("E207", "mid"),
                              ("E207", "main")}
        for caller in ("mid", "main"):
            assert "'leaf'" in found[("E207", caller)], caller


# ----------------------------------------------------------------------
# Degenerate CFGs: skip with INFO, never crash or false-positive
# ----------------------------------------------------------------------

class TestDegenerateShapes:
    def test_irreducible_codegen_skips_with_info(self):
        module = irreducible_module()
        report = check_function_codegen(module.functions["main"], module)
        assert report.ok
        infos = [d for d in report if d.code == "E001"]
        assert infos and infos[0].severity == Severity.INFO

    def test_irreducible_pass_skips_with_info(self):
        module = irreducible_module()
        post = apply_pass("cleanup", module, None, None)
        report = check_pass("cleanup", module, post)
        assert report.ok, report.format()
        assert any(d.code == "E001" for d in report)

    def test_irreducible_runtime_validation_does_not_raise(self,
                                                           monkeypatch):
        module = irreducible_module()
        monkeypatch.setenv("REPRO_EQUIV", "1")
        machine = Machine(module, collect_edge_profile=True,
                          backend="compiled")
        machine.run()

    def test_single_block_codegen_validates(self):
        module = compile_source("func main() { return 42; }")
        report = check_module_codegen(module)
        assert report.ok and not list(report)

    def test_single_block_pass_validates(self):
        module = compile_source("func main() { return 42; }")
        for name in ("cleanup", "licm"):
            post = apply_pass(name, module, None, None)
            report = check_pass(name, module, post)
            assert report.ok, (name, report.format())
            assert not report.errors()


# ----------------------------------------------------------------------
# Runtime fail-fast wiring
# ----------------------------------------------------------------------

class TestRuntimeHook:
    def test_clean_module_runs_validated(self, monkeypatch):
        module = compile_source("""
            func f(n) { s = 0;
                while (n > 0) { s = s + n; n = n - 1; } return s; }
            func main() { return f(10); }""")
        monkeypatch.setenv("REPRO_EQUIV", "1")
        machine = Machine(module, collect_edge_profile=True,
                          trace_paths=True, backend="compiled")
        assert machine.run().return_value == 55

    def test_env_resolution(self, monkeypatch):
        module = compile_source("func main() { return 1; }")
        monkeypatch.setenv("REPRO_EQUIV", "1")
        assert Machine(module).validate_codegen
        monkeypatch.setenv("REPRO_EQUIV", "0")
        assert not Machine(module).validate_codegen
        monkeypatch.delenv("REPRO_EQUIV")
        assert not Machine(module).validate_codegen

    def test_corrupt_generation_raises(self, monkeypatch):
        # Corrupt the generated source at the machine boundary and watch
        # the fail-fast hook reject it before execution.
        import repro.interp.compiled as compiled

        module = compile_source("""
            func main() { s = 0; s = s + 1; s = s + 2;
                return s; }""")
        real = compiled._compiled_code

        def corrupting(func, mod, spec):
            result, _codes = real(func, mod, spec)
            source = mutate_source(result.source, "cg-swap-arith")
            assert source is not None
            bad = with_source(result, source)
            return bad, [None] * len(bad.segments)

        monkeypatch.setattr(compiled, "_compiled_code", corrupting)
        monkeypatch.setenv("REPRO_EQUIV", "1")
        machine = Machine(module, backend="compiled")
        with pytest.raises(CodegenValidationError) as excinfo:
            machine.run()
        assert not excinfo.value.report.ok

    def test_check_generated_caches_verdict(self):
        module = compile_source("func main() { return 3; }")
        func = module.functions["main"]
        spec = standard_modes(func)[0]
        result = generate_source(func, module, spec)
        check_generated(func, module, spec, result)
        # Second call is served from the verdict cache: even a now-
        # corrupted result is not re-examined (per-process fail-fast
        # only pays once per function x mode).
        bad = with_source(result, "this is not python ((")
        check_generated(func, module, spec, bad)


# ----------------------------------------------------------------------
# Suite driver and caching
# ----------------------------------------------------------------------

class TestSuiteDriver:
    def test_equiv_suite_caches(self, tmp_path):
        session = ProfilingSession(
            cache=ArtifactCache(disk_dir=tmp_path))
        workloads = [get_workload("mcf")]
        first = equiv_suite(session, workloads, passes=("cleanup",))
        assert all(report.ok for _w, _l, report in first)
        assert session.cache.stats.of("equiv").stores == 1
        second = equiv_suite(session, workloads, passes=("cleanup",))
        assert session.cache.stats.of("equiv").hits == 1
        assert [(w, label) for w, label, _ in second] == \
               [(w, label) for w, label, _ in first]

    def test_equiv_suite_reads_the_session_recording(self, monkeypatch):
        # The passes take their profiles from the recording the session
        # already holds: no ground-truth run, no execution at all.
        workloads = [get_workload("applu"), get_workload("vpr")]
        session = ProfilingSession(cache=ArtifactCache())
        for workload in workloads:
            session.record(session.compile(workload))
        runs = []
        real_run = Machine.run

        def run(machine, *args, **kwargs):
            runs.append(machine.backend)
            return real_run(machine, *args, **kwargs)

        def no_ground_truth(*args, **kwargs):
            raise AssertionError("equiv_suite ran ground_truth")

        with monkeypatch.context() as patch:
            patch.setattr(Machine, "run", run)
            patch.setattr(stages, "ground_truth", no_ground_truth)
            shared = equiv_suite(session, workloads)
        assert runs == []
        tuple_session = ProfilingSession(cache=ArtifactCache(),
                                         backend="tuple")
        fresh = equiv_suite(tuple_session, workloads)
        assert [(w, label, _diagnostics(r)) for w, label, r in shared] \
            == [(w, label, _diagnostics(r)) for w, label, r in fresh]

    def test_verify_reports_cached_on_disk(self, tmp_path):
        from repro.analysis import verify_suite
        session = ProfilingSession(
            cache=ArtifactCache(disk_dir=tmp_path))
        workloads = [get_workload("mcf")]
        first = verify_suite(session, workloads, techniques=("ppp",))
        assert all(r.ok for r in first)
        # A fresh session over the same disk directory must serve the
        # verdict without re-verifying (the <2s warm-run satellite).
        warm = ProfilingSession(cache=ArtifactCache(disk_dir=tmp_path))
        again = verify_suite(warm, workloads, techniques=("ppp",))
        assert [r.title for r in again] == [r.title for r in first]
        assert warm.cache.stats.of("verifyreport").disk_hits == 1
        assert warm.cache.stats.of("plan").misses == 0


# ----------------------------------------------------------------------
# Lattice completeness: every mode the harness compiles is proven
# ----------------------------------------------------------------------

class TestLatticeCompleteness:
    @pytest.fixture
    def requested(self, monkeypatch):
        """function -> every ModeSpec the compiled backend asks for."""
        from repro.interp import compiled

        seen: dict = {}
        real = compiled._compiled_code

        def recording(func, module, spec):
            seen.setdefault(func, set()).add(spec)
            return real(func, module, spec)

        monkeypatch.setattr(compiled, "_compiled_code", recording)
        return seen

    @staticmethod
    def _unproven(requested):
        assert requested
        return [(func.name, spec)
                for func, specs in requested.items()
                for spec in specs - set(standard_modes(func))]

    def test_harness_modes_in_standard_lattice(self, requested, capsys):
        from repro.harness.__main__ import main

        base = ["all", "--quiet", "--no-cache", "--jobs", "1",
                "--benchmarks", "applu,parser"]
        for extra in ((), ("--profilers", "values,tripcounts")):
            assert main([*base, *extra]) == 0
        capsys.readouterr()
        assert not self._unproven(requested)

    @pytest.mark.parametrize("extra", [
        ("--profilers", "edges"),
        ("--profilers", "path-trace"),
        ("--profilers", "edges,path-trace,values"),
    ], ids=["edges", "path-trace", "edges+path-trace+values"])
    def test_channel_selections_in_standard_lattice(self, requested,
                                                    capsys, extra):
        # The profiler selection reaches the profile and plan runs of
        # the suite, which every table shares.
        from repro.harness.__main__ import main

        assert main(["table2", "--quiet", "--no-cache", "--jobs", "1",
                     "--benchmarks", "applu,parser", *extra]) == 0
        capsys.readouterr()
        assert not self._unproven(requested)

    def test_every_profiler_selection_in_standard_lattice(self, requested):
        # Each subset of the registered (name-selectable) profilers, run
        # as built and again with a hook attached, so a profiler with a
        # new channel combination fails here.
        import itertools

        from repro.profilers import (build_machine, create_profilers,
                                     registered_profilers)

        module = compile_source(_LOOP_PROGRAM)
        names = sorted(name for name, cls in registered_profilers().items()
                       if not cls.requires_plan)
        for n in range(len(names) + 1):
            for subset in itertools.combinations(names, n):
                for hooked in (False, True):
                    machine, _attached = build_machine(
                        module, create_profilers(subset),
                        backend="compiled")
                    if hooked:
                        uid = next(iter(machine.compiled["main"].uid_edge))
                        machine.set_edge_hook("main", uid,
                                              lambda frame: None)
                    machine.run()
        assert not self._unproven(requested)
