"""Tests for AST -> IR lowering (behavioural, through the interpreter)."""

import pytest

from repro.interp import run_module
from repro.lang import LowerError, compile_source
from repro.ir import validate_module


def run(src: str):
    return run_module(compile_source(src)).return_value


class TestBasics:
    def test_arithmetic(self):
        assert run("func main() { return 2 + 3 * 4; }") == 14

    def test_c_division_truncates_toward_zero(self):
        assert run("func main() { return -7 / 2; }") == -3
        assert run("func main() { return 7 / 2; }") == 3
        assert run("func main() { return -7 % 2; }") == -1

    def test_division_by_zero_is_zero(self):
        assert run("func main() { z = 0; return 5 / z; }") == 0
        assert run("func main() { z = 0; return 5 % z; }") == 0

    def test_comparisons_produce_01(self):
        assert run("func main() { return (3 < 4) + (4 < 3); }") == 1

    def test_unary(self):
        assert run("func main() { return -(3) + !0 + !7; }") == -2

    def test_implicit_return_zero(self):
        assert run("func main() { x = 5; }") == 0

    def test_fall_through_if(self):
        assert run("func main() { if (1) { return 7; } return 2; }") == 7
        assert run("func main() { if (0) { return 7; } return 2; }") == 2


class TestControlFlow:
    def test_while_loop(self):
        assert run("""
            func main() { s = 0; i = 0;
                while (i < 5) { s = s + i; i = i + 1; }
                return s; }""") == 10

    def test_for_loop(self):
        assert run("""
            func main() { s = 0;
                for (i = 1; i <= 4; i = i + 1) { s = s * 10 + i; }
                return s; }""") == 1234

    def test_break(self):
        assert run("""
            func main() { s = 0;
                for (i = 0; i < 100; i = i + 1) {
                    if (i == 3) { break; }
                    s = s + 1;
                }
                return s; }""") == 3

    def test_continue_runs_step(self):
        assert run("""
            func main() { s = 0;
                for (i = 0; i < 6; i = i + 1) {
                    if (i % 2 == 0) { continue; }
                    s = s + i;
                }
                return s; }""") == 9

    def test_continue_in_while_goes_to_condition(self):
        assert run("""
            func main() { s = 0; i = 0;
                while (i < 6) {
                    i = i + 1;
                    if (i % 2 == 0) { continue; }
                    s = s + i;
                }
                return s; }""") == 9

    def test_nested_loops_with_break(self):
        assert run("""
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) {
                    for (j = 0; j < 10; j = j + 1) {
                        if (j > i) { break; }
                        s = s + 1;
                    }
                }
                return s; }""") == 6

    def test_both_if_arms_return(self):
        assert run("""
            func main() {
                x = 4;
                if (x > 2) { return 1; } else { return 0; }
            }""") == 1

    def test_break_outside_loop_rejected(self):
        with pytest.raises(LowerError):
            compile_source("func main() { break; }")
        with pytest.raises(LowerError):
            compile_source("func main() { continue; }")


class TestShortCircuit:
    def test_and_skips_rhs(self):
        # Division by zero on the right would return 0, so use a counter.
        assert run("""
            global hits;
            func bump() { hits = hits + 1; return 1; }
            func main() {
                x = 0 && bump();
                y = 1 && bump();
                return hits * 10 + x * 2 + y; }""") == 11

    def test_or_skips_rhs(self):
        assert run("""
            global hits;
            func bump() { hits = hits + 1; return 0; }
            func main() {
                x = 1 || bump();
                y = 0 || bump();
                return hits * 10 + x * 2 + y; }""") == 12

    def test_results_normalised_to_01(self):
        assert run("func main() { return (7 && 5) + (0 || 9); }") == 2


class TestFunctionsAndGlobals:
    def test_recursion(self):
        assert run("""
            func fact(n) { if (n < 2) { return 1; }
                return n * fact(n - 1); }
            func main() { return fact(6); }""") == 720

    def test_mutual_recursion(self):
        assert run("""
            func is_even(n) { if (n == 0) { return 1; }
                return is_odd(n - 1); }
            func is_odd(n) { if (n == 0) { return 0; }
                return is_even(n - 1); }
            func main() { return is_even(10) * 10 + is_odd(7); }""") == 11

    def test_globals_shared_across_functions(self):
        assert run("""
            global g = 5;
            func bump() { g = g + 1; return 0; }
            func main() { bump(); bump(); return g; }""") == 7

    def test_global_arrays(self):
        assert run("""
            global buf[8];
            func main() {
                for (i = 0; i < 8; i = i + 1) { buf[i] = i * i; }
                return buf[3] + buf[7]; }""") == 58

    def test_local_arrays_fresh_per_activation(self):
        assert run("""
            func f(x) {
                var a[4];
                a[0] = a[0] + x;
                return a[0];
            }
            func main() { f(5); return f(3); }""") == 3

    def test_param_shadows_global(self):
        assert run("""
            global x = 100;
            func f(x) { return x; }
            func main() { return f(1) + x; }""") == 101

    def test_unknown_array_rejected(self):
        with pytest.raises(LowerError):
            compile_source("func main() { return nope[0]; }")

    def test_duplicate_function_rejected(self):
        with pytest.raises(LowerError):
            compile_source("func f() { return 0; } func f() { return 1; } "
                           "func main() { return 0; }")

    def test_lowered_module_validates(self):
        m = compile_source("""
            global g;
            func f(a) { if (a) { return a; } return g; }
            func main() { g = 3; return f(0); }
        """)
        assert validate_module(m) == []
