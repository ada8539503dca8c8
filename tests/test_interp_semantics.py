"""Deeper interpreter semantics: numeric model, globals, frames, reuse."""

import pytest

from repro.interp import Machine, run_module
from repro.lang import compile_source


def run(src):
    return run_module(compile_source(src)).return_value


class TestNumericModel:
    def test_floats_flow_through(self):
        assert run("func main() { x = 1.5; return x + x; }") == 3.0

    def test_mixed_division_is_float(self):
        assert run("func main() { return 3.0 / 2; }") == 1.5

    def test_int_division_truncates(self):
        assert run("func main() { return 3 / 2; }") == 1
        assert run("func main() { return -3 / 2; }") == -1

    def test_modulo_sign_follows_dividend(self):
        assert run("func main() { return 7 % 3; }") == 1
        assert run("func main() { return -7 % 3; }") == -1
        assert run("func main() { return 7 % -3; }") == 1

    def test_bitwise_on_ints(self):
        assert run("func main() { return (12 & 10) + (12 | 10) "
                   "+ (12 ^ 10); }") == 8 + 14 + 6

    def test_shift_amounts_masked(self):
        # Shifts mask the amount to 6 bits, so huge shifts stay finite.
        assert run("func main() { return 1 << 64; }") == 1
        assert run("func main() { return 1 << 65; }") == 2

    def test_unary_not_and_neg(self):
        assert run("func main() { return !5 + !0 + -(-3); }") == 4

    def test_big_integers_do_not_truncate(self):
        # The paper moved to 64-bit counters; Python ints are unbounded.
        assert run("""
            func main() {
                x = 1;
                for (i = 0; i < 100; i = i + 1) { x = x * 2; }
                return x;
            }""") == 2 ** 100

    def test_comparison_chains_are_ints(self):
        assert run("func main() { return (1 < 2) + (2 <= 2) + (3 > 4); }") \
            == 2


class TestStateModel:
    def test_global_scalar_initial_value(self):
        assert run("global g = 42; func main() { return g; }") == 42

    def test_global_arrays_zero_filled(self):
        assert run("global a[5]; func main() { return a[3]; }") == 0

    def test_local_array_shadows_global(self):
        assert run("""
            global buf[4];
            func f() {
                var buf[4];
                buf[0] = 99;
                return buf[0];
            }
            func main() {
                buf[0] = 1;
                x = f();
                return buf[0] * 100 + x;
            }""") == 199

    def test_negative_index_wraps(self):
        assert run("""
            global a[4];
            func main() { a[3] = 7; n = -1; return a[n]; }""") == 7

    def test_each_run_gets_fresh_state(self):
        m = compile_source("""
            global g;
            func main() { g = g + 1; return g; }""")
        assert run_module(m).return_value == 1
        assert run_module(m).return_value == 1  # fresh Machine

    def test_same_machine_accumulates_state(self):
        m = compile_source("""
            global g;
            func main() { g = g + 1; return g; }""")
        machine = Machine(m)
        assert machine.run().return_value == 1
        assert machine.run().return_value == 2  # same Machine, same globals

    def test_costs_accumulate_across_runs(self):
        m = compile_source("func main() { return 1 + 2; }")
        machine = Machine(m)
        machine.run()
        first = machine.costs.base
        machine.run()
        assert machine.costs.base == pytest.approx(2 * first)


class TestFrames:
    def test_registers_are_frame_local(self):
        assert run("""
            func f(x) { t = x * 10; return t; }
            func main() {
                t = 5;
                y = f(1);
                return t * 100 + y;
            }""") == 510

    def test_call_in_condition(self):
        assert run("""
            func positive(x) { if (x > 0) { return 1; } return 0; }
            func main() {
                s = 0;
                for (i = -2; i < 3; i = i + 1) {
                    if (positive(i)) { s = s + 1; }
                }
                return s;
            }""") == 2

    def test_returned_value_lands_in_right_slot(self):
        assert run("""
            func pair(a, b) { return a * 100 + b; }
            func main() {
                x = pair(pair(1, 2), pair(3, 4));
                return x;
            }""") == 102 * 100 + 304
