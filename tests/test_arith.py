"""Arithmetic over the numeric tower: int, rational, float, bounded real.

The bounded-real expectations below were computed independently with exact
Fraction endpoint arithmetic and directional rounding, then frozen as hex
float literals.
"""

import decimal
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from clpkernel.arith import (breal_add, breal_div, breal_from_exact, breal_mul,
                             breal_pow, breal_sub, compare_numeric, eval_arith,
                             float_down, float_up, num_add, num_div,
                             num_intdiv, num_mod, num_mul, num_pow, num_sub,
                             to_breal)
from clpkernel.errors import (ArithmeticError_, InstantiationError,
                              RangeError, TypeError_, UncertaintyError)
from clpkernel.reader import parse_term
from clpkernel.terms import Breal, Struct, Var


def hx(s):
    return float.fromhex(s)


def ev(text):
    term, _vars = parse_term(text)
    return eval_arith(term)


# ----------------------------------------------------------------------
# scalar evaluation

def test_eval_table():
    cases = [
        ("3 + 4", 7),
        ("3 - 10", -7),
        ("3 * 4", 12),
        ("6 / 3", 2),
        ("7 / 2", Fraction(7, 2)),
        ("3 + 1_2", Fraction(7, 2)),
        ("1_2 + 1_2", Fraction(1)),
        ("2 ** 10", 1024),
        ("2 ** -1", Fraction(1, 2)),
        ("2 ^ 3", 8),
        ("-10 mod 3", 2),
        ("10 mod -3", -2),
        ("-7 // 2", -3),
        ("7 // 2", 3),
        ("min(3, 1_2)", Fraction(1, 2)),
        ("max(2, 1.5)", 2),
        ("abs(-4)", 4),
        ("-(3 + 4)", -7),
        ("+(5)", 5),
        ("1.5 + 1.5", 3.0),
        ("1_4 * 2", Fraction(1, 2)),
    ]
    for text, expected in cases:
        got = ev(text)
        assert got == expected and type(got) is type(expected), text


def test_rational_results_stay_rational():
    got = ev("1_2 + 1_2")
    assert type(got) is Fraction and got == 1


def test_int_division_exactness():
    assert ev("6 / 4") == Fraction(3, 2)
    assert type(ev("6 / 2")) is int
    with pytest.raises(ArithmeticError_):
        ev("1 / 0")
    with pytest.raises(ArithmeticError_):
        ev("1 // 0")
    with pytest.raises(ArithmeticError_):
        ev("1 mod 0")


def test_intdiv_truncates_toward_zero():
    assert num_intdiv(-7, 2) == -3
    assert num_intdiv(7, -2) == -3
    assert num_intdiv(-7, -2) == 3
    with pytest.raises(TypeError_):
        num_intdiv(1.0, 2)


def test_mod_floors():
    assert num_mod(-10, 3) == 2
    assert num_mod(10, -3) == -2


def test_pow_rules():
    assert num_pow(2, -2) == Fraction(1, 4)
    assert num_pow(Fraction(2, 3), 2) == Fraction(4, 9)
    with pytest.raises(TypeError_):
        num_pow(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ArithmeticError_):
        num_pow(0, -1)
    with pytest.raises(ArithmeticError_):
        num_pow(-2.0, 0.5)


def test_eval_errors():
    with pytest.raises(InstantiationError):
        ev("X + 1")
    with pytest.raises(TypeError_):
        ev("foo + 1")
    with pytest.raises(TypeError_):
        ev("sin(1)")


@pytest.mark.parametrize("text, error, message", [
    # arguments are evaluated left to right before the function is looked up
    ("foo + Y", TypeError_, "arithmetic: not a number: foo"),
    ("Y + foo", InstantiationError, "arithmetic: unbound variable"),
    ("sin(Y)", InstantiationError, "arithmetic: unbound variable"),
    ("1 + sin(2 * 3)", TypeError_, "arithmetic: unknown function sin/1"),
    ("atan2(1, 2) + Y", TypeError_, "arithmetic: unknown function atan2/2"),
    # any other arity is refused before its arguments are looked at
    ("f(Y, 1, 2)", TypeError_, "arithmetic: unknown function f/3"),
    ("1 - \"s\"", TypeError_, "arithmetic: not an expression: 's'"),
])
def test_eval_error_order(text, error, message):
    with pytest.raises(error) as got:
        ev(text)
    assert str(got.value) == message


def test_a_long_expression_is_bounded_by_memory(first):
    """An expression of 100,000 terms evaluates at the default recursion
    limit, nested to the left as read and to the right as built."""
    got = first("X is " + " + ".join(["1"] * 100000))
    assert got["X"] == 100000
    t = Struct("+", [1, 2])
    for i in range(99998):
        t = Struct("-" if i % 2 else "*", [1, t])
    assert eval_arith(t) == -2  # 3, 1 * 3, 1 - 3, 1 * -2, 1 - -2, ...
    with pytest.raises(InstantiationError):
        eval_arith(Struct("+", [t, Var()]))


def test_subscript_in_expressions(first):
    got = first("M = [](10, 20, 30), X is M[2] + 1")
    assert got["X"] == 21


# ----------------------------------------------------------------------
# bounded reals: frozen endpoint oracles

def test_breal_add_frozen():
    r = breal_add(Breal(0.1, 0.2), Breal(0.3, 0.4))
    assert r.lo == hx("0x1.9999999999999p-2")  # 0.39999999999999997
    assert r.hi == hx("0x1.3333333333334p-1")  # 0.6000000000000001


def test_breal_mul_frozen():
    r = breal_mul(Breal(1.5, 2.5), Breal(-2.0, 3.0))
    assert (r.lo, r.hi) == (-5.0, 7.5)


def test_breal_point_times_three():
    # 0.1 is not exactly representable; the product straddles decimal 0.3
    r = breal_mul(Breal(0.1, 0.1), to_breal(3))
    assert r.lo == hx("0x1.3333333333333p-2")  # 0.3
    assert r.hi == hx("0x1.3333333333334p-2")  # 0.30000000000000004


def test_breal_div_frozen():
    r = breal_div(to_breal(1), to_breal(3))
    assert r.lo == hx("0x1.5555555555555p-2")
    assert r.hi == hx("0x1.5555555555556p-2")
    assert r.lo < r.hi  # a genuine interval: 1/3 has no exact float


def test_breal_sub_exact_endpoints():
    r = breal_sub(Breal(1.0, 2.0), Breal(0.5, 0.75))
    assert (r.lo, r.hi) == (0.25, 1.5)


def test_breal_div_by_zero_spanning_interval_saturates():
    r = breal_div(to_breal(1), Breal(-1.0, 1.0))
    assert (r.lo, r.hi) == (-math.inf, math.inf)
    with pytest.raises(ArithmeticError_):
        breal_div(to_breal(1), Breal(0.0, 0.0))


def test_breal_pow_even_spanning_zero():
    r = breal_pow(Breal(-2.0, 3.0), 2)
    assert (r.lo, r.hi) == (0.0, 9.0)
    r = breal_pow(Breal(-2.0, 3.0), 3)
    assert (r.lo, r.hi) == (-8.0, 27.0)


def test_breal_powers_past_the_size_bound_end_at_once():
    """An exact endpoint power past MAX_INT_BITS is never computed: its
    float power, widened one ulp each side, bounds it, saturating past
    the largest float."""
    t0 = time.process_time()
    r = breal_pow(Breal(1.5, 1.5), 10 ** 10)
    assert (r.lo, r.hi) == (sys.float_info.max, math.inf)
    r = breal_pow(Breal(0.5, 0.75), 10 ** 10)
    assert (r.lo, r.hi) == (0.0, math.nextafter(0.0, 1.0))
    r = breal_pow(Breal(-1.5, -0.5), 10 ** 400 + 1)
    assert (r.lo, r.hi) == (-math.inf, -0.0)
    r = breal_pow(Breal(1.0000001, 1.0000001), 10 ** 7)
    near = decimal.Context(prec=50).power(Decimal(1.0000001), 10 ** 7)
    assert Decimal(r.lo) < near < Decimal(r.hi)
    assert r.hi < r.lo * (1 + 2 ** -50)
    assert time.process_time() - t0 < 1
    r = breal_pow(Breal(1.5, 1.5), 3)
    assert (r.lo, r.hi) == (3.375, 3.375)


def test_directional_rounding_brackets_the_exact_value():
    q = Fraction(1, 3)
    assert Fraction(float_down(q)) <= q <= Fraction(float_up(q))
    assert float_down(q) == math.nextafter(float_up(q), -math.inf)


def test_a_float_is_its_own_rounding():
    for f in (0.1, -2.5, math.inf, -math.inf):
        assert float_down(f) == f and float_up(f) == f


def test_float_conversion_saturates_on_overflow():
    huge = Fraction(10) ** 5000
    assert float_up(huge) == math.inf
    assert float_down(huge) == pytest.approx(1.7976931348623157e308)
    assert float_down(-huge) == -math.inf


def contains(b, q):
    lo_ok = math.isinf(b.lo) or Fraction(b.lo) <= q
    hi_ok = math.isinf(b.hi) or q <= Fraction(b.hi)
    return lo_ok and hi_ok


def test_breal_containment_random_expressions():
    """The exact value of an expression always lies inside the interval
    computed for it, whatever the operation sequence."""
    rng = random.Random(20240812)
    for _ in range(300):
        exact = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = breal_from_exact(exact)
        assert contains(b, exact)
        for _ in range(rng.randint(1, 6)):
            op = rng.choice("++--**//^")
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rb = breal_from_exact(r)
            if op == "+":
                exact, b = exact + r, breal_add(b, rb)
            elif op == "-":
                exact, b = exact - r, breal_sub(b, rb)
            elif op == "*":
                exact, b = exact * r, breal_mul(b, rb)
            elif op == "/":
                if r == 0 or rb.lo <= 0 <= rb.hi:
                    continue
                exact, b = exact / r, breal_div(b, rb)
            else:
                n = rng.randint(0, 2)
                exact, b = exact ** n, breal_pow(b, n)
            assert contains(b, exact)


# ----------------------------------------------------------------------
# comparison

def test_compare_numeric_is_exact_across_types():
    assert compare_numeric(3, 3.0) == 0
    assert compare_numeric(Fraction(1, 2), 0.5) == 0
    assert compare_numeric(0.1 + 0.2, 0.3) == 1  # the float sum overshoots
    assert compare_numeric(1, Fraction(3, 2)) == -1
    assert compare_numeric(math.inf, 10 ** 400) == 1


def test_compare_breal_disjoint_and_point():
    assert compare_numeric(Breal(1.0, 2.0), Breal(3.0, 4.0)) == -1
    assert compare_numeric(Breal(3.0, 3.0), 3) == 0
    assert compare_numeric(5, Breal(1.0, 2.0)) == 1


def test_compare_overlapping_breals_is_uncertain():
    with pytest.raises(UncertaintyError):
        compare_numeric(Breal(0.5, 1.5), 1.0)
    with pytest.raises(UncertaintyError):
        compare_numeric(Breal(0.0, 1.0), Breal(1.0, 2.0))  # touching


# ----------------------------------------------------------------------
# the same through the goal interface

@pytest.mark.parametrize("goal", [
    "X is 2.0 ** 10000",
    "X is 10 ** 400 + 0.5",
    "X is 10 ** 400 / 1.0",
    "X is 10 ** 400, Y is X * 1.5",
    "X is 1.0e308 * 10",
    "X is 1.0e308 + 1.0e308",
    "X is -1.0e308 - 1.0e308",
    "X is 1.0e308 / 0.5",
])
def test_float_overflow_is_an_arithmetic_error(engine, goal):
    with pytest.raises(ArithmeticError_, match="float overflow"):
        engine.ask(goal)


def test_infinite_operands_are_not_an_overflow():
    assert num_add(math.inf, 1.0) == math.inf
    assert num_mul(-math.inf, 2.0) == -math.inf
    assert num_div(math.inf, 0.5) == math.inf
    with pytest.raises(ArithmeticError_, match="undefined"):
        num_sub(math.inf, math.inf)


@pytest.mark.parametrize("goal", [
    "X is 1.0Inf - 1.0Inf", "X is 1.0Inf * 0", "X is 0.0 * 1.0Inf",
    "X is 1.0Inf / 1.0Inf", "X is -1.0Inf + 1.0Inf",
    "X is 1.0Inf__1.0Inf - 1.0Inf__1.0Inf"])
def test_an_undefined_float_result_is_an_evaluation_error(engine, goal):
    with pytest.raises(ArithmeticError_, match="arithmetic: undefined"):
        engine.once(goal)


@pytest.mark.parametrize("goal", [
    "X is 10 ^ (10 ^ 10)", "X is 2 ** (2 ** 22)", "X is 3 ^ -(2 ** 22)",
    "X is 1_3 ^ (2 ** 22)"])
def test_an_exact_power_past_the_size_bound_is_refused(engine, goal):
    with pytest.raises(RangeError, match="power of more than 4194304 bits"):
        engine.once(goal)


def test_an_answer_with_a_long_integer_prints(engine):
    text = repr(engine.once("X is 10^5000, Y = f(X)"))
    assert text == "Answer({'X': 1%s, 'Y': f(1%s)}, delayed=[])" % (
        "0" * 5000, "0" * 5000)


def test_exact_powers_under_the_size_bound_answer(first):
    assert first("X is 2 ** (2 ** 22 - 1), Y is X mod 1000")["Y"] == pow(
        2, 2 ** 22 - 1, 1000)
    for goal, value in [("X is 1 ^ (10 ^ 10)", 1), ("X is 0 ^ (10 ^ 10)", 0),
                        ("X is (-1) ^ (10 ^ 10 + 1)", -1)]:
        assert first(goal)["X"] == value


def test_is_and_comparisons(ask, first):
    assert first("X is 3 + 1_2")["X"] == Fraction(7, 2)
    assert first("X is 2 ** -1")["X"] == Fraction(1, 2)
    assert first("X is -10 mod 3")["X"] == 2
    assert ask("3 =:= 3.0") != []
    assert ask("3 = 3.0") == []
    assert ask("1_2 =:= 0.5") != []
    assert ask("1 < 1_2 + 1") != []
    got = first("X is 0.1__0.2 + 0.3__0.4")["X"]
    assert (got.lo, got.hi) == (hx("0x1.9999999999999p-2"),
                                hx("0x1.3333333333334p-1"))


def test_uncertain_comparison_raises_at_goal_level(engine):
    with pytest.raises(UncertaintyError):
        engine.ask("0.5__1.5 > 1.0")


def test_sort_orders_equal_values_by_type(first, fmt):
    got = first("sort([3.0, 1_2, 3, 0.5], S)")
    assert fmt(got["S"]) == "[1_2, 0.5, 3, 3.0]"
