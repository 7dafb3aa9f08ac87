"""Term representation: interning, dereferencing, standard order."""

from fractions import Fraction

import pytest

from clpkernel import make_engine
from clpkernel.builtins import bi_call
from clpkernel.terms import (NIL, Atom, Breal, Struct, Var, compare_numbers,
                             compare_terms, copy_term, deref, is_variant,
                             list_parts, mk_list, proper_list, term_vars,
                             terms_equal)


def test_atoms_are_interned():
    assert Atom("foo") is Atom("foo")
    assert Atom("foo") is not Atom("bar")
    assert Atom("[]").name == "[]"


def test_struct_basics():
    t = Struct("point", [1, 2])
    assert t.name == "point"
    assert t.arity == 2
    assert t.args[0] == 1


def test_var_serials_increase():
    a, b = Var(), Var()
    assert a.serial < b.serial


def test_deref_follows_chains():
    a, b, c = Var(), Var(), Var()
    a.ref = b
    b.ref = c
    c.ref = 42
    assert deref(a) == 42
    assert deref(Atom("x")) is Atom("x")


def test_breal_validates_order():
    b = Breal(1.0, 2.0)
    assert (b.lo, b.hi) == (1.0, 2.0)
    with pytest.raises(ValueError):
        Breal(2.0, 1.0)


def test_mk_list_and_parts():
    l = mk_list([1, 2, 3])
    items, tail = list_parts(l)
    assert items == [1, 2, 3]
    assert tail is Atom("[]")
    assert proper_list(l) == [1, 2, 3]

    open_l = mk_list([1], tail=Var())
    assert proper_list(open_l) is None


def test_term_vars_first_occurrence_order():
    x, y = Var(), Var()
    t = Struct("f", [y, Struct("g", [x, y])])
    assert term_vars(t) == [y, x]


# The standard order of terms, frozen as a single sorted sequence:
# variables < numbers < atoms < strings < compound terms.  Numbers
# compare by value first, then by type rank (int, rational, float,
# bounded real) so 3 < 3.0 even though 3 =:= 3.0.
def test_standard_order_frozen_table():
    v = Var()
    br = Breal(3.0, 3.0)
    f2 = Struct("f", [1, 2])
    a1 = Struct("a", [1])
    items = [f2, "zebra", Atom("apple"), 3.0, 3, Fraction(3, 1), v, a1,
             Atom("banana"), 2, br]
    import functools
    got = sorted(items, key=functools.cmp_to_key(compare_terms))
    assert got == [
        v,
        2,
        3, Fraction(3, 1), 3.0, br,
        Atom("apple"), Atom("banana"),
        "zebra",
        a1,
        f2,
    ]


def test_compound_order_arity_then_name_then_args():
    assert compare_terms(Struct("z", [1]), Struct("a", [1, 2])) < 0
    assert compare_terms(Struct("a", [1]), Struct("b", [9])) < 0
    assert compare_terms(Struct("a", [1]), Struct("a", [2])) < 0
    assert compare_terms(Struct("a", [2]), Struct("a", [2])) == 0


def test_compare_numbers_interval_view():
    assert compare_numbers(1, 2) < 0
    assert compare_numbers(Fraction(1, 2), 0.5) < 0   # same value, rank differs
    assert compare_numbers(3.0, 3) > 0
    assert compare_numbers(Breal(1.0, 1.0), 1) > 0


def test_terms_equal_is_structural():
    assert terms_equal(Struct("f", [Atom("a"), 1]), Struct("f", [Atom("a"), 1]))
    assert not terms_equal(Struct("f", [1]), Struct("f", [2]))
    x = Var()
    assert terms_equal(x, x)
    assert not terms_equal(Var(), Var())


def test_copy_term_preserves_sharing():
    x, y = Var(), Var()
    t = Struct("f", [x, x, y])
    c = copy_term(t)
    assert c.args[0] is c.args[1]
    assert c.args[0] is not c.args[2]
    assert c.args[0] is not x


def test_copy_term_attr_hook_sees_attributed_vars():
    x = Var()
    x.attrs = {"tag": 7}
    seen = []
    copy_term(Struct("f", [x]), attr_hook=lambda old, new: seen.append((old, new)))
    assert len(seen) == 1
    assert seen[0][0] is x
    assert seen[0][1] is not x


def _left_nested(n, bottom, right):
    t = bottom
    for _ in range(n):
        t = Struct("+", [t, right])
    return t


def test_copy_term_makes_fresh_variables_in_first_occurrence_order():
    """So copies keep the standard order of their variables."""
    xs = [Var() for _ in range(5)]
    t = Struct("f", [Struct("g", [xs[3], Struct("h", [xs[1]])]), xs[4],
                     mk_list([xs[0], xs[3], xs[2]])])
    c = copy_term(t)
    fresh = term_vars(c)
    assert len(fresh) == 5 and is_variant(t, c)
    assert [v.serial for v in fresh] == sorted(v.serial for v in fresh)


def test_copy_term_depth_is_bounded_by_memory():
    """A left-nested `+` chain and a nested list, 100000 deep, each with
    variables at the bottom and in every right argument."""
    n = 100000
    x, y = Var(), Var()
    c = copy_term(_left_nested(n, x, y))
    for _ in range(n):
        assert c.name == "+" and c.args[1] is not y
        right = c.args[1]
        c = c.args[0]
    assert type(c) is Var and c is not x and c is not right
    assert right.serial > c.serial  # the bottom occurs first
    t = x
    for _ in range(n):
        t = mk_list([t, y])
    c = copy_term(t)
    for _ in range(n):
        c = c.args[0]
    assert type(c) is Var and c is not x


def test_compare_terms_depth_is_bounded_by_memory():
    n = 100000
    a, b = _left_nested(n, Atom("a"), 1), _left_nested(n, Atom("a"), 1)
    assert compare_terms(a, b) == 0
    assert compare_terms(a, _left_nested(n, Atom("b"), 1)) < 0
    assert compare_terms(_left_nested(n, Atom("a"), 2), a) > 0


def test_is_variant():
    x, y, z = Var(), Var(), Var()
    assert is_variant(Struct("f", [x, x]), Struct("f", [y, y]))
    assert not is_variant(Struct("f", [x, x]), Struct("f", [y, z]))
    assert not is_variant(Struct("f", [x]), Struct("g", [y]))


def test_is_variant_depth_is_bounded_by_memory():
    """Left-nested terms 100000 deep, with a variable at the bottom and
    one in every right argument."""
    n = 100000

    def left(bottom, right):
        t = bottom
        for _ in range(n):
            t = Struct("+", [t, right])
        return t

    x, y, z = Var(), Var(), Var()
    assert is_variant(left(x, x), left(y, y))
    assert not is_variant(left(x, x), left(y, z))
    assert not is_variant(left(Atom("a"), x), left(Atom("b"), y))
    assert is_variant(left(Atom("a"), 1), left(Atom("a"), 1))


def test_struct_repr_text():
    assert repr(Struct("f", [Atom("a"), 1, Fraction(1, 3), 1.5, "it",
                             Breal(1, 2)])) == \
        "f(a, 1, Fraction(1, 3), 1.5, 'it', 1.0__2.0)"
    assert repr(mk_list([1, Struct("g", [Struct("h", [Atom("b")]), NIL])],
                        Atom("t"))) == ".(1, .(g(h(b), []), t))"
    assert repr(Struct("+", [Struct("+", [Atom("a"), Atom("b")]),
                             Atom("c")])) == "+(+(a, b), c)"
    assert repr(Struct("f", [])) == "f()"
    x = Var("X")
    assert repr(Struct("f", [x, x])) == "f(%r, %r)" % (x, x)


def test_struct_repr_depth_is_bounded_by_memory():
    n = 100000
    text = repr(mk_list(range(n)))
    assert text.startswith(".(0, .(1, ") and text.endswith(", []" + ")" * n)
    t = Atom("a")
    for _ in range(n):
        t = Struct("+", [t, 1])
    assert repr(t) == "+(" * n + "a" + ", 1)" * n
    e = make_engine()
    e.load("upto(I, H, []) :- I > H.\n"
           "upto(I, H, [I|T]) :- I =< H, I1 is I + 1, upto(I1, H, T).\n")
    text = repr(e.once("upto(1, 3000, L)"))
    assert text.startswith("Answer({'L': .(1, .(2, ") and \
        text.endswith(".(3000, [])" + ")" * 2999 + "}, delayed=[])")


def test_comparison_builtins_on_deep_terms():
    """==, compare/3 and sort/2 on left-nested terms 100000 deep."""
    e = make_engine()
    e.load("nest(0, T, T) :- !.\n"
           "nest(N, T0, T) :- N1 is N - 1, nest(N1, T0 + 1, T).\n")
    got = e.once("nest(100000, a, A), nest(100000, a, B), A == B,"
                 " compare(O, A, B), nest(100000, b, C), compare(O2, A, C),"
                 " sort([C, B, A], L), length(L, N)")
    assert got is not None
    assert (got["O"].name, got["O2"].name, got["N"]) == ("=", "<", 2)


# ----------------------------------------------------------------------
# a Struct owns its argument list: setarg/3 on a term built from another
# one leaves the other as it was

def test_struct_keeps_the_list_it_is_given():
    args = [1, 2]
    assert Struct("f", args).args is args


def test_copy_term_gives_each_copy_its_own_lists():
    a, x = Atom("a"), Var()
    x.attrs = {"tag": 7}
    t = Struct("f", [a, Struct("g", [x, 1]), x])
    c = copy_term(t, attr_hook=lambda old, new: None)
    st = make_engine().store
    st.set_arg(1, c, Atom("z"))
    st.set_arg(1, c.args[1], Atom("y"))
    assert t.args[0] is a and t.args[1].args[0] is x and t.args[2] is x
    assert c.args[1].args == [Atom("y"), 1]


OWNERSHIP_QUERIES = [
    # copy_term/2, of plain and of attributed variables
    ("T = f(a, g(b)), copy_term(T, C), setarg(1, C, z), arg(2, C, I), "
     "setarg(1, I, y)", {"T": "f(a, g(b))", "C": "f(z, g(y))"}),
    ("X :: 1..3, T = f(X, a, g(X)), copy_term(T, C), setarg(2, C, z), "
     "arg(3, C, I), setarg(1, I, y), T = f(X1, _, g(X2)), "
     "( X1 == X, X2 == X -> S = same ; S = other )",
     {"S": "same", "T": "f(_{1..3}, a, g(_{1..3}))",
      "C": "f(_{1..3}, z, g(y))"}),
    # =../2, composing and decomposing
    ("L = [f, a, b], T =.. L, setarg(1, T, z)", {"L": "[f, a, b]",
                                                  "T": "f(z, b)"}),
    ("T = f(a, b), T =.. [_ | As], setarg(1, As, z)", {"T": "f(a, b)"}),
    # update_struct/4, metacalled and expanded in place
    ("G = update_struct(emp, [age: 34], Old, New), call(G), "
     "setarg(1, New, ann)", {"Old": "emp(_, _)", "New": "emp(ann, 34)"}),
    ("update_struct(emp, [age: 34], Old, New), setarg(1, New, ann)",
     {"Old": "emp(_, _)", "New": "emp(ann, 34)"}),
]


@pytest.mark.parametrize("query, want", OWNERSHIP_QUERIES)
def test_setarg_on_a_built_term_leaves_its_source_alone(first, fmt, engine,
                                                        query, want):
    engine.load(":- local struct(emp(name, age)).")
    got = first(query)
    assert {k: fmt(got[k]) for k in want} == want


def test_call_with_extra_arguments_builds_a_term_of_its_own(engine):
    g = Struct("p", [Atom("a")])
    for goal in (g, Atom("p")):
        call = Struct("call", [goal, Atom("b")])
        new, _ = bi_call(engine, call.args, engine.main)
        engine.store.set_arg(1, new, Atom("z"))
        assert call.args == [goal, Atom("b")] and g.args == [Atom("a")]


#: sort/4 is stable in both directions: of equal keys the one first in
#: the input comes first, and < and > keep only that one
SORTED_BY_KEY = {
    "<": "[f(1, c), f(2, a), f(3, b)]",
    "=<": "[f(1, c), f(2, a), f(2, d), f(3, b)]",
    ">": "[f(3, b), f(2, a), f(1, c)]",
    ">=": "[f(3, b), f(2, a), f(2, d), f(1, c)]",
}


@pytest.mark.parametrize("order, keys", [
    ("<", [1, 2, 3]), ("=<", [1, 2, 2, 3]),
    (">", [3, 2, 1]), (">=", [3, 2, 2, 1])])
def test_sort4_orders_by_key(first, fmt, order, keys):
    got = first("sort(1, %s, [f(2, a), f(3, b), f(1, c), f(2, d)], S)"
                % order)
    items = [deref(x) for x in proper_list(got["S"])]
    assert [deref(x.args[0]) for x in items] == keys
    assert fmt(got["S"]) == SORTED_BY_KEY[order]
