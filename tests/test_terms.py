"""Term representation: interning, dereferencing, standard order."""

from fractions import Fraction

import pytest

from clpkernel import make_engine
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
    x.attrs = (("tag", 7),)
    seen = []
    copy_term(Struct("f", [x]), attr_hook=lambda old, new: seen.append((old, new)))
    assert len(seen) == 1
    assert seen[0][0] is x
    assert seen[0][1] is not x


def test_is_variant():
    x, y, z = Var(), Var(), Var()
    assert is_variant(Struct("f", [x, x]), Struct("f", [y, y]))
    assert not is_variant(Struct("f", [x, x]), Struct("f", [y, z]))
    assert not is_variant(Struct("f", [x]), Struct("g", [y]))


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
