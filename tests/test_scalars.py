from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from pdocycles.scalars import GaussianRational, I_UNIT, ONE, ZERO


def test_construction_and_reduction():
    v = GaussianRational(Fraction(2, 4), Fraction(-6, 4))
    assert v.re == Fraction(1, 2)
    assert v.im == Fraction(-3, 2)
    assert v.re.denominator > 0


def test_field_arithmetic():
    a = GaussianRational(Fraction(1, 2), 1)
    b = GaussianRational(3, Fraction(-1, 3))
    assert a + b == GaussianRational(Fraction(7, 2), Fraction(2, 3))
    assert a - a == ZERO
    assert a * ONE == a
    assert (a * b) / b == a
    assert -a + a == ZERO
    assert I_UNIT * I_UNIT == GaussianRational(-1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_mixed_type_coercion():
    a = GaussianRational(Fraction(3, 2))
    assert a + 1 == GaussianRational(Fraction(5, 2))
    assert 2 * a == GaussianRational(3)
    assert a == Fraction(3, 2)
    assert GaussianRational(2) == 2


def test_hash_consistency_with_rationals():
    assert hash(GaussianRational(2)) == hash(2)
    assert hash(GaussianRational(Fraction(1, 3))) == hash(Fraction(1, 3))
    d = {GaussianRational(2): "a"}
    assert d[2] == "a"


def test_truthiness():
    assert not ZERO
    assert ONE
    assert GaussianRational(0, Fraction(1, 7))


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(I_UNIT) == "i"
    assert str(-I_UNIT) == "-i"
    assert str(GaussianRational(1, 1)) == "1+i"
    assert str(GaussianRational(Fraction(3, 2), Fraction(-1, 2))) == "3/2-1/2i"


def test_pair_round_trip():
    v = GaussianRational(Fraction(-5, 7), Fraction(2, 3))
    assert GaussianRational.from_pair(v.to_pair()) == v
    assert GaussianRational.from_pair(["1/2", "0"]) == GaussianRational(Fraction(1, 2))
    assert GaussianRational.from_pair("3") == GaussianRational(3)


def test_conjugate():
    v = GaussianRational(1, 2)
    assert v.conjugate() == GaussianRational(1, -2)
    assert (v * v.conjugate()).im == 0


# -- field laws against a (Fraction, Fraction) model ---------------------------

rationals = st.builds(Fraction, st.integers(-40, 40),
                      st.sampled_from((1, 1, 1, 2, 3, 4, 6, 9, 35)))
pairs = st.tuples(rationals, rationals)
plain = st.one_of(st.integers(-9, 9), rationals)


def model(x):
    """(re, im) of a GaussianRational, int or Fraction."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def m_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def m_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def m_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def m_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm,
            (x[1] * y[0] - x[0] * y[1]) / norm)


def m_str(re, im):
    """The printed form of a scalar, from its Fraction parts."""
    def imag(v):
        return "i" if v == 1 else "-i" if v == -1 else f"{v}i"
    if not im:
        return str(re)
    if not re:
        return imag(im)
    return f"{re}{'+' if im > 0 else '-'}{imag(abs(im))}"


def assert_normal(v, want):
    assert isinstance(v, GaussianRational)
    a, b, d = v._a, v._b, v._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (v.re, v.im) == want
    assert v == GaussianRational(*want)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_field_operations_match_fraction_model(x, y):
    u, v = GaussianRational(*x), GaussianRational(*y)
    assert_normal(u, x)
    assert_normal(u + v, m_add(x, y))
    assert_normal(u - v, m_sub(x, y))
    assert_normal(u * v, m_mul(x, y))
    assert_normal(-u, (-x[0], -x[1]))
    assert_normal(u.conjugate(), (x[0], -x[1]))
    if any(y):
        assert_normal(u / v, m_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            u / v


@settings(max_examples=300, deadline=None)
@given(pairs, plain)
def test_mixed_operands_on_both_sides(x, q):
    u, mq = GaussianRational(*x), model(q)
    assert_normal(u + q, m_add(x, mq))
    assert_normal(q + u, m_add(mq, x))
    assert_normal(u - q, m_sub(x, mq))
    assert_normal(q - u, m_sub(mq, x))
    assert_normal(u * q, m_mul(x, mq))
    assert_normal(q * u, m_mul(mq, x))
    if q:
        assert_normal(u / q, m_div(x, mq))
    else:
        with pytest.raises(ZeroDivisionError):
            u / q
    if any(x):
        assert_normal(q / u, m_div(mq, x))
    else:
        with pytest.raises(ZeroDivisionError):
            q / u


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_equality_and_hash_are_structural(x):
    v = GaussianRational(*x)
    assert v == GaussianRational(*x) and hash(v) == hash(GaussianRational(*x))
    assert bool(v) == any(x)
    assert v.is_rational() == (x[1] == 0)
    assert (v == x[0]) == (x[1] == 0)


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_real_values_equal_and_hash_like_rationals(q):
    v = GaussianRational(q)
    assert v == q and q == v and hash(v) == hash(q)
    assert {q: "x"}[v] == "x"
    if q.denominator == 1:
        assert v == int(q) and hash(v) == hash(int(q))


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_printed_forms_round_trip(x):
    v = GaussianRational(*x)
    assert str(v) == m_str(*x)
    assert v.to_pair() == [str(x[0]), str(x[1])]
    assert GaussianRational.from_pair(v.to_pair()) == v
    assert repr(v) == f"GaussianRational({x[0]!r}, {x[1]!r})"


def test_construction_from_strings_and_mixed_denominators():
    assert GaussianRational("3/6", "-2/4") == GaussianRational(Fraction(1, 2),
                                                               Fraction(-1, 2))
    v = GaussianRational(Fraction(1, 6), Fraction(3, 4))
    assert (v._a, v._b, v._d) == (2, 9, 12)
    with pytest.raises(TypeError):
        GaussianRational(0.5)
