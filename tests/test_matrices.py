"""The matrix layer against straightforward entrywise formulas."""

import random
from fractions import Fraction

import pytest

from pdocycles.errors import DimensionMismatch
from pdocycles.matrices import MatPoly, MatrixCoeff
from pdocycles.scalars import GaussianRational, ZERO


def rand_scalar(rng):
    if rng.random() < 0.3:
        return ZERO
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))),
                            rng.choice((0, 0, 1, -2)))


def rand_matrix(rng, d):
    return MatrixCoeff([[rand_scalar(rng) for _ in range(d)] for _ in range(d)])


def rand_poly(rng, d):
    return MatPoly(d, [rand_matrix(rng, d) for _ in range(rng.randint(0, 4))])


def entries(f, d):
    """The public constructor on entries f(i, j)."""
    return MatrixCoeff([[f(i, j) for j in range(d)] for i in range(d)])


def total(values):
    return sum(values, ZERO)


def naive_eval(p: MatPoly, k: int) -> MatrixCoeff:
    return entries(lambda i, j: total(c.rows[i][j] * k ** n
                                      for n, c in enumerate(p.coeffs)), p.dim)


def assert_trusted(m: MatrixCoeff):
    """A result built without the public constructor is still a square
    tuple of tuples of scalars."""
    assert isinstance(m.rows, tuple) and len(m.rows) == m.dim
    assert all(isinstance(row, tuple) and len(row) == m.dim for row in m.rows)
    assert all(isinstance(x, GaussianRational) for row in m.rows for x in row)
    assert MatrixCoeff(m.rows) == m


@pytest.mark.parametrize("d", [1, 2])
def test_matrix_operations_match_entrywise_formulas(d):
    rng = random.Random(d)
    for _ in range(60):
        a, b = rand_matrix(rng, d), rand_matrix(rng, d)
        lam = rand_scalar(rng)
        ra, rb = a.rows, b.rows
        cases = [
            (a + b, entries(lambda i, j: ra[i][j] + rb[i][j], d)),
            (a - b, entries(lambda i, j: ra[i][j] - rb[i][j], d)),
            (-a, entries(lambda i, j: -ra[i][j], d)),
            (a @ b, entries(lambda i, j: total(ra[i][t] * rb[t][j]
                                               for t in range(d)), d)),
            (a.scale(lam), entries(lambda i, j: ra[i][j] * lam, d)),
        ]
        for got, want in cases:
            assert_trusted(got)
            assert got == want
        vec = tuple(rand_scalar(rng) for _ in range(d))
        assert a.matvec(vec) == tuple(total(ra[i][t] * vec[t] for t in range(d))
                                      for i in range(d))
        assert a.is_zero() == (not any(x for row in ra for x in row)) == (not a)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zero_and_identity_are_cached_and_exact(d):
    zero, ident = MatrixCoeff.zero(d), MatrixCoeff.identity(d)
    assert MatrixCoeff.zero(d) is zero and MatrixCoeff.identity(d) is ident
    assert zero == entries(lambda i, j: GaussianRational(0), d)
    assert ident == entries(lambda i, j: GaussianRational(int(i == j)), d)
    assert zero.is_zero() and not ident.is_zero()
    assert_trusted(zero)
    assert_trusted(ident)
    a = rand_matrix(random.Random(d), d)
    assert a + zero == a and a @ ident == a == ident @ a


@pytest.mark.parametrize("d", [1, 2])
def test_polynomial_operations_match_entrywise_formulas(d):
    rng = random.Random(10 + d)
    for _ in range(40):
        p, q = rand_poly(rng, d), rand_poly(rng, d)
        s = rng.randint(-3, 3)
        for k in range(-3, 4):
            value = p.eval(k)
            assert_trusted(value)
            assert value == naive_eval(p, k)
            assert (p + q).eval(k) == naive_eval(p, k) + naive_eval(q, k)
            assert (p * q).eval(k) == naive_eval(p, k) @ naive_eval(q, k)
            assert p.shift(s).eval(k) == naive_eval(p, k + s)
        # coefficients stay trimmed, so equality stays structural
        for r in (p + q, p - q, p * q, p.shift(s)):
            assert not r.coeffs or not r.coeffs[-1].is_zero()
        assert p - p == MatPoly.zero(d)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        MatrixCoeff.zero(1) + MatrixCoeff.zero(2)
    with pytest.raises(ValueError):
        MatrixCoeff([[ZERO], [ZERO]])
    for build in (MatrixCoeff.zero, MatrixCoeff.identity):
        with pytest.raises(ValueError):
            build(0)
