import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdocycles.errors import BudgetExceeded, NotTraceComputable
from pdocycles.lattice import (
    PROFILE_WINDOW_BUDGET,
    FiniteRankSupport,
    LatticeOperator,
    basis_vector,
    commutator,
    compose,
    dense_mul,
    dense_trace,
    exact_rank,
    make_profile,
    op_abs_derivative,
    op_derivative,
    op_finite,
    op_from_laurent,
    op_projection_minus,
    op_projection_plus,
    op_projection_zero,
    op_z_power,
)
from pdocycles.laurent import LaurentPoly
from pdocycles.matrices import MatPoly, MatrixCoeff
from pdocycles.repro import span_generators
from pdocycles.scalars import GaussianRational

ONE = GaussianRational(1)


def rand_coeff(rng):
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                            Fraction(rng.randint(-1, 1)))


def rand_laurent(rng, dim=1, degree=3):
    coeffs = {}
    for m in range(-degree, degree + 1):
        if rng.random() < 0.5:
            coeffs[m] = MatrixCoeff([[rand_coeff(rng) for _ in range(dim)]
                                     for _ in range(dim)])
    if not coeffs:
        coeffs[1] = MatrixCoeff.identity(dim)
    return LaurentPoly(dim, coeffs)


def generator_pool(dim=1):
    return [
        op_z_power(1, dim), op_z_power(-1, dim), op_z_power(2, dim),
        op_z_power(-3, dim), op_projection_plus(dim), op_projection_minus(dim),
        op_projection_zero(dim), op_derivative(dim), op_abs_derivative(dim),
        LatticeOperator.identity(dim),
    ]


def rand_op(rng, dim=1):
    pool = generator_pool(dim)
    out = LatticeOperator.zero(dim)
    for _ in range(rng.randint(1, 3)):
        out = out + rng.choice(pool).scale(rng.randint(-2, 2))
    return out


class TestGenerators:
    def test_shift_action(self):
        z = op_z_power(1)
        assert z.apply(0, basis_vector(1)) == {1: (ONE,)}

    def test_identity_from_constant(self):
        ident = op_from_laurent(LaurentPoly.identity(1))
        assert ident == LatticeOperator.identity(1)

    def test_inverse_shifts_compose_to_identity(self):
        assert compose(op_z_power(-2), op_z_power(2)) == LatticeOperator.identity(1)

    def test_shift_group_law(self):
        for m in (-3, -1, 0, 2):
            for n in (-2, 1, 4):
                assert compose(op_z_power(m), op_z_power(n)) == op_z_power(m + n)

    def test_projection_kills_constant_mode(self):
        # the kernel mode belongs to neither the plus nor the minus block
        assert op_projection_plus().apply(0, basis_vector(1)) == {}
        assert op_projection_minus().apply(0, basis_vector(1)) == {}

    def test_projections_idempotent_and_resolve_identity(self):
        p, m, z = op_projection_plus(), op_projection_minus(), op_projection_zero()
        assert compose(p, p) == p
        assert compose(m, m) == m
        assert compose(z, z) == z
        assert p + m + z == LatticeOperator.identity(1)
        assert compose(p, m).is_zero()

    def test_derivative_eigenvalues(self):
        d = op_derivative()
        assert d.apply(3, basis_vector(1)) == {3: (GaussianRational(3),)}
        assert d.apply(0, basis_vector(1)) == {}

    def test_abs_derivative_eigenvalues(self):
        a = op_abs_derivative()
        assert a.apply(-2, basis_vector(1)) == {-2: (GaussianRational(2),)}
        assert a.apply(5, basis_vector(1)) == {5: (GaussianRational(5),)}

    def test_derivative_commutes_with_projection(self):
        assert commutator(op_derivative(), op_projection_plus()).is_zero()
        assert commutator(op_abs_derivative(), op_projection_plus()).is_zero()

    def test_canonical_commutation(self):
        d = op_derivative()
        for m in (-3, -1, 1, 2):
            zm = op_z_power(m)
            assert commutator(d, zm) == zm.scale(m)


class TestCommutatorWithProjection:
    def test_shift_projection_commutator_is_rank_one(self):
        # [z, p+] sends e_0 to -e_1 and kills every other mode; frozen from
        # direct enumeration on modes -3..3.
        c = commutator(op_z_power(1), op_projection_plus())
        assert c.apply(0, basis_vector(1)) == {1: (GaussianRational(-1),)}
        for k in range(-3, 4):
            if k != 0:
                assert c.apply(k, basis_vector(1)) == {}
        support = c.finite_rank_support()
        assert support == FiniteRankSupport((0, 0), (1, 1), 1)

    def test_laurent_projection_commutator_always_finite_rank(self):
        rng = random.Random(2)
        p = op_projection_plus()
        for _ in range(25):
            poly = rand_laurent(rng)
            c = commutator(op_from_laurent(poly), p)
            support = c.finite_rank_support()
            assert support is not None
            deg = poly.degree()
            if support.source is not None:
                lo = min(support.source[0], support.target[0])
                hi = max(support.source[1], support.target[1])
                assert -deg <= lo <= hi <= deg

    def test_unbounded_operator_is_not_finite_rank(self):
        assert op_derivative().finite_rank_support() is None
        assert op_z_power(2).finite_rank_support() is None

    def test_zero_operator_support(self):
        assert (LatticeOperator.zero(1).finite_rank_support()
                == FiniteRankSupport(None, None, 0))

    def test_finite_entries_invert_op_finite(self):
        rng = random.Random(5)
        for dim in (1, 2):
            entries = {}
            for _ in range(6):
                block = MatrixCoeff([[rand_coeff(rng) for _ in range(dim)]
                                     for _ in range(dim)])
                if not block.is_zero():
                    entries[(rng.randint(-4, 4), rng.randint(-4, 4))] = block
            assert op_finite(dim, entries).finite_entries() == entries
        assert LatticeOperator.zero(1).finite_entries() == {}
        with pytest.raises(ValueError):
            op_derivative().finite_entries()


class TestTrace:
    def test_identity_not_trace_computable(self):
        with pytest.raises(NotTraceComputable):
            LatticeOperator.identity(1).trace()
        with pytest.raises(NotTraceComputable):
            op_projection_plus().trace()

    def test_constant_mode_projection_trace(self):
        assert op_projection_zero(3).trace() == GaussianRational(3)

    def test_trace_of_commutator_with_finite_rank_vanishes(self):
        rng = random.Random(3)
        for dim in (1, 2):
            for _ in range(20):
                entries = {}
                for _ in range(rng.randint(1, 4)):
                    entries[(rng.randint(-3, 3), rng.randint(-3, 3))] = MatrixCoeff(
                        [[rand_coeff(rng) for _ in range(dim)] for _ in range(dim)])
                f = op_finite(dim, entries)
                b = rand_op(rng, dim)
                assert commutator(f, b).trace() == GaussianRational(0)

    def test_trace_cyclic_with_finite_rank_factor(self):
        rng = random.Random(4)
        f = commutator(op_z_power(2), op_projection_plus())
        for _ in range(15):
            b = rand_op(rng)
            assert compose(f, b).trace() == compose(b, f).trace()

    def test_traceless_tail_is_trace_computable(self):
        # main diagonal entries eventually equal a fixed traceless matrix:
        # per-mode traces vanish identically, so the sum is finite.
        dim = 2
        traceless = MatrixCoeff([[GaussianRational(1), GaussianRational(0)],
                                 [GaussianRational(0), GaussianRational(-1)]])
        op = op_from_laurent(LaurentPoly(dim, {0: traceless}))
        assert op.trace() == GaussianRational(0)


class TestDenseWindow:
    def test_projection_window(self):
        w = op_projection_plus().dense_window(1)
        assert [[str(x) for x in row] for row in w] == [
            ["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]

    def test_shift_window_is_subdiagonal(self):
        w = op_z_power(1).dense_window(2)
        for r in range(5):
            for c in range(5):
                assert w[r][c] == (ONE if r == c + 1 else GaussianRational(0))

    def test_window_agreement_for_composition(self):
        rng = random.Random(5)
        s = 4
        n = 3 * s
        for _ in range(15):
            a, b = rand_op(rng), rand_op(rng)
            structural = compose(a, b).dense_window(n)
            brute = dense_mul(a.dense_window(n), b.dense_window(n))
            interior = n - 2 * s
            for r in range(-interior, interior + 1):
                for c in range(-interior, interior + 1):
                    assert structural[r + n][c + n] == brute[r + n][c + n]

    def test_dense_window_d2_blocks(self):
        e01 = MatrixCoeff.unit(2, 0, 1)
        op = op_z_power(1, 2, e01)
        w = op.dense_window(1)
        assert w[(1 + 1) * 2 + 0][(0 + 1) * 2 + 1] == ONE
        assert w[(1 + 1) * 2 + 1][(0 + 1) * 2 + 0] == GaussianRational(0)


class TestAlgebraClosure:
    def test_associativity_structural(self):
        rng = random.Random(6)
        for _ in range(30):
            a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_associativity_generators_exhaustive(self):
        pool = generator_pool()
        for a in pool:
            for b in pool:
                for c in pool:
                    assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_bilinearity(self):
        rng = random.Random(7)
        for _ in range(10):
            a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
            lam = rand_coeff(rng)
            assert compose(a + b, c) == compose(a, c) + compose(b, c)
            assert compose(a.scale(lam), c) == compose(a, c).scale(lam)

    def test_distributes_over_matrix_coefficients(self):
        e01 = MatrixCoeff.unit(2, 0, 1)
        e10 = MatrixCoeff.unit(2, 1, 0)
        a = op_z_power(-2, 2, e01)
        b = op_z_power(2, 2, e10)
        ab = compose(a, b)
        assert ab == op_from_laurent(LaurentPoly(2, {0: e01 @ e10}))


class TestExactRank:
    def test_rank_of_projection_window(self):
        w = op_projection_plus().dense_window(3)
        assert exact_rank(w) == 3

    def test_rank_zero(self):
        assert exact_rank([[GaussianRational(0)] * 2 for _ in range(2)]) == 0

    def test_rank_with_complex_entries(self):
        i = GaussianRational(0, 1)
        rows = [[ONE, i], [i, -ONE]]  # second row = i * first
        assert exact_rank(rows) == 1


def test_structural_trace_matches_dense_trace():
    # finite-rank example: trace over a window containing the support
    c = commutator(op_z_power(3), op_projection_plus())
    product = compose(c, commutator(op_projection_plus(), op_z_power(-3)))
    assert product.trace() == dense_trace(product.dense_window(8))


def test_window_budget_checked_before_filling():
    # compose(P+, z^-n) multiplies profiles over the n + 1 modes -1 < k < n + 1
    n = PROFILE_WINDOW_BUDGET - 1
    product = compose(op_projection_plus(), op_z_power(-n))
    assert product.entry(n + 1 - n, n + 1) == MatrixCoeff.identity(1)
    assert product.entry(-n, 0) == MatrixCoeff.zero(1)
    with pytest.raises(BudgetExceeded):
        compose(op_projection_plus(), op_z_power(-n - 1))
    # so is a sum whose operands' bounds (-2, 0) and (m - 1, m + 1) span
    # m + 2 modes
    ident = MatrixCoeff.identity(1)
    near = op_finite(1, {(-1, -1): ident})
    assert (near + op_finite(1, {(n - 1, n - 1): ident})).trace() == 2
    with pytest.raises(BudgetExceeded):
        near + op_finite(1, {(n, n): ident})


# -- algebra properties -------------------------------------------------------

coefficients = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), im),
    st.integers(-3, 3), st.integers(-1, 1), st.sampled_from((1, 2)))

# z^m, z^m o D for |m| <= 2, D, |D|, the three projections and 1.
POOL = span_generators(1, 2, include_abs=True) + generator_pool()[4:7]


@st.composite
def span_elements(draw):
    out = LatticeOperator.zero(1)
    for gen, c in draw(st.lists(st.tuples(st.sampled_from(POOL), coefficients),
                                min_size=1, max_size=3)):
        out = out + gen.scale(c)
    return out


finite_ranks = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    coefficients.map(lambda c: MatrixCoeff([[c]])),
    min_size=1, max_size=4).map(lambda entries: op_finite(1, entries))

polys = st.lists(coefficients.map(lambda c: MatrixCoeff([[c]])),
                 max_size=3).map(lambda cs: MatPoly(1, cs))


@settings(max_examples=25, deadline=None)
@given(span_elements(), span_elements(), span_elements())
def test_compose_associative_and_distributive(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, b + c) == compose(a, b) + compose(a, c)
    assert compose(a + b, c) == compose(a, c) + compose(b, c)


@settings(max_examples=25, deadline=None)
@given(polys, st.integers(-4, 2), st.integers(1, 5), polys,
       st.dictionaries(st.integers(-5, 7),
                       coefficients.map(lambda c: MatrixCoeff([[c]])),
                       max_size=4))
def test_make_profile_returns_canonical_profile_unchanged(left, lo, width, right,
                                                          window):
    hi = lo + width
    prof = make_profile(left, lo, window, hi, right)
    if prof is None:
        return
    again = make_profile(prof.left, prof.left_bound, prof.window,
                         prof.right_bound, prof.right)
    assert again == prof
    assert (again.left_bound, again.right_bound) == (prof.left_bound,
                                                     prof.right_bound)
    # canonicalizing keeps every entry
    for k in range(lo - 2, hi + 3):
        raw = (left.eval(k) if k <= lo else right.eval(k) if k >= hi
               else window.get(k, MatrixCoeff.zero(1)))
        assert prof.entry(k) == raw


@settings(max_examples=25, deadline=None)
@given(finite_ranks, span_elements())
def test_trace_of_commutator_with_finite_rank_vanishes(f, x):
    assert commutator(f, x).trace() == 0
