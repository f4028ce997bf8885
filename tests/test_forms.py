import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from pdocycles.errors import BudgetExceeded, NotCommuting
from pdocycles.forms import (
    CURVATURE_MODE_BUDGET,
    Cochain,
    ce_coboundary,
    chern_cochain,
    chern_cocycle,
    chern_expansion,
    curvature,
    curvature_modes,
    hochschild_coboundary,
    nonvanishing_witness,
    perm_sign,
    schwinger_cochain,
    schwinger_cocycle,
    theta,
)
from pdocycles.lattice import (
    LatticeOperator,
    basis_vector,
    commutator,
    compose,
    dense_mul,
    dense_sub,
    dense_trace,
    op_abs_derivative,
    op_derivative,
    op_from_laurent,
    op_projection_plus,
    op_projection_zero,
    op_z_power,
)
from pdocycles.laurent import LaurentPoly
from pdocycles.matrices import MatrixCoeff
from pdocycles.repro import (
    curvature_form,
    form_bracket,
    form_differential,
    form_wedge,
    random_span_element,
    smoothing_part,
    span_generators,
    theta_form,
)
from pdocycles.scalars import GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def rand_coeff(rng):
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                            Fraction(rng.randint(-1, 1)))


def rand_laurent_op(rng, dim=1, degree=3):
    coeffs = {}
    for m in range(-degree, degree + 1):
        if rng.random() < 0.5:
            coeffs[m] = MatrixCoeff([[rand_coeff(rng) for _ in range(dim)]
                                     for _ in range(dim)])
    if not coeffs:
        coeffs[0] = MatrixCoeff.identity(dim)
    return op_from_laurent(LaurentPoly(dim, coeffs))


def dense_curvature(a, b, n):
    """Independent dense-window route for the curvature."""
    da, db = a.dense_window(n), b.dense_window(n)
    dp = op_projection_plus(a.dim).dense_window(n)
    ap, bp = dense_mul(da, dp), dense_mul(db, dp)
    comm = dense_sub(dense_mul(da, db), dense_mul(db, da))
    return dense_sub(dense_sub(dense_mul(ap, bp), dense_mul(bp, ap)),
                     dense_mul(comm, dp))


class TestThetaAndCurvature:
    def test_theta_of_projection(self):
        p = op_projection_plus()
        assert theta(p) == p

    def test_theta_of_shift(self):
        t = theta(op_z_power(1))
        assert t.apply(0, basis_vector(1)) == {}
        for k in (1, 2, 5):
            assert t.apply(k, basis_vector(1)) == {k + 1: (ONE,)}

    def test_theta_of_zero(self):
        assert theta(LatticeOperator.zero(1)).is_zero()

    def test_curvature_is_projection_onto_low_positive_modes(self):
        # curvature(z^-3, z^3) is the orthogonal projection onto modes
        # {1,2,3}; frozen from the dense-window brute force.
        om = curvature(op_z_power(-3), op_z_power(3))
        n = 10
        dense = om.dense_window(n)
        oracle = dense_curvature(op_z_power(-3), op_z_power(3), n)
        assert dense == oracle
        for r in range(2 * n + 1):
            for c in range(2 * n + 1):
                expect = ONE if (r == c and r - n in (1, 2, 3)) else ZERO
                assert dense[r][c] == expect
        assert om.trace() == GaussianRational(3)
        assert dense_trace(oracle) == GaussianRational(3)

    def test_curvature_on_repeated_argument(self):
        rng = random.Random(1)
        for _ in range(10):
            a = rand_laurent_op(rng)
            assert curvature(a, a).is_zero()

    def test_curvature_case_row(self):
        # mode 1 is fixed by curvature(z^-2, z^2)
        om = curvature(op_z_power(-2), op_z_power(2))
        assert om.apply(1, basis_vector(1)) == {1: (ONE,)}

    def test_curvature_always_finite_rank(self):
        rng = random.Random(2)
        d = op_derivative()
        for _ in range(15):
            a = rand_laurent_op(rng) + d.scale(rng.randint(-1, 1))
            b = rand_laurent_op(rng)
            assert curvature(a, b).finite_rank_support() is not None

    def test_curvature_multilinear(self):
        rng = random.Random(18)
        for _ in range(8):
            a, a2, b = (rand_laurent_op(rng) for _ in range(3))
            lam = rand_coeff(rng)
            assert (curvature(a + a2.scale(lam), b)
                    == curvature(a, b) + curvature(a2, b).scale(lam))
            assert (curvature(b, a + a2.scale(lam))
                    == curvature(b, a) + curvature(b, a2).scale(lam))


def random_pair(rng, pool, commutator_argument):
    a, b = random_span_element(rng, pool), random_span_element(rng, pool)
    if commutator_argument:
        b = commutator(b, random_span_element(rng, pool))
    return a, b


def covering_radius(a, b):
    """A window radius that holds every mode the curvature touches, and
    every mode its dense-window route passes through."""
    offsets = [abs(j) for j in list(a.diagonals) + list(b.diagonals)]
    return curvature_modes(a, b) + 2 * max(offsets, default=0) + 1


class TestCurvatureKernel:
    """The support-built curvature against the routes it replaced: the
    profile route a[p+,b]p+ - b[p+,a]p+ and the dense-window brute force."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_profile_route(self, dim):
        rng = random.Random(40 + dim)
        pool = span_generators(dim, 3, include_abs=True)
        for i in range(30):
            a, b = random_pair(rng, pool, commutator_argument=i % 3 == 0)
            assert curvature(a, b) == smoothing_part(a, b)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_dense_window(self, dim):
        rng = random.Random(50 + dim)
        pool = span_generators(dim, 2)
        for i in range(6):
            a, b = random_pair(rng, pool, commutator_argument=i % 3 == 0)
            n = covering_radius(a, b)
            assert curvature(a, b).dense_window(n) == dense_curvature(a, b, n)

    def test_operands_without_negative_offsets(self):
        d, ad = op_derivative(), op_abs_derivative()
        cases = [(op_z_power(2), d), (ad, op_z_power(1) + op_projection_plus()),
                 (op_projection_zero(), op_z_power(3)), (d, ad)]
        for a, b in cases:
            assert curvature_modes(a, b) == 0
            assert curvature(a, b).is_zero()
            assert smoothing_part(a, b).is_zero()
        # one negative offset is enough for a nonzero curvature
        a, b = op_z_power(-2) + d, op_z_power(1)
        assert curvature(a, b) == smoothing_part(a, b)
        assert not curvature(a, b).is_zero()

    def test_refuses_past_the_mode_budget(self):
        edge = op_z_power(-CURVATURE_MODE_BUDGET)
        assert curvature(edge, op_z_power(1)) == smoothing_part(edge, op_z_power(1))
        with pytest.raises(BudgetExceeded):
            curvature(op_z_power(1), op_z_power(-CURVATURE_MODE_BUDGET - 1))


def small_operator(terms):
    """Sum of c * z^m (composed with D when flagged) over the terms."""
    out = LatticeOperator.zero(1)
    for m, c, with_d in terms:
        term = op_z_power(m).scale(c)
        out = out + (compose(term, op_derivative()) if with_d else term)
    return out


operator_terms = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-3, 3).filter(bool), st.booleans()),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(operator_terms, operator_terms)
def test_curvature_antisymmetric_and_supported_on_low_modes(ta, tb):
    a, b = small_operator(ta), small_operator(tb)
    om = curvature(a, b)
    assert curvature(b, a) == -om
    assert curvature(a, a).is_zero()
    support = om.finite_rank_support()
    assert support is not None
    if support.source is not None:
        assert 1 <= support.source[0] <= support.source[1] <= curvature_modes(a, b)


class TestSmoothingPart:
    def test_equals_curvature_structurally(self):
        rng = random.Random(3)
        for _ in range(15):
            a, b = rand_laurent_op(rng), rand_laurent_op(rng)
            assert smoothing_part(a, b) == curvature(a, b)
        assert smoothing_part(op_z_power(-3), op_z_power(3)) == curvature(
            op_z_power(-3), op_z_power(3))

    def test_on_repeated_argument(self):
        a = op_z_power(2)
        assert smoothing_part(a, a).is_zero()

    def test_derivative_against_shift_support(self):
        d = op_derivative()
        for m in (-4, -3, -2, -1, 1, 2, 3, 4):
            s = smoothing_part(d, op_z_power(m))
            assert s == curvature(d, op_z_power(m))
            support = s.finite_rank_support()
            assert support is not None
            if support.source is not None:
                lo, hi = min(m, 1 - m), max(m, 1 - m)
                assert lo <= support.source[0] <= support.source[1] <= hi
                assert lo <= support.target[0] <= support.target[1] <= hi


class TestFormCalculus:
    def test_wedge_unrolls_at_arity_one(self):
        rng = random.Random(4)
        th = theta_form()
        w = form_wedge(th, th)
        for _ in range(8):
            a, b = rand_laurent_op(rng), rand_laurent_op(rng)
            expect = (compose(theta(a), theta(b))
                      - compose(theta(b), theta(a)))
            assert w(a, b) == expect

    def test_structure_equation(self):
        rng = random.Random(5)
        th = theta_form()
        dth = form_differential(th)
        w = form_wedge(th, th)
        d = op_derivative()
        for _ in range(12):
            a = rand_laurent_op(rng) + d.scale(rng.randint(-1, 1))
            b = rand_laurent_op(rng)
            assert dth(a, b) + w(a, b) == curvature(a, b)

    def test_bianchi_identity(self):
        rng = random.Random(6)
        om = curvature_form()
        dom = form_differential(om)
        br = form_bracket(theta_form(), om)
        d = op_derivative()
        for _ in range(10):
            a = rand_laurent_op(rng) + d.scale(rng.randint(0, 1))
            b, c = rand_laurent_op(rng), rand_laurent_op(rng)
            assert (dom(a, b, c) + br(a, b, c)).is_zero()

    def test_alternation_of_wedge(self):
        rng = random.Random(7)
        om = curvature_form()
        w = form_wedge(om, om)
        a, b, c = (rand_laurent_op(rng) for _ in range(3))
        assert w(a, a, b, c).is_zero()
        d = rand_laurent_op(rng)
        assert w(a, b, c, d) == -w(b, a, c, d)


class TestChernCocycle:
    def test_value_on_tensor_shifts(self):
        # chern_cocycle(1, z^-m (x) A, z^m (x) B) = m tr(AB); confirmed by
        # the dense-window oracle below for every instance.
        rng = random.Random(8)
        for m in (1, 2, 3):
            for dim in (1, 2):
                a_mat = MatrixCoeff([[rand_coeff(rng) for _ in range(dim)]
                                     for _ in range(dim)])
                b_mat = MatrixCoeff([[rand_coeff(rng) for _ in range(dim)]
                                     for _ in range(dim)])
                a = op_z_power(-m, dim, a_mat)
                b = op_z_power(m, dim, b_mat)
                value = chern_cocycle(1, a, b)
                n = 3 * m + 4
                oracle = (dense_trace(dense_curvature(a, b, n))
                          - dense_trace(dense_curvature(b, a, n))) * GaussianRational(
                              Fraction(1, 2))
                assert value == oracle
                assert value == (a_mat @ b_mat).trace() * m

    def test_linear_in_m(self):
        base = chern_cocycle(1, op_z_power(-1), op_z_power(1))
        assert base == ONE
        for m in range(1, 6):
            assert chern_cocycle(1, op_z_power(-m), op_z_power(m)) == base * m

    def test_vanishes_off_the_diagonal_family(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                if m + n != 0:
                    assert chern_cocycle(1, op_z_power(m), op_z_power(n)) == ZERO

    def test_alternation(self):
        rng = random.Random(9)
        a, b, c, d = (rand_laurent_op(rng) for _ in range(4))
        assert chern_cocycle(2, a, b, c, d) == -chern_cocycle(2, b, a, c, d)
        assert chern_cocycle(2, a, b, c, d) == chern_cocycle(2, b, a, d, c)

    def test_repeated_argument_vanishes(self):
        rng = random.Random(10)
        a, b, c = (rand_laurent_op(rng) for _ in range(3))
        assert chern_cocycle(2, a, b, a, c) == ZERO
        assert chern_cocycle(1, a, a) == ZERO

    def test_permutation_table_sums_to_cocycle(self):
        rng = random.Random(11)
        args = [rand_laurent_op(rng) for _ in range(4)]
        rows = chern_expansion(2, *args).table()
        assert len(rows) == 24
        total = sum((t if s > 0 else -t for _, s, t in rows), ZERO)
        assert total * GaussianRational(Fraction(1, 24)) == chern_cocycle(2, *args)


def full_permutation_table(k, args):
    """The (2k)! sum term by term on the profile route: the oracle for the
    class-reduced expansion."""
    omegas = {(i, j): smoothing_part(args[i], args[j])
              for i in range(2 * k) for j in range(2 * k) if i != j}
    rows = []
    for s in permutations(range(2 * k)):
        prod = omegas[(s[0], s[1])]
        for t in range(1, k):
            prod = compose(prod, omegas[(s[2 * t], s[2 * t + 1])])
        rows.append((s, perm_sign(s), prod.trace()))
    return rows


def alternated_value(k, rows):
    total = sum((t if sign > 0 else -t for _, sign, t in rows), ZERO)
    return total * GaussianRational(Fraction(1, factorial(2 * k)))


class TestClassReduction:
    def test_level_two_against_full_sum(self):
        # About one random 4-tuple in fifteen has a nonzero value; this
        # seed's twelve hold three, so the value is checked off zero too.
        rng = random.Random(18)
        pool = span_generators(1, 2, include_abs=True)
        nonzero = 0
        for _ in range(12):
            args = [random_span_element(rng, pool) for _ in range(4)]
            rows = full_permutation_table(2, args)
            assert chern_expansion(2, *args).table() == rows
            value = chern_cocycle(2, *args)
            assert value == alternated_value(2, rows)
            nonzero += bool(value)
        assert nonzero >= 2

    def test_level_two_matrix_fiber_against_full_sum(self):
        rng = random.Random(20)
        pool = span_generators(2, 1)
        for _ in range(4):
            args = [random_span_element(rng, pool) for _ in range(4)]
            rows = full_permutation_table(2, args)
            assert chern_expansion(2, *args).table() == rows
            assert chern_cocycle(2, *args) == alternated_value(2, rows)

    @pytest.mark.parametrize("pairs", [(1, 2, 3), (2, 2, 1), (3, -1, 2)])
    def test_level_three_shift_table_against_full_sum(self, pairs):
        # Exponents in (x, -x) pairs sum to 0, so rows are nonzero.
        rng = random.Random(sum(pairs))
        ms = [m for x in pairs for m in (x, -x)]
        rng.shuffle(ms)
        args = [op_z_power(m) for m in ms]
        rows = full_permutation_table(3, args)
        assert any(t for _, _, t in rows)
        assert chern_expansion(3, *args).table() == rows
        assert chern_cocycle(3, *args) == alternated_value(3, rows)

    def test_class_counts(self):
        args = [op_z_power(m) for m in (-1, 1, -2, 2, -3, 3)]
        for k, classes in ((1, 1), (2, 3), (3, 30)):
            assert len(chern_expansion(k, *args[:2 * k]).terms) == classes


def reference_class(s):
    """The class map the table used to run per row, kept as its reference:
    the representative of the permutation s (pairs in increasing order,
    the pair holding 0 first) and whether an odd number of its pairs were
    swapped to reach it."""
    pairs = [(s[t], s[t + 1]) for t in range(0, len(s), 2)]
    flip = sum(1 for i, j in pairs if i > j) % 2 == 1
    pairs = [(min(p), max(p)) for p in pairs]
    lead = next(t for t, p in enumerate(pairs) if p[0] == 0)
    return tuple(i for p in pairs[lead:] + pairs[:lead] for i in p), flip


class TestTableExpansion:
    @pytest.mark.parametrize("ms", [(-1, 1), (2, -1, 1, -2),
                                    (1, -2, -1, 3, 2, -3),
                                    (4, -1, 2, -3, 1, -4, 3, -2)])
    def test_table_matches_reference_class_map(self, ms):
        k = len(ms) // 2
        expansion = chern_expansion(k, *(op_z_power(m) for m in ms))
        traces = dict(expansion.terms)
        rows = expansion.table()
        assert [s for s, _, _ in rows] == list(permutations(range(2 * k)))
        assert any(t for _, _, t in rows)
        for s, sign, trace in rows:
            assert sign == perm_sign(s)
            rep, flip = reference_class(s)
            assert trace == (-traces[rep] if flip else traces[rep])


class TestCoboundaries:
    def test_ce_squared_is_zero(self):
        rng = random.Random(12)
        # d^2 = 0 on a generic (non-closed) 1-cochain
        pick = op_z_power(1)
        c1 = Cochain(1, lambda a: commutator(a, pick).trace())
        dc = Cochain(2, lambda *args: ce_coboundary(c1, *args))
        for _ in range(10):
            a, b, c = (rand_laurent_op(rng) for _ in range(3))
            assert ce_coboundary(dc, a, b, c) == ZERO

    def test_trace_curvature_is_closed(self):
        rng = random.Random(13)
        c = chern_cochain(1)
        d = op_derivative()
        for _ in range(20):
            a = rand_laurent_op(rng) + d.scale(rng.randint(0, 1))
            b, cc = rand_laurent_op(rng), rand_laurent_op(rng)
            assert ce_coboundary(c, a, b, cc) == ZERO

    def test_trace_curvature_squared_is_closed(self):
        rng = random.Random(14)
        c = chern_cochain(2)
        for _ in range(4):
            args = [rand_laurent_op(rng, degree=2) for _ in range(5)]
            assert ce_coboundary(c, *args) == ZERO

    def test_hochschild_coboundary_evaluates(self):
        rng = random.Random(15)
        c = chern_cochain(1)
        a, b, cc = (rand_laurent_op(rng) for _ in range(3))
        hochschild_coboundary(c, a, b, cc)  # diagnostic only, no pinned value


class TestSchwinger:
    def test_unit_shift_value(self):
        # frozen from the dense block computation
        assert schwinger_cocycle(op_z_power(-1), op_z_power(1)) == GaussianRational(-1)

    def test_linear_in_m(self):
        for m in range(1, 6):
            assert schwinger_cocycle(op_z_power(-m), op_z_power(m)) == GaussianRational(-m)

    def test_vanishes_when_degrees_do_not_cancel(self):
        for m in range(-2, 3):
            for n in range(-2, 3):
                if m + n != 0:
                    assert schwinger_cocycle(op_z_power(m), op_z_power(n)) == ZERO

    def test_antisymmetry(self):
        rng = random.Random(16)
        for _ in range(10):
            a, b = rand_laurent_op(rng), rand_laurent_op(rng)
            assert schwinger_cocycle(a, b) == -schwinger_cocycle(b, a)
            assert schwinger_cocycle(a, a) == ZERO

    def test_two_cocycle_identity(self):
        rng = random.Random(17)
        c = schwinger_cochain(1)
        for _ in range(12):
            a, b, cc = (rand_laurent_op(rng) for _ in range(3))
            assert ce_coboundary(c, a, b, cc) == ZERO


class TestWitness:
    def family(self, bound=3):
        return [op_z_power(m) for m in range(-bound, bound + 1)]

    def test_level_one_witness_on_small_family(self):
        c = chern_cochain(1)
        w = nonvanishing_witness(c, [op_z_power(-1), op_z_power(1)])
        assert w == (op_z_power(-1), op_z_power(1))
        assert c(*w) == ONE

    def test_level_one_witness_in_degree_three_family(self):
        c = chern_cochain(1)
        w = nonvanishing_witness(c, self.family())
        assert w is not None
        assert c(*w) != ZERO

    def test_level_two_has_no_witness_on_commuting_shifts(self):
        # The alternated square of the curvature vanishes identically on
        # 4-tuples of plain shift operators (the three pair-partitions
        # cancel exactly), so the search must come back empty.
        c = chern_cochain(2)
        assert nonvanishing_witness(c, self.family()) is None

    def test_zero_cochain_has_no_witness(self):
        zero = Cochain(2, lambda *args: ZERO)
        assert nonvanishing_witness(zero, self.family(2)) is None

    def test_non_commuting_family_rejected(self):
        c = chern_cochain(1)
        with pytest.raises(NotCommuting):
            nonvanishing_witness(c, [op_derivative(), op_z_power(1)])


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((0, 3, 1, 2)) == 1
    assert perm_sign((0, 3, 2, 1)) == -1
