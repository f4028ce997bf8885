import random
from itertools import product

from pdocycles.forms import ce_coboundary, chern_cochain, chern_cocycle, curvature
from pdocycles.lattice import basis_vector, compose, op_z_power
from pdocycles.repro import (
    CaseVerdict,
    SweepReport,
    case_table_sweep,
    closedness_sweep,
    count_signs,
    four_cocycle_table,
    measure_radul_normalization,
    omega_case_classifier,
    oracle_sweep,
    residue_trace_sweep,
    schwinger_comparison,
    trace_commutator_sweep,
    bianchi_sweep,
)
from pdocycles.scalars import GaussianRational
from pdocycles.symbols import RADUL_NORMALIZATION

ZERO = GaussianRational(0)


class TestCaseClassifier:
    def test_plus_case(self):
        assert omega_case_classifier(-2, 2, 1) == CaseVerdict(1, 1)

    def test_minus_case(self):
        assert omega_case_classifier(2, -2, 1) == CaseVerdict(-1, 1)

    def test_nonpositive_mode_annihilated(self):
        for m in (-2, 0, 3):
            for n in (-1, 2):
                assert omega_case_classifier(m, n, 0) == CaseVerdict(0, None)
                assert omega_case_classifier(m, n, -4) == CaseVerdict(0, None)

    def test_both_shifts_positive_annihilated(self):
        assert omega_case_classifier(1, 2, 3) == CaseVerdict(0, None)

    def test_completed_fourth_case(self):
        # k > 0 with both shifted modes nonpositive: both composition
        # paths vanish, so the action is zero.
        assert omega_case_classifier(-5, -6, 2) == CaseVerdict(0, None)

    def test_agrees_with_structural_application(self):
        one = GaussianRational(1)
        for m in range(-3, 4):
            for n in range(-3, 4):
                om = curvature(op_z_power(m), op_z_power(n))
                for k in range(-3, 4):
                    verdict = omega_case_classifier(m, n, k)
                    image = om.apply(k, basis_vector(1))
                    if verdict.sign == 0:
                        assert image == {}
                    else:
                        assert image == {verdict.mode: (one * verdict.sign,)}


class TestCountSigns:
    def test_reference_tuple(self):
        assert count_signs(-2, 2, -3, 3) == (2, 0)

    def test_trivial_tuple(self):
        assert count_signs(0, 0, 0, 0) == (0, 0)

    def test_counts_exist_even_when_degrees_do_not_cancel(self):
        n1, n_minus1 = count_signs(1, 2, -3, 1)
        assert n1 >= 0 and n_minus1 >= 0

    def test_closed_form_matches_enumeration_on_grid(self):
        # count_signs raises InternalMismatch if its two routes disagree
        for m, n, p, q in product(range(-4, 5), repeat=4):
            count_signs(m, n, p, q)


class TestFourCocycleTable:
    def test_table_shape_and_identity_row(self):
        t = four_cocycle_table(-2, 2, -3, 3)
        assert len(t.rows) == 24
        ident = next(r for r in t.rows if r.permutation == (0, 1, 2, 3))
        assert (ident.n1, ident.n_minus1) == (2, 0)
        assert ident.contribution == GaussianRational(2)

    def test_identity_trace_scales_with_dim(self):
        for dim in (1, 2, 3):
            t = four_cocycle_table(-2, 2, -3, 3, dim)
            ident = next(r for r in t.rows if r.permutation == (0, 1, 2, 3))
            assert ident.contribution == GaussianRational(2 * dim)

    def test_total_matches_operator_route(self):
        rng = random.Random(31)
        for _ in range(6):
            m, n, p, q = (rng.randint(-3, 3) for _ in range(4))
            t = four_cocycle_table(m, n, p, q)
            ops = [op_z_power(x) for x in (m, n, p, q)]
            assert t.total == chern_cocycle(2, *ops)

    def test_counts_lie_in_zero_two_square(self):
        t = four_cocycle_table(-2, 2, -3, 3)
        assert all(r.n1 in (0, 2) and r.n_minus1 in (0, 2) for r in t.rows)

    def test_sign_pattern_breaks_on_mixed_pairings(self):
        # The per-permutation sign does NOT determine which count is
        # populated: the four even permutations pairing -2 with +3 have
        # n_minus1 = 2, and the four odd ones pairing them have n1 = 2.
        # In consequence the alternated total cancels to exactly zero.
        t = four_cocycle_table(-2, 2, -3, 3)
        even_violations = [r for r in t.rows if r.sign == 1 and r.n_minus1 != 0]
        odd_violations = [r for r in t.rows if r.sign == -1 and r.n1 != 0]
        assert len(even_violations) == 4
        assert len(odd_violations) == 4
        assert t.total == ZERO

    def test_alternated_total_vanishes_on_commuting_shifts(self):
        # pairing cancellation: t(ab|cd) - t(ac|bd) + t(ad|bc) = 0 exactly
        rng = random.Random(32)
        for _ in range(8):
            m, n, p, q = (rng.randint(-4, 4) for _ in range(4))
            assert four_cocycle_table(m, n, p, q).total == ZERO

    def test_negation_and_pair_swap_symmetry(self):
        rng = random.Random(33)
        for _ in range(8):
            m, n, p, q = (rng.randint(-3, 3) for _ in range(4))
            a = four_cocycle_table(m, n, p, q)
            b = four_cocycle_table(-p, -q, -m, -n)
            assert a.total == b.total
            # also at the level of raw pairing traces
            ta = compose(curvature(op_z_power(m), op_z_power(n)),
                         curvature(op_z_power(p), op_z_power(q))).trace()
            tb = compose(curvature(op_z_power(-p), op_z_power(-q)),
                         curvature(op_z_power(-m), op_z_power(-n))).trace()
            assert ta == tb


class TestComparisons:
    def test_schwinger_comparison_rows(self):
        rep = schwinger_comparison(range(1, 6))
        assert [r.m for r in rep.rows] == [1, 2, 3, 4, 5]
        first = rep.rows[0]
        assert first.chern == GaussianRational(1)
        assert first.schwinger == GaussianRational(-1)
        assert first.radul == GaussianRational(1)
        for r in rep.rows:
            assert r.chern == GaussianRational(r.m)
            assert r.schwinger == GaussianRational(-r.m)
            assert r.radul == GaussianRational(r.m)

    def test_comparison_constants_are_m_independent(self):
        rep = schwinger_comparison(range(1, 6))
        assert rep.constants_m_independent
        assert rep.chern_over_schwinger == GaussianRational(-1)
        assert rep.radul_over_chern == GaussianRational(1)

    def test_comparison_scales_with_dim(self):
        rep = schwinger_comparison(range(1, 4), dim=2)
        assert rep.constants_m_independent
        for r in rep.rows:
            assert r.chern == GaussianRational(2 * r.m)

    def test_measured_normalization_matches_pinned_constant(self):
        assert measure_radul_normalization(range(1, 6)) == RADUL_NORMALIZATION


class TestSweeps:
    def test_closedness_level_one(self):
        rep = closedness_sweep(1, samples=15, seed=7, degree_bound=3, dim=1)
        assert isinstance(rep, SweepReport)
        assert rep.ok
        assert len(rep.rows) == 15
        cochain = chern_cochain(1)
        assert all(ce_coboundary(cochain, *args) == ZERO for args in rep.rows)

    def test_closedness_level_one_matrix_fiber(self):
        rep = closedness_sweep(1, samples=8, seed=8, degree_bound=3, dim=2)
        assert rep.ok

    def test_closedness_level_two(self):
        rep = closedness_sweep(2, samples=3, seed=9, degree_bound=3, dim=1)
        assert rep.ok

    def test_closedness_with_unbounded_diagonal_elements(self):
        rep = closedness_sweep(1, samples=8, seed=10, degree_bound=3, dim=1,
                               include_abs=True)
        assert rep.ok

    def test_bianchi_sweep(self):
        assert bianchi_sweep(samples=8, seed=11).ok

    def test_residue_trace_sweep(self):
        assert residue_trace_sweep(samples=10, seed=12).ok

    def test_trace_commutator_sweep(self):
        assert trace_commutator_sweep(samples=15, seed=13, dim=2).ok

    def test_oracle_sweep(self):
        assert oracle_sweep(samples=6, seed=14).ok

    def test_case_table_small(self):
        rep = case_table_sweep(3)
        assert rep.ok
        assert rep.checked == 7 ** 3
