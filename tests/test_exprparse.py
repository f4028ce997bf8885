from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdocycles.errors import OperatorParseError
from pdocycles.exprparse import (
    MAX_EXPRESSION_DEPTH,
    eval_operator,
    laurent_from_document,
    laurent_to_document,
    operator_from_document,
    parse_expression,
    parse_operator,
    parse_symbol,
    symbol_from_document,
)
from pdocycles.lattice import (
    LatticeOperator,
    commutator,
    op_abs_derivative,
    op_derivative,
    op_from_laurent,
    op_projection_minus,
    op_projection_plus,
    op_projection_zero,
    op_z_power,
)
from pdocycles.laurent import LaurentPoly
from pdocycles.matrices import MatrixCoeff
from pdocycles.scalars import GaussianRational
from pdocycles.symbols import builtin_symbol, multiplication_symbol, star_commutator


class TestScalars:
    def test_integer(self):
        assert eval_operator(parse_expression("7")) == GaussianRational(7)

    def test_rational(self):
        assert eval_operator(parse_expression("3/4")) == GaussianRational(Fraction(3, 4))

    def test_imaginary_unit(self):
        assert eval_operator(parse_expression("i")) == GaussianRational(0, 1)
        assert eval_operator(parse_expression("2*i")) == GaussianRational(0, 2)

    def test_scalar_arithmetic(self):
        assert eval_operator(parse_expression("1/2 + 1/3")) == GaussianRational(Fraction(5, 6))
        assert eval_operator(parse_expression("(1+i)*(1-i)")) == GaussianRational(2)
        assert eval_operator(parse_expression("1/(2)")) == GaussianRational(Fraction(1, 2))

    def test_zero_denominator(self):
        with pytest.raises(OperatorParseError):
            parse_expression("1/0")


class TestOperatorExpressions:
    def test_z_powers(self):
        assert parse_operator("z") == op_z_power(1)
        assert parse_operator("z^3") == op_z_power(3)
        assert parse_operator("z^-2") == op_z_power(-2)

    def test_builtins(self):
        assert parse_operator("P_PLUS") == op_projection_plus(1)
        assert parse_operator("P_MINUS") == op_projection_minus(1)
        assert parse_operator("P_ZERO") == op_projection_zero(1)
        assert parse_operator("D") == op_derivative(1)
        assert parse_operator("ABS_D") == op_abs_derivative(1)

    def test_composition_and_sums(self):
        assert parse_operator("z^1 * z^2") == op_z_power(3)
        assert parse_operator("z + z") == op_z_power(1).scale(2)
        assert parse_operator("z - z").is_zero()
        assert parse_operator("2*z^1 + P_PLUS") == (
            op_z_power(1).scale(2) + op_projection_plus(1))

    def test_scalar_scaling_and_division(self):
        assert parse_operator("1/2 * z^2") == op_z_power(2).scale(Fraction(1, 2))
        assert parse_operator("z^2 / 2") == op_z_power(2).scale(Fraction(1, 2))
        assert parse_operator("-z") == op_z_power(1).scale(-1)
        assert parse_operator("i*z") == op_z_power(1).scale(GaussianRational(0, 1))

    def test_commutator_brackets(self):
        assert parse_operator("[D, z^2]") == commutator(op_derivative(1), op_z_power(2))
        assert parse_operator("[z^1, P_PLUS]") == commutator(
            op_z_power(1), op_projection_plus(1))

    def test_precedence(self):
        got = parse_operator("z^1 + z^2 * z^3")
        assert got == op_z_power(1) + op_z_power(5)

    def test_matrix_literal(self):
        got = parse_operator("{{0, 1}, {0, 0}} * z^2", dim=2)
        e01 = MatrixCoeff.unit(2, 0, 1)
        assert got == op_z_power(2, 2, e01)

    def test_matrix_literal_entries_can_be_expressions(self):
        got = parse_operator("{{1/2 + 1/2, 0}, {0, i*i}}", dim=2)
        expect = op_from_laurent(LaurentPoly(2, {0: MatrixCoeff(
            [[GaussianRational(1), GaussianRational(0)],
             [GaussianRational(0), GaussianRational(-1)]])}))
        assert got == expect

    def test_named_operands(self):
        env = {"A": op_z_power(-1)}
        assert parse_operator("A * z^1", operands=env) == LatticeOperator.identity(1)

    def test_dim_passes_through(self):
        assert parse_operator("P_PLUS", dim=3) == op_projection_plus(3)


class TestErrors:
    @pytest.mark.parametrize("wrap", [("(", ")"), ("-", ""), ("[z^1, ", "]"),
                                      ("{{", "}}")])
    def test_nesting_depth_limit(self, wrap):
        # every kind of nesting counts one level: parentheses, unary signs,
        # commutator brackets and matrix literals
        opening, closing = wrap
        at_limit = opening * MAX_EXPRESSION_DEPTH + "1" + closing * MAX_EXPRESSION_DEPTH
        parse_expression(at_limit)
        past = opening + at_limit + closing
        with pytest.raises(OperatorParseError) as info:
            parse_expression(past)
        assert "nested deeper than" in str(info.value)
        assert info.value.position == len(opening) * MAX_EXPRESSION_DEPTH
        # levels are left again: side-by-side groups do not add up
        parse_expression("+".join([opening + "1" + closing] * (MAX_EXPRESSION_DEPTH + 1)))

    def test_long_flat_chain_evaluates(self):
        assert eval_operator(parse_expression("+".join(["1/2"] * 3000))) == 1500
        assert parse_operator("*".join(["z^1"] * 1500)) == parse_operator("z^1500")

    def test_unknown_name_position(self):
        with pytest.raises(OperatorParseError) as info:
            parse_operator("z^1 + FOO")
        assert info.value.position == 6

    def test_unexpected_character(self):
        with pytest.raises(OperatorParseError) as info:
            parse_expression("z^1 @ z^2")
        assert info.value.position == 4

    def test_trailing_input(self):
        with pytest.raises(OperatorParseError):
            parse_expression("z^1 z^2")

    def test_unbalanced_paren(self):
        with pytest.raises(OperatorParseError):
            parse_expression("(z^1 + z^2")

    def test_scalar_plus_operator_rejected(self):
        with pytest.raises(OperatorParseError):
            parse_operator("1 + z^1")

    def test_commutator_of_scalars_rejected(self):
        with pytest.raises(OperatorParseError):
            parse_operator("[1, z]")

    def test_scalar_expression_where_operator_needed(self):
        with pytest.raises(OperatorParseError):
            parse_operator("3/4")

    def test_matrix_dim_mismatch(self):
        with pytest.raises(OperatorParseError):
            parse_operator("{{1}}", dim=2)


class TestSymbolExpressions:
    def test_z_power_symbol(self):
        assert parse_symbol("z^2") == multiplication_symbol(LaurentPoly.z_power(2, 1))

    def test_symbol_builtins(self):
        assert parse_symbol("DELTA") == builtin_symbol("DELTA")
        assert parse_symbol("D * D") == builtin_symbol("DELTA")

    def test_star_commutator_brackets(self):
        got = parse_symbol("[D, z^1]")
        expect = star_commutator(builtin_symbol("D"),
                                 multiplication_symbol(LaurentPoly.z_power(1, 1)))
        assert got == expect

    def test_p_zero_is_not_a_symbol_builtin(self):
        with pytest.raises(OperatorParseError):
            parse_symbol("P_ZERO")


class TestDocuments:
    def test_laurent_round_trip(self):
        poly = LaurentPoly(2, {
            -1: MatrixCoeff.unit(2, 0, 1),
            3: MatrixCoeff([[GaussianRational(Fraction(1, 2)), GaussianRational(0)],
                            [GaussianRational(0, 1), GaussianRational(-2)]]),
        })
        doc = laurent_to_document(poly)
        assert laurent_from_document(doc) == poly

    def test_operator_document(self):
        doc = {"dim": 1, "terms": [{"m": 1, "matrix": [[["1", "0"]]]}]}
        assert operator_from_document(doc) == op_z_power(1)

    def test_duplicate_modes_accumulate(self):
        doc = {"dim": 1, "terms": [
            {"m": 0, "matrix": [[["1", "0"]]]},
            {"m": 0, "matrix": [[["2", "0"]]]},
        ]}
        assert operator_from_document(doc) == LatticeOperator.identity(1).scale(3)

    def test_symbol_document(self):
        doc = {"dim": 1, "parts": [
            {"degree": 1, "plus": [{"m": 0, "matrix": [[["1", "0"]]]}],
             "minus": [{"m": 0, "matrix": [[["-1", "0"]]]}]},
        ]}
        assert symbol_from_document(doc) == builtin_symbol("D", depth=1)

    def test_symbol_document_fills_degree_gaps(self):
        doc = {"dim": 1, "parts": [
            {"degree": 1, "plus": [{"m": 0, "matrix": [[["1", "0"]]]}], "minus": []},
            {"degree": -1, "plus": [{"m": 2, "matrix": [[["1", "0"]]]}], "minus": []},
        ]}
        sym = symbol_from_document(doc)
        assert sym.order == 1
        assert sym.depth == 3
        assert sym.part(0).is_zero()

    def test_bad_matrix_shape(self):
        with pytest.raises(OperatorParseError):
            laurent_from_document({"dim": 2, "terms": [
                {"m": 0, "matrix": [[["1", "0"]]]}]})


# -- one expression, two algebras ----------------------------------------------

_SCALARS = st.sampled_from(["2", "-1", "1/2", "i", "3/4*i", "(1+i)"])


def _multiplication_expressions(dim: int):
    """Expressions that denote multiplication operators: z^m, matrix
    literals, scalar multiples, sums, differences, products, commutators."""
    entry = st.one_of(st.just("0"), st.just("1"), _SCALARS)
    matrix = st.lists(st.lists(entry, min_size=dim, max_size=dim),
                      min_size=dim, max_size=dim).map(
        lambda rows: "{" + ",".join("{" + ",".join(r) + "}" for r in rows) + "}")
    leaf = st.one_of(st.integers(-3, 3).map(lambda m: f"z^{m}"), matrix)

    def extend(inner):
        pair = st.tuples(inner, inner)
        return st.one_of(
            pair.map(lambda p: f"({p[0]})+({p[1]})"),
            pair.map(lambda p: f"({p[0]})-({p[1]})"),
            pair.map(lambda p: f"({p[0]})*({p[1]})"),
            pair.map(lambda p: f"[{p[0]}, {p[1]}]"),
            st.tuples(_SCALARS, inner).map(lambda p: f"{p[0]}*({p[1]})"),
            inner.map(lambda e: f"-({e})"),
        )

    return st.recursive(leaf, extend, max_leaves=6)


def _laurent_of_multiplication_operator(op: LatticeOperator) -> LaurentPoly:
    """The Fourier coefficients of a multiplication operator, read off its
    diagonals, each of which must be one constant matrix at every mode."""
    coeffs = {}
    for j, prof in op.diagonals.items():
        assert prof.left == prof.right and not prof.window
        assert prof.left.degree() == 0
        coeffs[j] = prof.entry(0)
    return LaurentPoly(op.dim, coeffs)


@pytest.mark.parametrize("dim", [1, 2])
def test_symbol_of_expression_is_symbol_of_its_operator(dim):
    @settings(max_examples=25, deadline=None)
    @given(_multiplication_expressions(dim))
    def check(text):
        poly = _laurent_of_multiplication_operator(parse_operator(text, dim))
        assert parse_symbol(text, dim) == multiplication_symbol(poly)

    check()
