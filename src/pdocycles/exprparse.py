"""Operator and symbol literals: documents and the expression language.

Documents are JSON-shaped dicts.  A multiplication operator is

    {"dim": d, "terms": [{"m": <int>, "matrix": [[[re, im], ...], ...]}]}

with rationals written as "p/q" strings and complex entries as
two-element arrays.  A symbol adds degree annotations:

    {"dim": d, "parts": [{"degree": <int>, "plus": <terms>, "minus": <terms>}]}

Expressions combine named operands with the grammar (see README):
sum and difference, '*' for composition (star product in symbol mode),
[x, y] for commutators, scalar literals p/q and i, z^m shifts,
{{..},{..}} constant-matrix literals, and the named built-ins.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OperatorParseError
from .lattice import (
    LatticeOperator,
    commutator,
    compose,
    op_abs_derivative,
    op_derivative,
    op_from_laurent,
    op_projection_minus,
    op_projection_plus,
    op_projection_zero,
)
from .laurent import LaurentPoly
from .matrices import MatrixCoeff
from .scalars import GaussianRational
from .symbols import (
    DEFAULT_DEPTH,
    FormalSymbol,
    PartialSymbol,
    builtin_symbol,
    multiplication_symbol,
    star_commutator,
    star_product,
)

OPERATOR_BUILTINS = {
    "P_PLUS": op_projection_plus, "P_MINUS": op_projection_minus,
    "P_ZERO": op_projection_zero, "D": op_derivative, "ABS_D": op_abs_derivative,
}
SYMBOL_BUILTINS = ("P_PLUS", "P_MINUS", "D", "ABS_D", "DELTA")

# Deepest nesting an expression may have: each open '(', '[' or '{' and
# each unary sign is one level.  Parsing and evaluation recurse once per
# level, so deeper input is refused (OperatorParseError) instead of
# running out of Python stack.
MAX_EXPRESSION_DEPTH = 100


# -- documents ----------------------------------------------------------------

def matrix_from_json(rows, dim: int) -> MatrixCoeff:
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise OperatorParseError(f"matrix must be {dim}x{dim}")
    return MatrixCoeff([[GaussianRational.from_pair(e) for e in row] for row in rows])


def matrix_to_json(m: MatrixCoeff) -> list:
    return [[e.to_pair() for e in row] for row in m.rows]


def laurent_from_document(doc: dict) -> LaurentPoly:
    dim = int(doc.get("dim", 1))
    coeffs = {}
    for term in doc.get("terms", ()):
        m = int(term["m"])
        block = matrix_from_json(term["matrix"], dim)
        coeffs[m] = coeffs[m] + block if m in coeffs else block
    return LaurentPoly(dim, coeffs)


def laurent_to_document(poly: LaurentPoly) -> dict:
    return {
        "dim": poly.dim,
        "terms": [{"m": m, "matrix": matrix_to_json(c)} for m, c in poly.items()],
    }


def operator_from_document(doc: dict) -> LatticeOperator:
    return op_from_laurent(laurent_from_document(doc))


def symbol_from_document(doc: dict, depth: int | None = None) -> FormalSymbol:
    dim = int(doc.get("dim", 1))
    given = {}
    for part in doc.get("parts", ()):
        degree = int(part["degree"])
        plus = laurent_from_document({"dim": dim, "terms": part.get("plus", ())})
        minus = laurent_from_document({"dim": dim, "terms": part.get("minus", ())})
        given[degree] = PartialSymbol(degree, plus, minus)
    if not given:
        raise OperatorParseError("symbol document has no parts")
    order = max(given)
    lowest = min(given)
    if depth is not None:
        lowest = min(lowest, order - depth + 1)
    parts = [given.get(deg, PartialSymbol.zero(deg, dim))
             for deg in range(order, lowest - 1, -1)]
    return FormalSymbol(dim, order, parts)


# -- tokenizer ----------------------------------------------------------------

_PUNCT = "+-*/^()[]{},"


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise OperatorParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# -- parser (AST of plain tuples) ----------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def descend(self, pos: int):
        """Enter one nesting level."""
        if self.depth == MAX_EXPRESSION_DEPTH:
            raise OperatorParseError(
                f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels", pos)
        self.depth += 1

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise OperatorParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise OperatorParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        kind, _, pos = self.peek()
        if kind not in ("-", "+"):
            return self.atom()
        self.next()
        self.descend(pos)
        node = self.unary()
        self.depth -= 1
        return ("neg", node) if kind == "-" else node

    def _signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.next()
            sign = -1 if tok[0] == "-" else 1
        tok = self.expect("int")
        return sign * tok[1]

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.next()
            num = value
            if self.peek()[0] == "/":
                save = self.pos
                self.next()
                if self.peek()[0] == "int":
                    den = self.next()[1]
                    if den == 0:
                        raise OperatorParseError("zero denominator", pos)
                    return ("num", GaussianRational(Fraction(num, den)), pos)
                self.pos = save
            return ("num", GaussianRational(num), pos)
        if kind == "name":
            self.next()
            if value == "i":
                return ("num", GaussianRational(0, 1), pos)
            if value == "z":
                if self.peek()[0] == "^":
                    self.next()
                    return ("z", self._signed_int(), pos)
                return ("z", 1, pos)
            return ("name", value, pos)
        if kind == "(":
            self.next()
            self.descend(pos)
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if kind == "[":
            self.next()
            self.descend(pos)
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            self.depth -= 1
            return ("comm", left, right)
        if kind == "{":
            return self.matrix()
        raise OperatorParseError(f"unexpected token {value!r}", pos)

    def matrix(self):
        _, _, pos = self.expect("{")
        self.descend(pos)
        rows = []
        while True:
            self.expect("{")
            row = [self.expr()]
            while self.peek()[0] == ",":
                self.next()
                row.append(self.expr())
            self.expect("}")
            rows.append(row)
            if self.peek()[0] == ",":
                self.next()
                continue
            break
        self.expect("}")
        self.depth -= 1
        return ("matrix", rows, pos)


def parse_expression(text: str):
    """Parse to an AST; raises OperatorParseError with the offset."""
    return _Parser(text).parse()


# -- evaluation ----------------------------------------------------------------

_BINARY = ("add", "sub", "mul", "div")


def _fold(node, ev, combine):
    """Evaluate a left-leaning chain of binary nodes such as a+b-c+d: one
    recursion per operand, none per operator, so a long flat sum or
    product needs no deep stack."""
    spine = []
    while node[0] in _BINARY:
        spine.append(node)
        node = node[1]
    acc = ev(node)
    for n in reversed(spine):
        acc = combine(n[0], acc, ev(n[2]))
    return acc


def _combine(kind: str, a, b, product, noun: str):
    """a + b, a - b, a * b or a / b, where a and b are scalars or elements
    of the algebra whose product is `product`."""
    scalar_a = isinstance(a, GaussianRational)
    scalar_b = isinstance(b, GaussianRational)
    if kind in ("add", "sub"):
        if scalar_a != scalar_b:
            raise OperatorParseError(
                f"cannot add a scalar to {noun} (use z^0 for the identity)")
        return a + b if kind == "add" else a - b
    if kind == "mul":
        if scalar_a and scalar_b:
            return a * b
        if scalar_a:
            return b.scale(a)
        if scalar_b:
            return a.scale(b)
        return product(a, b)
    if not scalar_b:
        raise OperatorParseError("can only divide by a scalar")
    if scalar_a:
        return a / b
    return a.scale(GaussianRational(1) / b)


def _eval_matrix(rows, dim: int, evaluator) -> MatrixCoeff:
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise OperatorParseError(
            f"matrix literal must be {dim}x{dim} for this run")
    out = []
    for row in rows:
        entries = []
        for node in row:
            v = evaluator(node)
            if not isinstance(v, GaussianRational):
                raise OperatorParseError("matrix entries must be scalars")
            entries.append(v)
        out.append(entries)
    return MatrixCoeff(out)


def _evaluate(node, dim: int, operands: dict | None, element, builtin,
              product, bracket, noun: str, nouns: str):
    """Evaluate an AST in one algebra, given its pieces: `element(poly)` is
    the element of a LaurentPoly (z^m and matrix literals), `builtin(name)`
    a built-in or None, `product` and `bracket` are '*' and [x, y], and
    `noun`/`nouns` name elements in error messages."""
    env = operands or {}

    def combine(kind, a, b):
        return _combine(kind, a, b, product, noun)

    def ev(n):
        kind = n[0]
        if kind == "num":
            return n[1]
        if kind == "z":
            return element(LaurentPoly.z_power(n[1], dim))
        if kind == "name":
            name = n[1]
            if name in env:
                value = env[name]
                if value.dim != dim:
                    raise OperatorParseError(
                        f"operand {name!r} has dim {value.dim}, run uses {dim}")
                return value
            value = builtin(name)
            if value is None:
                raise OperatorParseError(f"unknown operand {name!r}", n[2])
            return value
        if kind == "matrix":
            return element(LaurentPoly(dim, {0: _eval_matrix(n[1], dim, ev)}))
        if kind == "neg":
            return -ev(n[1])
        if kind in _BINARY:
            return _fold(n, ev, combine)
        if kind == "comm":
            a, b = ev(n[1]), ev(n[2])
            if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
                raise OperatorParseError(f"commutator needs two {nouns}")
            return bracket(a, b)
        raise OperatorParseError(f"unhandled node {kind!r}")

    return ev(node)


def eval_operator(node, dim: int = 1, operands: dict | None = None) -> "LatticeOperator | GaussianRational":
    """Evaluate in the lattice-operator algebra.  '*' composes, scalars
    scale, [x, y] is the commutator."""
    def builtin(name):
        return OPERATOR_BUILTINS[name](dim) if name in OPERATOR_BUILTINS else None

    return _evaluate(node, dim, operands, op_from_laurent, builtin, compose,
                     commutator, "an operator", "operators")


def eval_symbol(node, dim: int = 1, depth: int = DEFAULT_DEPTH,
                operands: dict | None = None) -> "FormalSymbol | GaussianRational":
    """Evaluate in the formal symbol algebra; '*' is the star product."""
    def element(poly):
        return multiplication_symbol(poly, depth)

    def builtin(name):
        return builtin_symbol(name, dim, depth) if name in SYMBOL_BUILTINS else None

    return _evaluate(node, dim, operands, element, builtin, star_product,
                     star_commutator, "a symbol", "symbols")


def parse_operator(text: str, dim: int = 1,
                   operands: dict | None = None) -> LatticeOperator:
    value = eval_operator(parse_expression(text), dim, operands)
    if isinstance(value, GaussianRational):
        raise OperatorParseError(
            f"expression {text!r} is a scalar, not an operator")
    return value


def parse_symbol(text: str, dim: int = 1, depth: int = DEFAULT_DEPTH,
                 operands: dict | None = None) -> FormalSymbol:
    value = eval_symbol(parse_expression(text), dim, depth, operands)
    if isinstance(value, GaussianRational):
        raise OperatorParseError(
            f"expression {text!r} is a scalar, not a symbol")
    return value
