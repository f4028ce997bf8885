"""Operator-valued forms, curvature, and trace cocycles.

The connection form sends a to a o p_plus; its curvature takes values in
finite-rank operators, so tracing wedge powers of it yields exact
alternating multilinear functionals.  This module provides the
connection and its curvature, the trace cocycles, both coboundary
operators, the Schwinger block cocycle and the non-exactness witness
search.  The form calculus and the other independent routes to the
curvature are oracles in `repro`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, product
from operator import add, itemgetter
from math import factorial
from typing import Callable

from .errors import (
    BlockNotTraceComputable,
    BudgetExceeded,
    NotCommuting,
    NotTraceComputable,
)
from .lattice import (
    LatticeOperator,
    commutator,
    compose,
    op_finite,
    op_projection_plus,
)
from .matrices import MatrixCoeff
from .scalars import GaussianRational, ZERO


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of distinct indices."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# -- the connection and its curvature ---------------------------------------

# Largest number of source modes J on which `curvature` builds the
# curvature.  Each mode costs O(#diagonals^2) block products, and the
# omega command's rank runs on a block with J*d rows; past this budget the
# kernel refuses the input (BudgetExceeded) instead of starting.
CURVATURE_MODE_BUDGET = 1024

# Largest level k for which `chern_expansion` traces the permutation
# classes: (2k)!/(2^k k) of them, 630 at k = 4 and 22680 at k = 5, whose
# --verbose table would have (2k)! = 3628800 rows.  A larger k is refused
# (BudgetExceeded) before any curvature is built.
CHERN_LEVEL_BUDGET = 4


def theta(a: LatticeOperator) -> LatticeOperator:
    """Connection form: a composed with the positive-mode projection."""
    return compose(a, op_projection_plus(a.dim))


def curvature_modes(a: LatticeOperator, b: LatticeOperator) -> int:
    """J = -(most negative diagonal offset of a or b), or 0 when there is
    none: curvature(a, b) lives on the source modes 1..J."""
    return max(0, -min(chain(a.diagonals, b.diagonals), default=0))


def _nonzero_column(op: LatticeOperator, mode: int) -> list:
    """(offset j, block) for every nonzero entry of op on the source mode."""
    column = []
    for j, prof in op.diagonals.items():
        block = prof.entry(mode)
        if not block.is_zero():
            column.append((j, block))
    return column


def curvature(a: LatticeOperator, b: LatticeOperator) -> LatticeOperator:
    """theta_a theta_b - theta_b theta_a - theta_[a,b]; always finite rank.

    With the strict projection P+ (modes k >= 1) the definition reduces
    to (b P<=0 a - a P<=0 b) P+.  So the curvature is built on its support
    directly: on a source mode k in 1..J the block to mode k + j1 + j2 is
    b_{j2}(k + j1) @ a_{j1}(k) for every k + j1 <= 0, minus the same with
    a and b exchanged.
    """
    a._check(b)
    span = curvature_modes(a, b)
    if span > CURVATURE_MODE_BUDGET:
        raise BudgetExceeded(
            f"the curvature would live on {span} source modes (a diagonal "
            f"offset of {-span}); the budget is {CURVATURE_MODE_BUDGET}")
    entries: dict[tuple[int, int], MatrixCoeff] = {}
    for first, then, negate in ((a, b, False), (b, a, True)):
        columns: dict[int, list] = {}  # the columns of `then` on modes <= 0
        for j1, p1 in first.diagonals.items():
            for k in range(1, 1 - j1):
                x = p1.entry(k)
                if x.is_zero():
                    continue
                mid = k + j1
                if mid not in columns:
                    columns[mid] = _nonzero_column(then, mid)
                for j2, y in columns[mid]:
                    block = y @ x
                    if block.is_zero():
                        continue
                    if negate:
                        block = -block
                    key = (mid + j2, k)
                    entries[key] = entries[key] + block if key in entries else block
    return op_finite(a.dim, entries)


# -- cochains and their coboundaries -----------------------------------------

@dataclass(frozen=True)
class Cochain:
    """Alternating multilinear map on operator tuples, with operator
    values (a form) or scalar values, represented by its defining rule."""

    arity: int
    rule: Callable

    def __call__(self, *args: LatticeOperator):
        if len(args) != self.arity:
            raise ValueError(f"cochain of arity {self.arity} got {len(args)} arguments")
        return self.rule(*args)


def ce_coboundary(c: Cochain, *args: LatticeOperator):
    """Chevalley-Eilenberg coboundary of a p-cochain (p >= 1), evaluated on
    p+1 operators: sum_{i<j} (-1)^{i+j} c([a_i, a_j], ...omit i, j...)."""
    if len(args) != c.arity + 1:
        raise ValueError(f"expected {c.arity + 1} arguments, got {len(args)}")
    n = len(args)
    terms = []
    for i, j in combinations(range(n), 2):
        rest = [args[t] for t in range(n) if t not in (i, j)]
        value = c(commutator(args[i], args[j]), *rest)
        terms.append(-value if (i + j) % 2 else value)
    return reduce(add, terms)


# The trace cocycle sums sign(s) tr(omega(s1, s2) ... omega(s(2k-1), s(2k)))
# over s in S_2k.  Swapping the two indices of a pair negates both the
# curvature factor and sign(s); rotating the pairs cyclically keeps sign(s)
# and, since the factors are finite rank, the trace.  So sign(s) times the
# trace is constant on the classes these moves generate, each class holds
# 2^k k permutations, and one trace per class, (2k)!/(2^k k) in all, gives
# the value and every row of the permutation table.  A class is named by
# its representative: pairs in increasing order, the pair holding 0 first.


def _columns(op: LatticeOperator) -> dict[int, dict[int, MatrixCoeff]]:
    """Finite-rank operator as source mode -> {target mode: block}."""
    cols: dict[int, dict[int, MatrixCoeff]] = {}
    for (row, col), block in op.finite_entries().items():
        cols.setdefault(col, {})[row] = block
    return cols


def _then(x: dict, y: dict) -> dict:
    """The product x o y of two operators in column form."""
    out = {}
    for col, y_col in y.items():
        acc: dict[int, MatrixCoeff] = {}
        for mid, y_block in y_col.items():
            for row, x_block in x.get(mid, {}).items():
                block = x_block @ y_block
                acc[row] = acc[row] + block if row in acc else block
        acc = {row: block for row, block in acc.items() if not block.is_zero()}
        if acc:
            out[col] = acc
    return out


def _trace(y: dict) -> GaussianRational:
    """tr(y) for an operator in column form."""
    return sum((y_col[col].trace() for col, y_col in y.items() if col in y_col),
               ZERO)


def _pair_trace(x: dict, y: dict) -> GaussianRational:
    """tr(x o y) for operators in column form, without forming x o y."""
    total = ZERO
    for col, y_col in y.items():
        for mid, y_block in y_col.items():
            x_block = x.get(mid, {}).get(col)
            if x_block is not None:
                total = total + (x_block @ y_block).trace()
    return total


@dataclass(frozen=True)
class ChernExpansion:
    """The level-k trace cocycle on one operator tuple, as one term per
    permutation class: (representative, trace of its curvature product)."""

    k: int
    terms: tuple[tuple[tuple[int, ...], GaussianRational], ...]

    @property
    def value(self) -> GaussianRational:
        """1/(2k)! * sum over S_2k of sign(s) tr(...), summed by class."""
        total = ZERO
        for rep, trace in self.terms:
            total = total + trace if perm_sign(rep) > 0 else total - trace
        k = self.k
        return total * GaussianRational(Fraction(2 ** k * k, factorial(2 * k)))

    def table(self):
        """Every permutation s of S_2k, in itertools order, as
        (s, sign(s), trace of its curvature product).

        Each term stands for the 2^k k members of its class: every cyclic
        rotation of the representative's pairs, with every subset of the
        pairs swapped.  A rotation of pairs is an even permutation, so a
        member with an odd number of swapped pairs carries -sign, -trace.
        """
        rows = []
        for rep, trace in self.terms:
            sign = perm_sign(rep)
            signed = ((sign, trace), (-sign, -trace))
            pairs = [rep[t:t + 2] for t in range(0, len(rep), 2)]
            for r in range(self.k):
                for member in product(*((p, p[::-1]) for p in pairs[r:] + pairs[:r])):
                    swaps = sum(i > j for i, j in member)
                    rows.append((sum(member, ()), *signed[swaps % 2]))
        rows.sort(key=itemgetter(0))
        return rows


def chern_expansion(k: int, *args: LatticeOperator) -> ChernExpansion:
    """Trace one curvature product per permutation class of S_2k.

    Products are shared along common prefixes, and the last factor is
    only paired against the prefix for the trace, never multiplied out.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if len(args) != 2 * k:
        raise ValueError(f"expected {2 * k} arguments, got {len(args)}")
    if k > CHERN_LEVEL_BUDGET:
        b = CHERN_LEVEL_BUDGET
        raise BudgetExceeded(
            f"level k={k} is above the budget k <= {b}; the cocycle traces "
            f"(2k)!/(2^k k) permutation classes, {factorial(2 * b) // (2 ** b * b)} "
            f"at k = {b}")
    omegas: dict[tuple[int, int], dict] = {}

    def omega(i: int, j: int) -> dict:
        if (i, j) not in omegas:
            omegas[(i, j)] = _columns(curvature(args[i], args[j]))
        return omegas[(i, j)]

    terms = []

    def walk(rep: tuple[int, ...], rest: list[int], prefix: dict | None):
        pairs = ([(0, j) for j in rest[1:]] if not rep
                 else combinations(rest, 2))
        for i, j in pairs:
            remaining = [t for t in rest if t not in (i, j)]
            if remaining:
                factor = omega(i, j)
                walk(rep + (i, j), remaining,
                     factor if prefix is None else _then(prefix, factor))
            elif prefix is None:
                terms.append((rep + (i, j), _trace(omega(i, j))))
            else:
                terms.append((rep + (i, j), _pair_trace(prefix, omega(i, j))))

    walk((), list(range(2 * k)), None)
    return ChernExpansion(k, tuple(terms))


def chern_cocycle(k: int, *args: LatticeOperator) -> GaussianRational:
    """Alternating trace of the k-th power of the curvature:

    1/(2k)! * sum over s in S_2k of sign(s) *
    tr(curvature(a_s1, a_s2) o ... o curvature(a_s(2k-1), a_s(2k)))
    """
    return chern_expansion(k, *args).value


def chern_cochain(k: int, dim: int = 1) -> Cochain:
    return Cochain(2 * k, lambda *args: chern_cocycle(k, *args))


def hochschild_coboundary(c: Cochain, *args: LatticeOperator) -> GaussianRational:
    """Hochschild coboundary for multilinear functionals:

    (b c)(a_0..a_p) = sum_{i<p} (-1)^i c(.., a_i a_{i+1}, ..)
                      + (-1)^p c(a_p a_0, a_1, .., a_{p-1})
    """
    p = c.arity
    if len(args) != p + 1:
        raise ValueError(f"expected {p + 1} arguments, got {len(args)}")
    total = ZERO
    for i in range(p):
        merged = list(args[:i]) + [compose(args[i], args[i + 1])] + list(args[i + 2:])
        value = c(*merged)
        if i % 2:
            value = -value
        total = total + value
    wrap = c(compose(args[p], args[0]), *args[1:p])
    if p % 2:
        wrap = -wrap
    return total + wrap


# -- comparison cocycles -----------------------------------------------------

def schwinger_cocycle(a: LatticeOperator, b: LatticeOperator) -> GaussianRational:
    """Off-diagonal block cocycle tr(a_{+-} b_{-+} - b_{+-} a_{-+}),
    blocks taken against the positive-mode projection with the constant
    mode counted in the minus block."""
    if a.dim != b.dim:
        raise ValueError("operands must share the fiber dimension")
    plus = op_projection_plus(a.dim)
    minus = LatticeOperator.identity(a.dim) - plus
    a_pm = compose(compose(plus, a), minus)
    a_mp = compose(compose(minus, a), plus)
    b_pm = compose(compose(plus, b), minus)
    b_mp = compose(compose(minus, b), plus)
    try:
        return compose(a_pm, b_mp).trace() - compose(b_pm, a_mp).trace()
    except NotTraceComputable as exc:
        raise BlockNotTraceComputable(str(exc)) from exc


def schwinger_cochain(dim: int = 1) -> Cochain:
    return Cochain(2, schwinger_cocycle)


def nonvanishing_witness(c: Cochain, family) -> tuple | None:
    """First tuple from a pairwise-commuting family on which c is nonzero.

    A hit certifies that c is not a coboundary on any Lie algebra
    containing the family: coboundaries of anything vanish identically
    on commuting tuples.
    """
    family = list(family)
    for x, y in combinations(family, 2):
        if not commutator(x, y).is_zero():
            raise NotCommuting("family contains a non-commuting pair")
    for candidate in combinations(family, c.arity):
        if c(*candidate):
            return tuple(candidate)
    return None
