"""Formal classical symbol calculus on the circle.

A symbol is a finite list of homogeneous parts; each part of degree j is
stored as its values on the two rays of nonzero frequencies, i.e. a pair
of matrix Laurent polynomials (value at xi = +1, value at xi = -1) with
the homogeneous extension sigma(x, xi) = plus(x) xi^j for xi > 0 and
minus(x) (-xi)^j for xi < 0.

This gives a computation path for traces of brackets that is independent
of the lattice-operator route: the Wodzicki residue is read off the
degree -1 part, and brackets with log of the Laplacian stay classical
because their symbol is frequency-independent in x.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DepthInsufficient, DimensionMismatch, UnknownBuiltin
from .laurent import LaurentPoly
from .scalars import GaussianRational, ZERO

DEFAULT_DEPTH = 6

# (-i)^a cycles through 1, -i, -1, i.
_MINUS_I_POW = (
    GaussianRational(1),
    GaussianRational(0, -1),
    GaussianRational(-1),
    GaussianRational(0, 1),
)


def x_derivative(poly: LaurentPoly) -> LaurentPoly:
    """d/dx on the circle: Fourier coefficient m picks up a factor i*m."""
    return LaurentPoly(
        poly.dim,
        {m: c.scale(GaussianRational(0, m)) for m, c in poly.coeffs.items()},
    )


class PartialSymbol:
    """One homogeneous component: degree plus the values on the two rays."""

    __slots__ = ("degree", "plus", "minus")

    def __init__(self, degree: int, plus: LaurentPoly, minus: LaurentPoly):
        if plus.dim != minus.dim:
            raise DimensionMismatch("ray values have different dims")
        self.degree = degree
        self.plus = plus
        self.minus = minus

    @property
    def dim(self) -> int:
        return self.plus.dim

    @classmethod
    def zero(cls, degree: int, dim: int) -> "PartialSymbol":
        z = LaurentPoly.zero(dim)
        return cls(degree, z, z)

    def is_zero(self) -> bool:
        return self.plus.is_zero() and self.minus.is_zero()

    def xi_derivative(self) -> "PartialSymbol":
        """d/dxi of the homogeneous extension, one degree lower.

        On the minus ray the (-xi)^j parametrization contributes the sign:
        (plus, minus)_j -> (j*plus, -j*minus)_{j-1}.
        """
        j = self.degree
        return PartialSymbol(j - 1, self.plus.scale(j), self.minus.scale(-j))

    def x_derivative(self) -> "PartialSymbol":
        return PartialSymbol(self.degree, x_derivative(self.plus),
                             x_derivative(self.minus))

    def __add__(self, other: "PartialSymbol") -> "PartialSymbol":
        if self.degree != other.degree:
            raise ValueError("cannot add parts of different degree")
        return PartialSymbol(self.degree, self.plus + other.plus,
                             self.minus + other.minus)

    def scale(self, lam) -> "PartialSymbol":
        return PartialSymbol(self.degree, self.plus.scale(lam),
                             self.minus.scale(lam))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialSymbol):
            return NotImplemented
        return (self.degree == other.degree and self.plus == other.plus
                and self.minus == other.minus)

    def __repr__(self) -> str:
        return f"PartialSymbol(degree={self.degree})"


class FormalSymbol:
    """Truncated classical symbol: parts at degrees order, order-1, ...

    Slots exist down to the truncation depth even when zero, so the depth
    records how far the expansion is known.
    """

    __slots__ = ("dim", "order", "parts")

    def __init__(self, dim: int, order: int, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a symbol needs at least one part slot")
        for t, p in enumerate(parts):
            if p.degree != order - t:
                raise ValueError("part degrees must decrease by one from the order")
            if p.dim != dim:
                raise DimensionMismatch("part dim differs from symbol dim")
        self.dim = dim
        self.order = order
        self.parts = parts

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def lowest_degree(self) -> int:
        return self.order - self.depth + 1

    def part(self, degree: int) -> PartialSymbol:
        """Part at the given degree; zero above the order, error below the
        stored range (the truncation hides it)."""
        if degree > self.order:
            return PartialSymbol.zero(degree, self.dim)
        if degree < self.lowest_degree:
            raise DepthInsufficient(
                f"symbol truncated at degree {self.lowest_degree}, "
                f"degree {degree} not stored")
        return self.parts[self.order - degree]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def truncate(self, depth: int) -> "FormalSymbol":
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth >= self.depth:
            return self
        return FormalSymbol(self.dim, self.order, self.parts[:depth])

    def _normalized(self) -> tuple[int, tuple]:
        """Drop leading and trailing zero parts; used for equality, which
        therefore compares the asserted expansions, not their depths."""
        parts = list(self.parts)
        order = self.order
        while parts and parts[0].is_zero():
            parts.pop(0)
            order -= 1
        while parts and parts[-1].is_zero():
            parts.pop()
        return order, tuple(parts)

    def __add__(self, other: "FormalSymbol") -> "FormalSymbol":
        if self.dim != other.dim:
            raise DimensionMismatch("symbol dims differ")
        order = max(self.order, other.order)
        low = max(self.lowest_degree, other.lowest_degree)
        parts = []
        for degree in range(order, low - 1, -1):
            parts.append(self.part(degree) + other.part(degree))
        return FormalSymbol(self.dim, order, parts)

    def scale(self, lam) -> "FormalSymbol":
        return FormalSymbol(self.dim, self.order,
                            tuple(p.scale(lam) for p in self.parts))

    def __neg__(self) -> "FormalSymbol":
        return self.scale(-1)

    def __sub__(self, other: "FormalSymbol") -> "FormalSymbol":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSymbol):
            return NotImplemented
        if self.dim != other.dim:
            return False
        so, sp = self._normalized()
        oo, op = other._normalized()
        if not sp and not op:
            return True
        return so == oo and sp == op

    def __repr__(self) -> str:
        return (f"FormalSymbol(dim={self.dim}, order={self.order}, "
                f"depth={self.depth})")


# -- constructors -------------------------------------------------------------

def multiplication_symbol(poly: LaurentPoly, depth: int = DEFAULT_DEPTH) -> FormalSymbol:
    """Symbol of a multiplication operator: a single degree-0 part with the
    same value on both rays, padded with exact zeros below."""
    parts = [PartialSymbol(0, poly, poly)]
    parts += [PartialSymbol.zero(-t, poly.dim) for t in range(1, depth)]
    return FormalSymbol(poly.dim, 0, parts)


def builtin_symbol(name: str, dim: int = 1, depth: int = DEFAULT_DEPTH) -> FormalSymbol:
    """Symbols of the built-in operators.

    P_PLUS / P_MINUS are the ray indicators (the formal symbol of the
    Hardy-type spectral projections), D has symbol xi, ABS_D has |xi|,
    DELTA has xi^2.
    """
    ident = LaurentPoly.identity(dim)
    zero = LaurentPoly.zero(dim)
    table = {
        "P_PLUS": (0, ident, zero),
        "P_MINUS": (0, zero, ident),
        "D": (1, ident, -ident),
        "ABS_D": (1, ident, ident),
        "DELTA": (2, ident, ident),
    }
    if name not in table:
        raise UnknownBuiltin(f"no builtin symbol named {name!r}")
    order, plus, minus = table[name]
    parts = [PartialSymbol(order, plus, minus)]
    parts += [PartialSymbol.zero(order - t, dim) for t in range(1, depth)]
    return FormalSymbol(dim, order, parts)


# -- the product --------------------------------------------------------------

def star_product(a: FormalSymbol, b: FormalSymbol) -> FormalSymbol:
    """Composition of symbols:

    (a * b)_l = sum over alpha >= 0 and j + k - alpha = l of
    ((-i)^alpha / alpha!) (d_xi^alpha a_j) (d_x^alpha b_k)

    The result's reliable depth is the smaller operand depth; deeper
    slots would need parts hidden by the operands' truncation.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("symbol dims differ")
    result_depth = min(a.depth, b.depth)
    order = a.order + b.order
    lowest = order - result_depth + 1

    # Iterated xi-derivatives of a's parts and x-derivatives of b's parts.
    # alpha = j + k - l is at most result_depth - 1 over the kept levels.
    max_alpha = result_depth - 1
    dxi: dict[tuple[int, int], PartialSymbol] = {}
    for p in a.parts:
        cur = p
        dxi[(p.degree, 0)] = cur
        for alpha in range(1, max_alpha + 1):
            cur = cur.xi_derivative()
            dxi[(p.degree, alpha)] = cur
    dx: dict[tuple[int, int], PartialSymbol] = {}
    for p in b.parts:
        cur = p
        dx[(p.degree, 0)] = cur
        for alpha in range(1, max_alpha + 1):
            cur = cur.x_derivative()
            dx[(p.degree, alpha)] = cur

    out = []
    for l in range(order, lowest - 1, -1):
        acc = PartialSymbol.zero(l, a.dim)
        for pa in a.parts:
            j = pa.degree
            for pb in b.parts:
                k = pb.degree
                alpha = j + k - l
                if alpha < 0:
                    continue
                da = dxi[(j, alpha)]
                db = dx[(k, alpha)]
                if da.is_zero() or db.is_zero():
                    continue
                coeff = _MINUS_I_POW[alpha % 4] * GaussianRational(
                    Fraction(1, factorial(alpha)))
                term = PartialSymbol(l,
                                     (da.plus * db.plus).scale(coeff),
                                     (da.minus * db.minus).scale(coeff))
                acc = acc + term
        out.append(acc)
    return FormalSymbol(a.dim, order, out)


def star_commutator(a: FormalSymbol, b: FormalSymbol) -> FormalSymbol:
    return star_product(a, b) - star_product(b, a)


# -- ray splitting -------------------------------------------------------------

def symbol_p_plus(a: FormalSymbol) -> FormalSymbol:
    """Keep the positive-frequency ray; an algebra morphism, and equal to
    multiplying by the projection symbol on either side."""
    return FormalSymbol(a.dim, a.order, tuple(
        PartialSymbol(p.degree, p.plus, LaurentPoly.zero(a.dim)) for p in a.parts))


def symbol_p_minus(a: FormalSymbol) -> FormalSymbol:
    return FormalSymbol(a.dim, a.order, tuple(
        PartialSymbol(p.degree, LaurentPoly.zero(a.dim), p.minus) for p in a.parts))


# -- residue and weighted brackets ---------------------------------------------

def wodzicki_residue(a: FormalSymbol) -> GaussianRational:
    """Trace of the zero-mode of the degree -1 part, summed over the two
    rays.  The circle's length cancels the usual 1/(2 pi) normalization.

    Symbols of order below -1 have no degree -1 part and residue zero;
    truncation above degree -1 is an error.
    """
    if a.order < -1:
        return ZERO
    if a.lowest_degree > -1:
        raise DepthInsufficient(
            "degree -1 part not stored; increase the truncation depth")
    p = a.part(-1)
    return p.plus.coefficient(0).trace() + p.minus.coefficient(0).trace()


def log_laplacian_bracket(a: FormalSymbol) -> FormalSymbol:
    """[a, log Delta] as a classical symbol of order ord(a) - 1.

    log Delta has the x-independent symbol 2 log|xi|, so the bracket's
    expansion collapses to xi-derivatives of 2 log|xi| against
    x-derivatives of a; no log terms survive.  On the Fourier side the
    net multiplier of the mode-m coefficient of a_j at level j - alpha is
    2 (-1)^alpha m^alpha / alpha on the plus ray and 2 m^alpha / alpha on
    the minus ray.
    """
    order = a.order - 1
    lowest = order - a.depth + 1
    out = []
    for l in range(order, lowest - 1, -1):
        acc = PartialSymbol.zero(l, a.dim)
        for alpha in range(1, a.order - l + 1):
            j = l + alpha
            if j > a.order or j < a.lowest_degree:
                continue
            src = a.part(j)
            if src.is_zero():
                continue
            plus = LaurentPoly(a.dim, {
                m: c.scale(GaussianRational(Fraction(2 * (-1) ** alpha * m ** alpha, alpha)))
                for m, c in src.plus.coeffs.items()
            })
            minus = LaurentPoly(a.dim, {
                m: c.scale(GaussianRational(Fraction(2 * m ** alpha, alpha)))
                for m, c in src.minus.coeffs.items()
            })
            acc = acc + PartialSymbol(l, plus, minus)
        out.append(acc)
    return FormalSymbol(a.dim, order, out)


def renormalized_bracket_trace(a: FormalSymbol, b: FormalSymbol) -> GaussianRational:
    """Weighted trace of the bracket [a, b], with the Laplacian as weight:
    -(1/2) res(a * [b, log Delta])."""
    return GaussianRational(Fraction(-1, 2)) * wodzicki_residue(
        star_product(a, log_laplacian_bracket(b)))


# Normalization relating the residue pairing below to the operator-level
# k=1 trace cocycle.  Measured against the lattice route (see the
# comparison harness in repro), constant across the tested family; equal
# to the -1/q bracket-trace factor with the order-2 weight.
RADUL_NORMALIZATION = GaussianRational(Fraction(-1, 2))


def radul_cocycle(x: FormalSymbol, y: FormalSymbol) -> GaussianRational:
    """Residue pairing res(sigma_+(x) [sigma_+(y), log Delta]), scaled by
    the calibrated normalization."""
    raw = wodzicki_residue(
        star_product(symbol_p_plus(x), log_laplacian_bracket(symbol_p_plus(y))))
    return RADUL_NORMALIZATION * raw
