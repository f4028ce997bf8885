"""Exactly representable operators on the Fourier lattice of the circle.

The class handled here consists of operators with finitely many
generalized diagonals, each described by a polynomial left tail, a
polynomial right tail and a finite exceptional window in between.  It
contains multiplication operators, the derivative D, |D|, the Hardy-type
spectral projections, and every finite-rank operator with finite mode
support, and it is closed under composition -- so all arithmetic below
is exact and total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, DimensionMismatch, NotTraceComputable
from .laurent import LaurentPoly
from .matrices import MatPoly, MatrixCoeff
from .scalars import GaussianRational, ZERO


# Most modes a sum or pointwise product of two profiles may have to fill
# between its bounds.  Both estimate the span from their operands' bounds
# and refuse a wider one (BudgetExceeded) before evaluating any entry, so
# an expression such as P_PLUS*z^-10000000 is refused at once instead of
# filling a window of ten million modes.
PROFILE_WINDOW_BUDGET = 1 << 14


class DiagonalProfile:
    """One generalized diagonal: entry(k) = left(k) for k <= left_bound,
    right(k) for k >= right_bound, and window.get(k, 0) strictly in
    between.

    Instances are produced canonicalized (via :func:`make_profile`), so
    profile equality is plain structural equality.
    """

    __slots__ = ("left", "left_bound", "window", "right_bound", "right")

    def __init__(self, left: MatPoly, left_bound: int, window: dict,
                 right_bound: int, right: MatPoly):
        self.left = left
        self.left_bound = left_bound
        self.window = window
        self.right_bound = right_bound
        self.right = right

    @property
    def dim(self) -> int:
        return self.left.dim

    def entry(self, k: int) -> MatrixCoeff:
        if k <= self.left_bound:
            return self.left.eval(k)
        if k >= self.right_bound:
            return self.right.eval(k)
        return self.window.get(k, MatrixCoeff.zero(self.dim))

    def is_pure_window(self) -> bool:
        return self.left.is_zero() and self.right.is_zero()

    def window_modes(self):
        return sorted(self.window)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiagonalProfile):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.left_bound == other.left_bound
                and self.right_bound == other.right_bound
                and self.window == other.window)

    def __repr__(self) -> str:
        return (f"DiagonalProfile(left_deg={self.left.degree()}, "
                f"bounds=({self.left_bound},{self.right_bound}), "
                f"window={len(self.window)}, right_deg={self.right.degree()})")


def make_profile(left: MatPoly, left_bound: int, window: dict,
                 right_bound: int, right: MatPoly) -> DiagonalProfile | None:
    """Canonicalize a raw profile description; None means the zero profile.

    Canonical form: the right polynomial region is extended maximally
    leftward, then the left region maximally rightward below it, and the
    window keeps only nonzero entries strictly between the bounds.  A
    profile that is a single polynomial everywhere gets bounds (-1, 0).
    """
    if left_bound >= right_bound:
        raise ValueError("left_bound must be < right_bound")
    dim = left.dim
    zero_m = MatrixCoeff.zero(dim)
    win = {k: v for k, v in window.items()
           if left_bound < k < right_bound and not v.is_zero()}

    def entry(k: int) -> MatrixCoeff:
        if k <= left_bound:
            return left.eval(k)
        if k >= right_bound:
            return right.eval(k)
        return win.get(k, zero_m)

    if left == right:
        exceptions = [k for k in range(left_bound + 1, right_bound)
                      if win.get(k, zero_m) != left.eval(k)]
        if not exceptions:
            if left.is_zero():
                return None
            return DiagonalProfile(left, -1, {}, 0, right)
        lo, hi = min(exceptions) - 1, max(exceptions) + 1
        new_win = {k: win[k] for k in range(lo + 1, hi) if k in win}
        return DiagonalProfile(left, lo, new_win, hi, right)

    # left != right: the two tails meet at a genuine transition.
    hi = right_bound
    while entry(hi - 1) == right.eval(hi - 1):
        hi -= 1
    lo = min(left_bound, hi - 1)
    while lo + 1 < hi and entry(lo + 1) == left.eval(lo + 1):
        lo += 1
    new_win = {}
    for k in range(lo + 1, hi):
        v = entry(k)
        if not v.is_zero():
            new_win[k] = v
    return DiagonalProfile(left, lo, new_win, hi, right)


def _profile_shift(p: DiagonalProfile, s: int) -> DiagonalProfile | None:
    """The profile k |-> p(k + s)."""
    if s == 0:
        return p
    return make_profile(
        p.left.shift(s), p.left_bound - s,
        {k - s: v for k, v in p.window.items()},
        p.right_bound - s, p.right.shift(s),
    )


def _window_span(p: DiagonalProfile, q: DiagonalProfile) -> tuple[int, int]:
    """The bounds (lo, hi) of a profile combining p and q entrywise; refused
    when more than PROFILE_WINDOW_BUDGET modes lie strictly between them."""
    lo = min(p.left_bound, q.left_bound)
    hi = max(p.right_bound, q.right_bound)
    if hi - lo - 1 > PROFILE_WINDOW_BUDGET:
        raise BudgetExceeded(
            f"a profile window of {hi - lo - 1} modes (between modes {lo} and "
            f"{hi}); the budget is {PROFILE_WINDOW_BUDGET}")
    return lo, hi


def _profile_add(p: DiagonalProfile, q: DiagonalProfile) -> DiagonalProfile | None:
    lo, hi = _window_span(p, q)
    window = {k: p.entry(k) + q.entry(k) for k in range(lo + 1, hi)}
    return make_profile(p.left + q.left, lo, window, hi, p.right + q.right)


def _profile_mul(p: DiagonalProfile, q: DiagonalProfile) -> DiagonalProfile | None:
    """Pointwise matrix product k |-> p(k) @ q(k)."""
    lo, hi = _window_span(p, q)
    window = {k: p.entry(k) @ q.entry(k) for k in range(lo + 1, hi)}
    return make_profile(p.left * q.left, lo, window, hi, p.right * q.right)


def _profile_scale(p: DiagonalProfile, lam) -> DiagonalProfile | None:
    return make_profile(
        p.left.scale(lam), p.left_bound,
        {k: v.scale(lam) for k, v in p.window.items()},
        p.right_bound, p.right.scale(lam),
    )


@dataclass(frozen=True)
class FiniteRankSupport:
    """Bounding mode intervals of a finite-rank operator.

    source/target are inclusive (lo, hi) intervals, or None for the zero
    operator; rank_bound is d * min(#source modes, #target modes).
    """

    source: tuple[int, int] | None
    target: tuple[int, int] | None
    rank_bound: int


class LatticeOperator:
    """Operator with finitely many generalized diagonals.

    diagonals maps the offset j to the profile of entries entry(k+j, k);
    the operator sends basis mode k to modes k + j.  Stored profiles are
    canonical and never zero, so operator equality is structural.
    """

    __slots__ = ("dim", "diagonals")

    def __init__(self, dim: int, diagonals: dict | None = None):
        self.dim = dim
        diags: dict[int, DiagonalProfile] = {}
        for j, p in (diagonals or {}).items():
            if p is None:
                continue
            if p.dim != dim:
                raise DimensionMismatch("profile dim differs from operator dim")
            diags[int(j)] = p
        self.diagonals = diags

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int = 1) -> "LatticeOperator":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int = 1) -> "LatticeOperator":
        p = make_profile(MatPoly.constant(MatrixCoeff.identity(dim)), -1, {}, 0,
                         MatPoly.constant(MatrixCoeff.identity(dim)))
        return cls(dim, {0: p})

    def entry(self, row: int, col: int) -> MatrixCoeff:
        prof = self.diagonals.get(row - col)
        if prof is None:
            return MatrixCoeff.zero(self.dim)
        return prof.entry(col)

    def is_zero(self) -> bool:
        return not self.diagonals

    def _check(self, other: "LatticeOperator"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"operator dims {self.dim} != {other.dim}")

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "LatticeOperator") -> "LatticeOperator":
        self._check(other)
        out = dict(self.diagonals)
        for j, q in other.diagonals.items():
            if j in out:
                merged = _profile_add(out[j], q)
                if merged is None:
                    del out[j]
                else:
                    out[j] = merged
            else:
                out[j] = q
        return LatticeOperator(self.dim, out)

    def __neg__(self) -> "LatticeOperator":
        return self.scale(-1)

    def __sub__(self, other: "LatticeOperator") -> "LatticeOperator":
        return self + (-other)

    def scale(self, lam) -> "LatticeOperator":
        if not isinstance(lam, GaussianRational):
            lam = GaussianRational(lam)
        if not lam:
            return LatticeOperator.zero(self.dim)
        return LatticeOperator(
            self.dim, {j: _profile_scale(p, lam) for j, p in self.diagonals.items()}
        )

    def __mul__(self, other):
        if isinstance(other, LatticeOperator):
            return compose(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeOperator):
            return NotImplemented
        return self.dim == other.dim and self.diagonals == other.diagonals

    def __repr__(self) -> str:
        if not self.diagonals:
            return f"LatticeOperator(dim={self.dim}, 0)"
        js = ",".join(str(j) for j in sorted(self.diagonals))
        return f"LatticeOperator(dim={self.dim}, diagonals=[{js}])"

    # -- evaluation -------------------------------------------------------

    def apply(self, k: int, vec) -> dict[int, tuple]:
        """Image of the basis mode k carrying vector vec, as a finitely
        supported map target mode -> vector."""
        out = {}
        for j, prof in self.diagonals.items():
            w = prof.entry(k).matvec(vec)
            if any(w):
                out[k + j] = w
        return out

    def dense_window(self, n: int) -> list[list[GaussianRational]]:
        """Exact restriction to modes -n..n as a (2n+1)d square matrix.

        Row/column index (k + n) * d + component.
        """
        if n < 0:
            raise ValueError("window radius must be >= 0")
        d = self.dim
        size = (2 * n + 1) * d
        mat = [[ZERO] * size for _ in range(size)]
        for j, prof in self.diagonals.items():
            for k in range(-n, n + 1):
                row_mode = k + j
                if not -n <= row_mode <= n:
                    continue
                block = prof.entry(k)
                if block.is_zero():
                    continue
                for r in range(d):
                    for c in range(d):
                        v = block.rows[r][c]
                        if v:
                            mat[(row_mode + n) * d + r][(k + n) * d + c] = v
        return mat

    # -- structure probes ---------------------------------------------------

    def finite_rank_support(self) -> FiniteRankSupport | None:
        """Mode intervals and a rank bound, present iff every diagonal is a
        pure finite window (the smoothing elements of this class)."""
        sources: set[int] = set()
        targets: set[int] = set()
        for j, prof in self.diagonals.items():
            if not prof.is_pure_window():
                return None
            for k in prof.window_modes():
                sources.add(k)
                targets.add(k + j)
        if not sources:
            return FiniteRankSupport(None, None, 0)
        return FiniteRankSupport(
            (min(sources), max(sources)),
            (min(targets), max(targets)),
            self.dim * min(len(sources), len(targets)),
        )

    def finite_entries(self) -> dict[tuple[int, int], MatrixCoeff]:
        """The nonzero blocks (target mode, source mode) -> MatrixCoeff of
        an operator whose diagonals are all pure finite windows; the
        inverse of op_finite."""
        entries = {}
        for j, prof in self.diagonals.items():
            if not prof.is_pure_window():
                raise ValueError("operator has a polynomial tail, so it is "
                                 "not finite rank")
            for k, block in prof.window.items():
                entries[(k + j, k)] = block
        return entries

    def trace(self) -> GaussianRational:
        """Sum of the per-mode matrix traces of the main diagonal.

        Requires the scalar traces of the diagonal's polynomial tails to
        vanish identically -- the per-mode trace is then eventually zero
        on both sides and the sum is finite.
        """
        prof = self.diagonals.get(0)
        if prof is None:
            return ZERO
        if prof.left.trace_poly() or prof.right.trace_poly():
            raise NotTraceComputable(
                "main diagonal has a non-vanishing scalar-trace tail")
        total = ZERO
        for k in range(prof.left_bound + 1, prof.right_bound):
            total = total + prof.entry(k).trace()
        return total


# -- generator operators --------------------------------------------------

def op_from_laurent(poly: LaurentPoly) -> LatticeOperator:
    """Multiplication operator: sends e_k (x) v to sum_m e_{k+m} (x) P_m v."""
    diags = {}
    for m, coeff in poly.coeffs.items():
        diags[m] = make_profile(MatPoly.constant(coeff), -1, {}, 0,
                                MatPoly.constant(coeff))
    return LatticeOperator(poly.dim, diags)


def op_z_power(m: int, dim: int = 1, coeff: MatrixCoeff | None = None) -> LatticeOperator:
    return op_from_laurent(LaurentPoly.z_power(m, dim, coeff))


def op_projection_plus(dim: int = 1) -> LatticeOperator:
    """Projection onto strictly positive modes."""
    p = make_profile(MatPoly.zero(dim), 0, {}, 1,
                     MatPoly.constant(MatrixCoeff.identity(dim)))
    return LatticeOperator(dim, {0: p})


def op_projection_minus(dim: int = 1) -> LatticeOperator:
    """Projection onto strictly negative modes."""
    p = make_profile(MatPoly.constant(MatrixCoeff.identity(dim)), -1, {}, 0,
                     MatPoly.zero(dim))
    return LatticeOperator(dim, {0: p})


def op_projection_zero(dim: int = 1) -> LatticeOperator:
    """Rank-d projection onto the constant mode."""
    p = make_profile(MatPoly.zero(dim), -1, {0: MatrixCoeff.identity(dim)}, 1,
                     MatPoly.zero(dim))
    return LatticeOperator(dim, {0: p})


def op_derivative(dim: int = 1) -> LatticeOperator:
    """D = -i d/dx: eigenvalue k on mode k."""
    p = make_profile(MatPoly.index_times(MatrixCoeff.identity(dim)), -1, {}, 0,
                     MatPoly.index_times(MatrixCoeff.identity(dim)))
    return LatticeOperator(dim, {0: p})


def op_abs_derivative(dim: int = 1) -> LatticeOperator:
    """|D|: eigenvalue |k| on mode k."""
    p = make_profile(-MatPoly.index_times(MatrixCoeff.identity(dim)), -1, {}, 0,
                     MatPoly.index_times(MatrixCoeff.identity(dim)))
    return LatticeOperator(dim, {0: p})


def op_finite(dim: int, entries: dict) -> LatticeOperator:
    """Finite-rank operator from explicit entries (target_mode, source_mode)
    -> MatrixCoeff."""
    per_diagonal: dict[int, dict[int, MatrixCoeff]] = {}
    for (row, col), block in entries.items():
        per_diagonal.setdefault(row - col, {})[col] = block
    diags = {}
    for j, window in per_diagonal.items():
        lo = min(window) - 1
        hi = max(window) + 1
        diags[j] = make_profile(MatPoly.zero(dim), lo, window, hi, MatPoly.zero(dim))
    return LatticeOperator(dim, diags)


# -- arithmetic entry points ------------------------------------------------

def compose(a: LatticeOperator, b: LatticeOperator) -> LatticeOperator:
    """Exact composition a o b.

    Diagonal j of the product is sum over j1 + j2 = j of
    (profile_{j1} of a shifted by j2) pointwise-times profile_{j2} of b.
    """
    a._check(b)
    acc: dict[int, DiagonalProfile] = {}
    for j1, p1 in a.diagonals.items():
        for j2, p2 in b.diagonals.items():
            shifted = _profile_shift(p1, j2)
            if shifted is None:
                continue
            term = _profile_mul(shifted, p2)
            if term is None:
                continue
            j = j1 + j2
            if j in acc:
                merged = _profile_add(acc[j], term)
                if merged is None:
                    del acc[j]
                else:
                    acc[j] = merged
            else:
                acc[j] = term
    return LatticeOperator(a.dim, acc)


def commutator(a: LatticeOperator, b: LatticeOperator) -> LatticeOperator:
    return compose(a, b) - compose(b, a)


# -- dense-window helpers (brute-force oracle side) --------------------------

def dense_mul(a: list[list[GaussianRational]],
              b: list[list[GaussianRational]]) -> list[list[GaussianRational]]:
    """Plain matrix product with zero skipping; the independent route used
    by oracle checks."""
    n = len(a)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        row_out = out[i]
        for t in range(n):
            v = row_a[t]
            if not v:
                continue
            row_b = b[t]
            for j in range(n):
                w = row_b[j]
                if w:
                    row_out[j] = row_out[j] + v * w
    return out


def dense_sub(a, b):
    """Entrywise a - b; an entry of a is kept as it is where b is zero."""
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_trace(a) -> GaussianRational:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def exact_rank(mat: list[list[GaussianRational]]) -> int:
    """Rank over the exact scalar field by Gaussian elimination."""
    rows = [list(r) for r in mat if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                ratio = f / pv
                rows[r] = [x - ratio * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def basis_vector(dim: int, component: int = 0) -> tuple:
    return tuple(GaussianRational(1 if i == component else 0) for i in range(dim))
