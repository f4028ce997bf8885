"""Square matrices of exact scalars and polynomials with matrix coefficients."""

from __future__ import annotations

from math import comb

from .errors import DimensionMismatch
from .scalars import GaussianRational, ONE, ZERO


class MatrixCoeff:
    """A d x d matrix of GaussianRational entries.

    Used both as a Fourier coefficient of a matrix-valued function on the
    circle and as a single lattice entry of an operator.  Immutable: the
    zero and identity matrices of each dimension are shared.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise ValueError("matrix must be square and non-empty")
        self.dim = d
        self.rows = rows

    @classmethod
    def zero(cls, dim: int) -> "MatrixCoeff":
        m = _ZEROS.get(dim)
        if m is None:
            m = _ZEROS[dim] = cls(((ZERO,) * dim,) * dim)
        return m

    @classmethod
    def identity(cls, dim: int) -> "MatrixCoeff":
        m = _IDENTITIES.get(dim)
        if m is None:
            m = _IDENTITIES[dim] = cls.scalar(dim, ONE)
        return m

    @classmethod
    def unit(cls, dim: int, i: int, j: int) -> "MatrixCoeff":
        """Matrix unit E_ij."""
        return cls(
            tuple(
                tuple(ONE if (r, c) == (i, j) else ZERO for c in range(dim))
                for r in range(dim)
            )
        )

    @classmethod
    def scalar(cls, dim: int, value) -> "MatrixCoeff":
        lam = value if isinstance(value, GaussianRational) else GaussianRational(value)
        return cls(
            tuple(
                tuple(lam if i == j else ZERO for j in range(dim))
                for i in range(dim)
            )
        )

    def _check(self, other: "MatrixCoeff"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"matrix dims {self.dim} != {other.dim}")

    def __add__(self, other: "MatrixCoeff") -> "MatrixCoeff":
        self._check(other)
        return _matrix(self.dim, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "MatrixCoeff") -> "MatrixCoeff":
        self._check(other)
        return _matrix(self.dim, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "MatrixCoeff":
        return _matrix(self.dim, tuple(tuple(-a for a in row) for row in self.rows))

    def __matmul__(self, other: "MatrixCoeff") -> "MatrixCoeff":
        self._check(other)
        cols = tuple(zip(*other.rows))
        return _matrix(self.dim, tuple(
            tuple(_dot(row, col) for col in cols) for row in self.rows))

    def scale(self, lam) -> "MatrixCoeff":
        if not isinstance(lam, GaussianRational):
            lam = GaussianRational(lam)
        if not lam:
            return MatrixCoeff.zero(self.dim)
        return _matrix(self.dim, tuple(tuple(a * lam for a in row) for row in self.rows))

    def matvec(self, vec) -> tuple:
        return tuple(_dot(row, vec) for row in self.rows)

    def trace(self) -> GaussianRational:
        return sum((self.rows[i][i] for i in range(self.dim)), ZERO)

    def is_zero(self) -> bool:
        for row in self.rows:
            if any(row):
                return False
        return True

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixCoeff):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(a) for a in row) for row in self.rows)
        return f"MatrixCoeff[{body}]"


_new = object.__new__
_ZEROS: dict[int, MatrixCoeff] = {}
_IDENTITIES: dict[int, MatrixCoeff] = {}


def _matrix(dim: int, rows: tuple) -> MatrixCoeff:
    """A matrix from a tuple of dim row tuples of dim scalars (no checks)."""
    m = _new(MatrixCoeff)
    m.dim = dim
    m.rows = rows
    return m


def _dot(row, col) -> GaussianRational:
    """Sum of the products of the nonzero pairs of entries."""
    acc = ZERO
    for a, b in zip(row, col):
        if a and b:
            acc = a * b if acc is ZERO else acc + a * b
    return acc


class MatPoly:
    """Polynomial in the lattice index k with MatrixCoeff coefficients.

    Coefficients are stored lowest degree first and kept trimmed, so two
    polynomials are equal iff their coefficient tuples are.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.dim = dim
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, dim: int) -> "MatPoly":
        return cls(dim)

    @classmethod
    def constant(cls, m: MatrixCoeff) -> "MatPoly":
        return cls(m.dim, (m,))

    @classmethod
    def index_times(cls, m: MatrixCoeff) -> "MatPoly":
        """The polynomial k |-> k * m."""
        return cls(m.dim, (MatrixCoeff.zero(m.dim), m))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def eval(self, k: int) -> MatrixCoeff:
        """The matrix self(k), by Horner's rule on each entry."""
        coeffs = self.coeffs
        if len(coeffs) <= 1 or not k:
            return coeffs[0] if coeffs else MatrixCoeff.zero(self.dim)
        top, *lower = [c.rows for c in reversed(coeffs)]
        out = []
        for i, top_row in enumerate(top):
            row = []
            for j, acc in enumerate(top_row):
                for c in lower:
                    acc = acc * k + c[i][j]
                row.append(acc)
            out.append(tuple(row))
        return _matrix(self.dim, tuple(out))

    def __add__(self, other: "MatPoly") -> "MatPoly":
        if self.dim != other.dim:
            raise DimensionMismatch("polynomial dims differ")
        short, long = sorted((self.coeffs, other.coeffs), key=len)
        out = [a + b for a, b in zip(short, long)]
        out.extend(long[len(short):])
        return MatPoly(self.dim, out)

    def __neg__(self) -> "MatPoly":
        return MatPoly(self.dim, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        return self + (-other)

    def __mul__(self, other: "MatPoly") -> "MatPoly":
        """Pointwise product k |-> self(k) @ other(k); coefficient order
        preserved since k is central."""
        if self.dim != other.dim:
            raise DimensionMismatch("polynomial dims differ")
        if self.is_zero() or other.is_zero():
            return MatPoly.zero(self.dim)
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                term = a @ b
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        zero = MatrixCoeff.zero(self.dim)
        return MatPoly(self.dim, [zero if c is None else c for c in out])

    def scale(self, lam) -> "MatPoly":
        return MatPoly(self.dim, tuple(c.scale(lam) for c in self.coeffs))

    def shift(self, s: int) -> "MatPoly":
        """Precompose with k |-> k + s."""
        if s == 0 or self.is_zero():
            return self
        out = list(self.coeffs)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for t in range(i):
                out[t] = out[t] + a.scale(comb(i, t) * s ** (i - t))
        return MatPoly(self.dim, out)

    def trace_poly(self) -> tuple:
        """The scalar polynomial k |-> tr(self(k)), trimmed."""
        traces = [c.trace() for c in self.coeffs]
        while traces and not traces[-1]:
            traces.pop()
        return tuple(traces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "MatPoly(0)"
        return f"MatPoly(deg={self.degree()})"
