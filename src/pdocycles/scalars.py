"""Exact complex scalars with rational real and imaginary parts.

Every quantity in this package -- operator entries, symbol coefficients,
cocycle values -- is a :class:`GaussianRational`.  There is no floating
point anywhere; equality of results is always structural.

A value (a + b*i) / d is stored as three Python ints in normal form:
d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1) and two scalars are
equal exactly when their triples are.  Gaussian integers (d == 1) are
combined without any gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from sys import hash_info

_HASH_MODULUS = hash_info.modulus
_HASH_INF = hash_info.inf


def _rational(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, Fraction or "p/q" string."""
    if value.__class__ is Fraction:
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, (Fraction, str)):
        value = Fraction(value)
        return value.numerator, value.denominator
    raise TypeError(f"cannot build an exact rational from {value!r}")


def _triple(other):
    """(a, b, d) of a scalar operand, or None for an unsupported type."""
    if other.__class__ is GaussianRational:
        return other._a, other._b, other._d
    if isinstance(other, int):
        return other, 0, 1
    if isinstance(other, Fraction):
        return other.numerator, 0, other.denominator
    return None


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """A scalar from a triple already in normal form (no checks)."""
    out = _new(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """A scalar from a triple with d > 0, reduced to normal form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> "GaussianRational":
    """(a1 + b1 i)/d1 + (a2 + b2 i)/d2 for two normal-form triples."""
    if d1 == d2:
        if d1 == 1:
            return _make(a1 + a2, b1 + b2, 1)
        return _reduced(a1 + a2, b1 + b2, d1)
    # As in Fraction's addition: with g = gcd(d1, d2), only a prime of g
    # can divide both the new numerators and the new denominator.
    g = gcd(d1, d2)
    if g == 1:
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    a = a1 * t + a2 * s
    b = b1 * t + b2 * s
    g2 = gcd(a, b, g)
    return _make(a // g2, b // g2, s * (d2 // g2))


def _fraction_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


class GaussianRational:
    """Immutable complex number (a + b*i) / d with integer a, b, d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            self._a = re
            self._b = im
            self._d = 1
            return
        p, q = _rational(re)
        r, s = _rational(im)
        # p/q and r/s are reduced, so over d = lcm(q, s) the triple is
        # already in normal form.
        d = q if q == s or s == 1 else s if q == 1 else q * s // gcd(q, s)
        self._a = p * (d // q)
        self._b = r * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is GaussianRational:
            if self._d == 1 and other._d == 1:
                out = _new(GaussianRational)
                out._a = self._a + other._a
                out._b = self._b + other._b
                out._d = 1
                return out
            return _sum(self._a, self._b, self._d, other._a, other._b, other._d)
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, *t)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is GaussianRational:
            return _sum(self._a, self._b, self._d, -other._a, -other._b, other._d)
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, -t[0], -t[1], t[2])

    def __rsub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _sum(-self._a, -self._b, self._d, *t)

    def __mul__(self, other):
        if other.__class__ is GaussianRational:
            a2, b2, d2 = other._a, other._b, other._d
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            a2, b2, d2 = t
        a1, b1 = self._a, self._b
        if b2:
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
        else:
            a = a1 * a2
            b = b1 * a2
        d = self._d * d2
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        out = _new(GaussianRational)
        out._a = a
        out._b = b
        out._d = d
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        a2, b2, d2 = t
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / norm
        a1, b1 = self._a, self._b
        return _reduced(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2),
                        self._d * norm)

    def __rtruediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _make(*t) / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    # -- structure -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if other.__class__ is GaussianRational:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        t = _triple(other)
        if t is None:
            return NotImplemented
        return self._a == t[0] and self._b == t[1] and self._d == t[2]

    def __hash__(self):
        # Equals hash(int)/hash(Fraction) on real values, so mixed-type
        # dict keys behave; this is CPython's rational hash.
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        if d == 1:
            return hash(a)
        dinv = pow(d, -1, _HASH_MODULUS) if d % _HASH_MODULUS else None
        h = _HASH_INF if dinv is None else hash(hash(abs(a)) * dinv)
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

    def is_rational(self) -> bool:
        return not self._b

    # -- formatting ----------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return f"{a}/{d}" if d != 1 else str(a)
        if b == d:
            im = "i"
        elif b == -d:
            im = "-i"
        else:
            im = _fraction_str(b, d) + "i"
        if not a:
            return im
        if b > 0:
            return f"{_fraction_str(a, d)}+{im}"
        return f"{_fraction_str(a, d)}{im}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_pair(self) -> list[str]:
        """Serialize as the two-element ["p/q", "r/s"] form."""
        d = self._d
        if d == 1:
            return [str(self._a), str(self._b)]
        return [_fraction_str(self._a, d), _fraction_str(self._b, d)]

    @classmethod
    def from_pair(cls, pair) -> "GaussianRational":
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            return cls(Fraction(str(pair[0])), Fraction(str(pair[1])))
        if isinstance(pair, (str, int)):
            return cls(Fraction(str(pair)))
        raise TypeError(f"cannot read scalar from {pair!r}")


_new = object.__new__

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)
