"""Reference values the benchmark computes itself, independent of pdocycles.

Scalars here are pairs (re, im) of `Fraction`; no pdocycles code runs in
this module, so a check against it compares the program with an
independent route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

ZERO = (Fraction(0), Fraction(0))


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def scalar(pair) -> tuple:
    """A scalar printed by the program as ["p/q", "r/s"]."""
    return (Fraction(pair[0]), Fraction(pair[1]))


def perm_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def curvature_case(m: int, n: int, k: int) -> int:
    """Coefficient of curvature(z^m, z^n) e_k on e_{k+m+n}:
    [n+k >= 1] - [m+k >= 1] for k >= 1, and 0 for k <= 0."""
    if k < 1:
        return 0
    return int(n + k >= 1) - int(m + k >= 1)


def case_rank(m: int, n: int) -> int:
    """Number of source modes on which curvature(z^m, z^n) is nonzero; it is
    nonzero only for 1 <= k <= max(-m, -n)."""
    return sum(1 for k in range(1, max(-m, -n, 0) + 1) if curvature_case(m, n, k))


def shift_chain_trace(ms, order) -> int:
    """Trace of Omega(a_o0, a_o1) o ... o Omega(a_o(2k-2), a_o(2k-1)) on the
    shifts a_i = z^ms[i], chaining the case rule from the right."""
    if sum(ms) != 0:
        return 0
    top = max(abs(m) for m in ms) + 1
    total = 0
    for k0 in range(1, top + 1):
        k, coeff = k0, 1
        for t in range(len(order) - 2, -1, -2):
            a, b = ms[order[t]], ms[order[t + 1]]
            coeff *= curvature_case(a, b, k)
            if not coeff:
                break
            k += a + b
        total += coeff
    return total


def shift_cocycle_rows(ms):
    """Per-permutation (permutation, sign, trace) rows and the alternated
    value of the trace cocycle on the shifts z^ms, in the order
    itertools.permutations gives."""
    rows = [(list(s), perm_sign(s), shift_chain_trace(ms, s))
            for s in permutations(range(len(ms)))]
    value = Fraction(sum(sign * tr for _, sign, tr in rows), factorial(len(ms)))
    return rows, value


def pairing(p: dict, q: dict, dim: int) -> tuple:
    """Closed form of the level-1 residue pairing of multiplication symbols:
    sum over m of m * tr(p_{-m} q_m), with p, q maps mode -> d x d matrix
    of (re, im) scalars."""
    re, im = Fraction(0), Fraction(0)
    for m, qm in q.items():
        pm = p.get(-m)
        if pm is None or m == 0:
            continue
        for i in range(dim):
            for j in range(dim):
                x = cmul(pm[i][j], qm[j][i])
                re += m * x[0]
                im += m * x[1]
    return (re, im)
