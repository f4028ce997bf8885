"""Replication harness: closed-form case analysis for the curvature on
z-powers, sign-count tables, cross-level comparisons and verification
sweeps, and the oracle routes they check against: the operator-valued
form calculus (wedge, bracket, Chevalley-Eilenberg differential), the
commutator formula for the curvature and the dense-window brute force.

Every quantity here is computed along at least two independent routes
(closed-form predicates vs. structural operator arithmetic vs. dense
window brute force) and the routes are required to agree exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import factorial

from .errors import InternalMismatch
from .forms import (
    Cochain,
    ce_coboundary,
    chern_cocycle,
    chern_cochain,
    curvature,
    perm_sign,
    schwinger_cocycle,
    theta,
)
from .lattice import (
    LatticeOperator,
    basis_vector,
    commutator,
    compose,
    dense_mul,
    dense_sub,
    op_abs_derivative,
    op_derivative,
    op_finite,
    op_projection_plus,
    op_z_power,
)
from .laurent import LaurentPoly
from .matrices import MatrixCoeff
from .scalars import GaussianRational, ZERO
from .symbols import (
    FormalSymbol,
    PartialSymbol,
    log_laplacian_bracket,
    multiplication_symbol,
    radul_cocycle,
    star_commutator,
    star_product,
    symbol_p_plus,
    wodzicki_residue,
)


# -- the case analysis of curvature on z-powers -------------------------------

@dataclass(frozen=True)
class CaseVerdict:
    """Action of curvature(z^m, z^n) on the basis mode k: the sign of the
    resulting basis vector (0 when annihilated) and its mode."""

    sign: int
    mode: int | None

    def __post_init__(self):
        if self.sign == 0 and self.mode is not None:
            raise ValueError("sign 0 carries no resulting mode")


def omega_case_classifier(m: int, n: int, k: int) -> CaseVerdict:
    """Closed-form action of curvature(z^m, z^n) on mode k.

    Cases: annihilation for k <= 0 or when both shifted modes stay
    positive; +1 when only the n-shift stays positive; -1 when only the
    m-shift does; and annihilation again when neither does (the
    configuration k > 0, m+k <= 0, n+k <= 0, forced to 0 because both
    composition paths vanish).
    """
    if k <= 0:
        return CaseVerdict(0, None)
    if m + k > 0 and n + k > 0:
        return CaseVerdict(0, None)
    if m + k <= 0 and n + k > 0:
        return CaseVerdict(1, k + m + n)
    if m + k > 0 and n + k <= 0:
        return CaseVerdict(-1, k + m + n)
    return CaseVerdict(0, None)


def _interval_count(lo: int, hi: int) -> int:
    return max(0, hi - lo + 1)


def count_signs(m: int, n: int, p: int, q: int) -> tuple[int, int]:
    """Number of modes on which curvature(z^m,z^n) curvature(z^p,z^q) acts
    with sign +1 resp. -1.

    Computed twice: once by closed-form interval intersection of the sign
    predicates, once by brute enumeration over the provably sufficient
    range |k| <= 2(|m|+|n|+|p|+|q|)+1; a disagreement is an internal bug.
    """
    # Closed form.  The composite acts on mode k through the first factor
    # (sign s1 on k, shift p+q) then the second (sign s2 on k+p+q); the
    # two (s1, s2) sign patterns per outcome are disjoint half-line
    # intersections, hence intervals.
    n1 = (
        _interval_count(max(1, 1 - p - q, 1 - q, 1 - n - p - q),
                        min(-p, -m - p - q))
        + _interval_count(max(1, 1 - p - q, 1 - p, 1 - m - p - q),
                          min(-q, -n - p - q))
    )
    n_minus1 = (
        _interval_count(max(1, 1 - p - q, 1 - q, 1 - m - p - q),
                        min(-p, -n - p - q))
        + _interval_count(max(1, 1 - p - q, 1 - p, 1 - n - p - q),
                          min(-q, -m - p - q))
    )

    # Brute enumeration.
    bound = 2 * (abs(m) + abs(n) + abs(p) + abs(q)) + 1
    brute_n1 = brute_n_minus1 = 0
    for k in range(-bound, bound + 1):
        first = omega_case_classifier(p, q, k)
        if first.sign == 0:
            continue
        second = omega_case_classifier(m, n, k + p + q)
        s = first.sign * second.sign
        if s == 1:
            brute_n1 += 1
        elif s == -1:
            brute_n_minus1 += 1
    if (brute_n1, brute_n_minus1) != (n1, n_minus1):
        raise InternalMismatch(
            f"count_signs closed form {(n1, n_minus1)} != enumeration "
            f"{(brute_n1, brute_n_minus1)} at {(m, n, p, q)}")
    return n1, n_minus1


# -- the 24-permutation table --------------------------------------------------

@dataclass(frozen=True)
class PermutationReport:
    permutation: tuple[int, int, int, int]
    exponents: tuple[int, int, int, int]
    sign: int
    n1: int
    n_minus1: int
    contribution: GaussianRational


@dataclass
class FourCocycleTable:
    exponents: tuple[int, int, int, int]
    dim: int
    rows: list[PermutationReport]
    total: GaussianRational


def four_cocycle_table(m: int, n: int, p: int, q: int, dim: int = 1) -> FourCocycleTable:
    """Per-permutation data of the alternated trace of the squared
    curvature on (z^m, z^n, z^p, z^q); total equals
    chern_cocycle(2, ...) exactly."""
    base = (m, n, p, q)
    rows = []
    total = ZERO
    for s in permutations(range(4)):
        ex = tuple(base[i] for i in s)
        sign = perm_sign(s)
        n1, n_minus1 = count_signs(*ex)
        if sum(ex) == 0:
            contribution = GaussianRational(dim * (n1 - n_minus1))
        else:
            contribution = ZERO
        rows.append(PermutationReport(s, ex, sign, n1, n_minus1, contribution))
        total = total + (contribution if sign > 0 else -contribution)
    total = total * GaussianRational(Fraction(1, 24))
    return FourCocycleTable(base, dim, rows, total)


# -- comparison of the three k=1 routes -----------------------------------------

@dataclass
class ComparisonRow:
    m: int
    chern: GaussianRational
    schwinger: GaussianRational
    radul: GaussianRational


@dataclass
class SchwingerComparison:
    dim: int
    rows: list[ComparisonRow]
    chern_over_schwinger: GaussianRational | None
    radul_over_chern: GaussianRational | None
    constants_m_independent: bool


def schwinger_comparison(ms, dim: int = 1) -> SchwingerComparison:
    """Tabulate the operator-level cocycle, the block cocycle and the
    residue-pairing cocycle on (z^-m, z^m) and measure the ratios.

    The ratios are reported, never assumed: m-independence is the check.
    """
    rows = []
    for m in ms:
        a, b = op_z_power(-m, dim), op_z_power(m, dim)
        sa = multiplication_symbol(LaurentPoly.z_power(-m, dim))
        sb = multiplication_symbol(LaurentPoly.z_power(m, dim))
        rows.append(ComparisonRow(
            m,
            chern_cocycle(1, a, b),
            schwinger_cocycle(a, b),
            radul_cocycle(sa, sb),
        ))
    ratios_cs = {str(r.chern / r.schwinger) for r in rows if r.schwinger}
    ratios_rc = {str(r.radul / r.chern) for r in rows if r.chern}
    ok = (len(ratios_cs) == 1 and len(ratios_rc) == 1
          and all(r.chern and r.schwinger and r.radul for r in rows))
    first = rows[0]
    return SchwingerComparison(
        dim, rows,
        first.chern / first.schwinger if first.schwinger else None,
        first.radul / first.chern if first.chern else None,
        ok,
    )


def measure_radul_normalization(ms, dim: int = 1) -> GaussianRational:
    """Ratio of the operator-level k=1 cocycle to the raw residue pairing,
    measured on (z^-m, z^m) and required to be m-independent."""
    ratios = []
    for m in ms:
        sa = symbol_p_plus(multiplication_symbol(LaurentPoly.z_power(-m, dim)))
        sb = symbol_p_plus(multiplication_symbol(LaurentPoly.z_power(m, dim)))
        raw = wodzicki_residue(star_product(sa, log_laplacian_bracket(sb)))
        ref = chern_cocycle(1, op_z_power(-m, dim), op_z_power(m, dim))
        if not raw:
            raise InternalMismatch(f"raw residue pairing vanished at m={m}")
        ratios.append(ref / raw)
    if any(r != ratios[0] for r in ratios):
        raise InternalMismatch(f"normalization not m-independent: {ratios}")
    return ratios[0]


# -- random sampling -------------------------------------------------------------

def span_generators(dim: int, degree_bound: int,
                    include_abs: bool = False) -> list[LatticeOperator]:
    """Generator pool z^m (x) E_ij, D, z^m (x) E_ij o D (optionally |D|)."""
    deriv = op_derivative(dim)
    gens = [deriv]
    if include_abs:
        gens.append(op_abs_derivative(dim))
    for m in range(-degree_bound, degree_bound + 1):
        for i in range(dim):
            for j in range(dim):
                base = op_z_power(m, dim, MatrixCoeff.unit(dim, i, j))
                gens.append(base)
                gens.append(compose(base, deriv))
    return gens


def random_coefficient(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
        Fraction(rng.randint(-1, 1)),
    )


def random_span_element(rng: random.Random, pool: list[LatticeOperator],
                        max_terms: int = 3) -> LatticeOperator:
    out = LatticeOperator.zero(pool[0].dim)
    for _ in range(rng.randint(1, max_terms)):
        out = out + rng.choice(pool).scale(random_coefficient(rng))
    return out


def random_finite_rank(rng: random.Random, dim: int = 1,
                       mode_bound: int = 3) -> LatticeOperator:
    entries = {}
    for _ in range(rng.randint(1, 4)):
        row = rng.randint(-mode_bound, mode_bound)
        col = rng.randint(-mode_bound, mode_bound)
        block = MatrixCoeff([[random_coefficient(rng) for _ in range(dim)]
                             for _ in range(dim)])
        entries[(row, col)] = block
    return op_finite(dim, entries)


def random_laurent(rng: random.Random, dim: int = 1, degree: int = 2) -> LaurentPoly:
    coeffs = {}
    for m in range(-degree, degree + 1):
        if rng.random() < 0.5:
            coeffs[m] = MatrixCoeff([[random_coefficient(rng) for _ in range(dim)]
                                     for _ in range(dim)])
    if not coeffs:
        coeffs[0] = MatrixCoeff.identity(dim)
    return LaurentPoly(dim, coeffs)


def random_symbol(rng: random.Random, dim: int = 1, order_min: int = -2,
                  order_max: int = 2, depth: int = 6) -> FormalSymbol:
    order = rng.randint(order_min, order_max)
    parts = [PartialSymbol(order - t, random_laurent(rng, dim),
                           random_laurent(rng, dim))
             for t in range(depth)]
    return FormalSymbol(dim, order, parts)


# -- oracle routes: the commutator formula and the form calculus ---------------

def smoothing_part(a: LatticeOperator, b: LatticeOperator) -> LatticeOperator:
    """a [p+, b] p+ - b [p+, a] p+; structurally equal to curvature(a, b)."""
    p = op_projection_plus(a.dim)
    return (compose(compose(a, commutator(p, b)), p)
            - compose(compose(b, commutator(p, a)), p))


def theta_form() -> Cochain:
    return Cochain(1, theta)


def curvature_form() -> Cochain:
    return Cochain(2, curvature)


def form_wedge(alpha: Cochain, beta: Cochain) -> Cochain:
    """(alpha ^ beta)(a_1..a_{p+q}) =
    1/(p! q!) sum over permutations s of sign(s) *
    alpha(first p of s) o beta(last q of s)."""
    p, q = alpha.arity, beta.arity
    norm = GaussianRational(Fraction(1, factorial(p) * factorial(q)))

    def rule(*args):
        total = LatticeOperator.zero(args[0].dim)
        for s in permutations(range(p + q)):
            first = alpha(*(args[i] for i in s[:p]))
            second = beta(*(args[i] for i in s[p:]))
            term = compose(first, second)
            if perm_sign(s) < 0:
                term = -term
            total = total + term
        return total.scale(norm)

    return Cochain(p + q, rule)


def form_bracket(alpha: Cochain, beta: Cochain) -> Cochain:
    """[alpha, beta] = alpha ^ beta - (-1)^{pq} beta ^ alpha."""
    p, q = alpha.arity, beta.arity
    ab = form_wedge(alpha, beta)
    ba = form_wedge(beta, alpha)
    flip = (-1) ** (p * q)

    def rule(*args):
        second = ba(*args)
        if flip > 0:
            return ab(*args) - second
        return ab(*args) + second

    return Cochain(p + q, rule)


def form_differential(alpha: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential:
    (d alpha)(a_0..a_p) = sum_{i<j} (-1)^{i+j} alpha([a_i, a_j], rest)."""
    return Cochain(alpha.arity + 1,
                   lambda *args: ce_coboundary(alpha, *args))


# -- sweeps ----------------------------------------------------------------------

@dataclass
class SweepReport:
    """Outcome of a sweep: how many samples it checked, one message per
    failure, and the sampled tuples when a caller re-evaluates them."""

    checked: int
    failures: list[str]
    rows: list[list[LatticeOperator]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def closedness_sweep(k: int, samples: int, seed: int, degree_bound: int = 3,
                     dim: int = 1, include_abs: bool = False) -> SweepReport:
    """Evaluate the Chevalley-Eilenberg coboundary of the 2k-cocycle on
    random tuples from the generator span; every value must be exactly
    zero.  The report keeps each sampled tuple as a row, so a caller can
    evaluate other cochains (the CLI's Hochschild diagnostic) on the same
    inputs."""
    rng = random.Random(seed)
    pool = span_generators(dim, degree_bound, include_abs)
    cochain = chern_cochain(k, dim)
    rows = []
    failures = []
    for idx in range(samples):
        args = [random_span_element(rng, pool) for _ in range(2 * k + 1)]
        ce = ce_coboundary(cochain, *args)
        rows.append(args)
        if ce:
            failures.append(f"sample {idx} (seed {seed}): ce coboundary = {ce} "
                            f"on {args!r}")
    return SweepReport(samples, failures, rows)


def bianchi_sweep(samples: int, seed: int, degree_bound: int = 3,
                  dim: int = 1) -> SweepReport:
    """Structure equation d theta + theta ^ theta = curvature on random
    pairs, and d curvature + [theta, curvature] = 0 on random triples."""
    rng = random.Random(seed)
    pool = span_generators(dim, degree_bound, include_abs=True)
    th = theta_form()
    om = curvature_form()
    structure = lambda a, b: (form_differential(th)(a, b)
                              + form_wedge(th, th)(a, b))
    bianchi = form_differential(om)
    bracket = form_bracket(th, om)
    failures = []
    for idx in range(samples):
        a, b, c = (random_span_element(rng, pool) for _ in range(3))
        if structure(a, b) != curvature(a, b):
            failures.append(f"sample {idx} (seed {seed}): structure equation "
                            f"failed on {(a, b)!r}")
        if not (bianchi(a, b, c) + bracket(a, b, c)).is_zero():
            failures.append(f"sample {idx} (seed {seed}): bianchi identity "
                            f"failed on {(a, b, c)!r}")
    return SweepReport(samples, failures)


def residue_trace_sweep(samples: int, seed: int, dim: int = 1,
                        depth: int = 6) -> SweepReport:
    """Wodzicki residue of star-commutators of random classical symbols
    with orders in [-2, 2] must vanish."""
    rng = random.Random(seed)
    failures = []
    for idx in range(samples):
        a = random_symbol(rng, dim, depth=depth)
        b = random_symbol(rng, dim, depth=depth)
        r = wodzicki_residue(star_commutator(a, b))
        if r:
            failures.append(f"sample {idx} (seed {seed}): residue of "
                            f"commutator = {r} on {(a, b)!r}")
    return SweepReport(samples, failures)


def trace_commutator_sweep(samples: int, seed: int, degree_bound: int = 3,
                           dim: int = 1) -> SweepReport:
    """trace([F, B]) = 0 for random finite-rank F against arbitrary
    elements B of the generator span (including unbounded ones)."""
    rng = random.Random(seed)
    pool = span_generators(dim, degree_bound, include_abs=True)
    failures = []
    for idx in range(samples):
        f = random_finite_rank(rng, dim)
        b = random_span_element(rng, pool)
        t = commutator(f, b).trace()
        if t:
            failures.append(f"sample {idx} (seed {seed}): trace of "
                            f"commutator = {t} on {(f, b)!r}")
    return SweepReport(samples, failures)


def oracle_sweep(samples: int, seed: int, degree_bound: int = 3,
                 dim: int = 1) -> SweepReport:
    """Structural composition against the dense-window matrix product,
    compared on the interior of the window."""
    rng = random.Random(seed)
    pool = span_generators(dim, degree_bound, include_abs=True)
    s = degree_bound + 1
    n = 3 * s
    failures = []
    d = dim
    for idx in range(samples):
        a = random_span_element(rng, pool)
        b = random_span_element(rng, pool)
        structural = compose(a, b).dense_window(n)
        brute = dense_mul(a.dense_window(n), b.dense_window(n))
        interior = n - 2 * s
        bad = False
        for row_mode in range(-interior, interior + 1):
            for col_mode in range(-interior, interior + 1):
                for r in range(d):
                    for c in range(d):
                        i = (row_mode + n) * d + r
                        j = (col_mode + n) * d + c
                        if structural[i][j] != brute[i][j]:
                            bad = True
        if bad:
            failures.append(f"sample {idx} (seed {seed}): window mismatch "
                            f"on {(a, b)!r}")
    return SweepReport(samples, failures)


# -- three-way case-table check ---------------------------------------------------

def dense_curvature(a: LatticeOperator, b: LatticeOperator, n: int):
    """Curvature computed purely from dense windows (the independent
    brute-force route)."""
    da, db = a.dense_window(n), b.dense_window(n)
    dp = op_projection_plus(a.dim).dense_window(n)
    ap, bp = dense_mul(da, dp), dense_mul(db, dp)
    comm = dense_sub(dense_mul(da, db), dense_mul(db, da))
    return dense_sub(dense_sub(dense_mul(ap, bp), dense_mul(bp, ap)),
                     dense_mul(comm, dp))


def case_table_sweep(bound: int = 6) -> SweepReport:
    """Classifier vs. structural curvature application vs. dense window,
    for all (m, n, k) in the cube [-bound, bound]^3 at d = 1."""
    n_win = 3 * bound + 2
    failures = []
    zs = {m: op_z_power(m, 1) for m in range(-bound, bound + 1)}
    one = GaussianRational(1)
    checked = 0
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            omega = curvature(zs[m], zs[n])
            dense = dense_curvature(zs[m], zs[n], n_win)
            for k in range(-bound, bound + 1):
                checked += 1
                verdict = omega_case_classifier(m, n, k)
                image = omega.apply(k, basis_vector(1))
                if verdict.sign == 0:
                    structural_ok = image == {}
                else:
                    structural_ok = image == {verdict.mode: (one * verdict.sign,)}
                col = [dense[r][k + n_win] for r in range(2 * n_win + 1)]
                expect = [ZERO] * (2 * n_win + 1)
                if verdict.sign != 0:
                    expect[verdict.mode + n_win] = one * verdict.sign
                dense_ok = col == expect
                if not (structural_ok and dense_ok):
                    failures.append(f"(m,n,k)=({m},{n},{k}): "
                                    f"structural={structural_ok} dense={dense_ok}")
    return SweepReport(checked, failures)
