"""The four benchmark workloads.

Each workload builds its inputs from a seed with the program's own
constructors (that is the set-up the benchmark times), runs one operation
per input through the program's public functions, and checks each output
against `reference`, which the program did not compute.

A workload is a class with `build(seed)`, `run(inp)` and
`check(inp, out)`; `check` returns None or a one-line mismatch message.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no pdocycles sources to benchmark."""


def load_program() -> SimpleNamespace:
    """Import pdocycles from the checkout's src/ and nowhere else."""
    init = SRC / "pdocycles" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no pdocycles package at {init}")
    sys.path.insert(0, str(SRC))
    import pdocycles
    from pdocycles import (cli, exprparse, forms, lattice, laurent, matrices, repro,
                           scalars, symbols)
    if Path(pdocycles.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"pdocycles was imported from {pdocycles.__file__}")
    return SimpleNamespace(cli=cli, exprparse=exprparse, forms=forms, lattice=lattice,
                           laurent=laurent, matrices=matrices, repro=repro,
                           scalars=scalars, symbols=symbols)


def interleave(weights) -> list[int]:
    """Smooth weighted round robin: indices in proportion to weights, spread
    evenly over one period of sum(weights) slots."""
    current = [0] * len(weights)
    total = sum(weights)
    order = []
    for _ in range(total):
        current = [c + w for c, w in zip(current, weights)]
        pick = max(range(len(weights)), key=lambda i: current[i])
        current[pick] -= total
        order.append(pick)
    return order


def draw_scalar(rng: random.Random, nonzero: bool = False) -> tuple:
    """Random (re, im) with re in {-3..3} / {1, 2} and im in {-1, 0, 1}."""
    while True:
        pair = (Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                Fraction(rng.randint(-1, 1)))
        if not nonzero or pair != reference.ZERO:
            return pair


def pair_text(pair) -> list[str]:
    """A reference scalar in the program's printed ["re", "im"] form."""
    return [str(Fraction(pair[0])), str(Fraction(pair[1]))]


ZERO_TEXT = ["0", "0"]


class Closedness:
    """Per-sample work of `verify closedness`: the Chevalley-Eilenberg
    coboundary of the level-k trace cocycle on 2k+1 random span elements,
    with the Hochschild coboundary the CLI reports beside it."""

    name = "closedness"
    # (k, d, degree bound, weight): criterion 5's cells in its proportions.
    CELLS = ((1, 1, 4, 12), (1, 2, 4, 8), (2, 1, 4, 3), (2, 2, 3, 2))
    PERIODS = 5
    # Which generators each element sums (the structure that sets an op's
    # cost) is drawn from this fixed seed, the same in every period of 25
    # ops, so that runs on different seeds, and runs of different lengths,
    # do the same mix of work; the run's seed draws every coefficient.
    SKELETON_SEED = 20126941
    trace_ops = 25

    def __init__(self, pd):
        self.pd = pd

    def build(self, seed: int) -> list:
        pd = self.pd
        rng = random.Random(seed)
        pools = {(d, deg): pd.repro.span_generators(d, deg)
                 for _, d, deg, _ in self.CELLS}
        cochains = {(k, d): pd.forms.chern_cochain(k, d) for k, d, _, _ in self.CELLS}
        period = interleave([w for *_, w in self.CELLS])
        inputs = []
        for _ in range(self.PERIODS):
            skeleton = random.Random(self.SKELETON_SEED)
            for cell in period:
                k, d, deg, _ = self.CELLS[cell]
                pool = pools[(d, deg)]
                args = []
                for _ in range(2 * k + 1):
                    element = pd.lattice.LatticeOperator.zero(d)
                    for _ in range(skeleton.randint(1, 3)):
                        gen = pool[skeleton.randrange(len(pool))]
                        coeff = pd.scalars.GaussianRational(
                            *draw_scalar(rng, nonzero=True))
                        element = element + gen.scale(coeff)
                    args.append(element)
                inputs.append(SimpleNamespace(k=k, dim=d, cochain=cochains[(k, d)],
                                              args=args))
        return inputs

    def run(self, inp):
        forms = self.pd.forms
        ce = forms.ce_coboundary(inp.cochain, *inp.args)
        hochschild = forms.hochschild_coboundary(inp.cochain, *inp.args)
        return ce, hochschild

    def check(self, inp, out):
        ce, hochschild = out
        if ce.to_pair() != ZERO_TEXT:
            return f"k={inp.k} d={inp.dim}: ce coboundary {ce.to_pair()} != 0"
        # The Hochschild value is a diagnostic with no reference value; it
        # must still be a well-formed scalar (this raises if it is not).
        reference.scalar(hochschild.to_pair())
        return None


class Cocycle:
    """In-process `pdocycles cocycle --k 3 --verbose --format structured` on
    six shifts z^m, each m uniform in [-6, 6], d = 1."""

    name = "cocycle"
    K = 3
    MODES = range(-6, 7)
    BLOCKS = 24
    trace_ops = 26

    def __init__(self, pd):
        self.pd = pd

    def build(self, seed: int) -> list:
        # The six exponents are three pairs (x, -x), shuffled: the trace of a
        # product of shifts vanishes unless the exponents sum to 0, so with
        # free draws only about 1% of tuples have a nonzero table row to
        # check.  Each x comes from a Latin-hypercube block of 13 ops, in
        # which every pair takes each value in [-6, 6] once.
        rng = random.Random(seed)
        inputs = []
        for _ in range(self.BLOCKS):
            columns = []
            for _ in range(self.K):
                col = list(self.MODES)
                rng.shuffle(col)
                columns.append(col)
            for xs in zip(*columns):
                ms = [m for x in xs for m in (x, -x)]
                rng.shuffle(ms)
                argv = ["cocycle", "--k", str(self.K), "--verbose",
                        "--format", "structured"] + [f"z^{m}" for m in ms]
                inputs.append(SimpleNamespace(ms=ms, argv=argv))
        return inputs

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pd.cli.main(inp.argv)
        return code, buf.getvalue()

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return f"ms={inp.ms}: exit code {code}"
        result = json.loads(text)["result"]
        rows, value = reference.shift_cocycle_rows(inp.ms)
        if reference.scalar(result["value"]) != (value, 0):
            return f"ms={inp.ms}: value {result['value']} != {value}"
        got = result.get("permutations", [])
        if len(got) != len(rows):
            return f"ms={inp.ms}: {len(got)} permutation rows, expected {len(rows)}"
        for row, (perm, sign, tr) in zip(got, rows):
            if (row["permutation"] != perm or row["sign"] != sign
                    or reference.scalar(row["trace"]) != (tr, 0)):
                return f"ms={inp.ms}: row {row} != {(perm, sign, tr)}"
        return None


class DenseOracle:
    """One case-table cell (m, n) at d = 1: structural curvature applied to
    every mode in [-6, 6], the radius-20 dense-window curvature and its
    exact rank."""

    name = "dense_oracle"
    BOUND = 6
    RADIUS = 20
    trace_ops = 40

    def __init__(self, pd):
        self.pd = pd

    def build(self, seed: int) -> list:
        # Every cell once per cycle, in the seed's order.
        lattice = self.pd.lattice
        cells = [(m, n) for m in range(-self.BOUND, self.BOUND + 1)
                 for n in range(-self.BOUND, self.BOUND + 1)]
        random.Random(seed).shuffle(cells)
        shifts = {m: lattice.op_z_power(m, 1)
                  for m in range(-self.BOUND, self.BOUND + 1)}
        e0 = lattice.basis_vector(1)
        return [SimpleNamespace(m=m, n=n, a=shifts[m], b=shifts[n], e0=e0)
                for m, n in cells]

    def run(self, inp):
        pd = self.pd
        omega = pd.forms.curvature(inp.a, inp.b)
        images = [omega.apply(k, inp.e0) for k in range(-self.BOUND, self.BOUND + 1)]
        dense = pd.repro.dense_curvature(inp.a, inp.b, self.RADIUS)
        return images, dense, pd.lattice.exact_rank(dense)

    def check(self, inp, out):
        images, dense, rank = out
        m, n, r = inp.m, inp.n, self.RADIUS
        for k, image in zip(range(-self.BOUND, self.BOUND + 1), images):
            c = reference.curvature_case(m, n, k)
            want = {k + m + n: [pair_text((c, 0))]} if c else {}
            got = {mode: [x.to_pair() for x in vec] for mode, vec in image.items()}
            if got != want:
                return f"(m,n,k)=({m},{n},{k}): image {got} != {want}"
        if len(dense) != 2 * r + 1:
            return f"(m,n)=({m},{n}): window of size {len(dense)}"
        for k in range(-self.BOUND, self.BOUND + 1):
            c = reference.curvature_case(m, n, k)
            for row in range(-r, r + 1):
                want = pair_text((c, 0)) if c and row == k + m + n else ZERO_TEXT
                if dense[row + r][k + r].to_pair() != want:
                    return f"(m,n)=({m},{n}): dense entry ({row},{k}) != {want}"
        if rank != reference.case_rank(m, n):
            return f"(m,n)=({m},{n}): rank {rank} != {reference.case_rank(m, n)}"
        return None


class Symbols:
    """Residue of a star commutator of two random classical symbols, plus
    the residue pairing of two random multiplication symbols."""

    name = "symbols"
    DIMS = (1, 1, 1, 2)
    PERIODS = 16
    trace_ops = 32

    def __init__(self, pd):
        self.pd = pd

    def _laurent(self, rng, dim: int, degree: int):
        """Raw coefficients mode -> d x d (re, im) matrix, and the program's
        LaurentPoly built from them."""
        raw = {}
        for m in range(-degree, degree + 1):
            if rng.random() < 0.5:
                raw[m] = [[draw_scalar(rng) for _ in range(dim)] for _ in range(dim)]
        if not raw:
            raw[0] = [[(Fraction(int(i == j)), Fraction(0)) for j in range(dim)]
                      for i in range(dim)]
        pd = self.pd
        poly = pd.laurent.LaurentPoly(dim, {
            m: pd.matrices.MatrixCoeff([[pd.scalars.GaussianRational(*x) for x in row]
                                        for row in mat])
            for m, mat in raw.items()})
        return raw, poly

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        symbols = self.pd.symbols
        inputs = []
        for dim in self.DIMS * self.PERIODS:
            a = self.pd.repro.random_symbol(rng, dim)
            b = self.pd.repro.random_symbol(rng, dim)
            p_raw, p = self._laurent(rng, dim, 3)
            q_raw, q = self._laurent(rng, dim, 3)
            inputs.append(SimpleNamespace(
                dim=dim, a=a, b=b, p_raw=p_raw, q_raw=q_raw,
                x=symbols.multiplication_symbol(p),
                y=symbols.multiplication_symbol(q)))
        return inputs

    def run(self, inp):
        symbols = self.pd.symbols
        residue = symbols.wodzicki_residue(symbols.star_commutator(inp.a, inp.b))
        return residue, symbols.radul_cocycle(inp.x, inp.y)

    def check(self, inp, out):
        residue, pairing = out
        if residue.to_pair() != ZERO_TEXT:
            return f"d={inp.dim}: residue of a commutator {residue.to_pair()} != 0"
        want = reference.pairing(inp.p_raw, inp.q_raw, inp.dim)
        if reference.scalar(pairing.to_pair()) != want:
            return f"d={inp.dim}: pairing {pairing.to_pair()} != {pair_text(want)}"
        return None


WORKLOADS = {w.name: w for w in (Closedness, Cocycle, DenseOracle, Symbols)}
