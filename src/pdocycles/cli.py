"""Command-line front door.

Subcommands: omega (curvature of two operator expressions), cocycle
(alternating trace cocycles), residue (Wodzicki residue of a symbol
expression), verify (randomized identity sweeps) and repro (fixed
replication targets).  Output is either a plain-text table or a single
structured JSON document; identical configuration yields byte-identical
structured output.

Exit codes: 0 success, 1 verification/assertion failure, 2 usage or
parse errors and inputs refused by a size budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import repro
from .errors import (
    BudgetExceeded,
    OperatorParseError,
    PdoCyclesError,
    ReproAssertionFailed,
)
from .exprparse import (
    laurent_from_document,
    matrix_to_json,
    operator_from_document,
    parse_operator,
    parse_symbol,
    symbol_from_document,
)
from .forms import (
    chern_cochain,
    chern_cocycle,
    chern_expansion,
    curvature,
    hochschild_coboundary,
)
from .lattice import exact_rank, op_z_power
from .scalars import GaussianRational, ZERO
from .symbols import (
    DEFAULT_DEPTH,
    multiplication_symbol,
    radul_cocycle,
    wodzicki_residue,
)


@dataclass
class RunConfig:
    command: str
    dim: int = 1
    seed: int = 0
    samples: int = 50
    degree: int = 3
    depth: int = DEFAULT_DEPTH
    k: int = 1
    fmt: str = "table"

    def validate(self):
        if self.dim < 1:
            raise ValueError("--dim must be >= 1")
        if self.depth < 2:
            raise ValueError("--depth must be >= 2 for residue computations")
        if self.k < 1:
            raise ValueError("--k must be >= 1")
        if self.samples < 1:
            raise ValueError("--samples must be >= 1")
        if self.degree < 0:
            raise ValueError("--degree must be >= 0")

    def echo(self) -> dict:
        return {"command": self.command, "dim": self.dim, "seed": self.seed,
                "samples": self.samples, "degree": self.degree,
                "depth": self.depth, "k": self.k, "format": self.fmt}


def _emit(doc: dict, lines: list[str], fmt: str):
    if fmt == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_operands(path: str | None, dim: int, read) -> dict:
    """Named operands from a JSON file of literal documents, each turned
    into an element by `read` and required to have the run's dim."""
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path} is not a JSON object of named literals")
    out = {}
    for name, doc in raw.items():
        if not isinstance(doc, dict):
            raise ValueError(f"operand {name!r} is not a literal document")
        try:
            value = read(doc)
        except (KeyError, TypeError, ArithmeticError) as exc:
            raise ValueError(f"operand {name!r} is malformed "
                             f"({type(exc).__name__}: {exc})") from exc
        if value.dim != dim:
            raise OperatorParseError(
                f"operand {name!r} has dim {value.dim}, run uses {dim}")
        out[name] = value
    return out


def _support_rank(entries: dict, dim: int) -> int:
    """Exact rank of a finite-rank operator on its support block: one row
    per (source mode, component) and one column per (target mode,
    component), for the modes its entries occupy."""
    sources = sorted({col for _, col in entries})
    targets = {mode: i for i, mode in
               enumerate(sorted({row for row, _ in entries}))}
    source_index = {mode: i for i, mode in enumerate(sources)}
    block = [[ZERO] * (len(targets) * dim) for _ in range(len(sources) * dim)]
    for (row, col), m in entries.items():
        for r in range(dim):
            for c in range(dim):
                block[source_index[col] * dim + c][targets[row] * dim + r] = m.rows[r][c]
    return exact_rank(block)


# -- subcommands ----------------------------------------------------------------

def cmd_omega(args) -> int:
    cfg = RunConfig("omega", dim=args.dim, fmt=args.format)
    cfg.validate()
    operands = _load_operands(args.operands, args.dim, operator_from_document)
    om = curvature(parse_operator(args.a, args.dim, operands),
                   parse_operator(args.b, args.dim, operands))
    support = om.finite_rank_support()
    blocks = om.finite_entries()
    rank = _support_rank(blocks, om.dim)
    entries = [(r, c, m) for (r, c), m in sorted(blocks.items())]

    doc = {
        "command": "omega", "config": cfg.echo(),
        "result": {
            "support": None if support is None or support.source is None else {
                "source": list(support.source),
                "target": list(support.target),
                "rank_bound": support.rank_bound,
            },
            "rank": rank,
            "entries": [{"row": r, "col": c, "value": matrix_to_json(m)}
                        for r, c, m in entries],
        },
    }
    lines = [f"omega(a, b)  dim={args.dim}"]
    if support is None or support.source is None:
        lines.append("zero operator (empty support, rank 0)")
    else:
        lines.append(f"source modes [{support.source[0]}, {support.source[1]}], "
                     f"target modes [{support.target[0]}, {support.target[1]}], "
                     f"rank bound {support.rank_bound}")
        lines.append(f"rank: {rank}")
        lines.append("entries:")
        for r, c, m in entries:
            if om.dim == 1:
                lines.append(f"  ({r},{c}) = {m.rows[0][0]}")
            else:
                body = "; ".join(", ".join(str(e) for e in row) for row in m.rows)
                lines.append(f"  ({r},{c}) = [{body}]")
    _emit(doc, lines, args.format)
    return 0


def cmd_cocycle(args) -> int:
    cfg = RunConfig("cocycle", dim=args.dim, k=args.k, depth=args.depth,
                    fmt=args.format)
    cfg.validate()
    if len(args.operands_expr) != 2 * args.k:
        print(f"error: cocycle --k {args.k} needs {2 * args.k} operands, "
              f"got {len(args.operands_expr)}", file=sys.stderr)
        return 2
    if args.level == "symbol":
        if args.k != 1:
            raise ValueError("--level symbol supports k=1 only "
                             "(the residue-pairing cocycle is bilinear)")
        if args.verbose:
            raise ValueError("--verbose prints the permutation table of the "
                             "operator level; --level symbol has none")
        operands = _load_operands(
            args.operands, args.dim,
            lambda doc: multiplication_symbol(laurent_from_document(doc),
                                              args.depth))
        value = radul_cocycle(*(parse_symbol(text, args.dim, args.depth, operands)
                                for text in args.operands_expr))
        doc = {"command": "cocycle", "config": cfg.echo(), "level": "symbol",
               "result": {"value": value.to_pair()}}
        _emit(doc, [f"cocycle k=1 (symbol level) dim={args.dim}",
                    f"value: {value}"], args.format)
        return 0
    operands = _load_operands(args.operands, args.dim, operator_from_document)
    expansion = chern_expansion(
        args.k, *(parse_operator(text, args.dim, operands)
                  for text in args.operands_expr))
    value = expansion.value
    doc = {"command": "cocycle", "config": cfg.echo(), "level": "operator",
           "result": {"value": value.to_pair()}}
    lines = [f"cocycle k={args.k} dim={args.dim}", f"value: {value}"]
    if args.verbose:
        rows = expansion.table()
        doc["result"]["permutations"] = [
            {"permutation": list(s), "sign": sign, "trace": t.to_pair()}
            for s, sign, t in rows
        ]
        lines.append("permutation table:")
        for s, sign, t in rows:
            lines.append(f"  s={s} sign={sign:+d} trace={t}")
    _emit(doc, lines, args.format)
    return 0


def cmd_residue(args) -> int:
    cfg = RunConfig("residue", dim=args.dim, depth=args.depth, fmt=args.format)
    cfg.validate()
    operands = _load_operands(args.operands, args.dim,
                              lambda doc: symbol_from_document(doc, args.depth))
    value = wodzicki_residue(parse_symbol(args.expr, args.dim, args.depth,
                                          operands))
    doc = {"command": "residue", "config": cfg.echo(),
           "result": {"value": value.to_pair()}}
    _emit(doc, [f"residue depth={args.depth} dim={args.dim}",
                f"value: {value}"], args.format)
    return 0


def cmd_verify(args) -> int:
    cfg = RunConfig("verify", dim=args.dim, seed=args.seed, samples=args.samples,
                    degree=args.degree, depth=args.depth, k=args.k,
                    fmt=args.format)
    cfg.validate()
    extra = {}
    if args.kind == "closedness":
        rep = repro.closedness_sweep(args.k, args.samples, args.seed,
                                     args.degree, args.dim)
        cochain = chern_cochain(args.k, args.dim)
        extra["hochschild_diagnostic"] = [
            hochschild_coboundary(cochain, *tup).to_pair()
            for tup in rep.rows]
    elif args.kind == "bianchi":
        rep = repro.bianchi_sweep(args.samples, args.seed, args.degree, args.dim)
    elif args.kind == "residue-trace":
        rep = repro.residue_trace_sweep(args.samples, args.seed, args.dim,
                                        args.depth)
    else:  # oracle
        rep = repro.oracle_sweep(args.samples, args.seed, args.degree, args.dim)
    failures, checked = rep.failures, rep.checked

    ok = not failures
    doc = {"command": "verify", "kind": args.kind, "config": cfg.echo(),
           "checked": checked, "failures": failures, "ok": ok}
    doc.update(extra)
    lines = [f"verify {args.kind}: checked {checked} samples, "
             f"{'PASS' if ok else 'FAIL'}"]
    for f in failures:
        lines.append(f"  counterexample: {f}")
    _emit(doc, lines, args.format)
    return 0 if ok else 1


def _four_cocycle_assertions(table, dim: int):
    ident = next(r for r in table.rows if r.permutation == (0, 1, 2, 3))
    two_d = GaussianRational(2 * dim)
    checks = [
        ("identity pairing trace equals 2d",
         ident.contribution == two_d,
         f"got {ident.contribution}, want {two_d}"),
        ("sign counts lie in {0,2}^2",
         all(r.n1 in (0, 2) and r.n_minus1 in (0, 2) for r in table.rows), ""),
        ("even permutations have n_minus1 = 0",
         all(r.n_minus1 == 0 for r in table.rows if r.sign == 1),
         "fails for mixed-pair permutations"),
        ("odd permutations have n1 = 0",
         all(r.n1 == 0 for r in table.rows if r.sign == -1),
         "fails for mixed-pair permutations"),
        ("alternated total is positive",
         bool(table.total) and table.total.im == 0 and table.total.re > 0,
         f"exact total is {table.total}"),
    ]
    return checks


def cmd_repro(args) -> int:
    cfg = RunConfig("repro", dim=args.dim, fmt=args.format)
    cfg.validate()
    if args.target == "case-table":
        rep = repro.case_table_sweep(6)
        doc = {"command": "repro", "target": "case-table", "config": cfg.echo(),
               "checked": rep.checked, "failures": rep.failures, "ok": rep.ok}
        lines = [f"repro case-table: {rep.checked} triples over [-6,6]^3, "
                 f"{'PASS' if rep.ok else 'FAIL'}"]
        _emit(doc, lines, args.format)
        if not rep.ok:
            raise ReproAssertionFailed("case-table mismatches: "
                                       + "; ".join(rep.failures[:5]))
        return 0

    if args.target == "schwinger":
        rep = repro.schwinger_comparison(range(1, 6), args.dim)
        rows_doc = [{"m": r.m, "chern": r.chern.to_pair(),
                     "schwinger": r.schwinger.to_pair(),
                     "radul": r.radul.to_pair()} for r in rep.rows]
        doc = {"command": "repro", "target": "schwinger", "config": cfg.echo(),
               "rows": rows_doc,
               "chern_over_schwinger": rep.chern_over_schwinger.to_pair(),
               "radul_over_chern": rep.radul_over_chern.to_pair(),
               "ok": rep.constants_m_independent}
        lines = ["repro schwinger comparison (m = 1..5):",
                 "  m | chern | schwinger | radul"]
        for r in rep.rows:
            lines.append(f"  {r.m} | {r.chern} | {r.schwinger} | {r.radul}")
        lines.append(f"measured chern/schwinger = {rep.chern_over_schwinger}, "
                     f"radul/chern = {rep.radul_over_chern}")
        lines.append("constants m-independent: "
                     + ("PASS" if rep.constants_m_independent else "FAIL"))
        _emit(doc, lines, args.format)
        if not rep.constants_m_independent:
            raise ReproAssertionFailed("comparison constants depend on m")
        return 0

    # four-cocycle
    table = repro.four_cocycle_table(-2, 2, -3, 3, args.dim)
    checks = _four_cocycle_assertions(table, args.dim)
    internal = table.total == chern_cocycle(
        2, *(op_z_power(m, args.dim) for m in (-2, 2, -3, 3)))
    rows_doc = [{"permutation": list(r.permutation),
                 "exponents": list(r.exponents), "sign": r.sign,
                 "n1": r.n1, "n_minus1": r.n_minus1,
                 "contribution": r.contribution.to_pair()}
                for r in table.rows]
    doc = {"command": "repro", "target": "four-cocycle", "config": cfg.echo(),
           "exponents": [-2, 2, -3, 3], "rows": rows_doc,
           "total": table.total.to_pair(),
           "total_matches_operator_route": internal,
           "assertions": [{"name": name, "ok": ok, "detail": detail}
                          for name, ok, detail in checks]}
    lines = [f"repro four-cocycle at (z^-2, z^2, z^-3, z^3), dim={args.dim}",
             "  permutation | exponents | sign | n1 | n-1 | contribution"]
    for r in table.rows:
        lines.append(f"  {r.permutation} | {str(r.exponents):>16} | {r.sign:+d} "
                     f"| {r.n1} | {r.n_minus1} | {r.contribution}")
    lines.append(f"alternated total: {table.total}")
    lines.append(f"total matches operator route: {internal}")
    for name, ok, detail in checks:
        suffix = "" if ok or not detail else f" ({detail})"
        lines.append(f"assert {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    _emit(doc, lines, args.format)
    failed = [name for name, ok, _ in checks if not ok]
    if not internal:
        failed.append("total matches operator route")
    if failed:
        raise ReproAssertionFailed("failed assertions: " + "; ".join(failed))
    return 0


# -- argument parsing -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdocycles",
        description="Exact curvature cocycles on the Fourier lattice of the circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--dim", type=int, default=1, help="fiber dimension d")
        p.add_argument("--format", choices=("table", "structured"),
                       default="table")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--samples", type=int, default=50)
            p.add_argument("--degree", type=int, default=3,
                           help="degree bound for random elements")

    p_omega = sub.add_parser("omega", help="curvature of two operator expressions")
    p_omega.add_argument("a")
    p_omega.add_argument("b")
    p_omega.add_argument("--operands", help="JSON file of named operator literals")
    common(p_omega)
    p_omega.set_defaults(func=cmd_omega)

    p_coc = sub.add_parser("cocycle", help="alternating trace cocycle of 2k operators")
    p_coc.add_argument("--k", type=int, default=1)
    p_coc.add_argument("operands_expr", nargs="+", metavar="operand")
    p_coc.add_argument("--operands", help="JSON file of named operator literals")
    p_coc.add_argument("--verbose", action="store_true",
                       help="include the permutation table")
    p_coc.add_argument("--level", choices=("operator", "symbol"),
                       default="operator",
                       help="operator-level trace cocycle or the symbol-level "
                            "residue pairing (k=1)")
    p_coc.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    common(p_coc)
    p_coc.set_defaults(func=cmd_cocycle)

    p_res = sub.add_parser("residue", help="Wodzicki residue of a symbol expression")
    p_res.add_argument("expr")
    p_res.add_argument("--operands", help="JSON file of named symbol literals")
    p_res.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    common(p_res)
    p_res.set_defaults(func=cmd_residue)

    p_ver = sub.add_parser("verify", help="randomized identity sweeps")
    p_ver.add_argument("kind", choices=("closedness", "bianchi",
                                        "residue-trace", "oracle"))
    p_ver.add_argument("--k", type=int, default=1)
    p_ver.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    common(p_ver, seeded=True)
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("repro", help="fixed replication targets")
    p_rep.add_argument("target", choices=("four-cocycle", "schwinger",
                                          "case-table"))
    common(p_rep)
    p_rep.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OperatorParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ReproAssertionFailed as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except (PdoCyclesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
