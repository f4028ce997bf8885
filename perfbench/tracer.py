"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each pdocycles module and
the methods of its value classes.  A wrapped module function is rebound
in every pdocycles module that imported it by name, so calls between
modules are seen too.  Each call of a module function or a
`LatticeOperator` method becomes a span (id, name, start, end, parent id,
op id) kept in memory; calls into the value classes (`GaussianRational`,
`MatrixCoeff`, `MatPoly`, `LaurentPoly`) are too many to keep one by one
and are only aggregated.  Every wrapped name aggregates calls, total time
and self time (duration minus the time covered by wrapped callees).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (span name, module, function) for module-level functions.
FUNCTIONS = (
    ("forms.curvature", "forms", "curvature"),
    ("forms.chern_cocycle", "forms", "chern_cocycle"),
    ("forms.chern_permutation_table", "forms", "chern_permutation_table"),
    ("forms.hochschild_coboundary", "forms", "hochschild_coboundary"),
    ("forms.ce_coboundary", "forms", "ce_coboundary"),
    ("lattice.compose", "lattice", "compose"),
    ("lattice.make_profile", "lattice", "make_profile"),
    ("lattice.dense_mul", "lattice", "dense_mul"),
    ("lattice.dense_sub", "lattice", "dense_sub"),
    ("lattice.exact_rank", "lattice", "exact_rank"),
    ("repro.dense_curvature", "repro", "dense_curvature"),
    ("symbols.star_product", "symbols", "star_product"),
    ("symbols.log_laplacian_bracket", "symbols", "log_laplacian_bracket"),
    ("symbols.wodzicki_residue", "symbols", "wodzicki_residue"),
    ("exprparse.parse_expression", "exprparse", "parse_expression"),
    ("exprparse.eval_operator", "exprparse", "eval_operator"),
    ("cli.main", "cli", "main"),
)

# (span prefix, module, class, {attribute: span suffix}, keep spans).
# `lattice.add` is LatticeOperator.__add__, which operator subtraction and
# the `add` alias also reach.
METHODS = (
    ("lattice", "lattice", "LatticeOperator",
     {"__add__": "add", "trace": "trace", "apply": "apply",
      "dense_window": "dense_window"}, True),
    ("scalars", "scalars", "GaussianRational",
     {"__init__": "new", "__add__": "add", "__radd__": "add", "__sub__": "sub",
      "__rsub__": "sub", "__mul__": "mul", "__rmul__": "mul",
      "__truediv__": "div", "__rtruediv__": "div", "__neg__": "neg"}, False),
    ("matrices.MatrixCoeff", "matrices", "MatrixCoeff",
     {"__init__": "init", "zero": "zero", "identity": "identity", "unit": "unit",
      "scalar": "scalar", "__add__": "add", "__sub__": "sub", "__neg__": "neg",
      "__matmul__": "matmul", "scale": "scale", "matvec": "matvec",
      "trace": "trace", "is_zero": "is_zero"}, False),
    ("matrices.MatPoly", "matrices", "MatPoly",
     {"__init__": "init", "zero": "zero", "constant": "constant",
      "index_times": "index_times", "eval": "eval", "__add__": "add",
      "__sub__": "sub", "__neg__": "neg", "__mul__": "mul", "scale": "scale",
      "shift": "shift", "trace_poly": "trace_poly"}, False),
    ("laurent.LaurentPoly", "laurent", "LaurentPoly",
     {"__init__": "init", "zero": "zero", "identity": "identity",
      "z_power": "z_power", "coefficient": "coefficient", "__add__": "add",
      "__sub__": "sub", "__neg__": "neg", "__mul__": "mul", "scale": "scale"},
     False),
)

# Spans whose direct `lattice.compose` children are counted.
COUNT_COMPOSE_IN = ("forms.curvature", "forms.chern_cocycle")
# Spans whose zero results, or whose operands' nonzero entries, are counted.
ZERO_COUNTED = ("lattice.compose", "forms.curvature", "lattice.make_profile")
NNZ_COUNTED = ("lattice.dense_mul", "lattice.dense_sub")

# (metric, unit, better): the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("forms.curvature.calls", "count", "lower"),
    ("forms.curvature.self_s", "s", "lower"),
    ("forms.curvature.total_s", "s", "lower"),
    ("forms.curvature.zero_ratio", "ratio", "lower"),
    ("forms.curvature.compose_calls", "count", "lower"),
    ("lattice.compose.calls", "count", "lower"),
    ("lattice.compose.self_s", "s", "lower"),
    ("lattice.compose.zero_ratio", "ratio", "lower"),
    ("lattice.make_profile.calls", "count", "lower"),
    ("lattice.make_profile.self_s", "s", "lower"),
    ("lattice.make_profile.zero_ratio", "ratio", "lower"),
    ("lattice.make_profile.window_max", "modes", "lower"),
    ("lattice.add.calls", "count", "lower"),
    ("lattice.add.self_s", "s", "lower"),
    ("forms.chern_cocycle.calls", "count", "lower"),
    ("forms.chern_cocycle.self_s", "s", "lower"),
    ("forms.chern_cocycle.total_s", "s", "lower"),
    ("forms.chern_cocycle.compose_calls", "count", "lower"),
    ("forms.chern_permutation_table.self_s", "s", "lower"),
    ("forms.chern_permutation_table.total_s", "s", "lower"),
    ("lattice.trace.calls", "count", "lower"),
    ("lattice.trace.self_s", "s", "lower"),
    ("forms.hochschild_coboundary.total_s", "s", "lower"),
    ("forms.ce_coboundary.total_s", "s", "lower"),
    ("lattice.dense_window.self_s", "s", "lower"),
    ("lattice.dense_mul.calls", "count", "lower"),
    ("lattice.dense_mul.self_s", "s", "lower"),
    ("lattice.dense_mul.nnz_ratio", "ratio", "higher"),
    ("lattice.dense_sub.self_s", "s", "lower"),
    ("lattice.dense_sub.nnz_ratio", "ratio", "higher"),
    ("lattice.exact_rank.self_s", "s", "lower"),
    ("lattice.apply.self_s", "s", "lower"),
    ("repro.dense_curvature.self_s", "s", "lower"),
    ("repro.dense_curvature.total_s", "s", "lower"),
    ("symbols.star_product.calls", "count", "lower"),
    ("symbols.star_product.self_s", "s", "lower"),
    ("symbols.star_product.total_s", "s", "lower"),
    ("symbols.log_laplacian_bracket.self_s", "s", "lower"),
    ("symbols.wodzicki_residue.self_s", "s", "lower"),
    ("laurent.LaurentPoly.mul.calls", "count", "lower"),
    ("laurent.self_s", "s", "lower"),
    ("matrices.MatrixCoeff.init.calls", "count", "lower"),
    ("matrices.MatrixCoeff.zero.calls", "count", "lower"),
    ("matrices.MatrixCoeff.matmul.calls", "count", "lower"),
    ("matrices.MatPoly.eval.calls", "count", "lower"),
    ("matrices.self_s", "s", "lower"),
    ("scalars.mul.calls", "count", "lower"),
    ("scalars.add.calls", "count", "lower"),
    ("scalars.div.calls", "count", "lower"),
    ("scalars.new.calls", "count", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("exprparse.parse_expression.self_s", "s", "lower"),
    ("exprparse.eval_operator.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

# Metrics that repeat exactly between two traced runs of one seed.
DETERMINISTIC_SUFFIXES = (".calls", ".compose_calls", ".zero_ratio", ".nnz_ratio",
                          ".window_max")


def _nonzeros(mat) -> tuple[int, int]:
    return sum(1 for row in mat for x in row if x), sum(len(row) for row in mat)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []       # [name, child seconds, span id or None]
        self.spans: list[tuple] = []      # (id, name, start, end, parent id, op id)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.zeros: dict[str, int] = defaultdict(int)
        self.compose_children: dict[str, int] = defaultdict(int)
        self.nnz: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.window_max = 0
        self.op_id = 0
        self._next_id = 0

    # -- wrapping -----------------------------------------------------------

    def _observe(self, name, args, result):
        """Counts taken at a span boundary, outside the span's timing."""
        if name in NNZ_COUNTED:
            acc = self.nnz[name]
            for mat in args[:2]:
                nz, total = _nonzeros(mat)
                acc[0] += nz
                acc[1] += total
        elif name == "lattice.make_profile":
            if result is None:
                self.zeros[name] += 1
            else:
                self.window_max = max(self.window_max,
                                      result.right_bound - result.left_bound - 1)
        elif result.is_zero():
            self.zeros[name] += 1

    def wrap(self, fn, name: str, keep_spans: bool):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        stats = self.stats[name]
        observe = name in ZERO_COUNTED + NNZ_COUNTED
        count_parent = name == "lattice.compose"
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and count_parent and stack[-1][0] in COUNT_COMPOSE_IN:
                tracer.compose_children[stack[-1][0]] += 1
            if keep_spans:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                frame = [name, 0.0, span_id]
            else:
                frame = [name, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_spans:
                    spans.append((span_id, name, start, end, parent, tracer.op_id))
            if observe:
                t = clock()
                tracer._observe(name, args, result)
                if stack:  # keep the bookkeeping out of the caller's self time
                    stack[-1][1] += clock() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, pd):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "pdocycles" or key.startswith("pdocycles.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(getattr(pd, module), attr, None)
            if original is None:
                continue
            wrapped = self.wrap(original, name, keep_spans=True)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for prefix, module, cls_name, attrs, keep in METHODS:
            cls = getattr(getattr(pd, module), cls_name)
            for attr, suffix in attrs.items():
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                name = f"{prefix}.{suffix}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, keep)))
                else:
                    setattr(cls, attr, self.wrap(raw, name, keep))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
            layer = name.split(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
        for name in ZERO_COUNTED:
            calls = self.stats[name][0]
            out[f"{name}.zero_ratio"] = self.zeros[name] / calls if calls else 0.0
        for name in COUNT_COMPOSE_IN:
            out[f"{name}.compose_calls"] = self.compose_children[name]
        for name in NNZ_COUNTED:
            nz, total = self.nnz[name]
            out[f"{name}.nnz_ratio"] = nz / total if total else 0.0
        out["lattice.make_profile.window_max"] = self.window_max
        return out

    def bases(self) -> dict[str, int]:
        """The base count of every ratio in `metrics`."""
        out = {f"{name}.zero_ratio": self.stats[name][0] for name in ZERO_COUNTED}
        for name in NNZ_COUNTED:
            out[f"{name}.nnz_ratio"] = self.nnz[name][1]
        return out

    def write(self, path, header: dict):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(header)
        doc["stats"] = {name: {"calls": c, "total_s": t, "self_s": s}
                        for name, (c, t, s) in sorted(self.stats.items())}
        doc["bases"] = self.bases()
        doc["span_fields"] = ["id", "name", "start", "end", "parent", "op"]
        doc["span_names"] = names
        doc["spans"] = [[i, index[n], a, b, p, op] for i, n, a, b, p, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
