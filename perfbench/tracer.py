"""Outside-in tracing of the xnalg layers for the per-layer metrics.

The benchmark wraps the public functions of each module at the name their
callers look up (module globals, names imported into other modules, class
attributes), so nothing under ``src/`` changes.  Every wrapped call records a
span (name, parent span, start, end) in compact arrays.  The spans of one
request stay in memory until the request ends, then ``fold`` turns them into
per-name call counts and self times (span time minus the time of its child
spans).  Counters that need the arguments or result of a call are taken by
hooks right after the span closes.
"""

from __future__ import annotations

import sys
import time
from array import array

# name -> (module, attribute path).  Each is a layer boundary named in the
# benchmark's per-layer metrics.
TARGETS = {
    "cli.run_command": ("xnalg.cli", "run_command"),
    "cohomology.hh_profile": ("xnalg.cohomology", "hh_profile"),
    "cohomology.build_slice": ("xnalg.cohomology", "build_slice"),
    "cohomology.bracket_table": ("xnalg.cohomology", "bracket_table"),
    "cohomology.is_inner": ("xnalg.cohomology", "is_inner"),
    "cohomology.residue_inner_test": ("xnalg.cohomology", "residue_inner_test"),
    "cohomology.taft_obstruction": ("xnalg.cohomology", "taft_obstruction"),
    "cohomology.standard_derivation": ("xnalg.cohomology", "standard_derivation"),
    "linalg.rank": ("xnalg.linalg", "rank"),
    "linalg.solve": ("xnalg.linalg", "solve"),
    "maps.GenDerivation.apply": ("xnalg.maps", "GenDerivation.apply"),
    "maps.GenDerivation.bracket": ("xnalg.maps", "GenDerivation.bracket"),
    "maps.Automorphism.apply": ("xnalg.maps", "Automorphism.apply"),
    "maps.partial_l": ("xnalg.maps", "partial_l"),
    "maps.ad_phi": ("xnalg.maps", "ad_phi"),
    "ncalg.normalize_product": ("xnalg.ncalg", "normalize_product"),
    "ncalg.phi_element": ("xnalg.ncalg", "phi_element"),
    "sequences.c_poly": ("xnalg.sequences", "c_poly"),
    "scalars.CycloScalar.mul": ("xnalg.scalars", "CycloScalar.__mul__"),
    "scalars.CycloScalar.inverse": ("xnalg.scalars", "CycloScalar.inverse"),
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    "cli.run_command.calls": "count",
    "cli.run_command.self_s": "s",
    "cli.output_bytes": "bytes",
    "cohomology.hh_profile.calls": "count",
    "cohomology.build_slice.calls": "count",
    "cohomology.build_slice.self_s": "s",
    "cohomology.build_slice.distinct_ratio": "ratio",
    "cohomology.slice_cells": "count",
    "cohomology.slice_nnz": "count",
    "cohomology.slice_density": "ratio",
    "cohomology.bracket_table.calls": "count",
    "cohomology.bracket_table.self_s": "s",
    "cohomology.is_inner.calls": "count",
    "cohomology.is_inner.self_s": "s",
    "cohomology.residue_inner_test.calls": "count",
    "cohomology.residue_inner_test.self_s": "s",
    "cohomology.taft_obstruction.calls": "count",
    "cohomology.taft_obstruction.self_s": "s",
    "cohomology.standard_derivation.calls": "count",
    "cohomology.standard_derivation.distinct_ratio": "ratio",
    "linalg.rank.calls": "count",
    "linalg.rank.self_s": "s",
    "linalg.rank.cells": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.solve.cells": "count",
    "linalg.solve.consistent_ratio": "ratio",
    "maps.GenDerivation.apply.calls": "count",
    "maps.GenDerivation.apply.self_s": "s",
    "maps.GenDerivation.apply.terms_in": "count",
    "maps.partial_l.calls": "count",
    "maps.partial_l.distinct_ratio": "ratio",
    "maps.ad_phi.calls": "count",
    "maps.ad_phi.self_s": "s",
    "maps.GenDerivation.bracket.calls": "count",
    "maps.GenDerivation.bracket.self_s": "s",
    "maps.Automorphism.apply.calls": "count",
    "maps.Automorphism.apply.self_s": "s",
    "ncalg.normalize_product.calls": "count",
    "ncalg.normalize_product.self_s": "s",
    "ncalg.normalize_product.term_pairs": "count",
    "ncalg.phi_element.calls": "count",
    "ncalg.phi_element.self_s": "s",
    "sequences.c_poly.calls": "count",
    "sequences.c_poly.self_s": "s",
    "scalars.CycloScalar.mul.calls": "count",
    "scalars.CycloScalar.mul.self_s": "s",
    "scalars.CycloScalar.inverse.calls": "count",
    "scalars.CycloScalar.inverse.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def fold(names, parents, starts, ends):
    """Per-name (calls, self seconds) of one request's spans.

    Span k has name ``names[k]``, parent index ``parents[k]`` (-1 at the top)
    and runs from ``starts[k]`` to ``ends[k]``.  Spans of one thread nest, so a
    span's self time is its duration minus the durations of its children.
    """
    child = [0.0] * len(names)
    for k, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[k] - starts[k]
    out: dict = {}
    for k, name in enumerate(names):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (ends[k] - starts[k]) - child[k])
    return out


def _nonzero(mat) -> int:
    """Nonzero entries of a matrix stored as rows, each row a list or a
    {column: value} dict (and the rows themselves a list or a dict)."""
    rows = mat.values() if isinstance(mat, dict) else mat
    return sum(1 for row in rows for v in (row.values() if isinstance(row, dict) else row) if v)


class Tracer:
    """Span recorder and counters for one traced worker process."""

    def __init__(self):
        self.labels = list(TARGETS)
        self.calls = {name: 0 for name in self.labels}
        self.self_s = {name: 0.0 for name in self.labels}
        self.counts = {
            "cli.output_bytes": 0,
            "cohomology.slice_cells": 0,
            "cohomology.slice_nnz": 0,
            "linalg.rank.cells": 0,
            "linalg.solve.cells": 0,
            "linalg.solve.consistent": 0,
            "maps.GenDerivation.apply.terms_in": 0,
            "ncalg.normalize_product.term_pairs": 0,
        }
        self.keys = {
            "cohomology.build_slice": set(),
            "cohomology.standard_derivation": set(),
            "maps.partial_l": set(),
        }
        self._clear()

    def _clear(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1

    def wrap(self, label, fn, hook=None):
        ident = self.labels.index(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            k = len(self.names)
            self.names.append(ident)
            self.parents.append(self.current)
            self.ends.append(0.0)
            self.current = k
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[k] = clock()
                self.current = self.parents[k]
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def end_request(self):
        """Fold the finished request's spans into the totals and drop them."""
        for ident, (calls, self_s) in fold(self.names, self.parents, self.starts, self.ends).items():
            label = self.labels[ident]
            self.calls[label] += calls
            self.self_s[label] += self_s
        self._clear()

    def install(self):
        """Replace every reference to each target in the loaded xnalg modules."""
        hooks = self._hooks()
        for label, (module_name, path) in TARGETS.items():
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(label, original, hooks.get(label))
            if cls_path:
                setattr(owner, attr, wrapped)
                if attr == "__mul__":
                    setattr(owner, "__rmul__", wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if name == "xnalg" or name.startswith("xnalg."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def _hooks(self):
        c, keys = self.counts, self.keys

        def output(args, result):
            c["cli.output_bytes"] += len(result.text.encode("utf-8"))

        def build_slice(args, s):
            keys["cohomology.build_slice"].add(
                (s.ctx.N, s.l, s.ctx.field.order, None if s.omega is None else repr(s.omega)))
            n0, n1 = len(s.basis0), len(s.basis1x) + len(s.basis1y)
            c["cohomology.slice_cells"] += n1 * n0 + len(s.basis2) * n1
            c["cohomology.slice_nnz"] += _nonzero(s.d0) + _nonzero(s.d1)

        def standard_derivation(args, result):
            ctx, k = args[0], args[1]
            keys["cohomology.standard_derivation"].add((ctx.N, ctx.field.order, k))

        def partial_l(args, result):
            ctx, l = args[0], args[1]
            keys["maps.partial_l"].add((ctx.N, ctx.localized, ctx.field.order, l))

        def rank(args, result):
            rows = args[0]
            ncols = args[1] if len(args) > 1 and args[1] is not None else (len(rows[0]) if rows else 0)
            c["linalg.rank.cells"] += len(rows) * ncols

        def solve(args, result):
            c["linalg.solve.cells"] += len(args[0]) * args[2]
            c["linalg.solve.consistent"] += result is not None

        def apply(args, result):
            c["maps.GenDerivation.apply.terms_in"] += len(args[1].terms)

        def product(args, result):
            c["ncalg.normalize_product.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        return {
            "cli.run_command": output,
            "cohomology.build_slice": build_slice,
            "cohomology.standard_derivation": standard_derivation,
            "maps.partial_l": partial_l,
            "linalg.rank": rank,
            "linalg.solve": solve,
            "maps.GenDerivation.apply": apply,
            "ncalg.normalize_product": product,
        }

    def metrics(self) -> dict:
        """Every per-layer metric except the overhead ratio, which needs the
        untraced runs."""

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in PER_LAYER:
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = self.calls[base]
            elif stat == "self_s":
                out[name] = self.self_s[base]
            elif stat == "distinct_ratio":
                out[name] = ratio(len(self.keys[base]), self.calls[base])
            elif name in self.counts:
                out[name] = self.counts[name]
        c = self.counts
        out["cohomology.slice_density"] = ratio(c["cohomology.slice_nnz"], c["cohomology.slice_cells"])
        out["linalg.solve.consistent_ratio"] = ratio(c["linalg.solve.consistent"], self.calls["linalg.solve"])
        return out
