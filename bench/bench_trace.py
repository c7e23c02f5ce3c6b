"""Outside-in tracer for extraspecial.

The tracer replaces public functions and operators of each layer with timing
wrappers, from outside the package, and puts every original back when it
exits.  A wrapped function is replaced in every ``extraspecial`` module that
holds it, so names bound by ``from .x import f`` are traced too; a wrapped
method is replaced under every class attribute that holds it, so operator
aliases such as ``__rmul__ = __mul__`` are traced too.

Each call is a span.  Self time is the span's time minus the time of the
spans it directly encloses.  Coarse layers (CLI, planner, oracle stages,
norms, Galois maps) keep one record per call: name, start, end, parent
record, and the operation it belongs to.  The arithmetic layers (series and
tower products) run millions of times per verdict, so they only add to
per-layer totals.  ``ring_det`` recurses through its own module global;
only the outermost call is a span, and every call, outer or recursive,
counts as one expansion.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

# layer name -> (module, attribute, hot); "Class.method" patches a class attribute
TARGETS = (
    ("cli.main", "extraspecial.cli", "main", False),
    ("cli.build_parser", "extraspecial.cli", "build_parser", False),
    ("cli.emit", "extraspecial.cli", "emit", False),
    ("oracle.verify_tower", "extraspecial.oracle", "verify_tower", False),
    ("oracle.build", "extraspecial.localfield", "build_tower", False),
    ("oracle.generators", "extraspecial.localfield", "galois_generators", False),
    ("oracle.group", "extraspecial.localfield", "enumerate_group", False),
    ("oracle.structure", "extraspecial.localfield", "group_structure", False),
    ("oracle.generator", "extraspecial.oracle", "construct_generator", False),
    ("oracle.filtration", "extraspecial.oracle", "ramification_filtration", False),
    ("oracle.scaffold", "extraspecial.oracle", "scaffold_row_check", False),
    ("oracle.layers", "extraspecial.oracle", "verify_elementary_layers", False),
    ("planner.plan", "extraspecial.planner", "plan", False),
    ("artin_schreier.validate_reduced_AS", "extraspecial.artin_schreier",
     "validate_reduced_AS", False),
    ("ramification.convert", "extraspecial.ramification", "lower_to_upper", False),
    ("ramification.convert", "extraspecial.ramification", "upper_to_lower", False),
    ("ramification.build_shift_tables", "extraspecial.ramification",
     "build_shift_tables", False),
    ("detval.ring_det", "extraspecial.detval", "ring_det", False),
    ("localfield.elt_valuation", "extraspecial.localfield", "elt_valuation", False),
    ("localfield.galois_apply", "extraspecial.localfield", "GaloisMap.apply", False),
    ("localfield.galois_compose", "extraspecial.localfield", "GaloisMap.compose", False),
    ("localfield.tower_mul", "extraspecial.localfield", "TowerElement.__mul__", True),
    ("valuation.series_mul", "extraspecial.valuation", "LaurentSeries.__mul__", True),
    ("valuation.series_add", "extraspecial.valuation", "LaurentSeries.__add__", True),
    ("valuation.series_inverse", "extraspecial.valuation", "LaurentSeries.inverse", True),
)


class LayerStats:
    __slots__ = ("calls", "self_s", "pair_ops")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.pair_ops = 0


class Tracer:
    """Context manager: ``with Tracer() as tr: ...``; set ``tr.op`` to the
    current operation's label before each operation."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {name: LayerStats() for name, *_ in TARGETS}
        self.expansions = 0
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.op = None
        self._stack: list[list] = []    # frames: [child time, enclosing record index]
        self._patches: list[tuple[object, str, object]] = []
        self._in_det = False

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, name: str, fn, hot: bool):
        st = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        pairs = name == "valuation.series_mul"

        def hot_wrapper(*args, **kwargs):
            if pairs:
                other = args[1]
                st.pair_ops += len(args[0].coeffs) * len(getattr(other, "coeffs", (0,)))
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                st.calls += 1
                st.self_s += d - frame[0]
                if stack:
                    stack[-1][0] += d

        def span_wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1][1] if stack else -1, self.op]
            spans.append(rec)
            frame = [0.0, idx]
            stack.append(frame)
            rec[1] = t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = t1 = clock()
                d = t1 - t0
                stack.pop()
                st.calls += 1
                st.self_s += d - frame[0]
                if stack:
                    stack[-1][0] += d

        if name != "detval.ring_det":
            return hot_wrapper if hot else span_wrapper

        def det_wrapper(rows):
            self.expansions += 1
            if self._in_det:
                return fn(rows)
            self._in_det = True
            try:
                return span_wrapper(rows)
            finally:
                self._in_det = False

        return det_wrapper

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for _, modname, _, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "extraspecial" or k.startswith("extraspecial.")) and m is not None]
        try:
            for name, modname, attr, hot in TARGETS:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    new = self._wrap(name, orig, hot)
                    for alias, value in list(cls.__dict__.items()):
                        if value is orig:
                            self._patch(cls, alias, new)
                    continue
                orig = getattr(owner, attr)
                new = self._wrap(name, orig, hot)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, alias, new)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write per-layer totals, then one JSON line per recorded span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            totals = {k: {"calls": s.calls, "self_s": s.self_s, "pair_ops": s.pair_ops}
                      for k, s in self.stats.items()}
            fh.write(json.dumps({"totals": totals, "ring_det_expansions": self.expansions})
                     + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
