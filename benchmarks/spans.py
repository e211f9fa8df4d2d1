"""Spans recorded from outside the program, around its public callables.

``Tracer.install`` replaces each traced callable wherever a holoshadow
module holds it (its defining module, modules that imported it by name,
and the package namespace), and wraps the traced methods in their class.
Each span holds its name, start, end, parent span and op id; spans stay
in memory until ``aggregate`` turns them into per-layer metrics.  Worker
processes of the program's sweep pool are not traced: their time is
inside the ``cuts.cut_sweep`` span that waits for them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute path, work counter from the bound arguments and result)
TRACED = (
    ("cli", "run", None),
    ("core", "SupportMask.interval", None),
    ("core", "SupportMask.union", None),
    ("tree", "plr_tree", lambda args, result: args["spec"].n),
    ("tree", "tree_large_d_cuts", None),
    ("tree", "crossover_kstar", None),
    ("tree", "crossover_numeric", None),
    ("tree", "ef_bruteforce", None),
    ("tiling", "generate_tiling", None),
    ("tiling", "dual_graph", None),
    ("tiling", "TilingGraph.load", None),
    ("tiling", "TilingGraph.save", None),
    ("tiling", "DualGraph.distances_from", None),
    ("cuts", "cut_sweep", lambda args, result: len(result)),
    ("cuts", "min_cut_exact", None),
    ("cuts", "plr_large_d", None),
    ("cuts", "pinned_for_interval", None),
    ("cuts", "bulk_geodesic", None),
    ("ising", "plr_exact", None),
    ("ising", "entanglement_feature", None),
    ("ising", "optimality_check", None),
    ("ising", "renyi_vs_cut", None),
    ("analysis", "fit_ceff", lambda args, result: len(args["points"])),
)

# metric stem -> the span names it sums (SupportMask: interval plus union)
GROUPS = {"core.SupportMask": ("core.SupportMask.interval", "core.SupportMask.union")}

# per-layer metrics: (stem, fields); each field is s, self_s, calls or a counter
LAYER_METRICS = (
    ("cli.run", ("calls", "self_s")),
    ("tiling.generate_tiling", ("s",)),
    ("tiling.TilingGraph.load", ("s", "calls")),
    ("tiling.TilingGraph.save", ("s",)),
    ("tiling.dual_graph", ("s", "calls")),
    ("tiling.DualGraph.distances_from", ("s", "calls")),
    ("cuts.cut_sweep", ("s", "self_s", "rows")),
    ("cuts.min_cut_exact", ("s", "calls")),
    ("core.SupportMask", ("s", "calls")),
    ("tree.plr_tree", ("s", "calls", "leaves")),
    ("tree.tree_large_d_cuts", ("s",)),
    ("tree.crossover_numeric", ("s",)),
    ("tree.ef_bruteforce", ("s", "calls")),
    ("ising.plr_exact", ("s", "calls")),
    ("ising.entanglement_feature", ("s", "calls")),
    ("ising.optimality_check", ("s",)),
    ("ising.renyi_vs_cut", ("s",)),
    ("analysis.fit_ceff", ("s", "points")),
)

UNITS = {"s": "s", "self_s": "s"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, trace.overhead_frac last."""
    names = [(f"{stem}.{field}", UNITS.get(field, "count")) for stem, fields in LAYER_METRICS for field in fields]
    return names + [("trace.overhead_frac", "ratio")]


class Tracer:
    """In-memory span recorder; install() / uninstall() patch the package."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, count]
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.op, 0]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                try:
                    span[5] = counter(signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError):
                    pass  # a changed signature leaves the count at 0 rather than break the call
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "holoshadow" or key.startswith("holoshadow.")]
        for module_name, path, counter in TRACED:
            module = sys.modules[f"holoshadow.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                self._patch(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original, counter)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, wrapped)

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()

    def aggregate(self) -> dict[str, float]:
        """Summed busy seconds, self seconds, calls and counters per span name.

        A call nested inside another call of the same name adds nothing to
        ``s``, so recursion is not counted twice.
        """
        totals: dict[str, dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _, count) in enumerate(self.spans):
            entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
            duration = end - start
            entry["calls"] += 1
            entry["count"] += count
            entry["self_s"] += duration - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += duration
        return totals

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of every per-layer metric (zero when never called)."""
        totals = self.aggregate()
        out = {}
        for stem, fields in LAYER_METRICS:
            members = GROUPS.get(stem, (stem,))
            for field in fields:
                key = field if field in ("s", "self_s", "calls") else "count"
                value = sum(totals.get(m, {}).get(key, 0) for m in members)
                out[f"{stem}.{field}"] = value / passes
        return out
