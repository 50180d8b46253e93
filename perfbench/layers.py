"""Layer tracing for the benchmark's traced run.

The layers are carnot's modules.  ``LayerTracer.install`` wraps, from the
benchmark's side, every public module-level function of every carnot module
at every binding site (``from .x import y`` copies and module-level dicts
included) and the public methods in ``METHODS``.  Private names are not
wrapped: the float group law that curves, metric and pdiff open-code through
``bch._bch_terms`` is therefore charged to ``algebra.FloatOps.bracket`` and
to the calling function's self time, not to ``bch``.

Every wrapped call adds to an in-memory aggregate (count, total time, self
time = span time minus the time of wrapped calls made inside it).  Full
spans are kept only for tasks and for calls that enter a layer from another
one, skipping the hot leaves (``linalg`` and the wrapped methods); each span
carries the task id and the span that caused it.
"""

import functools
import json
import os
import time
import types

import numpy as np

MODULES = ("linalg", "algebra", "bch", "catalog", "morphism", "subgroups",
           "metric", "curves", "pdiff", "io", "cli")

METHODS = (("algebra", "GradedAlgebra", "bracket_coords"),
           ("algebra", "FloatOps", "bracket"),
           ("metric", "HomogeneousMetric", "quasi_norm_np"),
           ("metric", "HomogeneousMetric", "distance_np"),
           ("pdiff", "PDMap", "__call__"),
           ("pdiff", "LevelSetSampler", "dilated_points"),
           ("pdiff", "LevelSetSampler", "graph_height"))

HOT_LEAVES = {"algebra.GradedAlgebra.bracket_coords", "algebra.FloatOps.bracket",
              "metric.HomogeneousMetric.quasi_norm_np",
              "metric.HomogeneousMetric.distance_np", "pdiff.PDMap.__call__"}

CLASSIFIERS = {"subgroups.find_complement", "subgroups.classify_epimorphism",
               "subgroups.classify_monomorphism"}

# name, unit; every traced run reports all of them (0 where a workload does
# not reach the layer)
PER_LAYER = (
    ("bch.product_exact.calls", "count"),
    ("bch.product_float.calls", "count"),
    ("bch.self_s", "s"),
    ("bch.oracle.calls", "count"),
    ("bch.oracle.self_s", "s"),
    ("bch.repeat_pair_share", "ratio"),
    ("algebra.bracket_exact.calls", "count"),
    ("algebra.bracket_float.calls", "count"),
    ("algebra.bracket_float.rows_per_call", "rows/call"),
    ("algebra.validate.calls", "count"),
    ("algebra.validate.self_s", "s"),
    ("algebra.self_s", "s"),
    ("catalog.builds", "count"),
    ("catalog.self_s", "s"),
    ("linalg.calls", "count"),
    ("linalg.self_s", "s"),
    ("subgroups.calls", "count"),
    ("subgroups.self_s", "s"),
    ("subgroups.undecided", "count"),
    ("subgroups.decided_ratio", "ratio"),
    ("morphism.self_s", "s"),
    ("metric.sample_box.rows", "count"),
    ("metric.sampler.accept_ratio", "ratio"),
    ("metric.sample_ball.self_s", "s"),
    ("metric.quasi_norm.rows", "count"),
    ("metric.self_s", "s"),
    ("pdiff.map_evals", "count"),
    ("pdiff.map_evals_per_point", "ratio"),
    ("pdiff.self_s", "s"),
    ("curves.self_s", "s"),
    ("io.self_s", "s"),
    ("io.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _rows(shape):
    return int(np.prod(shape)) if len(shape) else 1


class LayerTracer:
    def __init__(self, carnot_modules):
        self.modules = carnot_modules     # {short name: module}
        self.stats = {}                   # key -> [count, total_s, self_s]
        self.counts = dict.fromkeys(
            ("product_exact", "product_float", "pair_calls", "pair_repeats",
             "float_rows", "box_rows", "ball_box_rows", "ball_rows", "norm_rows",
             "classifications", "undecided", "points", "bytes"), 0)
        self.entries = dict.fromkeys(MODULES, 0)
        self.pairs = set()
        self.spans = []                   # [id, parent id, task, name, start, end]
        self.task_id = -1
        # frame: [layer, child time, span id in force, key]
        self.stack = [[None, 0.0, -1, None]]
        self._restore = []
        self._hooks = {
            "bch.group_product": self._on_product,
            "bch.group_product_coords": self._on_product_coords,
            "bch.bch_term": self._on_term,
            "algebra.FloatOps.bracket": self._on_float_bracket,
            "metric.sample_box": self._on_sample_box,
            "metric.sample_ball": self._on_sample_ball,
            "metric.HomogeneousMetric.quasi_norm_np": self._on_norm,
            "pdiff.implicit_function": self._on_implicit,
            "pdiff.mean_value_ratio": self._on_mean_value,
            "pdiff.LevelSetSampler.dilated_points": self._on_points,
            "pdiff.LevelSetSampler.graph_height": self._on_height,
            "io.write_csv": self._on_write,
        }

    # -- hooks: (args, kwargs, result, parent frame) -------------------------
    def _pair(self, alg, xc, yc):
        key = (id(alg), tuple(xc), tuple(yc))
        self.counts["pair_calls"] += 1
        if key in self.pairs:
            self.counts["pair_repeats"] += 1
        else:
            self.pairs.add(key)

    def _on_product(self, args, kwargs, result, parent):
        x, y = args[0], args[1]
        if x.scalar_mode == "exact":
            self.counts["product_exact"] += 1
            self._pair(x.algebra, x.coords, y.coords)
        else:
            self.counts["product_float"] += 1

    def _on_product_coords(self, args, kwargs, result, parent):
        self.counts["product_exact"] += 1
        self._pair(args[0], args[1], args[2])

    def _on_term(self, args, kwargs, result, parent):
        x, y = args[1], args[2]
        if x.scalar_mode == "exact":
            self._pair(x.algebra, x.coords, y.coords)

    def _on_float_bracket(self, args, kwargs, result, parent):
        self.counts["float_rows"] += _rows(np.shape(result)[:-1])

    def _on_sample_box(self, args, kwargs, result, parent):
        self.counts["box_rows"] += len(result)
        if parent[3] == "metric.sample_ball":
            self.counts["ball_box_rows"] += len(result)

    def _on_sample_ball(self, args, kwargs, result, parent):
        self.counts["ball_rows"] += len(result)

    def _on_norm(self, args, kwargs, result, parent):
        self.counts["norm_rows"] += _rows(np.shape(result))

    def _on_implicit(self, args, kwargs, result, parent):
        self.counts["points"] += len(result[0].nodes)

    def _on_mean_value(self, args, kwargs, result, parent):
        self.counts["points"] += result.samples * len(result.bin_sup)

    def _on_points(self, args, kwargs, result, parent):
        self.counts["points"] += len(result)

    def _on_height(self, args, kwargs, result, parent):
        self.counts["points"] += 1

    def _on_write(self, args, kwargs, result, parent):
        self.counts["bytes"] += os.path.getsize(result)

    def _on_classified(self, args, kwargs, result, parent):
        if parent[0] != "subgroups":
            self.counts["classifications"] += 1
            if result.verdict == "undecided":
                self.counts["undecided"] += 1

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, fn, key, layer):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        hook = self._hooks.get(key)
        if key in CLASSIFIERS:
            hook = self._on_classified
        stack, spans, entries = self.stack, self.spans, self.entries
        spanning = layer != "linalg" and key not in HOT_LEAVES
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = -1
            if parent[0] != layer:
                entries[layer] += 1
                if spanning:
                    span = len(spans)
                    spans.append([span, parent[2], tracer.task_id, key, clock(), 0.0])
            frame = [layer, 0.0, span if span >= 0 else parent[2], key]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                parent[1] += dt
                if span >= 0:
                    spans[span][5] = t0 + dt
            if hook is not None:
                hook(args, kwargs, result, parent)
            return result

        return wrapper

    def install(self, package):
        """Wrap every public carnot function wherever a module binds it."""
        wrapped = {}
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                is_fn = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                if is_fn and home.startswith("carnot."):
                    layer = home.split(".")[-1]
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = (obj, self._wrap(obj, "%s.%s" % (layer, name), layer))
        for mod in list(self.modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, name, wrapped[id(obj)][1])
                    self._restore.append((setattr, mod, name, obj))
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped and wrapped[id(v)][0] is v:
                            obj[k] = wrapped[id(v)][1]
                            self._restore.append((dict.__setitem__, obj, k, v))
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            orig = cls.__dict__[meth]
            key = "%s.%s.%s" % (layer, cls_name, meth)
            setattr(cls, meth, self._wrap(orig, key, layer))
            self._restore.append((setattr, cls, meth, orig))

    def uninstall(self):
        for setter, target, name, orig in reversed(self._restore):
            setter(target, name, orig)
        self._restore = []

    # -- task boundaries ----------------------------------------------------------
    def begin_task(self, task_id, kind):
        self.task_id = task_id
        span = len(self.spans)
        self.spans.append([span, -1, task_id, "task." + kind, time.perf_counter(), 0.0])
        self.stack.append(["task", 0.0, span, None])

    def end_task(self):
        frame = self.stack.pop()
        self.spans[frame[2]][5] = time.perf_counter()
        self.task_id = -1

    # -- results --------------------------------------------------------------------
    def _sum(self, prefix, field):
        return sum(s[field] for k, s in self.stats.items() if k.startswith(prefix))

    def _stat(self, key, field):
        return self.stats.get(key, [0, 0.0, 0.0])[field]

    def metrics(self, overhead_ratio):
        c = self.counts
        float_calls = self._stat("algebra.FloatOps.bracket", 0)
        map_evals = self._stat("pdiff.PDMap.__call__", 0)
        values = {
            "bch.product_exact.calls": c["product_exact"],
            "bch.product_float.calls": c["product_float"],
            "bch.self_s": self._sum("bch.", 2),
            "bch.oracle.calls": self._stat("bch.series_oracle_product", 0),
            "bch.oracle.self_s": self._stat("bch.series_oracle_product", 2),
            "bch.repeat_pair_share": c["pair_repeats"] / c["pair_calls"] if c["pair_calls"] else 0.0,
            "algebra.bracket_exact.calls": self._stat("algebra.GradedAlgebra.bracket_coords", 0),
            "algebra.bracket_float.calls": float_calls,
            "algebra.bracket_float.rows_per_call": c["float_rows"] / float_calls if float_calls else 0.0,
            "algebra.validate.calls": self._stat("algebra.validate_table", 0),
            "algebra.validate.self_s": (self._stat("algebra.validate_table", 2) +
                                        self._stat("algebra.validate_grading", 2)),
            "algebra.self_s": self._sum("algebra.", 2),
            "catalog.builds": self.entries["catalog"],
            "catalog.self_s": self._sum("catalog.", 2),
            "linalg.calls": self._sum("linalg.", 0),
            "linalg.self_s": self._sum("linalg.", 2),
            "subgroups.calls": self._sum("subgroups.", 0),
            "subgroups.self_s": self._sum("subgroups.", 2),
            "subgroups.undecided": c["undecided"],
            "subgroups.decided_ratio": ((c["classifications"] - c["undecided"]) /
                                        c["classifications"] if c["classifications"] else 0.0),
            "morphism.self_s": self._sum("morphism.", 2),
            "metric.sample_box.rows": c["box_rows"],
            "metric.sampler.accept_ratio": c["ball_rows"] / c["ball_box_rows"] if c["ball_box_rows"] else 0.0,
            "metric.sample_ball.self_s": self._stat("metric.sample_ball", 2),
            "metric.quasi_norm.rows": c["norm_rows"],
            "metric.self_s": self._sum("metric.", 2),
            "pdiff.map_evals": map_evals,
            "pdiff.map_evals_per_point": map_evals / c["points"] if c["points"] else 0.0,
            "pdiff.self_s": self._sum("pdiff.", 2),
            "curves.self_s": self._sum("curves.", 2),
            "io.self_s": self._sum("io.", 2),
            "io.bytes_written": c["bytes"],
            "cli.self_s": self._sum("cli.", 2),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def counts_digest(self):
        """Every count the trace keeps, for the exact-repeat check."""
        out = {k: s[0] for k, s in sorted(self.stats.items())}
        out.update(("count." + k, v) for k, v in sorted(self.counts.items()))
        out.update(("entries." + k, v) for k, v in sorted(self.entries.items()))
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        return len(self.spans)
