"""Layer spans recorded from outside the program.

``Tracer`` wraps public functions of wulffkit's modules (and the scipy
``linprog`` each module binds) for the duration of a ``with`` block.  A
wrapper is installed at every binding a caller can look up: every
``wulffkit`` module whose namespace holds the original function, so a
name imported with ``from .body import from_generators`` is traced as
well as ``body.from_generators``.  A third-party function is traced only
in the module named by its layer, which keeps ``cones.linprog`` and
``metric.linprog`` apart.

Spans live in memory as ``(layer, op, start, end, parent)`` tuples; the
parent comes from a stack of open spans, and a layer's self time is its
span durations minus those of its direct children.
"""

import sys
import time
from collections import Counter


def _rows(args, kwargs, out):
    return int(args[0].shape[0])


def _grid_rows(args, kwargs, out):
    return int(out.shape[0])


def _kernel_bytes(args, kwargs, out):
    # bytes a fused kernel must move: read X and M, write one value per
    # row; computed from shapes, not measured
    X, M = args[0], args[1]
    return 8 * (X.size + M.size + X.shape[0])


# (layer, module, attribute, rows counter, bytes counter)
LAYERS = (
    ("cones.linprog", "cones", "linprog", None, None),
    ("metric.linprog", "metric", "linprog", None, None),
    ("cones.nonneg_lstsq", "cones", "nonneg_lstsq", None, None),
    ("cones.project_onto_cone", "cones", "project_onto_cone", None, None),
    ("cones.dual_cone_rays", "cones", "dual_cone_rays", None, None),
    ("cones.extreme_rays", "cones", "extreme_rays", None, None),
    ("body.from_generators", "body", "from_generators", None, None),
    ("transforms.polar", "transforms", "polar", None, None),
    ("metric.hausdorff_with_bound", "metric", "hausdorff_with_bound", None, None),
    ("metric.directed_distance_with_bound", "metric", "directed_distance_with_bound", None, None),
    ("metric.exact_directed", "metric", "_exact_directed", None, None),
    ("metric.point_body_distance", "metric", "point_body_distance", None, None),
    ("metric.directed_distance_sampled", "metric", "directed_distance_sampled", None, None),
    ("metric.batch_point_body_distance", "metric", "batch_point_body_distance", _rows, None),
    ("oracles.sphere_grid", "oracles", "sphere_grid", _grid_rows, None),
    ("kernels.min_slack", "kernels", "min_slack", _rows, _kernel_bytes),
    ("kernels.max_dot", "kernels", "max_dot", _rows, _kernel_bytes),
    ("harness.gen_wulff", "harness", "gen_wulff", None, None),
    ("harness.gen_convex_body", "harness", "gen_convex_body", None, None),
)

# rows of a key layer are also credited to the value layer while a span of
# it is open: the batch rows under a sampled directed distance are the
# source body's samples
_ROWS_TO_ANCESTOR = {"metric.batch_point_body_distance": "metric.directed_distance_sampled"}

# directed distances are counted by the path they returned
_ROUTE_LAYER = "metric.directed_distance_with_bound"


class Tracer:
    """Context manager that traces wulffkit's layers while it is open."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.rows = Counter()
        self.bytes = Counter()
        self.routes = Counter()
        self.missing = []
        self._open = []
        self._patched = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "wulffkit" or n.startswith("wulffkit.")
        ]
        for layer, mod_name, attr, rows_of, bytes_of in LAYERS:
            home = sys.modules.get(f"wulffkit.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                # a layer the program no longer has reports zero calls
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original, rows_of, bytes_of)
            owned = getattr(original, "__module__", "").startswith("wulffkit")
            for mod in modules if owned else [home]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def _wrap(self, layer, fn, rows_of, bytes_of):
        spans = self.spans
        open_spans = self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1][0] if open_spans else -1
            open_spans.append((index, layer))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[index] = (layer, self.op, start, end, parent)
            if rows_of is not None:
                n = rows_of(args, kwargs, out)
                self.rows[layer] += n
                ancestor = _ROWS_TO_ANCESTOR.get(layer)
                if ancestor is not None and any(name == ancestor for _, name in open_spans):
                    self.rows[ancestor] += n
            if bytes_of is not None:
                self.bytes[layer] += bytes_of(args, kwargs, out)
            if layer == _ROUTE_LAYER:
                self.routes[out[2]] += 1
            return out

        return traced

    def metrics(self):
        """Per-layer metrics over every recorded span, by name with unit.

        ``.calls`` and ``.self_s`` for every layer, ``.rows`` and
        ``.bytes`` where the layer has them, and the directed distances
        by returned path as ``metric.route.<path>``.
        """
        child = [0.0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for i, (layer, _, start, end, _) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
        out = {}
        for layer, _, _, rows_of, bytes_of in LAYERS:
            out[f"{layer}.calls"] = {"value": calls[layer], "unit": "count"}
            out[f"{layer}.self_s"] = {"value": self_s[layer], "unit": "s"}
            if rows_of is not None or layer in _ROWS_TO_ANCESTOR.values():
                out[f"{layer}.rows"] = {"value": self.rows[layer], "unit": "count"}
            if bytes_of is not None:
                out[f"{layer}.bytes"] = {"value": self.bytes[layer], "unit": "B_computed"}
        for path in ("exact", "sampled"):
            out[f"metric.route.{path}"] = {"value": self.routes[path], "unit": "count"}
        return out

    def write_spans(self, path):
        """Write every span as CSV: layer, op, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,op,start_s,end_s,parent\n")
            for layer, op, start, end, parent in self.spans:
                fh.write(f"{layer},{op},{start!r},{end!r},{parent}\n")
