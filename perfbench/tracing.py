"""Spans around the public entry points of every weyltriplets module.

The library itself is not instrumented: ``Tracer.install`` replaces each
public function and method with a timing wrapper, in its defining module
and in every ``weyltriplets`` namespace that imported it, so calls made
inside the library (``jcdot`` -> ``krein_correction``) are seen too.
Each span records name, layer, start, end, parent and whether it failed;
spans are folded into per-layer aggregates at the end of every op.
"""

import functools
import inspect
import math
import statistics
import sys
from time import perf_counter_ns

LAYERS = {
    "herglotz": "weyltriplets.herglotz",
    "models1d": "weyltriplets.models1d",
    "triplets": "weyltriplets.triplets",
    "linalg": "weyltriplets._linalg",
    "tensor": "weyltriplets.tensor",
    "spectral": "weyltriplets.spectral",
    "jcdot": "weyltriplets.jcdot",
    "oracle": "weyltriplets.oracle",
    "cli": "weyltriplets.cli",
}

# metric name -> qualified names whose outermost spans it sums
FUNCTION_METRICS = {
    "triplets.kernel_s": ("KreinCorrection.kernel",),
    "triplets.gram_s": ("AnalyticKernel.gram",),
    "linalg.solve_s": ("solve_guarded",),
    "linalg.funcm_s": ("hermitian_funcm",),
    "tensor.values_s": ("TensorKernelImage.values",),
    "jcdot.correction_s": ("dot_resolvent_correction",),
    "jcdot.kernel_equivalence_s": ("kernel_equivalence",),
    "jcdot.jacobi_s": ("jacobi_reorder",),
    "jcdot.build_s": ("build_tilde_CJC", "build_CJC"),
    "jcdot.weyl_S_s": ("weyl_S",),
    "oracle.fd_m_s": ("fd_m_function",),
}
COUNT_METRICS = {"triplets.gram_calls": "AnalyticKernel.gram"}
_METRICS_OF = {}
for _metric, _names in FUNCTION_METRICS.items():
    for _name in _names:
        _METRICS_OF.setdefault(_name, []).append(_metric)
# layers whose self time is also reported per Fock truncation N
SCALING_LAYERS = ("jcdot", "tensor", "triplets")
CORRECTION = "dot_resolvent_correction"


def _public_functions(module):
    """(owner, attribute, member, qualname) for public callables defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, name
        elif (inspect.isclass(obj) and obj.__module__ == module.__name__
              and not issubclass(obj, BaseException)):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__call__":
                    continue
                if inspect.isfunction(member) or isinstance(
                        member, (classmethod, staticmethod)):
                    yield obj, attr, member, "%s.%s" % (obj.__name__, attr)


class Tracer:
    """Records spans while ``active``; wrappers stay cheap when it is not."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self._restore = []

    def _wrap(self, fn, layer, qualname):
        spans, stack = self.spans, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            failed = True
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                # a CLI run that returns a non-zero exit code failed
                failed = layer == "cli" and qualname == "main" and out != 0
                return out
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (qualname, layer, start, end, parent, failed)

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every public entry point; ``uninstall`` undoes it."""
        modules = {layer: sys.modules[name] for layer, name in LAYERS.items()}
        replaced = {}
        for layer, module in modules.items():
            for owner, attr, member, qualname in _public_functions(module):
                if isinstance(member, (classmethod, staticmethod)):
                    new = type(member)(self._wrap(member.__func__, layer, qualname))
                else:
                    new = self._wrap(member, layer, qualname)
                    replaced[id(member)] = new
                self._restore.append((owner, attr, member))
                setattr(owner, attr, new)
        # re-point names that other library modules imported with from-imports
        for name, module in list(sys.modules.items()):
            if not name.startswith("weyltriplets") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, replaced[id(obj)])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self):
        """Return and clear the spans recorded since the last call."""
        if self.stack:
            raise RuntimeError("take() inside an open span")
        spans = list(self.spans)
        self.spans.clear()
        return spans


class Aggregate:
    """Per-layer totals over many ops; mergeable across processes."""

    def __init__(self):
        self.layers = {layer: [0, 0, 0] for layer in LAYERS}  # calls, self ns, failed
        self.functions = {name: 0 for name in FUNCTION_METRICS}
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.per_n = {}  # "layer|N" -> [self ns per op]
        self.correction_by_n = {}  # "N" -> [inclusive ns per call]
        self.out_bytes = 0

    def fold(self, spans, n=None):
        """Add the spans of one op; ``n`` is its Fock truncation, if any."""
        child = [0] * len(spans)
        for qualname, layer, start, end, parent, failed in spans:
            if parent >= 0:
                child[parent] += end - start
        op_self = {}
        for k, (qualname, layer, start, end, parent, failed) in enumerate(spans):
            dur = end - start
            own = dur - child[k]
            entry = self.layers[layer]
            entry[0] += 1
            entry[1] += own
            entry[2] += int(failed)
            op_self[layer] = op_self.get(layer, 0) + own
            for metric, name in COUNT_METRICS.items():
                self.counts[metric] += qualname == name
            if qualname not in _METRICS_OF:
                continue
            if self._has_ancestor(spans, parent, qualname):
                continue
            for metric in _METRICS_OF.get(qualname, ()):
                self.functions[metric] += dur
            if qualname == CORRECTION and n is not None:
                self.correction_by_n.setdefault(str(n), []).append(dur)
        if n is not None:
            for layer in SCALING_LAYERS:
                key = "%s|%d" % (layer, n)
                self.per_n.setdefault(key, []).append(op_self.get(layer, 0))

    @staticmethod
    def _has_ancestor(spans, parent, qualname):
        while parent >= 0:
            if spans[parent][0] == qualname:
                return True
            parent = spans[parent][4]
        return False

    def to_dict(self):
        return {
            "layers": self.layers, "functions": self.functions, "counts": self.counts,
            "per_n": self.per_n, "correction_by_n": self.correction_by_n,
            "out_bytes": self.out_bytes,
        }

    def merge(self, d):
        for layer, vals in d["layers"].items():
            self.layers[layer] = [a + b for a, b in zip(self.layers[layer], vals)]
        for name, val in d["functions"].items():
            self.functions[name] += val
        for name, val in d["counts"].items():
            self.counts[name] += val
        for key, vals in d["per_n"].items():
            self.per_n.setdefault(key, []).extend(vals)
        for key, vals in d["correction_by_n"].items():
            self.correction_by_n.setdefault(key, []).extend(vals)
        self.out_bytes += d["out_bytes"]

    def metrics(self):
        """The per-layer metrics as {name: value} (seconds, counts, ratios)."""
        out = {}
        for layer, (calls, self_ns, failed) in self.layers.items():
            out["%s.calls" % layer] = calls
            out["%s.self_s" % layer] = self_ns / 1e9
            out["%s.failed" % layer] = failed
        calls, self_ns, _ = self.layers["herglotz"]
        out["herglotz.us_per_call"] = self_ns / 1e3 / calls if calls else 0.0
        for name, ns in self.functions.items():
            out[name] = ns / 1e9
        out.update(self.counts)
        out["cli.out_bytes"] = self.out_bytes
        cli_self = self.layers["cli"][1] / 1e9
        out["cli.bytes_per_s"] = self.out_bytes / cli_self if cli_self else 0.0
        for key, vals in self.per_n.items():
            layer, n = key.split("|")
            out["%s.self_s.N%s" % (layer, n)] = statistics.median(vals) / 1e9
        out["jcdot.correction_exp"] = self.correction_exponent()
        return out

    def correction_exponent(self):
        """Log-log slope of median correction time against N (0 if unmeasured)."""
        pts = sorted((int(n), statistics.median(v))
                     for n, v in self.correction_by_n.items())
        if len(pts) < 2:
            return 0.0
        xs = [math.log(n) for n, _ in pts]
        ys = [math.log(t) for _, t in pts]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
