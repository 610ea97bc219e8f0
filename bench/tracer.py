"""Per-layer tracing of the targetdetect modules, from outside the package.

``Tracer.install`` replaces every public function of each layer module (and
the few methods that do per-state work) by a timing wrapper, in every loaded
module namespace that holds it, so calls through ``from .fock import ...``
bindings are seen too.  The layers are the modules of ``src/targetdetect``.

A layer span opens when control enters a layer from another layer (or from
the benchmark) and closes when it returns; calls within the same layer stay
inside the open span.  A layer's self time is its spans' duration minus the
nested spans of other layers.  A metric group (``fock.state_build``, ...)
counts the calls of its functions that are not nested in another call of the
same group, and sums their time.  Spans and groups are folded into running
totals as they close, so memory stays flat over hundreds of thousands of
calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

from targetdetect.errors import SizeLimitError

PACKAGE = "targetdetect"
LAYERS = ("fock", "channels", "closed_forms", "oracle", "validation", "figures", "cli")
#: methods traced besides the module-level functions
METHODS = {"fock": ("DensityOperator.diagonal_or_none", "FockKet.projector", "FockKet.embed")}

_STATE_CONSTRUCTORS = (
    "thermal_state", "coherent_ket", "number_ket", "noon_ket", "spdc_ket",
    "maximally_entangled_qudit", "werner_state", "maximally_mixed", "tensor",
    "partial_trace", "FockKet.projector", "FockKet.embed",
)
#: function (layer.qualname) -> metric groups it counts towards
GROUPS = {f"fock.{name}": ("fock.state_build",) for name in _STATE_CONSTRUCTORS}
GROUPS.update({
    "channels.depolarizing_pair": ("channels.pair_build",),
    "channels.target_pair_single_mode": ("channels.pair_build",),
    "channels.target_pair_bipartite": ("channels.pair_build",),
    "fock.spectral_decomposition": ("fock.spectral_decomposition",),
    "fock.DensityOperator.diagonal_or_none": ("fock.diagonal_or_none",),
    "fock.eigenvalue_power": ("fock.eigenvalue_power",),
    "oracle.chernoff_bound": ("oracle.chernoff_bound",),
    "oracle.bhattacharyya_lower": ("oracle.bhattacharyya_lower",),
    "figures.figure1_series": ("figures.series",),
    "figures.figure2_series": ("figures.series",),
    "figures.figure3_series": ("figures.series",),
    "figures.figure2_copy_grid": ("figures.series",),
    "figures.render_csv": ("figures.render_csv",),
    "figures.write_csv": ("figures.render_csv",),
})
#: oracle entry points whose first argument is the pair under test
ORACLE_ENTRIES = ("oracle.chernoff_bound", "oracle.bhattacharyya_lower",
                  "oracle.helstrom_error", "oracle.q_s", "oracle.q_s_grid")
HELSTROM_PATHS = ("diagonal_point_mass", "diagonal_product", "dense_tensor_power", "size_guard")


class Tracer:
    """Running per-layer totals; ``reset`` starts a new measurement window."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = Counter()       # group -> outermost calls
        self.seconds = Counter()     # group -> time in outermost calls
        self.self_s = Counter()      # layer -> self time
        self.q_evals = 0             # q(s) evaluations made by chernoff_bound
        self.csv_bytes = 0
        self.pairs = {}              # distinct pairs passed to the oracle in this pass, held so ids stay unique
        self.pair_total = 0          # distinct pairs of the passes already ended
        self._depth = Counter()
        self._spans = []             # open layer spans: [layer, time in nested other-layer spans]

    def counters(self):
        return {
            "calls": Counter(self.calls),
            "seconds": Counter(self.seconds),
            "self_s": Counter(self.self_s),
            "q_evals": self.q_evals,
            "csv_bytes": self.csv_bytes,
            "pairs": self.pair_total + len(self.pairs),
        }

    def end_pass(self):
        """Close a pass: a pair reused by the next pass counts again there."""
        self.pair_total += len(self.pairs)
        self.pairs = {}

    def _call(self, fn, key, layer, groups, args, kwargs):
        spans = self._spans
        span = None
        if not spans or spans[-1][0] != layer:
            span = [layer, 0.0]
            spans.append(span)
        outer = [g for g in groups if not self._depth[g]]
        for g in groups:
            self._depth[g] += 1
        result = exc = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            elapsed = time.perf_counter() - start
            for g in groups:
                self._depth[g] -= 1
            for g in outer:
                self.calls[g] += 1
                self.seconds[g] += elapsed
            if span is not None:
                spans.pop()
                self.self_s[layer] += elapsed - span[1]
                if spans:
                    spans[-1][1] += elapsed
            if key in ORACLE_ENTRIES:
                self._oracle_result(key, args, kwargs, result, exc, elapsed)
            elif key == "figures.render_csv" and result is not None and outer:
                self.csv_bytes += len(result.encode("utf-8"))

    def _oracle_result(self, key, args, kwargs, result, exc, elapsed):
        pair = args[0] if args else kwargs.get("pair")
        rho0, rho1 = (pair.rho0, pair.rho1) if hasattr(pair, "rho0") else pair
        self.pairs.setdefault((id(rho0), id(rho1)), (rho0, rho1))
        if key == "oracle.helstrom_error":
            if result is not None:
                path = result.diagnostics.get("path", "unknown")
            else:
                path = "size_guard" if isinstance(exc, SizeLimitError) else "error"
            self.calls[f"{key}.{path}"] += 1
            self.seconds[f"{key}.{path}"] += elapsed
        elif key == "oracle.chernoff_bound" and result is not None:
            diag = result.diagnostics
            self.q_evals += diag["grid_size"] + diag["refine_iterations"] + 2

    def _wrap(self, fn, key, layer):
        groups = GROUPS.get(key, ()) + (("closed_forms",) if layer == "closed_forms" else ())
        call = self._call

        def traced(*args, **kwargs):
            return call(fn, key, layer, groups, args, kwargs)

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every layer's public functions wherever a loaded module binds them."""
        wrappers = {}                                   # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
            for qualname in METHODS.get(layer, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(vars(cls)[method], f"{layer}.{qualname}", layer))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])


def layer_metrics(counters, import_s):
    """The per-layer metric values from combined tracer counters."""
    calls, seconds, self_s = counters["calls"], counters["seconds"], counters["self_s"]
    chernoff = calls["oracle.chernoff_bound"]
    metrics = {"import.s": (import_s, "s")}
    for group in ("fock.state_build", "channels.pair_build", "fock.spectral_decomposition",
                  "fock.diagonal_or_none"):
        metrics[f"{group}.calls"] = (calls[group], "count")
        metrics[f"{group}.s"] = (seconds[group], "s")
    pairs = counters["pairs"]
    metrics["oracle.spectra_per_pair"] = (
        calls["fock.spectral_decomposition"] / pairs if pairs else 0.0, "ratio")
    metrics["fock.eigenvalue_power.calls"] = (calls["fock.eigenvalue_power"], "count")
    metrics["oracle.q_evals_per_bound"] = (
        counters["q_evals"] / chernoff if chernoff else 0.0, "count")
    for group in ("oracle.chernoff_bound", "oracle.bhattacharyya_lower"):
        metrics[f"{group}.calls"] = (calls[group], "count")
        metrics[f"{group}.s"] = (seconds[group], "s")
    for path in HELSTROM_PATHS:
        group = f"oracle.helstrom_error.{path}"
        metrics[f"{group}.calls"] = (calls[group], "count")
        metrics[f"{group}.s"] = (seconds[group], "s")
    metrics["closed_forms.calls"] = (calls["closed_forms"], "count")
    metrics["closed_forms.s"] = (seconds["closed_forms"], "s")
    metrics["figures.series.s"] = (seconds["figures.series"], "s")
    metrics["figures.render_csv.s"] = (seconds["figures.render_csv"], "s")
    metrics["figures.csv_bytes"] = (counters["csv_bytes"], "bytes")
    for layer in ("fock", "oracle", "validation", "cli"):
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    return metrics
