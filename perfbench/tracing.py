"""Spans around the calls into each qdistill layer, recorded from outside.

``Tracer.install`` replaces every public function of the eight modules,
and the constructors and public methods of their public classes, with a
timing wrapper.  A function is replaced in every namespace that binds it
(``from .recurrence import dejmps_noisy_step`` also binds it in
``montecarlo`` and ``fixed_point``); methods and constructors are replaced
on the class, which every namespace shares.  One private function is
wrapped as well: ``recurrence._index_table``, whose first call builds the
2048-term table that the setup cost includes.

A span records its name, start, end, parent span and request id.  Spans
stay in memory (flat arrays) until ``write_spans``.  Self time is a span's
duration minus the time its direct children cover; the program is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("quantum_core", "noise_models", "recurrence", "fixed_point",
          "security_bounds", "steering_verify", "montecarlo", "cli")

_EXTRA = (("recurrence", "_index_table"),)


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return names


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self._stack = [-1]
        self.request_id = -1
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self.ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, errors, stack = self.start, self.end, self.error, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.request_id)
            ends.append(0)
            errors.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = (f"{layer}.{cls.__name__}" if attr == "__init__"
                    else f"{layer}.{cls.__name__}.{attr}")
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(raw.__func__, name))
            elif isinstance(raw, types.FunctionType):
                new = self._wrap(raw, name)
            else:
                continue
            self._set(cls, attr, new)

    def install(self) -> None:
        modules = {layer: sys.modules[f"qdistill.{layer}"] for layer in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr in _public_names(mod):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif isinstance(obj, types.FunctionType):
                    replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for layer, attr in _EXTRA:
            obj = getattr(modules[layer], attr)
            replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "qdistill" or n.startswith("qdistill.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(ns, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64)
               - np.array(self.start, dtype=np.int64)).astype(float) / 1e6
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - covered

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent, request, name, start_ns,
        end_ns, error."""
        with open(path, "w") as fh:
            fh.write("id,parent,request,name,start_ns,end_ns,error\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.parent[i]},{self.request[i]},"
                         f"{self.names[self.name[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.error[i]}\n")


def layer_metrics(tracer: Tracer, trials: int) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``, from one traced pass
    that completed ``trials`` Monte Carlo trials."""
    name, parent, dur, self_ms = tracer.arrays()
    ids = tracer.ids
    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names] or [""])
    span_layer = layer_of[name] if len(name) else np.array([], dtype=str)
    error = np.array(tracer.error, dtype=bool)

    def mask(span_name):
        nid = ids.get(span_name)
        return name == nid if nid is not None else np.zeros(len(name), bool)

    def total_self(span_name):
        return float(self_ms[mask(span_name)].sum())

    def median_self_us(span_name):
        m = mask(span_name)
        return float(np.median(self_ms[m]) * 1e3) if m.any() else 0.0

    def children_per_parent(parent_name, child_name, per_call=True):
        parents = mask(parent_name)
        kids = mask(child_name) & (parent >= 0)
        kids &= parents[np.where(parent >= 0, parent, 0)]
        n = int(kids.sum())
        if not per_call:
            return float(n)
        return n / int(parents.sum()) if parents.any() else 0.0

    out = {}
    for layer in LAYERS:
        m = span_layer == layer
        out[f"{layer}.calls"] = (int(m.sum()), "count")
        out[f"{layer}.self_ms"] = (float(self_ms[m].sum()), "ms")
        out[f"{layer}.errors"] = (int(error[m].sum()), "count")
    step = "recurrence.RecurrenceMap.__call__"
    build = mask("recurrence._index_table")

    def per_trial(n):
        return n / trials if trials else 0.0

    out.update({
        "montecarlo.simulate_run.self_us_p50":
            (median_self_us("montecarlo.simulate_run"), "us"),
        "montecarlo.simulate_run.per_trial":
            (per_trial(int(mask("montecarlo.simulate_run").sum())), "ratio"),
        "montecarlo.trial_rng.self_ms":
            (total_self("montecarlo.trial_rng"), "ms"),
        "montecarlo.channel_state.per_trial":
            (per_trial(int(mask("montecarlo.ProtocolConfig.channel_state").sum())),
             "ratio"),
        "noise_models.apply_channel_phi.calls":
            (int(mask("noise_models.apply_channel_phi").sum()), "count"),
        "quantum_core.BellDiagonalState.validations":
            (int(mask("quantum_core.BellDiagonalState").sum()), "count"),
        "security_bounds.robustness_bound.self_ms":
            (total_self("security_bounds.robustness_bound"), "ms"),
        "recurrence.dejmps_noisy_step.calls":
            (int(mask("recurrence.dejmps_noisy_step").sum()), "count"),
        "recurrence.dejmps_noisy_step.self_us_p50":
            (median_self_us("recurrence.dejmps_noisy_step"), "us"),
        "fixed_point.reduced_solve.steps_per_solve":
            (children_per_parent("fixed_point.reduced_noisy_dejmps_fixed_point",
                                 step), "count"),
        "fixed_point.iterate_to_fixed_point.steps":
            (children_per_parent("fixed_point.iterate_to_fixed_point", step,
                                 per_call=False), "count"),
        "fixed_point.jacobian.evals_per_call":
            (children_per_parent("fixed_point.jacobian_spectral_radius", step),
             "count"),
        "fixed_point.jacobian_spectral_radius.self_ms":
            (total_self("fixed_point.jacobian_spectral_radius"), "ms"),
        "quantum_core.DensityMatrix.validations":
            (int(mask("quantum_core.DensityMatrix").sum()), "count"),
        "quantum_core.DensityMatrix.self_ms":
            (total_self("quantum_core.DensityMatrix"), "ms"),
        "quantum_core.trace_norm.self_ms":
            (total_self("quantum_core.trace_norm"), "ms"),
        "quantum_core.partial_trace.self_ms":
            (total_self("quantum_core.partial_trace"), "ms"),
        "steering_verify.product_form_check.self_us_p50":
            (median_self_us("steering_verify.product_form_check"), "us"),
        "steering_verify.steering_discrepancy.self_ms":
            (total_self("steering_verify.steering_discrepancy"), "ms"),
        "steering_verify.steer_rotate.self_ms":
            (total_self("steering_verify.steer_rotate"), "ms"),
        "steering_verify.build_t_matrix.self_ms":
            (total_self("steering_verify.build_t_matrix"), "ms"),
        "recurrence.index_table_build_ms":
            (float(dur[build][0]) if build.any() else 0.0, "ms"),
    })
    return out
