"""Per-layer trace taken from outside topocorr.

topocorr's modules call each other's functions through module globals
(``from .greensvd import svd_at`` binds a global that is looked up at call
time, and ``_integrand_factory`` imports the SVD route helpers when it is
called).  :meth:`Tracer.installed` therefore swaps each target function for
a recording wrapper in every loaded ``topocorr`` module that holds it, and
puts the originals back afterwards; ``src/`` is never edited.

Spans are kept in memory; the caller writes them out when the run ends.
A span's parent is the innermost open span on the same thread.  Workers of
the disorder sweep's thread pool start with no open span, so their spans
have no parent, but every span carries the op (one subcommand invocation)
that was running when it started.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Public functions one module imports from another, plus the private route
# helpers whose calls mark which numerical path ran.
TARGETS = {
    "topocorr.models": ("dynamical_matrix", "assert_stable", "is_dynamically_stable",
                        "_certified_decay", "gaussian_disorder"),
    "topocorr.greensvd": ("svd_at", "amplification_matrix", "_channel_svd",
                          "_dense_svd_ascending", "_det_refined_smallest",
                          "_smallest_triple_via_inverse"),
    "topocorr.correlations": ("freq_correlations", "equal_time"),
    "topocorr.topology": ("winding_number", "_bloch_determinants", "_refine_closing"),
    "topocorr.disorder": ("disorder_sweep",),
}

# What a span keeps from a call besides its timing.
_NOTES = {
    "_bloch_determinants": lambda args, kwargs, result: (kwargs["n_k"] if "n_k" in kwargs
                                                         else args[2]),
    "equal_time": lambda args, kwargs, result: (result.quadrature_report.panels,
                                                result.quadrature_report.est_error),
    "disorder_sweep": lambda args, kwargs, result: int(result.n_unstable.sum()),
}

# Per-layer metric names and units; BENCHMARK.json lists the same names.
UNITS = {
    "models.gate.calls": "count",
    "models.gate.self_s": "s",
    "models.gate.certificate_calls": "count",
    "models.dynamical_matrix.calls": "count",
    "models.dynamical_matrix.self_s": "s",
    "greensvd.channel.calls": "count",
    "greensvd.channel.self_s": "s",
    "greensvd.refine_inverse.calls": "count",
    "greensvd.dense.calls": "count",
    "greensvd.dense.self_s": "s",
    "greensvd.refine_det.calls": "count",
    "greensvd.svd_at.calls": "count",
    "greensvd.svd_at.p50_ms": "ms",
    "greensvd.svd_at.p95_ms": "ms",
    "greensvd.amplification.calls": "count",
    "greensvd.amplification.self_s": "s",
    "correlations.freq.calls": "count",
    "correlations.freq.self_s": "s",
    "correlations.equal_time.self_s": "s",
    "correlations.quad.nodes": "count",
    "correlations.quad.node_ms": "ms",
    "correlations.quad.panels": "count",
    "correlations.quad.est_error": "quanta",
    "topology.winding_number.calls": "count",
    "topology.winding_number.self_s": "s",
    "topology.bloch_det.calls": "count",
    "topology.bloch_det.k_points": "count",
    "topology.bisection_steps": "count",
    "topology.nudges": "count",
    "disorder.realizations": "count",
    "disorder.unstable": "count",
    "disorder.useful_ratio": "frac",
    "disorder.realizations_per_s": "1/s",
    "cli.self_s": "s",
}

_GATE = ("assert_stable", "is_dynamically_stable", "_certified_decay")
_FACTORIZATIONS = ("_channel_svd", "_dense_svd_ascending")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    op: str
    t0: float
    t1: float
    error: str | None = None
    note: object = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Span recorder; the wrappers record only inside :meth:`op`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = ""
        self._metered = False

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, args=(), kwargs=None):
        """Record one span; yields a one-element list that receives the result."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        box: list = []
        error = None
        t0 = time.perf_counter()
        try:
            yield box
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            note = None
            if box and name in _NOTES:
                note = _NOTES[name](args, kwargs or {}, box[0])
            self.spans.append(Span(sid, parent, name, self._op, t0, t1, error, note))

    @contextmanager
    def op(self, op_id: str):
        """Span of one subcommand invocation, the parent of its layer spans."""
        self._op, self._metered = op_id, True
        try:
            with self.span("cli"):
                yield
        finally:
            self._metered = False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._metered:
                return fn(*args, **kwargs)
            with self.span(name, args, kwargs) as box:
                result = fn(*args, **kwargs)
                box.append(result)
                return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper in all loaded topocorr modules."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod_name, names in TARGETS.items():
            for name in names:
                fn = getattr(sys.modules[mod_name], name)
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "topocorr" and not mod_name.startswith("topocorr."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    setattr(mod, attr, wrappers[id(val)][1])
                    patched.append((mod, attr, val))
        try:
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced pass.

    Self time is a span's duration minus the durations of its direct child
    spans; a layer's self time sums that over its spans.
    """
    child_s = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    parent_name = {s.sid: s.name for s in spans}

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def self_s(*names):
        return sum(s.seconds - child_s[s.sid] for n in names for s in by_name[n])

    svd_s = [s.seconds for s in by_name["svd_at"]]
    nodes = [s for n in _FACTORIZATIONS for s in by_name[n]
             if parent_name.get(s.parent) == "equal_time"]
    et = by_name["equal_time"]
    sweeps = by_name["disorder_sweep"]
    realizations = calls("gaussian_disorder")
    unstable = sum(s.note for s in sweeps if s.note is not None)
    sweep_s = sum(s.seconds for s in sweeps)
    winding = by_name["winding_number"]
    m = {
        "models.gate.calls": calls("is_dynamically_stable"),
        "models.gate.self_s": self_s(*_GATE),
        "models.gate.certificate_calls": calls("_certified_decay"),
        "models.dynamical_matrix.calls": calls("dynamical_matrix"),
        "models.dynamical_matrix.self_s": self_s("dynamical_matrix"),
        "greensvd.channel.calls": calls("_channel_svd"),
        "greensvd.channel.self_s": self_s("_channel_svd"),
        "greensvd.refine_inverse.calls": calls("_smallest_triple_via_inverse"),
        "greensvd.dense.calls": calls("_dense_svd_ascending"),
        "greensvd.dense.self_s": self_s("_dense_svd_ascending"),
        "greensvd.refine_det.calls": calls("_det_refined_smallest"),
        "greensvd.svd_at.calls": len(svd_s),
        "greensvd.svd_at.p50_ms": _percentile_ms(svd_s, 50),
        "greensvd.svd_at.p95_ms": _percentile_ms(svd_s, 95),
        "greensvd.amplification.calls": calls("amplification_matrix"),
        "greensvd.amplification.self_s": self_s("amplification_matrix"),
        "correlations.freq.calls": calls("freq_correlations"),
        "correlations.freq.self_s": self_s("freq_correlations"),
        "correlations.equal_time.self_s": self_s("equal_time"),
        "correlations.quad.nodes": len(nodes),
        "correlations.quad.node_ms": (1e3 * sum(s.seconds for s in et) / len(nodes)
                                      if nodes else 0.0),
        "correlations.quad.panels": sum(s.note[0] for s in et if s.note),
        "correlations.quad.est_error": sum(s.note[1] for s in et if s.note),
        "topology.winding_number.calls": len(winding),
        "topology.winding_number.self_s": self_s("winding_number"),
        "topology.bloch_det.calls": calls("_bloch_determinants"),
        "topology.bloch_det.k_points": sum(s.note for s in by_name["_bloch_determinants"]),
        "topology.bisection_steps": sum(parent_name.get(s.parent) == "_refine_closing"
                                        for s in winding),
        "topology.nudges": sum(s.error == "GapClosingError"
                               and parent_name.get(s.parent) != "_refine_closing"
                               for s in winding),
        "disorder.realizations": realizations,
        "disorder.unstable": unstable,
        "disorder.useful_ratio": (realizations - unstable) / realizations if realizations else 0.0,
        "disorder.realizations_per_s": realizations / sweep_s if sweep_s else 0.0,
        "cli.self_s": self_s("cli"),
    }
    return m
