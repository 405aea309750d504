"""Per-layer tracing from outside the package.

The tracer swaps the public functions of each ``cpchan`` module for timing
wrappers in the namespace of the module that calls them, because
``pipelines`` binds its callees with ``from ... import``: patching the
defining module alone would miss those calls. Originals are restored on exit.
Spans are kept in memory and reduced to per-estimate metrics at the end.
"""

from __future__ import annotations

import functools
import itertools
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from cpchan import cpsolver, harmonic, pipelines

ROOT = "pipelines.estimate"

# (module holding the call, attribute, span name)
INSTALL_POINTS = (
    (pipelines, "estimate_digital", ROOT),
    (pipelines, "estimate_hybrid", ROOT),
    (pipelines, "estimate_model_order", "modelorder.estimate_model_order"),
    (pipelines, "cp_als", "cpsolver.cp_als"),
    (cpsolver, "khatri_rao", "tensors.khatri_rao"),
    (pipelines, "esprit_tone", "harmonic.esprit_tone"),
    (pipelines, "refine_a1", "pipelines.refine"),
    (pipelines, "refine_a2", "pipelines.refine"),
    (pipelines, "estimate_psi_hybrid", "pipelines.estimate_psi_hybrid"),
    (pipelines, "jade_digital", "pipelines.jade"),
    (pipelines, "jade_hybrid", "pipelines.jade"),
    (pipelines, "acd_2d", "harmonic.acd_2d"),
    (pipelines, "max_unit_circle", "harmonic.max_unit_circle"),
    (harmonic, "max_unit_circle", "harmonic.max_unit_circle"),
    (pipelines, "channel_tensor", "simchannel.channel_tensor"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    request_id: int  # span id of the estimate the span belongs to
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _degree(ratio) -> int:
    """Nominal degree of the derivative polynomial that the exact 1-D step roots."""
    return 2 * (len(ratio.num) - 1) + 2 * max(len(ratio.den) - 1, 0)


class Tracer:
    """Records spans and counters for the estimates run inside :meth:`installed`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = []  # (span id, request id) of the open spans
        self._ids = itertools.count()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent_id, request_id = self._stack[-1] if self._stack else (None, span_id)
            if name == "harmonic.max_unit_circle":
                self.counts["max_unit_circle.degree_sum"] += _degree(args[0])
            self._stack.append((span_id, request_id))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent_id, request_id, name, start, end))
            if name == "cpsolver.cp_als":
                self.counts["cp_als.winner_iters"] += len(out[1])
            return out

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in INSTALL_POINTS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
            self.counts["zero_numerator_warnings"] += sum(
                issubclass(w.category, RuntimeWarning) and "numerator is identically zero" in str(w.message)
                for w in caught
            )
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(tracer: Tracer, results) -> dict[str, tuple[float, str]]:
    """Per-estimate means of every per-layer metric, keyed by metric name.

    ``results`` are the :class:`EstimationResult` objects of the traced
    estimates, in any order.
    """
    n = len(results)
    total: Counter = Counter()
    calls: Counter = Counter()
    child_s: Counter = Counter()  # seconds covered by direct children, keyed by the parent's name
    mu_calls_in_acd = 0
    by_id = {s.span_id: s for s in tracer.spans}
    for s in tracer.spans:
        total[s.name] += s.seconds
        calls[s.name] += 1
        if s.parent_id is not None:
            parent = by_id[s.parent_id].name
            child_s[parent] += s.seconds
            mu_calls_in_acd += parent == "harmonic.acd_2d" and s.name == "harmonic.max_unit_circle"
    if calls[ROOT] != n:
        raise RuntimeError(f"{calls[ROOT]} estimate spans for {n} traced estimates")
    als_iters = calls["tensors.khatri_rao"] / 4  # three mode updates and one fit per iteration
    winner = tracer.counts["cp_als.winner_iters"]

    def per(x):
        return x / n

    out = {}
    for name in (
        "modelorder.estimate_model_order",
        "cpsolver.cp_als",
        "tensors.khatri_rao",
        "harmonic.max_unit_circle",
        "harmonic.acd_2d",
        "harmonic.esprit_tone",
    ):
        out[f"{name}.s"] = (per(total[name]), "s")
        out[f"{name}.calls"] = (per(calls[name]), "count")
    out.update(
        {
            "modelorder.order_clamped": (per(sum("order_clamped" in r.diagnostics for r in results)), "count"),
            "cpsolver.als_iters": (per(als_iters), "count"),
            "cpsolver.als_iters_winner": (per(winner), "count"),
            "cpsolver.useful_iter_ratio": (winner / als_iters if als_iters else 0.0, "ratio"),
            "cpsolver.cp_als.share": (total["cpsolver.cp_als"] / total[ROOT], "ratio"),
            "harmonic.max_unit_circle.degree_mean": (
                tracer.counts["max_unit_circle.degree_sum"] / max(calls["harmonic.max_unit_circle"], 1),
                "count",
            ),
            "harmonic.max_unit_circle.share": (total["harmonic.max_unit_circle"] / total[ROOT], "ratio"),
            "harmonic.acd_2d.self_s": (per(total["harmonic.acd_2d"] - child_s["harmonic.acd_2d"]), "s"),
            "harmonic.steps_per_acd": (mu_calls_in_acd / max(calls["harmonic.acd_2d"], 1), "count"),
            "harmonic.zero_numerator_warnings": (per(tracer.counts["zero_numerator_warnings"]), "count"),
            "pipelines.per_path_s": (per(sum(r.timings["per_path_total"] for r in results)), "s"),
            "pipelines.cp_s": (per(sum(r.timings["cp"] for r in results)), "s"),
            "pipelines.jade.s": (per(total["pipelines.jade"]), "s"),
            "pipelines.refine.s": (per(total["pipelines.refine"]), "s"),
            "pipelines.estimate_psi_hybrid.s": (per(total["pipelines.estimate_psi_hybrid"]), "s"),
            "pipelines.self_s": (per(total[ROOT] - child_s[ROOT]), "s"),
            "simchannel.channel_tensor.s": (per(total["simchannel.channel_tensor"]), "s"),
        }
    )
    return out
