"""Spans and counts recorded from outside the program.

The benchmark never edits ``src/``.  Instead, ``instrument`` swaps each
traced callable for a wrapper at the place its caller looks it up (a module
global, a class attribute) and restores the original on exit.  Each wrapper
opens a span, calls through, adds its counts and closes the span.

Span stacks are kept per thread: ``run_robust_experiment`` fans candidates
out over a ``ThreadPoolExecutor``, and a shared stack would make spans on one
thread children of spans on another, driving self times negative.  A span
opened on a worker thread therefore has no parent, and
``robust.pool_wait`` records the main thread's time inside the pool block.
"""
from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Finished spans and integer counts, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self._clock(), parent=stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += int(n)

    def self_times(self) -> dict:
        """Self time per span name, summed over all threads."""
        out: dict = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out


def _wrap(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result
        finally:
            tracer.end(span)
    return traced


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_family(tr, args, kwargs, family):
    tr.count("measure.support_points", family.dominating.support_size)


def _count_phi(tr, args, kwargs, result):
    tr.count("young.phi_calls")
    tr.count("young.phi_points", np.size(args[1]))


def _count_gauge(tr, args, kwargs, result):
    table = _arg(args, kwargs, 2, "f")
    tr.count("orlicz.gauge_calls")
    tr.count("orlicz.gauge_iterations", result.iterations)
    tr.count("orlicz.modular_point_evals", result.iterations * table.length)


def _count_fit(tr, args, kwargs, result):
    mu = _arg(args, kwargs, 1, "mu")
    width = int(_arg(args, kwargs, 2, "width"))
    tr.count("fit.fit_calls")
    tr.count("fit.gram_flops", mu.support_size * (width + 1) ** 2)


def _count_target(tr, args, kwargs, values):
    tr.count("fit.target_points", values.shape[0])


def _count_eval(tr, args, kwargs, values):
    net = args[0]
    tr.count("net.eval_points", values.shape[0])
    tr.count("net.eval_layer_rows", values.shape[0] * len(net.layers))


def _count_clip(tr, args, kwargs, reg):
    tr.count("net.artifact_layers", len(reg.network.layers))


def _count_members(tr, args, kwargs, result):
    family = _arg(args, kwargs, 0, "family")
    tr.count("robust.member_evals", family.size)


def _count_write(tr, args, kwargs, result):
    tr.count("serialize.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _pool_class(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """Times the caller's stay in the ``with`` block: submit, wait, shut down."""

        def __enter__(self):
            self._wait_span = tracer.begin("robust.pool_wait")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._wait_span)
    return TracedPool


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the program's public calls through spans for the ``with`` body."""
    from orlicz_uat import fit, measure, net, orlicz, robust, serialize, young

    # (owner, attribute, span name, counter); the owner is where the caller
    # looks the name up.  dlvp_certificate imports orlicz.gauge_norm when it
    # is called, so that name is patched in orlicz as well as in robust.
    # Every name must exist: a layer metric of 0 then means no work, never a
    # name the benchmark lost track of.  Only the thread pool may go, and
    # robust.pool_wait_s then reads 0.
    plan = [
        (robust, "build_family", "robust.build_family", None),
        (robust, "sample_empirical", "measure.sample", None),
        (measure.MeasureFamily, "from_members", "measure.family", _count_family),
        (robust, "dlvp_certificate", "measure.certificate", None),
        (young.YoungFunction, "__call__", "young.phi", _count_phi),
        (robust, "complementary", "young.complementary", None),
        (robust, "gauge_norm", "orlicz.gauge", _count_gauge),
        (orlicz, "gauge_norm", "orlicz.gauge", _count_gauge),
        (robust, "l1_norm", "orlicz.l1", None),
        (robust, "fit_random_features", "fit.fit", _count_fit),
        (fit, "draw_features", "fit.draw_features", None),
        (fit.TargetFunction, "evaluate", "fit.target", _count_target),
        (net.Network, "evaluate_batch", "net.eval", _count_eval),
        (robust, "to_register_form", "net.register", None),
        (robust, "clip_and_localize", "net.clip", _count_clip),
        (robust, "robust_error", "robust.candidate_eval", _count_members),
        (robust, "verify_robust_bound", "robust.verify", None),
        (serialize, "json_text", "serialize.encode", None),
        (serialize, "csv_text", "serialize.encode", None),
        (serialize, "write_bytes", "serialize.write", _count_write),
    ]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in plan
               if attr not in owner.__dict__]
    if missing:
        raise LookupError(f"cannot trace {missing}: the program no longer has them")
    saved = []
    try:
        for owner, attr, name, counter in plan:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(tracer, name, raw.__func__, counter)))
            else:
                setattr(owner, attr, _wrap(tracer, name, raw, counter))
        if hasattr(robust, "ThreadPoolExecutor"):
            saved.append((robust, "ThreadPoolExecutor", robust.ThreadPoolExecutor))
            robust.ThreadPoolExecutor = _pool_class(tracer)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
