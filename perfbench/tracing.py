"""Outside-in tracing of the simulator's layers.

The benchmark wraps the public calls into each module (layer names are
module names) and records one span per call: name, start, end, parent
span and, where one is known, the request id.  Nothing inside the
program changes; the wrappers are installed on classes and module
bindings from this file.

- A call that re-enters the layer it is already in (a cost-model method
  calling another, a dispatching kernel calling its lane) stays inside
  the outer span, so ``calls`` counts entries into the layer.
- Spans are kept in memory while recording and written out at the end,
  as plain JSON and as Chrome trace-event JSON that Perfetto or
  ``chrome://tracing`` open offline.
- A span's self time is its duration minus the time its child spans
  cover.  Calls are single-threaded and strictly nested, so children
  never overlap and the per-layer self times partition the root span.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Span record fields (a list per span, mutated in place while open).
NAME, LAYER, START, END, PARENT, REQUEST = range(6)

ROOT_LAYER = "replay"
COST_LAYER = "serving.continuous.BatchCostModel"
DES_LAYERS = ("sched.decode", "hw.event_sim")
# The cost model's pricing methods: the base of its memo hit ratio.  Its
# other methods (window, dispatch-arm and kernel-count lookups, the
# swap byte count) are timed in the layer but are not priced calls.
PRICED_SUFFIX = "_step_us"
PRICED = ("batched_prefill_us", "pipeline_factors", "swap_transfer_us",
          "recompute_resume_us")


class Tracer:
    """Span recorder plus the counters measured at layer boundaries."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request_ids: dict[int, int] = {}
        self._sim_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._des_entries = 0          # DES spans opened so far
        self._des_at_priced = 0        # ... as of the last priced call

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, layer: str, request) -> list:
        stack = self.stack
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, request]
        if layer in DES_LAYERS:
            self._des_entries += 1
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    def start(self, request_ids: dict[int, int]) -> None:
        """Begin recording under a root span covering the measured region."""
        self.request_ids = request_ids
        self.active = True
        self._root = self._open("replay", ROOT_LAYER, None)

    def stop(self) -> None:
        self._close(self._root)
        self.active = False

    def wrap(self, layer: str, name: str, fn, on_call=None, on_result=None,
             request_of=None):
        """``fn`` recorded as a span of ``layer`` while the tracer is active.

        ``on_call(args)`` and ``on_result(args, result)`` update counters
        at the boundary; they run outside the span, so their cost shows
        up as tracing overhead in the caller, not in the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (
                    stack and tracer.spans[stack[-1]][LAYER] == layer):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            request = request_of(args) if request_of is not None else None
            span = tracer._open(name, layer, request)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch_method(self, cls, attr: str, layer: str, **hooks) -> None:
        """Wrap a plain method of ``cls``; missing names are skipped."""
        fn = cls.__dict__.get(attr)
        if fn is None or not callable(fn) or isinstance(
                fn, (staticmethod, classmethod)):
            return
        setattr(cls, attr, self.wrap(layer, f"{cls.__name__}.{attr}", fn,
                                     **hooks))

    def patch_function(self, module, attr: str, layer: str, **hooks) -> None:
        """Wrap a module function and every ``repro`` binding of it.

        Modules that imported the function by name hold their own
        reference, so each such binding is replaced too.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        traced = self.wrap(layer, attr, fn, **hooks)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, attr, None) is fn:
                setattr(mod, attr, traced)

    # -- boundary counters ---------------------------------------------------

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def _kernel_call(self, args) -> None:
        # Work computed from tensor shapes: x is (m, k) fp32 activations,
        # weights are (k, n) packed, the output is (m, n) fp32.
        _, x, weights = args[:3]
        m = x.shape[0]
        k, n = weights.original_shape
        self._count("kernels.gflop", 2.0 * m * k * n / 1e9)
        self._count("kernels.mb_moved",
                    (4.0 * m * k + weights.nbytes() + 4.0 * m * n) / 1e6)

    def _priced(self, _args, _result) -> None:
        # A priced call is a memo miss when the task-graph simulator ran
        # since the previous priced call returned: inside the call, or in
        # the lookups the engine made for the same step just before it
        # (``_cached_key_works`` resolving the dispatch arm, for one).
        self._count(f"{COST_LAYER}.priced")
        if self._des_entries != self._des_at_priced:
            self._count(f"{COST_LAYER}.misses")
            self._des_at_priced = self._des_entries

    def _sim_run(self, args, _result) -> None:
        sim = args[0]
        seen = self._sim_seen.get(sim, 0)
        self._count("hw.event_sim.tasks", len(sim.all_tasks) - seen)
        self._sim_seen[sim] = len(sim.all_tasks)

    # -- reductions ----------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls`` and ``self_s``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for span, covered in zip(self.spans, child):
            row = out[span[LAYER]]
            row["calls"] += 1
            row["self_s"] += span[END] - span[START] - covered
        return out

    def write(self, directory: Path, stem: str) -> tuple[Path, Path]:
        """Write the spans as JSON and as Chrome trace-event JSON."""
        directory.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        spans_path = directory / f"{stem}.spans.json"
        chrome_path = directory / f"{stem}.trace.json"
        rows = [[s[NAME], s[LAYER], (s[START] - t0) * 1e6,
                 (s[END] - t0) * 1e6, s[PARENT], s[REQUEST]]
                for s in self.spans]
        spans_path.write_text(json.dumps({
            "fields": ["name", "layer", "start_us", "end_us", "parent",
                       "request"],
            "spans": rows}))
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": stem}}]
        for idx, (name, layer, start, end, parent, request) in enumerate(rows):
            args = {"span": idx, "parent": parent}
            if request is not None:
                args["request"] = request
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": start, "dur": end - start, "pid": 1,
                           "tid": 1, "args": args})
        chrome_path.write_text(json.dumps({"traceEvents": events,
                                           "displayTimeUnit": "ms"}))
        return spans_path, chrome_path


def install() -> Tracer:
    """Wrap every traced layer; recording starts with :meth:`Tracer.start`."""
    from repro.faults.injector import FaultInjector
    from repro.hw.event_sim import Simulator
    from repro.kernels.base import CPUGemmKernel
    from repro.model.attention import MLAAttention, MultiHeadAttention
    from repro.model.paged import PagedKVPool
    from repro.moe.expert_cache import ExpertCacheManager
    from repro.sched import decode
    from repro.sched.cuda_graph import GraphCache
    from repro.serving.continuous import (BatchCostModel,
                                          ContinuousBatchingServer)
    from repro.serving.controller import OnlineController
    from repro.serving.fleet import FleetRouter
    from repro.serving.metrics import BatchTimeline, ServingStats
    from repro.serving.prefix_cache import RadixPrefixCache
    from repro.serving.session import InferenceSession

    t = Tracer()
    t.patch_method(
        InferenceSession, "generate", "serving.session",
        request_of=lambda args: t.request_ids.get(id(args[1])),
        on_result=lambda args, r: t._count("serving.session.tokens",
                                           len(r.tokens)))

    def kernel_classes(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from kernel_classes(sub)
    for cls in set(kernel_classes(CPUGemmKernel)):
        t.patch_method(cls, "run", "kernels", on_call=t._kernel_call)

    for cls in (MultiHeadAttention, MLAAttention):
        t.patch_method(cls, "forward", "model.attention")
    # Every public method, plus the private memo lookup the engine calls
    # directly; only the pricing methods count towards the hit ratio.
    for attr in [a for a in vars(BatchCostModel) if not a.startswith("_")] \
            + ["_cached_key_works"]:
        priced = attr.endswith(PRICED_SUFFIX) or attr in PRICED
        t.patch_method(BatchCostModel, attr, COST_LAYER,
                       on_result=t._priced if priced else None)
    for attr in ("batched_step_time_us", "hybrid_step_time_us",
                 "cache_aware_step_time_us"):
        t.patch_function(decode, attr, "sched.decode")
    t.patch_method(Simulator, "run", "hw.event_sim", on_result=t._sim_run)
    t.patch_method(ExpertCacheManager, "step", "moe.expert_cache")
    for attr in ("perturbation_at", "failed_uploads", "retry_fails"):
        t.patch_method(FaultInjector, attr, "faults.injector")
    t.patch_method(
        GraphCache, "lookup", "sched.cuda_graph",
        on_result=lambda args, r: t._count("sched.cuda_graph.captures",
                                           r.captured))
    for attr in ("allocate", "free", "append", "append_placeholder",
                 "swap_out", "swap_in", "discard_swapped"):
        t.patch_method(PagedKVPool, attr, "model.paged")
    for attr in ("probe", "acquire", "release", "insert", "evict_pages",
                 "park_idle"):
        t.patch_method(RadixPrefixCache, attr, "serving.prefix_cache")
    t.patch_method(FleetRouter, "replay", "serving.fleet")
    t.patch_method(OnlineController, "tick", "serving.controller")
    for cls, attr in ((ServingStats, "summary"), (ServingStats, "goodput"),
                      (BatchTimeline, "record")):
        t.patch_method(cls, attr, "serving.metrics")
    t.patch_method(ContinuousBatchingServer, "replay", "serving.continuous")
    return t
