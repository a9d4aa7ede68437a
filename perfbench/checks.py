"""Correctness checks run after every replay, and the replay digest.

Each check raises :class:`CheckFailed` naming itself; the sample exits
nonzero when any check fails, so a broken invariant can never be
reported as a measurement.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np


class CheckFailed(Exception):
    """A named correctness check did not hold."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"check failed: {check}: {detail}")
        self.check = check


def _prompt_len(timed) -> int:
    return int(len(np.atleast_1d(timed.request.prompt)))


def check_conservation(workload, timings, shed, kill_instants) -> None:
    """submitted = finished + shed, with each request counted once.

    Requests are identified by ``(arrival, priority)``.  A fleet kill
    resubmits its casualties at the kill instant, so an output missing
    from the submitted set must sit at a kill instant, and there must be
    exactly as many of those as submitted requests left unmatched.
    """
    submitted = len(workload)
    if len(timings) + len(shed) != submitted:
        raise CheckFailed(
            "conservation", f"{len(timings)} finished + {len(shed)} shed "
            f"!= {submitted} submitted")
    inputs = Counter((t.arrival_us, int(t.priority)) for t in workload)
    outputs = Counter((t.arrival_us, int(t.priority)) for t in timings)
    outputs.update((s.arrival_us, int(s.priority)) for s in shed)
    extra = outputs - inputs
    missing = inputs - outputs
    stray = [k for k in extra if k[0] not in kill_instants]
    if stray or sum(extra.values()) != sum(missing.values()):
        raise CheckFailed(
            "conservation", f"{sum(missing.values())} requests unaccounted, "
            f"{sum(extra.values())} outputs unmatched "
            f"({len(stray)} not at a kill instant)")


def check_emitted(workload, timings) -> None:
    """Every finished request that did not time out emitted exactly
    ``max_new_tokens``; a timed-out one emitted no more than that.

    Timings match requests by (arrival, prompt length, priority); a fleet
    resubmission carries a new arrival, so it matches any request of its
    prompt length and priority.
    """
    exact: dict[tuple, int] = {}
    by_shape: dict[tuple, set] = {}
    for t in workload:
        shape = (_prompt_len(t), int(t.priority))
        exact[(t.arrival_us, *shape)] = t.request.max_new_tokens
        by_shape.setdefault(shape, set()).add(t.request.max_new_tokens)
    for t in timings:
        shape = (t.prompt_tokens, int(t.priority))
        want = exact.get((t.arrival_us, *shape))
        allowed = {want} if want is not None else by_shape.get(shape)
        if allowed is None:
            raise CheckFailed("emitted", f"no submitted request matches a "
                              f"{t.prompt_tokens}-token prompt")
        ok = (t.generated_tokens <= max(allowed) if t.timed_out
              else t.generated_tokens in allowed)
        if not ok:
            raise CheckFailed(
                "emitted", f"request arriving at {t.arrival_us} emitted "
                f"{t.generated_tokens} tokens, expected {sorted(allowed)}")


def check_kv_pool(servers) -> None:
    """Each KV pool ends holding only the prefix cache's pages."""
    for i, server in enumerate(servers):
        pool = server.pool
        cache = server.prefix_cache
        cached_tokens = cache.gpu_tokens if cache is not None else 0
        cached_pages = cache.gpu_pages if cache is not None else 0
        if (pool.used_tokens != cached_tokens or pool.n_swapped
                or pool.free_pages != pool.budget_pages - cached_pages):
            raise CheckFailed(
                "kv_pool", f"server {i}: {pool.used_tokens} tokens used, "
                f"{pool.n_swapped} swapped, {pool.free_pages} free pages; "
                f"prefix cache holds {cached_tokens} tokens in "
                f"{cached_pages} pages of {pool.budget_pages}")


def check_percentiles(summary: dict) -> None:
    """TTFT/TPOT percentiles are finite, positive and ordered."""
    for metric in ("ttft", "tpot"):
        vals = [summary[f"{metric}_{p}_ms"] for p in ("p50", "p95", "p99")]
        if not all(math.isfinite(v) and v > 0 for v in vals) or \
                not vals[0] <= vals[1] <= vals[2]:
            raise CheckFailed("percentiles", f"{metric} p50/p95/p99 = {vals}")


def run_all(prepared, stats, summary: dict) -> None:
    """Every post-replay check; raises :class:`CheckFailed` on the first."""
    merged = getattr(stats, "merged", stats)
    check_conservation(prepared.workload, merged.timings, merged.shed,
                       prepared.kill_instants)
    check_emitted(prepared.workload, merged.timings)
    check_kv_pool(prepared.servers)
    check_percentiles(summary)


def sim_digest(stats) -> str:
    """Hash of every request's simulated arrival, first-token and finish
    floats and emitted count, plus every shed arrival, in output order."""
    merged = getattr(stats, "merged", stats)
    h = hashlib.sha256()
    for t in merged.timings:
        h.update(f"{t.arrival_us.hex()} {t.first_token_us.hex()} "
                 f"{t.finish_us.hex()} {t.generated_tokens};".encode())
    for s in merged.shed:
        h.update(f"shed {s.arrival_us.hex()};".encode())
    return h.hexdigest()[:16]
