"""Tests for the shared paged-KV pool behind the serving engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, KVCacheError
from repro.model import PagedKVCache, PagedKVPool


def _rows(rng, n, heads=2, dim=4):
    k = rng.standard_normal((n, heads, dim)).astype(np.float32)
    v = rng.standard_normal((n, heads, dim)).astype(np.float32)
    return k, v


class TestConstruction:
    def test_budget_rounds_down_to_whole_pages(self):
        pool = PagedKVPool(budget_tokens=35, page_tokens=8)
        assert pool.budget_pages == 4
        assert pool.budget_tokens == 32

    def test_budget_below_one_page_rejected(self):
        with pytest.raises(ConfigError):
            PagedKVPool(budget_tokens=3, page_tokens=8)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ConfigError):
            PagedKVPool(budget_tokens=32, page_tokens=0)


class TestSlotLifecycle:
    def test_allocate_free_cycle_returns_pages(self):
        pool = PagedKVPool(budget_tokens=64,
                           page_tokens=8)
        slots = [pool.allocate() for _ in range(3)]
        for s in slots:
            pool.append_placeholder(s, 16)
        assert pool.free_pages == 8 - 6
        pool.free(slots[1])
        assert pool.free_pages == 8 - 4
        assert pool.n_slots == 2
        # Freed pages are reusable by a new slot.
        s = pool.allocate()
        pool.append_placeholder(s, 16)
        assert pool.free_pages == 8 - 6

    def test_slot_ids_never_reused(self):
        pool = PagedKVPool(budget_tokens=64)
        a = pool.allocate()
        pool.free(a)
        assert pool.allocate() != a

    def test_unknown_slot_rejected(self):
        pool = PagedKVPool(budget_tokens=64)
        with pytest.raises(KVCacheError):
            pool.free(99)
        with pytest.raises(KVCacheError):
            pool.tokens(99)

    def test_partial_pages_count_toward_budget(self):
        pool = PagedKVPool(budget_tokens=32,
                           page_tokens=8)
        s = pool.allocate()
        pool.append_placeholder(s, 1)   # one row occupies a whole page
        assert pool.free_pages == 3
        assert pool.used_tokens == 1
        assert pool.free_tokens == 24


class TestBudgetExhaustion:
    def test_typed_error_on_exhaustion(self):
        pool = PagedKVPool(budget_tokens=16,
                           page_tokens=8)
        s = pool.allocate()
        pool.append_placeholder(s, 16)
        with pytest.raises(KVCacheError, match="budget exhausted"):
            pool.append_placeholder(s, 1)

    def test_exhaustion_across_slots(self):
        pool = PagedKVPool(budget_tokens=16,
                           page_tokens=8)
        a, b = pool.allocate(), pool.allocate()
        pool.append_placeholder(a, 8)
        pool.append_placeholder(b, 8)
        assert not pool.can_fit(1)
        with pytest.raises(KVCacheError):
            pool.append_placeholder(b, 1)
        # Freeing one slot restores admissibility.
        pool.free(a)
        assert pool.can_fit(8)
        pool.append_placeholder(b, 8)

    def test_can_fit_matches_pages_needed(self):
        pool = PagedKVPool(budget_tokens=32,
                           page_tokens=8)
        assert pool.pages_needed(1) == 1
        assert pool.pages_needed(8) == 1
        assert pool.pages_needed(9) == 2
        assert pool.can_fit(32)
        assert not pool.can_fit(33)


class TestGatherCorrectness:
    """Per-slot token and page accounting against reference models."""

    def test_matches_single_request_paged_cache(self):
        """Interleaved appends across slots hold the tokens and pages of
        per-request caches fed the same rows."""
        rng = np.random.default_rng(0)
        pool = PagedKVPool(budget_tokens=256, page_tokens=8)
        refs = {}
        slots = {}
        for name in ("a", "b", "c"):
            slots[name] = pool.allocate()
            refs[name] = PagedKVCache(n_heads=2, head_dim=4, page_tokens=8)
        # Interleave appends of varying sizes (crossing page boundaries).
        schedule = [("a", 5), ("b", 12), ("a", 7), ("c", 1), ("b", 3),
                    ("a", 9), ("c", 16), ("b", 1)]
        for name, n in schedule:
            pool.append_placeholder(slots[name], n)
            refs[name].append(*_rows(rng, n))
        for name in ("a", "b", "c"):
            assert pool.tokens(slots[name]) == len(refs[name])
        assert pool.budget_pages - pool.free_pages == \
            sum(ref.n_pages for ref in refs.values())

    def test_gather_after_free_and_realloc(self):
        """Recycled pages must not carry a previous slot's tokens."""
        pool = PagedKVPool(budget_tokens=32, page_tokens=8)
        a = pool.allocate()
        pool.append_placeholder(a, 13)
        pool.free(a)
        b = pool.allocate()
        pool.append_placeholder(b, 6)
        assert pool.tokens(b) == 6
        assert pool.used_tokens == 6
        assert pool.free_pages == 3

    def test_append_matches_rowwise_reference(self):
        """Each slot holds exactly the pages a row-at-a-time fill would
        claim: from a recycled pool, across page boundaries and up to a
        refused append, which claims nothing."""
        page, budget = 8, 5

        def rowwise(fills, n):
            fills = list(fills)
            for _ in range(n):
                if not fills or fills[-1] == page:
                    fills.append(0)
                fills[-1] += 1
            return fills

        pool = PagedKVPool(budget_tokens=40, page_tokens=page)
        stale = pool.allocate()
        pool.append_placeholder(stale, 13)
        pool.free(stale)
        slots = [pool.allocate(), pool.allocate()]
        want = {s: [] for s in slots}
        for i, n in enumerate((3, 0, 5, 14, 1, 6, 9, 2)):
            slot = slots[i % 2]
            grown = rowwise(want[slot], n)
            held = sum(len(f) for s, f in want.items() if s != slot)
            if held + len(grown) > budget:
                with pytest.raises(KVCacheError, match="budget exhausted"):
                    pool.append_placeholder(slot, n)
            else:
                pool.append_placeholder(slot, n)
                want[slot] = grown
            for s in slots:
                assert pool.tokens(s) == sum(want[s])
            assert pool.free_pages == budget - sum(
                len(f) for f in want.values())
        assert pool.free_pages == 0

    def test_empty_slot_gathers_empty(self):
        pool = PagedKVPool(budget_tokens=32)
        s = pool.allocate()
        pool.append_placeholder(s, 0)
        assert pool.tokens(s) == 0
        assert pool.free_pages == pool.budget_pages
        assert pool.swap_out(s) == 0


class TestPartialPrefillOccupancy:
    """Pool behavior for requests prefilled a chunk at a time.

    Under chunked prefill the serving engine appends a prompt across
    several iterations; the slot must keep accumulating pages (never
    releasing mid-prefill), and shedding the request mid-prefill must
    free everything exactly once.
    """

    def test_chunk_appends_accumulate_pages(self):
        pool = PagedKVPool(budget_tokens=64,
                           page_tokens=8)
        s = pool.allocate()
        used = []
        for _ in range(4):       # 16-token prompt in 4-token chunks
            pool.append_placeholder(s, 4)
            used.append(pool.used_tokens)
        assert used == [4, 8, 12, 16]
        assert pool.tokens(s) == 16
        # 16 tokens at 8/page: exactly 2 pages in use, monotone growth.
        assert pool.budget_pages - pool.free_pages == 2

    def test_mid_prefill_free_returns_all_pages(self):
        """Shedding a half-prefilled request releases every page it
        accumulated, and the pages are immediately reusable."""
        pool = PagedKVPool(budget_tokens=32,
                           page_tokens=8)
        s = pool.allocate()
        pool.append_placeholder(s, 8)
        pool.append_placeholder(s, 5)    # mid-prefill: 13 of 24 tokens
        assert pool.used_tokens == 13
        pool.free(s)
        assert pool.n_slots == 0
        assert pool.used_tokens == 0
        assert pool.free_pages == pool.budget_pages
        other = pool.allocate()
        pool.append_placeholder(other, 32)   # whole budget fits again

    def test_double_free_rejected(self):
        pool = PagedKVPool(budget_tokens=32,
                           page_tokens=8)
        s = pool.allocate()
        pool.append_placeholder(s, 5)
        pool.free(s)
        with pytest.raises(KVCacheError):
            pool.free(s)
        assert pool.free_pages == pool.budget_pages

    def test_served_chunked_request_holds_then_frees(self):
        """End to end through the server: a chunk-prefilled request holds
        KV across iterations and the pool drains fully at the end."""
        from repro.model import DS3, MoETransformer, tiny_config
        from repro.serving import (
            BatchSchedulerConfig,
            ContinuousBatchingServer,
            InferenceSession,
            poisson_workload,
        )
        session = InferenceSession(MoETransformer(tiny_config("tiny-qw")),
                                   DS3)
        server = ContinuousBatchingServer(session, BatchSchedulerConfig(
            kv_budget_tokens=128, max_batch_size=2, page_tokens=8,
            prefill_chunk_tokens=4))
        stats = server.replay(poisson_workload(
            n_requests=2, mean_interarrival_us=1e3, prompt_len=20,
            max_new_tokens=3, vocab_size=64, seed=5))
        # Mid-prefill iterations held pages for not-yet-decodable slots.
        mid = [p for p in server.timeline.points if p.n_prefilling > 0]
        assert mid and all(p.kv_used_tokens > 0 for p in mid)
        assert all(t.generated_tokens == 3 for t in stats.timings)
        assert server.pool.n_slots == 0
        assert server.pool.used_tokens == 0
        assert server._reserved_pages == 0


class TestSwapLifecycle:
    """ISSUE 5: the preemption swap-out/swap-in page lifecycle."""

    def _pool(self):
        return PagedKVPool(budget_tokens=64,
                           page_tokens=8)

    def test_swap_out_frees_pages_and_stashes_tokens(self):
        pool = self._pool()
        s = pool.allocate()
        pool.append_placeholder(s, 20)
        assert pool.free_pages == 8 - 3
        n = pool.swap_out(s)
        assert n == 20
        assert pool.free_pages == 8
        assert pool.n_slots == 0
        assert pool.n_swapped == 1
        assert pool.swapped_tokens == 20

    def test_swapped_slot_cannot_be_freed_twice(self):
        # Pages are released exactly once: at swap-out.  The retired slot
        # id is no longer allocated, so free()/append() on it raise.
        pool = self._pool()
        s = pool.allocate()
        pool.append_placeholder(s, 10)
        pool.swap_out(s)
        with pytest.raises(KVCacheError):
            pool.free(s)
        with pytest.raises(KVCacheError):
            pool.append_placeholder(s, 1)
        with pytest.raises(KVCacheError):
            pool.swap_out(s)

    def test_swap_in_requires_capacity(self):
        pool = self._pool()
        s = pool.allocate()
        pool.append_placeholder(s, 24)          # 3 pages
        pool.swap_out(s)
        hog = pool.allocate()
        pool.append_placeholder(hog, 48)        # 6 of 8 pages
        with pytest.raises(KVCacheError):
            pool.swap_in(s)
        # The stash survives a failed swap-in; freeing the hog unblocks it.
        assert pool.swapped_tokens == 24
        pool.free(hog)
        new = pool.swap_in(s)
        assert pool.tokens(new) == 24

    def test_discard_swapped_drops_stash(self):
        pool = self._pool()
        s = pool.allocate()
        pool.append_placeholder(s, 12)
        pool.swap_out(s)
        pool.discard_swapped(s)
        assert pool.n_swapped == 0
        assert pool.swapped_tokens == 0
        with pytest.raises(KVCacheError):
            pool.discard_swapped(s)
        with pytest.raises(KVCacheError):
            pool.swap_in(s)

    def test_swap_unknown_slot_rejected(self):
        pool = self._pool()
        with pytest.raises(KVCacheError):
            pool.swap_out(99)
        with pytest.raises(KVCacheError):
            pool.swap_in(99)

    def test_empty_slot_swaps_cleanly(self):
        pool = self._pool()
        s = pool.allocate()
        assert pool.swap_out(s) == 0
        new = pool.swap_in(s)
        assert pool.tokens(new) == 0


class TestAtomicExhaustion:
    """A refused append is checked before anything changes."""

    def test_refused_append_changes_nothing(self):
        pool = PagedKVPool(budget_tokens=32, page_tokens=8)
        a, b = pool.allocate(), pool.allocate()
        pool.append_placeholder(a, 13)          # 2 pages, 3 rows spare
        pool.append_placeholder(b, 9)           # 2 pages
        before = (pool.used_tokens, pool.free_pages, pool.tokens(a),
                  pool.tokens(b), pool.page_ops)
        with pytest.raises(KVCacheError, match="budget exhausted"):
            pool.append_placeholder(a, 12)      # fits 3 rows, needs 2 pages
        assert (pool.used_tokens, pool.free_pages, pool.tokens(a),
                pool.tokens(b), pool.page_ops) == before
        pool.append_placeholder(a, 3)           # the spare rows still fit
        assert pool.tokens(a) == 16 and pool.free_pages == 0


_OPS = st.lists(st.tuples(
    st.sampled_from(["allocate", "placeholder", "free", "swap_out",
                     "swap_in", "discard"]),
    st.integers(0, 7), st.integers(0, 13)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_used_tokens_tracks_live_slots(ops):
    """Random slot lifecycles against a reference of every slot's token
    count: after each step ``used_tokens`` equals the live slots' sum,
    each slot holds its count in whole pages, and an append the budget
    refuses leaves the pool as it was."""
    page = 4
    pool = PagedKVPool(budget_tokens=32, page_tokens=page)
    live: dict[int, int] = {}               # slot -> tokens
    swapped: dict[int, int] = {}
    for op, pick, n in ops:
        slots, stashed = sorted(live), sorted(swapped)
        slot = slots[pick % len(slots)] if slots else None
        if op == "allocate" or (slot is None and op in (
                "placeholder", "free", "swap_out")):
            live[pool.allocate()] = 0
        elif op == "placeholder":
            others = sum(-(-t // page) for s, t in live.items() if s != slot)
            if others + -(-(live[slot] + n) // page) > pool.budget_pages:
                with pytest.raises(KVCacheError):
                    pool.append_placeholder(slot, n)
            else:
                pool.append_placeholder(slot, n)
                live[slot] += n
        elif op == "free":
            pool.free(slot)
            del live[slot]
        elif op == "swap_out":
            assert pool.swap_out(slot) == live[slot]
            swapped[slot] = live.pop(slot)
        elif stashed:
            old = stashed[pick % len(stashed)]
            if op == "discard":
                pool.discard_swapped(old)
                del swapped[old]
            elif pool.can_fit(swapped[old]):
                live[pool.swap_in(old)] = swapped.pop(old)
            else:
                with pytest.raises(KVCacheError):
                    pool.swap_in(old)
        assert pool.used_tokens == sum(live.values())
        assert pool.swapped_tokens == sum(swapped.values())
        assert pool.n_slots == len(live) and pool.n_swapped == len(swapped)
        assert pool.free_pages == pool.budget_pages - sum(
            -(-t // page) for t in live.values())
        for s, want in live.items():
            assert pool.tokens(s) == want
