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
        pool = PagedKVPool(n_heads=2, head_dim=4, budget_tokens=35,
                           page_tokens=8)
        assert pool.budget_pages == 4
        assert pool.budget_tokens == 32

    def test_budget_below_one_page_rejected(self):
        with pytest.raises(ConfigError):
            PagedKVPool(n_heads=2, head_dim=4, budget_tokens=3, page_tokens=8)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ConfigError):
            PagedKVPool(n_heads=0, head_dim=4, budget_tokens=32)


class TestSlotLifecycle:
    def test_allocate_free_cycle_returns_pages(self):
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=64,
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
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=64)
        a = pool.allocate()
        pool.free(a)
        assert pool.allocate() != a

    def test_unknown_slot_rejected(self):
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=64)
        with pytest.raises(KVCacheError):
            pool.free(99)
        with pytest.raises(KVCacheError):
            pool.tokens(99)

    def test_partial_pages_count_toward_budget(self):
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=32,
                           page_tokens=8)
        s = pool.allocate()
        pool.append_placeholder(s, 1)   # one row occupies a whole page
        assert pool.free_pages == 3
        assert pool.used_tokens == 1
        assert pool.free_tokens == 24


class TestBudgetExhaustion:
    def test_typed_error_on_exhaustion(self):
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=16,
                           page_tokens=8)
        s = pool.allocate()
        pool.append_placeholder(s, 16)
        with pytest.raises(KVCacheError, match="budget exhausted"):
            pool.append_placeholder(s, 1)

    def test_exhaustion_across_slots(self):
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=16,
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
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=32,
                           page_tokens=8)
        assert pool.pages_needed(1) == 1
        assert pool.pages_needed(8) == 1
        assert pool.pages_needed(9) == 2
        assert pool.can_fit(32)
        assert not pool.can_fit(33)


class TestGatherCorrectness:
    def test_matches_single_request_paged_cache(self):
        """Interleaved appends across slots gather like per-request caches."""
        rng = np.random.default_rng(0)
        pool = PagedKVPool(n_heads=2, head_dim=4, budget_tokens=256,
                           page_tokens=8)
        refs = {}
        slots = {}
        for name in ("a", "b", "c"):
            slots[name] = pool.allocate()
            refs[name] = PagedKVCache(n_heads=2, head_dim=4, page_tokens=8)
        # Interleave appends of varying sizes (crossing page boundaries).
        schedule = [("a", 5), ("b", 12), ("a", 7), ("c", 1), ("b", 3),
                    ("a", 9), ("c", 16), ("b", 1)]
        for name, n in schedule:
            k, v = _rows(rng, n)
            pool.append(slots[name], k, v)
            refs[name].append(k, v)
        for name in ("a", "b", "c"):
            assert pool.tokens(slots[name]) == len(refs[name])
            np.testing.assert_array_equal(pool.keys(slots[name]),
                                          refs[name].keys())
            np.testing.assert_array_equal(pool.values(slots[name]),
                                          refs[name].values())

    def test_gather_after_free_and_realloc(self):
        """Recycled pages must not leak a previous slot's rows."""
        rng = np.random.default_rng(1)
        pool = PagedKVPool(n_heads=2, head_dim=4, budget_tokens=32,
                           page_tokens=8)
        a = pool.allocate()
        k, v = _rows(rng, 13)
        pool.append(a, k, v)
        pool.free(a)
        b = pool.allocate()
        k2, v2 = _rows(rng, 6)
        pool.append(b, k2, v2)
        assert pool.tokens(b) == 6
        np.testing.assert_array_equal(pool.keys(b), k2)
        np.testing.assert_array_equal(pool.values(b), v2)

    def test_append_matches_rowwise_reference(self):
        """Appends copy a slice per page; the pages end up exactly as a
        row-at-a-time copy leaves them, from a partly filled (recycled)
        page, across page boundaries and up to budget exhaustion."""
        def append_rowwise(pool, slot, k, v):
            pages = pool._slots[slot]
            for row in range(k.shape[0]):
                page = pages[-1] if pages else pool._grow(slot)
                if page.used == pool.page_tokens:
                    page = pool._grow(slot)
                page.keys[page.used] = k[row]
                page.values[page.used] = v[row]
                page.used += 1

        def pages(pool):
            every = [p for ps in pool._slots.values() for p in ps]
            return [(p.used, p.keys.copy(), p.values.copy())
                    for p in every + pool._free]

        rng = np.random.default_rng(2)
        pools = [PagedKVPool(n_heads=2, head_dim=4, budget_tokens=40,
                             page_tokens=8) for _ in range(2)]
        appends = [pools[0].append, lambda *a: append_rowwise(pools[1], *a)]
        first = [pool.allocate() for pool in pools]
        stale = _rows(rng, 13)
        for pool, append, slot in zip(pools, appends, first):
            append(slot, *stale)
            pool.free(slot)        # recycled pages keep stale rows
        slots = [pool.allocate() for pool in pools]
        for n in (3, 0, 5, 21, 1, 6):     # 3 partly fills the first page
            rows = _rows(rng, n)
            for append, slot in zip(appends, slots):
                append(slot, *rows)
        rows = _rows(rng, 9)
        for append, slot in zip(appends, slots):   # 36 of 40 tokens held
            with pytest.raises(KVCacheError):
                append(slot, *rows)
        want = pages(pools[1])
        for (used, k, v), (want_used, want_k, want_v) in zip(
                pages(pools[0]), want, strict=True):
            assert used == want_used
            np.testing.assert_array_equal(k, want_k)
            np.testing.assert_array_equal(v, want_v)
        assert [p.tokens(s) for p, s in zip(pools, slots)] == [40, 40]

    def test_empty_slot_gathers_empty(self):
        pool = PagedKVPool(n_heads=2, head_dim=4, budget_tokens=32)
        s = pool.allocate()
        assert pool.keys(s).shape == (0, 2, 4)
        assert pool.tokens(s) == 0

    def test_append_shape_mismatch_rejected(self):
        pool = PagedKVPool(n_heads=2, head_dim=4, budget_tokens=32)
        s = pool.allocate()
        with pytest.raises(ConfigError):
            pool.append(s, np.zeros((3, 1, 4), np.float32),
                        np.zeros((3, 1, 4), np.float32))


class TestPartialPrefillOccupancy:
    """Pool behavior for requests prefilled a chunk at a time.

    Under chunked prefill the serving engine appends a prompt across
    several iterations; the slot must keep accumulating pages (never
    releasing mid-prefill), and shedding the request mid-prefill must
    free everything exactly once.
    """

    def test_chunk_appends_accumulate_pages(self):
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=64,
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
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=32,
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
        pool = PagedKVPool(n_heads=1, head_dim=1, budget_tokens=32,
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
        return PagedKVPool(n_heads=2, head_dim=4, budget_tokens=64,
                           page_tokens=8)

    def test_swap_out_frees_pages_and_stashes_tokens(self):
        pool = self._pool()
        rng = np.random.default_rng(0)
        s = pool.allocate()
        pool.append(s, *_rows(rng, 20))
        assert pool.free_pages == 8 - 3
        n = pool.swap_out(s)
        assert n == 20
        assert pool.free_pages == 8
        assert pool.n_slots == 0
        assert pool.n_swapped == 1
        assert pool.swapped_tokens == 20

    def test_swap_round_trip_is_bit_identical(self):
        pool = self._pool()
        rng = np.random.default_rng(1)
        s = pool.allocate()
        k, v = _rows(rng, 19)
        pool.append(s, k, v)
        before_k, before_v = pool.keys(s), pool.values(s)
        pool.swap_out(s)
        new = pool.swap_in(s)
        np.testing.assert_array_equal(pool.keys(new), before_k)
        np.testing.assert_array_equal(pool.values(new), before_v)
        assert pool.tokens(new) == 19
        assert pool.n_swapped == 0

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
        rng = np.random.default_rng(2)
        s = pool.allocate()
        pool.append(s, *_rows(rng, 24))         # 3 pages
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


class TestOccupancyCounter:
    """``used_tokens`` is a running counter; placeholders write zeros."""

    def test_placeholder_on_recycled_page_reads_zeros(self):
        pool = PagedKVPool(n_heads=2, head_dim=4, budget_tokens=16,
                           page_tokens=8)
        s = pool.allocate()
        pool.append(s, *_rows(np.random.default_rng(0), 16))
        pool.free(s)
        s = pool.allocate()
        pool.append_placeholder(s, 11)
        assert pool.used_tokens == 11
        assert not pool.keys(s).any() and not pool.values(s).any()


_OPS = st.lists(st.tuples(
    st.sampled_from(["allocate", "append", "placeholder", "free",
                     "swap_out", "swap_in", "discard"]),
    st.integers(0, 7), st.integers(0, 13)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_used_tokens_tracks_live_slots(ops):
    """Random slot lifecycles against a reference of every slot's rows:
    after each step ``used_tokens`` equals the live slots' token sum and
    each slot reads back its rows -- placeholder rows as zeros, also on
    pages recycled from real appends."""
    pool = PagedKVPool(n_heads=1, head_dim=2, budget_tokens=32,
                       page_tokens=4)
    live: dict[int, np.ndarray] = {}       # slot -> expected keys
    swapped: dict[int, np.ndarray] = {}
    counter = 0
    for op, pick, n in ops:
        slots, stashed = sorted(live), sorted(swapped)
        slot = slots[pick % len(slots)] if slots else None
        if op == "allocate" or (slot is None and op in (
                "append", "placeholder", "free", "swap_out")):
            live[pool.allocate()] = np.zeros((0, 1, 2), np.float32)
        elif op in ("append", "placeholder"):
            if op == "append":      # distinct non-zero rows
                rows = (np.arange(counter, counter + 2 * n, dtype=np.float32)
                        .reshape(n, 1, 2) + 1)
                counter += 2 * n
            else:
                rows = np.zeros((n, 1, 2), np.float32)
            before = pool.tokens(slot)
            try:
                if op == "append":
                    pool.append(slot, rows, -rows)
                else:
                    pool.append_placeholder(slot, n)
            except KVCacheError:    # budget ran out part-way
                pass
            live[slot] = np.concatenate(
                [live[slot], rows[:pool.tokens(slot) - before]])
        elif op == "free":
            pool.free(slot)
            del live[slot]
        elif op == "swap_out":
            assert pool.swap_out(slot) == len(live[slot])
            swapped[slot] = live.pop(slot)
        elif stashed:
            old = stashed[pick % len(stashed)]
            if op == "discard":
                pool.discard_swapped(old)
                del swapped[old]
            elif pool.can_fit(len(swapped[old])):
                live[pool.swap_in(old)] = swapped.pop(old)
            else:
                with pytest.raises(KVCacheError):
                    pool.swap_in(old)
        assert pool.used_tokens == sum(pool.tokens(s) for s in live)
        for s, want in live.items():
            assert pool.tokens(s) == len(want)
            np.testing.assert_array_equal(pool.keys(s), want)
            np.testing.assert_array_equal(pool.values(s), -want)
