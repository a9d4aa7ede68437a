"""Unit and property tests for the radix prefix-KV cache (ISSUE 7).

Direct tests pin the page-quantized semantics (page-aligned matches
strictly shorter than the prompt, mid-page divergence, split/refcount
inheritance, protect sets, host tiering); the hypothesis suite fuzzes
random insert/match/extend/evict/park interleavings and checks the
structural invariants the serving engine relies on:

- page-refcount conservation: after releasing every outstanding
  acquire, ``total_refs`` returns to zero;
- pool conservation: with no request slots, the pool's used tokens
  always equal the cache's GPU-resident tokens (pages freed exactly
  once -- the pool's own double-free guard would raise otherwise);
- a match is never the whole prompt and is always page-aligned;
- the same operation sequence replays bit-identically on a fresh cache.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, KVCacheError
from repro.model.paged import PagedKVPool
from repro.serving import (
    KVTierConfig,
    MatchProbe,
    PrefixCacheConfig,
    RadixPrefixCache,
)

PAGE = 16


def make_cache(budget_tokens=4096, capacity_tokens=None, tier=None):
    pool = PagedKVPool(budget_tokens=budget_tokens, page_tokens=PAGE)
    cfg = PrefixCacheConfig(capacity_tokens=capacity_tokens)
    return RadixPrefixCache(pool, cfg, tier=tier)


def _nodes(cache):
    """Every non-root node of the cache's tree, depth-first."""
    stack = list(cache._root.children.values())
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def toks(*pages):
    """Build a prompt from page indices: page i is 16 copies of i."""
    out = []
    for p in pages:
        out.extend([p] * PAGE)
    return tuple(out)


# -- config validation -------------------------------------------------------

def test_config_rejects_nonpositive_capacity():
    with pytest.raises(ConfigError):
        PrefixCacheConfig(capacity_tokens=0)
    with pytest.raises(ConfigError):
        PrefixCacheConfig(capacity_tokens=-16)
    assert PrefixCacheConfig(capacity_tokens=None).capacity_tokens is None


def test_tier_config_validation():
    with pytest.raises(ConfigError):
        KVTierConfig(host_budget_tokens=0)
    with pytest.raises(ConfigError):
        KVTierConfig(idle_park_us=-1.0)


# -- matching semantics ------------------------------------------------------

def test_probe_empty_cache_matches_nothing():
    cache = make_cache()
    probe = cache.probe(toks(1, 2))
    assert probe == MatchProbe(0, 0, ())


def test_match_never_covers_whole_prompt():
    cache = make_cache()
    prompt = toks(1, 2, 3)
    cache.insert(prompt, now=0.0, max_new_pages=100)
    # The full prompt is cached, but at most len - 1 (page-floored) can
    # ever be served: the last token's logits must be recomputed.
    probe = cache.probe(prompt)
    assert probe.matched_tokens == 2 * PAGE
    assert probe.matched_tokens < len(prompt)
    # A one-page prompt can never match at all.
    assert cache.probe(toks(1)).matched_tokens == 0
    assert cache.probe((7,)).matched_tokens == 0


def test_match_is_page_aligned_on_mid_page_divergence():
    cache = make_cache()
    prompt = toks(1, 2)
    cache.insert(prompt, now=0.0, max_new_pages=100)
    # Diverge 3 tokens into the second page: only page 1 is reusable.
    other = list(prompt)
    other[PAGE + 3] = 99
    probe = cache.probe(tuple(other) + toks(5))
    assert probe.matched_tokens == PAGE


def test_extension_prompt_matches_previous_turn():
    cache = make_cache()
    turn1 = toks(1, 2)
    cache.insert(turn1, now=0.0, max_new_pages=100)
    turn2 = turn1 + toks(3, 4)
    assert cache.probe(turn2).matched_tokens == 2 * PAGE
    cache.insert(turn2, now=1.0, max_new_pages=100)
    turn3 = turn2 + toks(5)
    assert cache.probe(turn3).matched_tokens == 4 * PAGE


# -- acquire / release -------------------------------------------------------

def test_acquire_release_roundtrip_conserves_refs():
    cache = make_cache()
    prompt = toks(1, 2, 3)
    cache.insert(prompt, now=0.0, max_new_pages=100)
    matched, unparked = cache.acquire(prompt, now=1.0)
    assert matched == 2 * PAGE and unparked == 0
    assert cache.total_refs > 0
    cache.release(prompt, matched, now=2.0)
    assert cache.total_refs == 0


def test_acquire_splits_and_release_rewalks_both_halves():
    cache = make_cache()
    long = toks(1, 2, 3, 4)
    cache.insert(long, now=0.0, max_new_pages=100)
    assert cache.n_nodes == 1
    # Acquiring a 2-page prefix must split the 4-page node.
    short = toks(1, 2) + (9,)
    matched, _ = cache.acquire(short, now=1.0)
    assert matched == 2 * PAGE
    assert cache.n_nodes == 2
    # Pool conservation across the split (free-then-allocate).
    assert cache.pool.used_tokens == cache.gpu_tokens == 4 * PAGE
    cache.release(short, matched, now=2.0)
    assert cache.total_refs == 0


def test_split_copies_refs_to_both_halves():
    cache = make_cache()
    long = toks(1, 2, 3, 4)
    cache.insert(long, now=0.0, max_new_pages=100)
    m_long, _ = cache.acquire(long + (9,), now=1.0)
    assert m_long == 4 * PAGE
    # A second acquire of a shorter prefix splits the held node: the
    # back half keeps the first holder's reference.
    m_short, _ = cache.acquire(toks(1, 2) + (9,), now=2.0)
    assert m_short == 2 * PAGE
    assert cache.total_refs == 3   # long holder covers 2 nodes, short 1
    cache.release(long + (9,), m_long, now=3.0)
    cache.release(toks(1, 2) + (9,), m_short, now=3.0)
    assert cache.total_refs == 0


def test_release_underflow_raises():
    cache = make_cache()
    prompt = toks(1, 2)
    cache.insert(prompt, now=0.0, max_new_pages=100)
    matched, _ = cache.acquire(prompt, now=1.0)
    cache.release(prompt, matched, now=2.0)
    with pytest.raises(KVCacheError):
        cache.release(prompt, matched, now=3.0)


def test_release_zero_match_is_noop():
    cache = make_cache()
    cache.release(toks(1), 0, now=0.0)   # must not raise
    assert cache.total_refs == 0


# -- insert / capacity / eviction --------------------------------------------

def test_insert_returns_new_tokens_only():
    cache = make_cache()
    assert cache.insert(toks(1, 2), now=0.0, max_new_pages=100) == 2 * PAGE
    # Re-inserting the same prompt adds nothing.
    assert cache.insert(toks(1, 2), now=1.0, max_new_pages=100) == 0
    # Extending adds only the fresh suffix.
    assert cache.insert(toks(1, 2, 3), now=2.0, max_new_pages=100) == PAGE
    assert cache.stats.inserted_tokens == 3 * PAGE


def test_insert_respects_page_grant():
    cache = make_cache()
    got = cache.insert(toks(1, 2, 3, 4), now=0.0, max_new_pages=2)
    assert got == 2 * PAGE
    assert cache.gpu_tokens == 2 * PAGE
    # Zero grant with evictable entries: the insert self-finances by
    # evicting its own LRU entry -- footprint never grows.
    assert cache.insert(toks(9, 8), now=1.0, max_new_pages=0) == 2 * PAGE
    assert cache.gpu_tokens == 2 * PAGE
    assert cache.probe(toks(1, 2) + (5,)).matched_tokens == 0
    # Zero grant with nothing to evict: nothing is inserted.
    empty = make_cache()
    assert empty.insert(toks(9, 8), now=0.0, max_new_pages=0) == 0


def test_capacity_cap_evicts_lru_then_trims():
    cache = make_cache(capacity_tokens=3 * PAGE)
    cache.insert(toks(1, 2), now=0.0, max_new_pages=100)
    cache.insert(toks(7, 8, 9), now=1.0, max_new_pages=100)
    # Total footprint never exceeds the cap; the older entry was evicted.
    assert cache.gpu_tokens + cache.host_tokens <= 3 * PAGE
    assert cache.stats.evicted_tokens >= 2 * PAGE
    assert cache.probe(toks(7, 8, 9)).matched_tokens == 2 * PAGE


def test_evict_pages_respects_refs_and_protect():
    cache = make_cache()
    a, b = toks(1, 2), toks(7, 8)
    cache.insert(a, now=0.0, max_new_pages=100)
    cache.insert(b, now=1.0, max_new_pages=100)
    matched, _ = cache.acquire(a + (5,), now=2.0)
    probe_b = cache.probe(b + (5,))
    # Referenced node a and protected node b: nothing is evictable.
    assert cache.evict_pages(100, now=3.0, protect=probe_b.nodes) == 0
    assert cache.probe(a + (5,)).matched_tokens == 2 * PAGE
    cache.release(a + (5,), matched, now=4.0)
    assert cache.evict_pages(100, now=5.0) == 4
    assert cache.gpu_tokens == 0 and cache.pool.used_tokens == 0


def test_eviction_is_lru_deterministic():
    cache = make_cache()
    cache.insert(toks(1, 2), now=0.0, max_new_pages=100)
    cache.insert(toks(7, 8), now=5.0, max_new_pages=100)
    assert cache.evict_pages(2, now=10.0) == 2
    # LRU: the older entry went first.
    assert cache.probe(toks(1, 2) + (5,)).matched_tokens == 0
    assert cache.probe(toks(7, 8) + (5,)).matched_tokens == 2 * PAGE


# -- host tier ---------------------------------------------------------------

TIER = KVTierConfig(host_budget_tokens=8 * PAGE, idle_park_us=10.0)


def test_park_frees_pool_pages_and_probe_reports_unpark():
    cache = make_cache(tier=TIER)
    prompt = toks(1, 2, 3)
    cache.insert(prompt, now=0.0, max_new_pages=100)
    assert cache.park_idle(now=100.0) == 3 * PAGE
    assert cache.gpu_tokens == 0 and cache.pool.used_tokens == 0
    assert cache.host_tokens == 3 * PAGE
    probe = cache.probe(prompt)
    assert probe.matched_tokens == 2 * PAGE
    assert probe.unpark_tokens == 2 * PAGE


def test_acquire_unparks_host_nodes():
    cache = make_cache(tier=TIER)
    prompt = toks(1, 2, 3)
    cache.insert(prompt, now=0.0, max_new_pages=100)
    cache.park_idle(now=100.0)
    matched, unparked = cache.acquire(prompt, now=200.0)
    assert matched == unparked == 2 * PAGE
    assert cache.gpu_tokens == 2 * PAGE
    assert cache.host_tokens == PAGE   # the unreachable tail stays parked
    cache.release(prompt, matched, now=300.0)
    assert cache.total_refs == 0


def test_park_skips_referenced_and_recent_nodes():
    cache = make_cache(tier=TIER)
    a, b = toks(1, 2), toks(7, 8)
    cache.insert(a, now=0.0, max_new_pages=100)
    cache.insert(b, now=95.0, max_new_pages=100)
    matched, _ = cache.acquire(a + (5,), now=96.0)
    # a is referenced, b is too recent: nothing parks.
    assert cache.park_idle(now=100.0) == 0
    cache.release(a + (5,), matched, now=100.0)
    assert cache.park_idle(now=200.0) == 4 * PAGE


def test_host_budget_overflow_drops_lru_leaf():
    tier = KVTierConfig(host_budget_tokens=2 * PAGE, idle_park_us=10.0)
    cache = make_cache(tier=tier)
    cache.insert(toks(1, 2), now=0.0, max_new_pages=100)
    cache.insert(toks(7, 8), now=1.0, max_new_pages=100)
    cache.park_idle(now=100.0)
    # Only one 2-page entry fits the host budget; the other was dropped
    # (or evicted outright) -- never an over-budget host stash.
    assert cache.host_tokens <= 2 * PAGE
    assert cache.gpu_tokens == 0
    assert cache.stats.dropped_host_tokens + cache.stats.evicted_tokens >= 2 * PAGE


def test_unfittable_node_is_evicted_not_parked():
    tier = KVTierConfig(host_budget_tokens=PAGE, idle_park_us=10.0)
    cache = make_cache(tier=tier)
    cache.insert(toks(1, 2, 3), now=0.0, max_new_pages=100)
    assert cache.park_idle(now=100.0) == 0
    assert cache.host_tokens == 0 and cache.gpu_tokens == 0
    assert cache.stats.evicted_tokens == 3 * PAGE


def test_no_gpu_node_below_host_node():
    cache = make_cache(tier=TIER)
    cache.insert(toks(1, 2), now=0.0, max_new_pages=100)
    cache.park_idle(now=100.0)
    # Inserting an extension under a parked prefix must not attach a
    # GPU node below a host node.
    assert cache.insert(toks(1, 2, 3, 4), now=200.0, max_new_pages=100) == 0
    for node in _nodes(cache):
        if not node.on_gpu:
            assert not any(c.on_gpu for c in node.children.values())


def test_park_without_tier_is_noop():
    cache = make_cache()
    cache.insert(toks(1, 2), now=0.0, max_new_pages=100)
    assert cache.park_idle(now=1e12) == 0
    assert cache.gpu_tokens == 2 * PAGE


# -- hypothesis fuzz ---------------------------------------------------------

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "acquire", "release", "evict", "park"]),
        st.integers(0, 5),      # prompt family
        st.integers(1, 6),      # prompt length in pages
        st.integers(0, 3),      # divergence salt (0 = shared spine)
    ),
    min_size=1, max_size=40,
)


def _prompt(family, n_pages, salt):
    """Prompts within a family share a spine and diverge by salt."""
    out = []
    for p in range(n_pages):
        val = family * 100 + p + (salt * 1000 if salt and p == n_pages - 1
                                  else 0)
        out.extend([val] * PAGE)
    return tuple(out + [7])     # off-page tail so full pages can match


def _run_ops(ops, budget_tokens, capacity, tier):
    """Interpret an op list; returns (cache, structural digest)."""
    cache = make_cache(budget_tokens=budget_tokens,
                       capacity_tokens=capacity, tier=tier)
    held = []                   # outstanding (prompt, matched) acquires
    now = 0.0
    trace = []
    for op, family, n_pages, salt in ops:
        now += 1.0
        prompt = _prompt(family, n_pages, salt)
        if op == "insert":
            free = cache.pool.free_pages
            got = cache.insert(prompt, now, max_new_pages=free)
            trace.append(("ins", got))
        elif op == "acquire":
            probe = cache.probe(prompt)
            assert probe.matched_tokens < len(prompt)
            assert probe.matched_tokens % PAGE == 0
            # acquire() unparks into pool pages the caller has reserved;
            # reserve them as the serving engine does, evicting off the
            # probed path, and skip the acquire when they cannot be freed.
            short = (cache.pool.pages_needed(probe.unpark_tokens)
                     - cache.pool.free_pages)
            if short > 0 and cache.evict_pages(short, now,
                                               protect=probe.nodes) < short:
                trace.append(("acq-full", probe.unpark_tokens))
            else:
                matched, unparked = cache.acquire(prompt, now)
                assert matched == probe.matched_tokens
                assert unparked == probe.unpark_tokens
                held.append((prompt, matched))
                trace.append(("acq", matched, unparked))
        elif op == "release" and held:
            prompt_r, matched = held.pop(family % len(held))
            cache.release(prompt_r, matched, now)
            trace.append(("rel", matched))
        elif op == "evict":
            trace.append(("evt", cache.evict_pages(n_pages, now)))
        elif op == "park":
            trace.append(("park", cache.park_idle(now + salt * 10.0)))
        # Pool conservation after every op: pages freed exactly once
        # (the pool itself raises on double-free), placeholders account
        # for every cached GPU token.
        assert cache.pool.used_tokens == cache.gpu_tokens
        assert cache.gpu_tokens % PAGE == 0
        assert cache.host_tokens >= 0 and cache.gpu_tokens >= 0
        if tier is not None:
            assert cache.host_tokens <= tier.host_budget_tokens
    # Refcount conservation: releasing every outstanding acquire drains
    # the tree's references completely.
    for prompt_r, matched in held:
        now += 1.0
        cache.release(prompt_r, matched, now)
    assert cache.total_refs == 0
    return cache, trace


tier_strategy = st.none() | st.builds(
    KVTierConfig,
    host_budget_tokens=st.sampled_from([PAGE, 4 * PAGE, 64 * PAGE]),
    idle_park_us=st.sampled_from([0.0, 5.0, 1e6]),
)


@settings(max_examples=40, deadline=None)
@given(ops=op_strategy,
       budget=st.sampled_from([4 * PAGE, 16 * PAGE, 256 * PAGE]),
       capacity=st.none() | st.sampled_from([2 * PAGE, 8 * PAGE]),
       tier=tier_strategy)
# The parked page must come back while a second prompt fills the pool.
@example(ops=[("insert", 0, 1, 0), ("park", 0, 1, 0), ("insert", 1, 4, 0),
              ("acquire", 0, 1, 0)],
         budget=4 * PAGE, capacity=None,
         tier=KVTierConfig(host_budget_tokens=PAGE, idle_park_us=0.0))
def test_fuzz_interleavings_preserve_invariants(ops, budget, capacity, tier):
    cache, _ = _run_ops(ops, budget, capacity, tier)
    # After draining refs, everything must be evictable/droppable: a
    # full eviction returns the pool to empty (no leaked pages).
    cache.evict_pages(10**9, now=1e9)
    while cache._drop_lru_host_leaf():
        pass
    assert cache.pool.used_tokens == cache.gpu_tokens
    if capacity is not None:
        pass    # capacity already enforced per-op above


@settings(max_examples=20, deadline=None)
@given(ops=op_strategy,
       budget=st.sampled_from([16 * PAGE, 256 * PAGE]),
       tier=tier_strategy)
def test_fuzz_replay_is_bit_identical(ops, budget, tier):
    """The same op sequence on a fresh cache reproduces every return
    value and counter exactly (deterministic LRU tie-breaks)."""
    c1, t1 = _run_ops(ops, budget, None, tier)
    c2, t2 = _run_ops(ops, budget, None, tier)
    assert t1 == t2
    assert (c1.gpu_tokens, c1.host_tokens, c1.n_nodes) == \
           (c2.gpu_tokens, c2.host_tokens, c2.n_nodes)
    for c in (c1, c2):
        digest1 = sorted((n.tokens, n.on_gpu, n.refs)
                         for n in _nodes(c1))
        digest2 = sorted((n.tokens, n.on_gpu, n.refs)
                         for n in _nodes(c2))
        assert digest1 == digest2
    assert (c1.stats.inserted_tokens, c1.stats.evicted_tokens, c1.stats.parked_tokens,
            c1.stats.unparked_tokens, c1.stats.dropped_host_tokens) == \
           (c2.stats.inserted_tokens, c2.stats.evicted_tokens, c2.stats.parked_tokens,
            c2.stats.unparked_tokens, c2.stats.dropped_host_tokens)
