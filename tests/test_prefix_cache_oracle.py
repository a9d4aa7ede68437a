"""The indexed radix cache against a full-scan oracle.

``RadixPrefixCache`` finds its park, evict and drop candidates through
two lazy-deletion heaps (the GPU frontier and the childless host nodes)
and parks due nodes in one least-recently-used-first heap pass.
:class:`ScanPrefixCache` finds every candidate by a full-tree scan
instead: each search visits every node, and ``park_idle`` rescans for
the least-recently-used due node after every park.  Driven by the same
operations, the two must agree after every step on the tree (shape,
spans, tiers, refs, recency, order, pool slots), the pool's counters,
the return values and every ``SessionStats`` counter.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.paged import PagedKVPool
from repro.serving import KVTierConfig, PrefixCacheConfig, RadixPrefixCache

PAGE = 16


def _walk(cache):
    """Every non-root node of the cache's tree, depth-first."""
    stack = list(cache._root.children.values())
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def _lru(nodes):
    """The least-recently-used of ``nodes`` (creation order breaks ties)."""
    return min(nodes, key=lambda n: (n.last_use_us, n.order), default=None)


class ScanPrefixCache(RadixPrefixCache):
    """Radix cache whose candidate searches are full-tree scans."""

    def _evictable(self, node, protect_ids):
        return (node.on_gpu and node.refs == 0
                and id(node) not in protect_ids
                and not any(c.on_gpu for c in node.children.values()))

    def evict_pages(self, n_pages, now, protect=()):
        protect_ids = {id(p) for p in protect}
        freed = 0
        while freed < n_pages:
            victim = _lru(n for n in _walk(self)
                          if self._evictable(n, protect_ids))
            if victim is None:
                break
            freed += self._evict(victim)
        return freed

    def _drop_lru_host_leaf(self):
        victim = _lru(n for n in _walk(self)
                      if not n.on_gpu and not n.children)
        if victim is None:
            return False
        self._host_tokens -= len(victim.tokens)
        self.stats.dropped_host_tokens += len(victim.tokens)
        del victim.parent.children[victim.tokens[:self.page_tokens]]
        victim.parent = None
        return True

    def park_idle(self, now):
        if self.tier is None:
            return 0
        parked = 0
        while True:
            node = _lru(n for n in _walk(self)
                        if self._evictable(n, set())
                        and not now - n.last_use_us < self.tier.idle_park_us)
            if node is None:
                return parked
            n = len(node.tokens)
            if not self._host_room(n):
                self._evict(node)
            else:
                self.pool.free(node.slot)
                node.slot = None
                node.on_gpu = False
                self._gpu_tokens -= n
                self._host_tokens += n
                self.stats.parked_tokens += n
                parked += n


def _build(cls, budget, capacity, tier):
    pool = PagedKVPool(budget_tokens=budget, page_tokens=PAGE)
    return cls(pool, PrefixCacheConfig(capacity_tokens=capacity), tier=tier)


def _tree(node):
    return tuple((key, child.tokens, child.on_gpu, child.refs,
                  child.last_use_us, child.order, child.slot, _tree(child))
                 for key, child in sorted(node.children.items()))


def _state(cache):
    pool = cache.pool
    return (_tree(cache._root), cache.gpu_tokens, cache.host_tokens,
            cache.total_refs, pool.used_tokens, pool.free_pages,
            pool.n_slots, pool.page_ops, cache.stats)


def _check_counts(cache):
    """The indexed cache's per-node GPU-child counts and node count."""
    nodes = list(_walk(cache))
    for node in nodes + [cache._root]:
        assert all(c.parent is node for c in node.children.values())
        assert node.gpu_kids == sum(c.on_gpu
                                    for c in node.children.values())
    assert cache.n_nodes == len(nodes)


def _prompt(family, n_pages, salt):
    """Prompts within a family share a spine and diverge by salt."""
    out = []
    for p in range(n_pages):
        val = family * 100 + p + (salt * 1000 if salt and p == n_pages - 1
                                  else 0)
        out.extend([val] * PAGE)
    return tuple(out + [7])


def _step(cache, held, op, prompt, pick, now):
    """Apply one operation; returns its observable result."""
    if op == "insert":
        return cache.insert(prompt, now, max_new_pages=cache.pool.free_pages)
    if op == "acquire":
        probe = cache.probe(prompt)
        short = (cache.pool.pages_needed(probe.unpark_tokens)
                 - cache.pool.free_pages)
        if short > 0 and cache.evict_pages(short, now,
                                           protect=probe.nodes) < short:
            return "full"
        matched, unparked = cache.acquire(prompt, now)
        held.append((prompt, matched))
        return matched, unparked
    if op == "release":
        if not held:
            return None
        prompt, matched = held.pop(pick % len(held))
        cache.release(prompt, matched, now)
        return matched
    if op == "evict":
        probe = cache.probe(prompt)
        return cache.evict_pages(pick + 1, now, protect=probe.nodes)
    if op == "drop":
        return cache._drop_lru_host_leaf()
    return cache.park_idle(now + pick * 10.0)


def _run_both(ops, budget, capacity, tier):
    caches = [_build(cls, budget, capacity, tier)
              for cls in (RadixPrefixCache, ScanPrefixCache)]
    helds = [[], []]
    tight_parks = 0
    now = 0.0
    for op, family, n_pages, salt in ops:
        now += 1.0
        prompt = _prompt(family, n_pages, salt)
        indexed = caches[0]
        tight = (tier is not None and indexed.host_tokens
                 + indexed.gpu_tokens > tier.host_budget_tokens)
        before = indexed.gpu_tokens
        results = [_step(c, h, op, prompt, salt, now)
                   for c, h in zip(caches, helds)]
        assert results[0] == results[1], (op, results)
        assert _state(caches[0]) == _state(caches[1]), op
        _check_counts(indexed)
        if op == "park" and tight and indexed.gpu_tokens < before:
            tight_parks += 1
    return caches, helds, tight_parks


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "acquire", "release", "park", "evict",
                         "drop"]),
        st.integers(0, 4),      # prompt family
        st.integers(1, 5),      # prompt length in pages
        st.integers(0, 3),      # divergence salt / pick
    ),
    min_size=1, max_size=50,
)

TIGHT_TIERS = st.builds(
    KVTierConfig,
    host_budget_tokens=st.sampled_from([PAGE, 2 * PAGE, 4 * PAGE, 64 * PAGE]),
    idle_park_us=st.sampled_from([0.0, 2.0, 5.0]),
)

# Two deep prompts fill the pool, park past a two-page host budget (with
# host-leaf drops), then come back.
TIGHT_EXAMPLE = [("insert", 0, 3, 0), ("insert", 1, 3, 0),
                    ("insert", 0, 4, 1), ("park", 0, 1, 0),
                    ("acquire", 1, 4, 0), ("park", 0, 1, 1),
                    ("release", 0, 1, 0), ("park", 0, 1, 2),
                    ("drop", 0, 1, 0), ("insert", 2, 2, 0),
                    ("evict", 2, 2, 3)]
# Two one-page entries due together over a one-page host budget: the
# older parks first, and the newer one's park drops it.
ORDER_EXAMPLE = [("insert", 0, 1, 0), ("insert", 1, 1, 0),
                 ("park", 0, 1, 0)]


@settings(max_examples=150, deadline=None)
@given(ops=OPS,
       budget=st.sampled_from([4 * PAGE, 8 * PAGE, 32 * PAGE]),
       capacity=st.none() | st.sampled_from([3 * PAGE, 8 * PAGE]),
       tier=st.none() | TIGHT_TIERS)
@example(ops=TIGHT_EXAMPLE, budget=32 * PAGE, capacity=None,
         tier=KVTierConfig(host_budget_tokens=2 * PAGE, idle_park_us=0.0))
@example(ops=ORDER_EXAMPLE, budget=4 * PAGE, capacity=None,
         tier=KVTierConfig(host_budget_tokens=PAGE, idle_park_us=0.0))
def test_indexed_cache_matches_scan_oracle(ops, budget, capacity, tier):
    caches, helds, _ = _run_both(ops, budget, capacity, tier)
    # Draining both trees walks every remaining candidate in LRU order.
    for cache, held in zip(caches, helds):
        for prompt, matched in held:
            cache.release(prompt, matched, 1e9)
    assert caches[0].evict_pages(10**9, 1e9) == \
        caches[1].evict_pages(10**9, 1e9)
    while caches[0]._drop_lru_host_leaf():
        assert caches[1]._drop_lru_host_leaf()
    assert not caches[1]._drop_lru_host_leaf()
    assert _state(caches[0]) == _state(caches[1])
    assert caches[0].n_nodes == 0 and caches[0].pool.used_tokens == 0


def test_tight_host_budget_drops_oldest_first():
    """The fixed examples park while the cache overflows the host budget,
    so parks that drop host leaves really run."""
    for ops, host_pages in ((TIGHT_EXAMPLE, 2), (ORDER_EXAMPLE, 1)):
        caches, _, tight_parks = _run_both(
            ops, 32 * PAGE, None,
            KVTierConfig(host_budget_tokens=host_pages * PAGE,
                         idle_park_us=0.0))
        assert tight_parks > 0
        assert caches[0].stats.dropped_host_tokens > 0
        assert caches[0].stats.parked_tokens > 0
    # Family 1, the newer entry, survives on the host.
    assert [n.tokens[0] for n in _walk(caches[0])] == [100]


@pytest.mark.parametrize("tier", [None, KVTierConfig(idle_park_us=1e9)])
def test_candidate_heaps_stay_bounded(tier):
    """Re-indexing the same few nodes for many requests leaves the heaps
    sized by the tree, not by the number of operations -- even under a
    least-recent entry that never comes due, so no stale entry above it
    ever reaches the top of the heap."""
    cache = _build(RadixPrefixCache, 64 * PAGE, None, tier)
    cache.insert(_prompt(4, 2, 0), 0.0, max_new_pages=64)
    prompts = [_prompt(family, 3, salt) for family in range(2)
               for salt in range(3)]
    for prompt in prompts:
        cache.insert(prompt, 0.0, max_new_pages=64)
    for step in range(2000):
        prompt = prompts[step % len(prompts)]
        matched, _ = cache.acquire(prompt, float(step))
        cache.release(prompt, matched, float(step))
        cache.insert(prompt, float(step), max_new_pages=64)
        cache.park_idle(float(step))
        bound = 2 * cache.n_nodes + 64
        assert len(cache._frontier) <= bound
        assert len(cache._host_leaves) <= bound


def test_single_pass_parks_whole_chains_like_the_scan():
    """With room in the host tier, one heap pass parks each due chain
    leaf-first: parents join the frontier as their last GPU child parks."""
    tier = KVTierConfig(host_budget_tokens=1024 * PAGE, idle_park_us=5.0)
    ops = [("insert", f, n, s) for f in range(3) for n, s in
           ((2, 0), (4, 1), (5, 2), (3, 3))]
    ops += [("acquire", 1, 5, 2), ("park", 0, 1, 1), ("release", 0, 1, 0),
            ("park", 0, 1, 3)]
    caches, _, _ = _run_both(ops, 256 * PAGE, None, tier)
    indexed = caches[0]
    assert indexed.stats.parked_tokens > 0
    assert indexed.gpu_tokens == 0 and indexed.host_tokens > 0


def test_idle_check_returns_without_scanning():
    """Nothing due: ``park_idle`` looks at the frontier's top only."""
    cache = _build(RadixPrefixCache, 64 * PAGE, None,
                   KVTierConfig(idle_park_us=100.0))
    for family in range(8):
        cache.insert(_prompt(family, 3, 0), float(family), max_new_pages=64)
    visits = cache.node_visits
    assert cache.park_idle(50.0) == 0
    assert cache.node_visits - visits == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=40),
       st.lists(st.integers(0, 2), max_size=40), st.integers(0, 45))
def test_common_len_matches_elementwise_scan(a, b, pos):
    a, b = tuple(a), tuple(b)
    pos = min(pos, len(b))
    want = next((i for i, (x, y) in enumerate(zip(a, b[pos:])) if x != y),
                min(len(a), len(b) - pos))
    assert RadixPrefixCache._common_len(a, b, pos) == want
    assert RadixPrefixCache._common_len(a, b[:pos] + a + b, pos) == len(a)
