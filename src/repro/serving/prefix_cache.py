"""Radix prefix-KV cache with a host-DRAM tier over the paged pool.

Production traffic against a KTransformers-style hybrid engine is
conversational *sessions*: every follow-up turn re-sends the system
prompt and the whole conversation so far, and a scheduler that
re-prefills from token zero pays for the same KV pages again and again.
This module provides the vLLM/SGLang-style answer at simulation
fidelity: a **page-quantized radix tree** whose nodes own page-granular
slots in the serving engine's shared :class:`~repro.model.paged.
PagedKVPool`.  Matching a new prompt against the tree yields the longest
*page-aligned* cached prefix; the scheduler prices only the fresh suffix
through (chunked) prefill and pins the shared pages by reference count
while the request is in flight.

Two placement tiers:

- **GPU**: the node's pages live in the pool (placeholder tokens, so
  tier occupancy is visible in ``pool.used_tokens`` and the serving
  timeline).
- **Host**: with a :class:`KVTierConfig`, idle unreferenced nodes are
  *parked* in host DRAM -- their pool pages free up for admissions, and
  the next turn of the session swaps them back in over PCIe (priced by
  :func:`repro.sched.kv_offload.kv_page_transfer_us` on the possibly
  fault-degraded link, with ahead-of-turn prefetch when the serving
  engine predicted the turn).

Structural invariants (fuzz-tested in ``tests/test_prefix_cache.py``):

- every node's token span is a whole number of pages, and children are
  keyed by their first page of tokens -- so two prompts diverging
  mid-page branch into distinct edges;
- nodes only ever *split* (never merge), so a page-aligned boundary,
  once created by an acquire, persists until the node is evicted --
  releases re-walk the tree and decrement exactly the nodes a prior
  acquire incremented (splits copy the refcount to both halves);
- a host (parked) node never has a GPU descendant, so evicting a GPU
  node can only orphan host nodes (which are dropped and counted);
- pool occupancy is conserved: the pool's used tokens always equal the
  sum of live request slots plus :attr:`RadixPrefixCache.gpu_tokens`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigError, KVCacheError
from ..model.paged import PagedKVPool
from ..sched.kv_offload import kv_page_transfer_us

if TYPE_CHECKING:   # pragma: no cover - the engine imports this module
    from .continuous import ContinuousBatchingServer, _InFlight
    from .traffic import TimedRequest

#: Smoothing of the per-session think-time EWMA that predicts when a
#: session's next turn arrives (the ahead-of-turn swap-in schedule).
THINK_EWMA_ALPHA = 0.5


@dataclass(frozen=True)
class PrefixCacheConfig:
    """Policy knobs of the radix prefix cache.

    ``capacity_tokens`` caps the cache's *total* footprint (GPU-resident
    plus host-parked tokens); ``None`` leaves the GPU side bounded only
    by the pool budget and the host side by the tier config.  Inserts
    that would exceed the cap first evict least-recently-used
    unreferenced entries, then trim to whatever fits.
    """

    capacity_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.capacity_tokens is not None and self.capacity_tokens <= 0:
            raise ConfigError("capacity_tokens must be positive (or None)")


@dataclass(frozen=True)
class KVTierConfig:
    """Host-DRAM KV tier policy for parked sessions.

    ``host_budget_tokens`` bounds the host stash; parking past it drops
    the least-recently-used host entries.  A GPU-resident cache entry is
    *parked* (pages freed, contents host-side) once it has been
    unreferenced for ``idle_park_us`` of serving-clock time.  With
    ``prefetch`` on, the serving engine starts the swap-in transfer
    ahead of a session's *predicted* next turn (EWMA over observed
    think times with smoothing :data:`THINK_EWMA_ALPHA`), so a
    well-predicted turn pays no swap-in stall at all.
    """

    host_budget_tokens: int = 65536
    idle_park_us: float = 1_000_000.0
    prefetch: bool = True

    def __post_init__(self) -> None:
        if self.host_budget_tokens <= 0:
            raise ConfigError("host_budget_tokens must be positive")
        if self.idle_park_us < 0:
            raise ConfigError("idle_park_us must be >= 0")


@dataclass
class SessionStats:
    """Prefix-cache and KV-tier counters of one serving run.

    The :class:`RadixPrefixCache` counts its own insert/evict/park
    traffic here; the :class:`SessionCache` a serving engine builds for
    its :class:`PrefixCacheConfig` adds reuse, swap-in and peak
    counters and attaches the stats as ``stats.sessions``.  The flat
    view lands in ``ServingStats.summary()`` via :meth:`summary`
    (``prefix_*`` keys for radix-cache reuse, ``tier_*`` keys for the
    host-DRAM layer).

    ``prefill_tokens_avoided`` counts prompt tokens served as cached
    page references instead of prefill work; ``swap_*_bytes`` price the
    park/unpark traffic (swap-out runs off the critical path, so only
    ``tier_swap_in_stall_ms`` ever reaches the serving clock);
    ``prefetch_hits`` counts unparks whose ahead-of-turn transfer
    finished before the turn arrived (zero stall).
    """

    prefix_hits: int = 0
    prefix_misses: int = 0
    prompt_tokens_total: int = 0
    prefill_tokens_avoided: int = 0
    inserted_tokens: int = 0
    evicted_tokens: int = 0
    parked_tokens: int = 0
    unparked_tokens: int = 0
    dropped_host_tokens: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0
    swap_in_stall_us: float = 0.0
    prefetch_hits: int = 0
    peak_host_tokens: int = 0
    peak_gpu_cached_tokens: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of submitted prompt tokens served from the cache."""
        if self.prompt_tokens_total == 0:
            return 0.0
        return self.prefill_tokens_avoided / self.prompt_tokens_total

    def summary(self) -> dict[str, float]:
        """Flat ``prefix_*``/``tier_*`` counters for the summary."""
        return {
            "prefix_hits": float(self.prefix_hits),
            "prefix_misses": float(self.prefix_misses),
            "prefix_prompt_tokens": float(self.prompt_tokens_total),
            "prefix_tokens_avoided": float(self.prefill_tokens_avoided),
            "prefix_reuse_fraction": self.reuse_fraction,
            "prefix_inserted_tokens": float(self.inserted_tokens),
            "prefix_evicted_tokens": float(self.evicted_tokens),
            "prefix_peak_gpu_tokens": float(self.peak_gpu_cached_tokens),
            "tier_parked_tokens": float(self.parked_tokens),
            "tier_unparked_tokens": float(self.unparked_tokens),
            "tier_dropped_host_tokens": float(self.dropped_host_tokens),
            "tier_swap_out_mb": self.swap_out_bytes / 1e6,
            "tier_swap_in_mb": self.swap_in_bytes / 1e6,
            "tier_swap_in_stall_ms": self.swap_in_stall_us / 1e3,
            "tier_prefetch_hits": float(self.prefetch_hits),
            "tier_peak_host_tokens": float(self.peak_host_tokens),
        }


@dataclass(frozen=True)
class MatchProbe:
    """Result of a read-only longest-prefix probe.

    ``matched_tokens`` is the page-aligned cached prefix length (always
    strictly shorter than the probed prompt, so at least one token
    remains to prefill); ``unpark_tokens`` of those currently live in
    the host tier and must swap in before reuse.  ``nodes`` is the
    walked path -- an opaque protect set the admission path hands to
    :meth:`RadixPrefixCache.evict_pages` so making room for the request
    can never evict the very prefix it is about to acquire.
    """

    matched_tokens: int
    unpark_tokens: int
    nodes: tuple = ()


class _Node:
    """One radix-tree node owning a page-aligned span of prompt tokens."""

    __slots__ = ("tokens", "parent", "children", "slot", "on_gpu", "refs",
                 "last_use_us", "order", "gpu_kids")

    def __init__(self, tokens: tuple, parent: "_Node | None",
                 on_gpu: bool = True, refs: int = 0,
                 last_use_us: float = 0.0, order: int = 0) -> None:
        self.tokens = tokens
        self.parent = parent
        self.children: dict[tuple, _Node] = {}
        self.slot: int | None = None
        self.on_gpu = on_gpu
        self.refs = refs
        self.last_use_us = last_use_us
        self.order = order
        self.gpu_kids = 0       # children with on_gpu set


class RadixPrefixCache:
    """Page-granular radix tree of cached prompt prefixes over a pool.

    The serving engine is the only writer; all mutation happens through
    :meth:`acquire` / :meth:`release` / :meth:`insert` /
    :meth:`evict_pages` / :meth:`park_idle`, each deterministic given
    the call sequence (LRU ties break on a monotone insertion order),
    so a replayed workload reproduces the tree bit-for-bit.  Park, evict
    and drop candidates come from lazy-deletion min-heaps keyed
    ``(last_use_us, order)``: the *GPU frontier* (unreferenced GPU nodes
    with no GPU child) and the childless host nodes.
    """

    def __init__(self, pool: PagedKVPool,
                 config: PrefixCacheConfig | None = None,
                 tier: KVTierConfig | None = None) -> None:
        self.pool = pool
        self.config = config or PrefixCacheConfig()
        self.tier = tier
        self.page_tokens = pool.page_tokens
        self._root = _Node(tokens=(), parent=None)
        self._order = 0
        self._gpu_tokens = 0
        self._host_tokens = 0
        self._total_refs = 0
        self._n_nodes = 0
        self._frontier: list = []
        self._host_leaves: list = []
        #: Radix-node visits: heap tops, index checks and compacted entries.
        self.node_visits = 0
        # Cumulative insert/evict/park traffic lands here directly.
        self.stats = SessionStats()

    # -- observability -------------------------------------------------------

    @property
    def gpu_tokens(self) -> int:
        """Cached tokens whose pages are currently pool-resident."""
        return self._gpu_tokens

    @property
    def host_tokens(self) -> int:
        """Cached tokens currently parked in the host tier."""
        return self._host_tokens

    @property
    def gpu_pages(self) -> int:
        """Pool pages the cache currently occupies."""
        return self._gpu_tokens // self.page_tokens

    @property
    def total_refs(self) -> int:
        """Outstanding acquire references across every node."""
        return self._total_refs

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the tree (root excluded)."""
        return self._n_nodes

    # -- matching ------------------------------------------------------------

    def _floor_page(self, n: int) -> int:
        return (n // self.page_tokens) * self.page_tokens

    def _match_cap(self, tokens: tuple) -> int:
        """Longest prefix the cache may ever serve for this prompt.

        Page-aligned and strictly shorter than the prompt: a request
        must always prefill at least its final token, so a fully-cached
        prompt cannot skip prefill entirely (mirroring real engines,
        where the last token's logits must be recomputed).
        """
        if len(tokens) <= 1:
            return 0
        return self._floor_page(len(tokens) - 1)

    @staticmethod
    def _common_len(span: tuple, tokens: tuple, pos: int) -> int:
        """Common prefix length of ``span`` and ``tokens[pos:]``."""
        n = min(len(span), len(tokens) - pos)
        if span[:n] == tokens[pos:pos + n]:
            return n
        for i in range(n):
            if span[i] != tokens[pos + i]:
                return i
        return n

    def probe(self, tokens) -> MatchProbe:
        """Read-only longest-prefix match of ``tokens`` against the tree.

        Returns the page-aligned match length, how many of those tokens
        would need unparking from the host tier, and the walked path as
        a protect set for eviction.  Mutates nothing.
        """
        tokens = tuple(tokens)
        cap = self._match_cap(tokens)
        node, pos, unpark = self._root, 0, 0
        path: list[_Node] = []
        while pos < cap:
            child = node.children.get(tokens[pos:pos + self.page_tokens])
            if child is None:
                break
            take = self._common_len(child.tokens, tokens, pos)
            usable = min(self._floor_page(take), cap - pos)
            if usable == 0:
                break
            path.append(child)
            if not child.on_gpu:
                unpark += usable
            pos += usable
            if usable < len(child.tokens):
                break
            node = child
        return MatchProbe(pos, unpark, tuple(path))

    def acquire(self, tokens, now: float) -> tuple[int, int]:
        """Pin the longest cached prefix of ``tokens``; returns usage.

        Splits nodes at the page-aligned match boundary so the walked
        path covers the match exactly, unparks any host-resident path
        node back into pool pages (the caller must have reserved
        headroom -- see :meth:`probe`'s ``unpark_tokens``), increments
        every covering node's refcount, and returns
        ``(matched_tokens, unparked_tokens)``.
        """
        tokens = tuple(tokens)
        cap = self._match_cap(tokens)
        node, pos, unparked = self._root, 0, 0
        while pos < cap:
            child = node.children.get(tokens[pos:pos + self.page_tokens])
            if child is None:
                break
            take = self._common_len(child.tokens, tokens, pos)
            usable = min(self._floor_page(take), cap - pos)
            if usable == 0:
                break
            if usable < len(child.tokens):
                child = self._split(child, usable)
            if not child.on_gpu:
                self._unpark(child)
                unparked += usable
            child.refs += 1
            self._total_refs += 1
            child.last_use_us = now
            pos += usable
            node = child
        return pos, unparked

    def release(self, tokens, matched: int, now: float) -> None:
        """Drop the references a prior ``acquire(tokens)`` took.

        Re-walks the tree along ``tokens``: boundaries only ever get
        finer (nodes split, never merge) and referenced nodes cannot be
        evicted, so the walk covers exactly the acquired span -- each
        covering node loses one reference.  Raises
        :class:`~repro.errors.KVCacheError` on a walk mismatch or a
        refcount underflow (both would indicate double-release).
        """
        if matched == 0:
            return
        tokens = tuple(tokens)
        node, pos = self._root, 0
        while pos < matched:
            child = node.children.get(tokens[pos:pos + self.page_tokens])
            if child is None or len(child.tokens) > matched - pos:
                raise KVCacheError(
                    f"release walk mismatch at token {pos} of {matched}")
            if child.refs <= 0:
                raise KVCacheError("prefix refcount underflow")
            child.refs -= 1
            self._total_refs -= 1
            child.last_use_us = max(child.last_use_us, now)
            self._index(child)
            pos += len(child.tokens)
            node = child

    # -- structural mutation -------------------------------------------------

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    def _split(self, node: _Node, offset: int) -> _Node:
        """Split ``node`` at page-aligned ``offset``; returns the front half.

        Both halves inherit the refcount (every holder's later release
        re-walks through both), the placement tier, and the last-use
        stamp; GPU halves get fresh pool slots sized to their spans
        (free-then-allocate, so the page count is conserved and the
        transient allocation always fits).
        """
        if offset <= 0 or offset >= len(node.tokens):
            raise KVCacheError(f"bad split offset {offset}")
        front = _Node(node.tokens[:offset], node.parent, on_gpu=node.on_gpu,
                      refs=node.refs, last_use_us=node.last_use_us,
                      order=self._next_order())
        node.parent.children[node.tokens[:self.page_tokens]] = front
        node.tokens = node.tokens[offset:]
        node.parent = front
        node.order = self._next_order()
        self._index(node)
        front.children = {node.tokens[:self.page_tokens]: node}
        front.gpu_kids = int(node.on_gpu)
        self._n_nodes += 1
        if node.on_gpu:
            self.pool.free(node.slot)
            front.slot = self.pool.allocate()
            self.pool.append_placeholder(front.slot, len(front.tokens))
            node.slot = self.pool.allocate()
            self.pool.append_placeholder(node.slot, len(node.tokens))
        self._total_refs += node.refs   # the copy on the back half
        return front

    def _unpark(self, node: _Node) -> None:
        """Swap one host node's pages back into the pool (GPU tier)."""
        n = len(node.tokens)
        node.slot = self.pool.allocate()
        self.pool.append_placeholder(node.slot, n)
        node.on_gpu = True
        node.parent.gpu_kids += 1
        self._host_tokens -= n
        self._gpu_tokens += n
        self.stats.unparked_tokens += n

    def insert(self, tokens, now: float, max_new_pages: int) -> int:
        """Cache the page-aligned prefix of ``tokens``; returns new tokens.

        Walks the existing tree (refreshing recency and splitting at a
        divergence), then attaches the uncached remainder as one new
        GPU node -- unless the walk ends under a host-parked node (the
        prefix is already cached, and a GPU node must never sit below a
        host one).  ``max_new_pages`` caps the pool pages the insert
        may claim (the serving engine passes its admission headroom);
        shortfalls first evict LRU unreferenced entries, then trim the
        insert to whatever fits (possibly nothing).
        """
        tokens = tuple(tokens)
        n = self._floor_page(len(tokens))
        node, pos = self._root, 0
        path: list[_Node] = []
        while pos < n:
            child = node.children.get(tokens[pos:pos + self.page_tokens])
            if child is None:
                break
            take = min(self._floor_page(
                self._common_len(child.tokens, tokens, pos)), n - pos)
            if take == 0:
                break
            if take < len(child.tokens):
                child = self._split(child, take)
            if not child.on_gpu:
                return 0        # already cached (host tier); never extend below
            child.last_use_us = max(child.last_use_us, now)
            self._index(child)
            path.append(child)
            pos += take
            node = child
        remaining = n - pos
        if remaining <= 0:
            return 0
        if self.config.capacity_tokens is not None:
            total = self._gpu_tokens + self._host_tokens
            over = total + remaining - self.config.capacity_tokens
            if over > 0:
                self.evict_pages(-(-over // self.page_tokens), now,
                                 protect=path)
                room = max(0, self.config.capacity_tokens
                           - self._gpu_tokens - self._host_tokens)
                remaining = min(remaining, self._floor_page(room))
        pages = remaining // self.page_tokens
        grant = min(max_new_pages, self.pool.free_pages)
        if pages > grant:
            grant += self.evict_pages(pages - grant, now, protect=path)
            grant = min(grant, self.pool.free_pages)
        pages = min(pages, max(0, grant))
        remaining = pages * self.page_tokens
        if remaining <= 0:
            return 0
        child = _Node(tokens[pos:pos + remaining], node, on_gpu=True,
                      last_use_us=now, order=self._next_order())
        child.slot = self.pool.allocate()
        self.pool.append_placeholder(child.slot, remaining)
        node.children[child.tokens[:self.page_tokens]] = child
        node.gpu_kids += 1
        self._n_nodes += 1
        self._index(child)
        self._gpu_tokens += remaining
        self.stats.inserted_tokens += remaining
        return remaining

    # -- eviction and tiering ------------------------------------------------

    def _heap_of(self, node: _Node) -> list | None:
        """The candidate heap ``node`` belongs on now, if any."""
        if node.parent is None:     # the root, or a removed node
            return None
        if node.on_gpu:
            return None if node.refs or node.gpu_kids else self._frontier
        return None if node.children else self._host_leaves

    def _live(self, entry: tuple, heap: list) -> bool:
        """Whether a heap entry still matches its node's key and heap."""
        last, order, node = entry
        return (last == node.last_use_us and order == node.order
                and self._heap_of(node) is heap)

    def _index(self, node: _Node) -> None:
        """Push ``node`` under its current key onto the heap it belongs
        on; called after any change that can make it a candidate.

        A heap past twice the tree's size is compacted to its live
        entries, one per node, so stale entries cost amortized O(1).
        """
        self.node_visits += 1
        heap = self._heap_of(node)
        if heap is None:
            return
        heapq.heappush(heap, (node.last_use_us, node.order, node))
        if len(heap) > 2 * self._n_nodes + 64:
            self.node_visits += len(heap)
            live = {id(e[2]): e for e in heap if self._live(e, heap)}
            heap[:] = live.values()
            heapq.heapify(heap)

    def _heap_min(self, heap: list) -> _Node | None:
        """The least-recently-used live node of ``heap``; drops stale tops."""
        while heap:
            self.node_visits += 1
            if self._live(heap[0], heap):
                return heap[0][2]
            heapq.heappop(heap)
        return None

    def _drop_host_subtree(self, node: _Node) -> None:
        """Detach and count every host descendant of ``node``."""
        for child in list(node.children.values()):
            self._drop_host_subtree(child)
            child.parent = None
            self._n_nodes -= 1
            self._host_tokens -= len(child.tokens)
            self.stats.dropped_host_tokens += len(child.tokens)
        node.children.clear()

    def _evict(self, node: _Node) -> int:
        """Remove one node (and its host subtree); returns pages freed."""
        self._drop_host_subtree(node)
        n = len(node.tokens)
        pages = 0
        parent = node.parent
        if node.on_gpu:
            self.pool.free(node.slot)
            self._gpu_tokens -= n
            self.stats.evicted_tokens += n
            pages = n // self.page_tokens
            parent.gpu_kids -= 1
        else:
            self._host_tokens -= n
            self.stats.dropped_host_tokens += n
        del parent.children[node.tokens[:self.page_tokens]]
        node.parent = None
        self._n_nodes -= 1
        self._index(parent)
        return pages

    def evict_pages(self, n_pages: int, now: float,
                    protect=()) -> int:
        """Free up to ``n_pages`` pool pages by evicting LRU entries.

        Candidates are unreferenced GPU nodes with no GPU children
        (deepest-first by construction) outside the ``protect`` set;
        least-recently-used wins, ties broken by creation order so the
        choice is deterministic.  Evicting a node drops any host-parked
        descendants (they become unreachable).  Returns the pages
        actually freed -- possibly fewer than asked when everything
        left is referenced or protected.
        """
        protect = set(protect)
        skipped = []
        freed = 0
        while freed < n_pages:
            victim = self._heap_min(self._frontier)
            if victim is None:
                break
            entry = heapq.heappop(self._frontier)
            if victim in protect:
                skipped.append(entry)
            else:
                freed += self._evict(victim)
        for entry in skipped:
            heapq.heappush(self._frontier, entry)
        return freed

    def _drop_lru_host_leaf(self) -> bool:
        """Drop the least-recently-used childless host node; False if none."""
        victim = self._heap_min(self._host_leaves)
        if victim is None:
            return False
        heapq.heappop(self._host_leaves)
        self._evict(victim)
        return True

    def _host_room(self, n: int) -> bool:
        """Make host-budget room for ``n`` tokens; False if impossible."""
        if self.tier is None or n > self.tier.host_budget_tokens:
            return False
        while self._host_tokens + n > self.tier.host_budget_tokens:
            if not self._drop_lru_host_leaf():
                return False
        return True

    def _park(self, node: _Node) -> int:
        """Move one frontier node's pages to the host tier; returns tokens."""
        n = len(node.tokens)
        self.pool.free(node.slot)
        node.slot = None
        node.on_gpu = False
        node.parent.gpu_kids -= 1
        self._gpu_tokens -= n
        self._host_tokens += n
        self.stats.parked_tokens += n
        self._index(node)
        self._index(node.parent)
        return n

    def _idle(self, node: _Node | None, now: float) -> bool:
        """The engine's park test: idle for at least ``idle_park_us``."""
        return (node is not None
                and not now - node.last_use_us < self.tier.idle_park_us)

    def park_idle(self, now: float) -> int:
        """Park idle unreferenced GPU entries into the host tier.

        Leaf-first (a node parks only once no GPU child remains, so the
        host-below-GPU invariant holds), eligibility is
        ``idle >= tier.idle_park_us`` with zero references.  Host-budget
        overflow drops LRU host leaves; an entry that cannot fit the
        host budget at all is evicted outright instead of parked.
        Returns the tokens parked by this call (the engine prices the
        swap-out bytes off the critical path -- parking never stalls
        the serving clock).  No-op without a tier config.

        Due nodes park least-recently-used first (a parent joins the
        frontier once its last GPU child parks), so host-budget drops
        always take older entries before newer ones.  ``now -
        last_use_us`` is monotone in ``last_use_us``, so the frontier's
        least-recent node decides whether anything is due.
        """
        if self.tier is None:
            return 0
        parked = 0
        while self._idle(self._heap_min(self._frontier), now):
            node = heapq.heappop(self._frontier)[2]
            if self._host_room(len(node.tokens)):
                parked += self._park(node)
            else:
                self._evict(node)
        return parked


class SessionCache:
    """The serving engine's session subsystem over a radix prefix cache.

    Built by the engine only for a :class:`PrefixCacheConfig`: owns the
    :class:`RadixPrefixCache` over the engine's pool, attaches its
    :class:`SessionStats` as ``stats.sessions``, and with a
    :class:`KVTierConfig` predicts each session's next turn (think-time
    EWMA) so host-parked prefixes can swap in ahead of it.
    """

    def __init__(self, server: "ContinuousBatchingServer",
                 config: PrefixCacheConfig,
                 tier: KVTierConfig | None) -> None:
        self.server = server
        self.tier = tier
        self.cache = RadixPrefixCache(server.pool, config, tier)
        self.stats = self.cache.stats
        server.stats.sessions = self.stats
        self.stall_us = 0.0
        # Per-session think-time EWMA state for ahead-of-turn swap-in.
        self._last_finish: dict[str, float] = {}
        self._think: dict[str, float] = {}
        self._predicted_next: dict[str, float] = {}

    def admit(self, timed: "TimedRequest", tokens: tuple,
              probe: MatchProbe, clock: float) -> int:
        """Pin the probed prefix of an admitted request; returns its length.

        ``tokens`` is the prompt as the cache's key.  Counts the prompt
        into the reuse stats and feeds the request's arrival into its
        session's think-time EWMA.
        """
        matched = 0
        if probe.matched_tokens:
            matched, unparked = self.cache.acquire(tokens, clock)
            if unparked:
                self._swap_in(timed, unparked, clock)
        self._observe(timed)
        stats = self.stats
        stats.prompt_tokens_total += len(tokens)
        if matched:
            stats.prefix_hits += 1
            stats.prefill_tokens_avoided += matched
        else:
            stats.prefix_misses += 1
        return matched

    def _swap_in(self, timed: "TimedRequest", unparked: int,
                 clock: float) -> None:
        """Price the swap-in of ``unparked`` host-parked prefix tokens.

        The transfer crosses the (possibly fault-degraded) PCIe link at
        :func:`~repro.sched.kv_offload.kv_page_transfer_us` pricing.
        With prefetch on and a think-time prediction for the session,
        the transfer is modelled as launched ahead of the predicted
        turn (never before the session's previous turn finished), so an
        accurate prediction hides the transfer entirely -- only the
        non-hidden remainder stalls the serving clock.  A turn arriving
        *before* the scheduled prefetch launch degrades to an on-demand
        swap-in starting now, never a wait for the schedule.
        """
        server = self.server
        xfer = kv_page_transfer_us(server.session.preset, unparked,
                                   server.link_at(clock))
        sid = timed.session_id
        if self.tier.prefetch and sid in self._predicted_next:
            start = max(self._last_finish[sid],
                        self._predicted_next[sid] - xfer)
            start = min(start, clock)
        else:
            start = clock
        stall = max(0.0, start + xfer - clock)
        stats = self.stats
        if stall == 0.0:
            stats.prefetch_hits += 1
        stats.swap_in_stall_us += stall
        self.stall_us += stall
        stats.swap_in_bytes = server.costs.kv_swap_bytes(
            stats.unparked_tokens)

    def _observe(self, timed: "TimedRequest") -> None:
        """Update the session's think-time EWMA from this turn's arrival."""
        sid = timed.session_id
        last = self._last_finish.get(sid)
        if last is None:
            return      # untagged, first turn, or no tier
        think = max(0.0, timed.arrival_us - last)
        prev = self._think.get(sid)
        self._think[sid] = (
            think if prev is None
            else THINK_EWMA_ALPHA * think + (1 - THINK_EWMA_ALPHA) * prev)

    def take_stall(self) -> float:
        """The swap-in stall accrued since the last call (then reset)."""
        stall, self.stall_us = self.stall_us, 0.0
        return stall

    def park_idle(self, clock: float) -> None:
        """Park idle sessions' pages in host DRAM (off the critical path).

        Bytes are priced at the preemption-swap unit, so tier and
        preemption traffic are directly comparable.  No-op without a
        tier config.
        """
        if self.cache.park_idle(clock):
            self.stats.swap_out_bytes = self.server.costs.kv_swap_bytes(
                self.stats.parked_tokens)

    def release(self, a: "_InFlight", clock: float, reserved_pages: int,
                insert: bool) -> None:
        """Insert a leaving request's prompt, then drop its prefix pins.

        Insert runs first (``insert=False`` for shed/timed-out requests)
        so the request's own references protect its shared prefix while
        the insert makes room; the new node may claim at most the pages
        left over after every live reservation (``reserved_pages``) and
        the cache's current footprint.
        """
        prompt = a.prompt_tokens
        if insert:
            headroom = (self.cache.pool.budget_pages - reserved_pages
                        - self.cache.gpu_pages)
            self.cache.insert(prompt, clock, max_new_pages=max(0, headroom))
        if a.shared_tokens:
            self.cache.release(prompt, a.shared_tokens, clock)

    def end_turn(self, timed: "TimedRequest", clock: float) -> None:
        """At turn finish, predict the session's next arrival (if any EWMA).

        Finish time is when the user starts thinking; only a tiered
        cache ever uses the prediction.
        """
        sid = timed.session_id
        if sid is None or self.tier is None:
            return
        self._last_finish[sid] = clock
        think = self._think.get(sid)
        if think is not None:
            self._predicted_next[sid] = clock + think

    def sample(self) -> tuple[int, int]:
        """The cache's (GPU, host) token occupancy, sampled into the peaks."""
        cache, stats = self.cache, self.stats
        stats.peak_host_tokens = max(stats.peak_host_tokens,
                                     cache.host_tokens)
        stats.peak_gpu_cached_tokens = max(stats.peak_gpu_cached_tokens,
                                           cache.gpu_tokens)
        return cache.gpu_tokens, cache.host_tokens
