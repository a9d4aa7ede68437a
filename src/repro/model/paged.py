"""Paged KV cache with optional host-memory offloading (functional).

Section 5 lists KV-cache offloading among the techniques the injection
framework enables.  This module provides the functional substrate: a
vLLM-style paged cache whose pages can live on the GPU or be *offloaded*
to host memory.  Attention math is identical wherever pages live (tested
against the contiguous cache); placement only changes the simulated cost
(see :mod:`repro.sched.kv_offload`).  :class:`PagedKVPool` is the
serving engine's page accountant over the same page size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, KVCacheError

DEFAULT_PAGE_TOKENS = 16


@dataclass
class Page:
    """One fixed-size block of K/V entries."""

    keys: np.ndarray       # (page_tokens, heads, head_dim)
    values: np.ndarray
    used: int = 0
    on_gpu: bool = True


class PagedKVCache:
    """Drop-in replacement for :class:`repro.model.kvcache.KVCache`.

    Storage is a list of fixed-size pages plus a logical length; gather
    materializes the contiguous view the attention kernel consumes.  Pages
    beyond ``gpu_budget_tokens`` are marked offloaded (host-resident).
    """

    def __init__(self, n_heads: int, head_dim: int,
                 page_tokens: int = DEFAULT_PAGE_TOKENS,
                 gpu_budget_tokens: int | None = None) -> None:
        if n_heads <= 0 or head_dim <= 0 or page_tokens <= 0:
            raise ConfigError("cache dimensions must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.page_tokens = page_tokens
        self.gpu_budget_tokens = gpu_budget_tokens
        self._pages: list[Page] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def n_pages(self) -> int:
        return len(self._pages)

    def _new_page(self) -> Page:
        shape = (self.page_tokens, self.n_heads, self.head_dim)
        page = Page(keys=np.zeros(shape, dtype=np.float32),
                    values=np.zeros(shape, dtype=np.float32))
        self._pages.append(page)
        self._rebalance()
        return page

    def _rebalance(self) -> None:
        """Keep the most recent ``gpu_budget_tokens`` worth of pages on GPU."""
        if self.gpu_budget_tokens is None:
            return
        budget_pages = max(1, self.gpu_budget_tokens // self.page_tokens)
        for i, page in enumerate(self._pages):
            page.on_gpu = i >= len(self._pages) - budget_pages

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        expected = (k.shape[0], self.n_heads, self.head_dim)
        if k.shape != expected or v.shape != expected:
            raise ConfigError(
                f"cache append shape {k.shape}/{v.shape}, expected {expected}"
            )
        for row in range(k.shape[0]):
            page = self._pages[-1] if self._pages else self._new_page()
            if page.used == self.page_tokens:
                page = self._new_page()
            page.keys[page.used] = k[row]
            page.values[page.used] = v[row]
            page.used += 1
            self._len += 1

    def keys(self) -> np.ndarray:
        return self._gather("keys")

    def values(self) -> np.ndarray:
        return self._gather("values")

    def _gather(self, field: str) -> np.ndarray:
        if not self._pages:
            return np.zeros((0, self.n_heads, self.head_dim), dtype=np.float32)
        parts = [getattr(p, field)[:p.used] for p in self._pages]
        return np.concatenate(parts, axis=0)

    def offloaded_tokens(self) -> int:
        """Tokens whose pages currently live in host memory."""
        return sum(p.used for p in self._pages if not p.on_gpu)

    def gpu_tokens(self) -> int:
        return sum(p.used for p in self._pages if p.on_gpu)

    def reset(self) -> None:
        self._pages.clear()
        self._len = 0


class PagedKVPool:
    """A fixed-budget page accountant shared by concurrent request slots.

    This is the serving-engine view of paged attention: one physical page
    budget (the GPU KV/VRAM allowance) backs any number of logical request
    *slots*.  A slot is a token count holding ``pages_needed(tokens)``
    whole pages -- the engine prices KV occupancy and transfers but never
    reads K/V back (attention over real K/V uses :class:`PagedKVCache`).
    Exhausting the budget raises :class:`~repro.errors.KVCacheError`, which
    the continuous-batching scheduler treats as "stop admitting".
    """

    def __init__(self, budget_tokens: int,
                 page_tokens: int = DEFAULT_PAGE_TOKENS) -> None:
        if page_tokens <= 0:
            raise ConfigError("page_tokens must be positive")
        if budget_tokens < page_tokens:
            raise ConfigError(
                f"budget_tokens={budget_tokens} smaller than one page "
                f"({page_tokens} tokens)"
            )
        self.page_tokens = page_tokens
        self.budget_pages = budget_tokens // page_tokens
        self.budget_tokens = self.budget_pages * page_tokens
        self._slots: dict[int, int] = {}        # live slot -> tokens
        self._swapped: dict[int, int] = {}      # host-stashed slot -> tokens
        self._allocated_pages = 0
        self._used = 0              # tokens across live slots
        self._next_slot = 0
        #: Mutating calls (append, free, swap) -- one O(1) update each.
        self.page_ops = 0

    # -- capacity accounting ------------------------------------------------

    @property
    def free_pages(self) -> int:
        return self.budget_pages - self._allocated_pages

    @property
    def free_tokens(self) -> int:
        """Tokens guaranteed appendable into *new* pages."""
        return self.free_pages * self.page_tokens

    @property
    def used_tokens(self) -> int:
        """Tokens currently stored across every live slot."""
        return self._used

    @property
    def n_slots(self) -> int:
        return len(self._slots)

    def pages_needed(self, n_tokens: int) -> int:
        """Pages a fresh slot needs to hold ``n_tokens``."""
        return -(-n_tokens // self.page_tokens)

    def can_fit(self, n_tokens: int) -> bool:
        """Whether a fresh slot of ``n_tokens`` fits the remaining budget."""
        return self.pages_needed(n_tokens) <= self.free_pages

    # -- slot lifecycle -----------------------------------------------------

    def allocate(self) -> int:
        """Open a new (empty) request slot and return its id."""
        slot = self._next_slot
        self._next_slot += 1
        self._slots[slot] = 0
        return slot

    def tokens(self, slot: int) -> int:
        """Tokens held by live ``slot``."""
        try:
            return self._slots[slot]
        except KeyError:
            raise KVCacheError(f"slot {slot} is not allocated") from None

    def free(self, slot: int) -> None:
        """Close a slot, returning all of its pages to the budget."""
        held = self.tokens(slot)
        del self._slots[slot]
        self._used -= held
        self._allocated_pages -= self.pages_needed(held)
        self.page_ops += 1

    def append_placeholder(self, slot: int, n_tokens: int) -> None:
        """Grow ``slot`` by ``n_tokens``, claiming whole pages as needed.

        Checks the budget before it changes anything: a refused append
        raises :class:`~repro.errors.KVCacheError` and leaves the slot,
        ``used_tokens`` and ``free_pages`` as they were.
        """
        if n_tokens <= 0:
            return
        held = self.tokens(slot)
        page = self.page_tokens
        grow = (held + n_tokens + page - 1) // page - (held + page - 1) // page
        if grow > self.free_pages:
            raise KVCacheError(
                f"KV page budget exhausted: {self.budget_pages} pages "
                f"({self.budget_tokens} tokens) across {self.n_slots} slots"
            )
        self._slots[slot] = held + n_tokens
        self._allocated_pages += grow
        self._used += n_tokens
        self.page_ops += 1

    # -- preemption: swap-out / swap-in lifecycle ----------------------------

    @property
    def swapped_tokens(self) -> int:
        """Tokens currently stashed in host memory across swapped slots."""
        return sum(self._swapped.values())

    @property
    def n_swapped(self) -> int:
        return len(self._swapped)

    def swap_out(self, slot: int) -> int:
        """Offload ``slot``'s KV to host memory, freeing its GPU pages.

        The slot id survives as a *swapped* handle holding its token
        count; ``free`` on it raises, so pages are released exactly once.
        Returns the tokens offloaded (``BatchCostModel`` prices them).
        """
        n = self.tokens(slot)
        self.free(slot)
        self._swapped[slot] = n
        return n

    def _checked_swapped(self, slot: int) -> int:
        if slot not in self._swapped:
            raise KVCacheError(f"slot {slot} is not swapped out")
        return slot

    def swap_in(self, slot: int) -> int:
        """Re-upload a swapped slot's KV into fresh pages; returns new slot.

        Raises :class:`~repro.errors.KVCacheError` if the pool cannot hold
        the stashed tokens (the caller must re-check capacity before
        resuming, exactly like a fresh admission); the stash survives a
        refused swap-in.  The old slot id is retired.
        """
        n = self._swapped[self._checked_swapped(slot)]
        if not self.can_fit(n):
            raise KVCacheError(
                f"cannot swap in slot {slot}: needs "
                f"{self.pages_needed(n)} pages, {self.free_pages} free"
            )
        del self._swapped[slot]
        new_slot = self.allocate()
        self.append_placeholder(new_slot, n)
        return new_slot

    def discard_swapped(self, slot: int) -> None:
        """Drop a swapped slot's host stash (the request was shed)."""
        del self._swapped[self._checked_swapped(slot)]
