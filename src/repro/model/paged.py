"""Paged KV cache with optional host-memory offloading (functional).

Section 5 lists KV-cache offloading among the techniques the injection
framework enables.  This module provides the functional substrate: a
vLLM-style paged cache whose pages can live on the GPU or be *offloaded*
to host memory.  Attention math is identical wherever pages live (tested
against the contiguous cache); placement only changes the simulated cost
(see :mod:`repro.sched.kv_offload`).
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
    """A fixed-budget page pool shared by multiple concurrent request slots.

    This is the serving-engine view of paged attention: one physical page
    budget (the GPU KV/VRAM allowance) backs any number of logical request
    *slots*.  Each slot grows page-by-page as its sequence extends; freeing
    a slot returns its pages to the free list for the next admission.
    Exhausting the budget raises :class:`~repro.errors.KVCacheError`, which
    the continuous-batching scheduler treats as "stop admitting".

    Gather semantics per slot are identical to :class:`PagedKVCache` (and
    are tested against it).
    """

    def __init__(self, n_heads: int, head_dim: int, budget_tokens: int,
                 page_tokens: int = DEFAULT_PAGE_TOKENS) -> None:
        if n_heads <= 0 or head_dim <= 0 or page_tokens <= 0:
            raise ConfigError("pool dimensions must be positive")
        if budget_tokens < page_tokens:
            raise ConfigError(
                f"budget_tokens={budget_tokens} smaller than one page "
                f"({page_tokens} tokens)"
            )
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.page_tokens = page_tokens
        self.budget_pages = budget_tokens // page_tokens
        self.budget_tokens = self.budget_pages * page_tokens
        self._free: list[Page] = []
        self._slots: dict[int, list[Page]] = {}
        # Host-side stash of preempted slots: slot id -> (keys, values)
        # contiguous arrays captured at swap-out time.
        self._swapped: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._allocated_pages = 0
        self._used = 0              # tokens across live slots
        self._next_slot = 0

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
        self._slots[slot] = []
        return slot

    def free(self, slot: int) -> None:
        """Close a slot, returning all of its pages to the free list."""
        pages = self._slots.pop(self._checked(slot))
        for page in pages:
            self._used -= page.used
            page.used = 0
            self._free.append(page)
        self._allocated_pages -= len(pages)

    def _checked(self, slot: int) -> int:
        if slot not in self._slots:
            raise KVCacheError(f"slot {slot} is not allocated")
        return slot

    # -- preemption: swap-out / swap-in lifecycle ----------------------------

    @property
    def swapped_tokens(self) -> int:
        """Tokens currently stashed in host memory across swapped slots."""
        return sum(k.shape[0] for k, _ in self._swapped.values())

    @property
    def n_swapped(self) -> int:
        return len(self._swapped)

    def swap_out(self, slot: int) -> int:
        """Offload ``slot``'s KV to host memory, freeing its GPU pages.

        The slot id survives as a *swapped* handle: the contiguous K/V
        contents are stashed host-side, every page returns to the free
        list, and the slot leaves the live set (``free`` on it raises --
        pages can only ever be released once).  Returns the number of
        tokens offloaded.  The serving scheduler prices the transfer
        separately (see ``BatchCostModel.swap_transfer_us``); the pool
        only tracks placement.
        """
        self._checked(slot)
        if slot in self._swapped:
            raise KVCacheError(f"slot {slot} is already swapped out")
        keys = self._gather(slot, "keys")
        values = self._gather(slot, "values")
        self.free(slot)
        self._swapped[slot] = (keys, values)
        return keys.shape[0]

    def _checked_swapped(self, slot: int) -> int:
        if slot not in self._swapped:
            raise KVCacheError(f"slot {slot} is not swapped out")
        return slot

    def swap_in(self, slot: int) -> int:
        """Re-upload a swapped slot's KV into fresh pages; returns new slot.

        Raises :class:`~repro.errors.KVCacheError` if the pool cannot hold
        the stashed tokens (the caller must re-check capacity before
        resuming, exactly like a fresh admission).  The old slot id is
        retired; attention state is bit-identical to before the swap
        (tested against :meth:`keys`/:meth:`values` round-trips).
        """
        self._checked_swapped(slot)
        keys, values = self._swapped[slot]
        if not self.can_fit(keys.shape[0]):
            raise KVCacheError(
                f"cannot swap in slot {slot}: needs "
                f"{self.pages_needed(keys.shape[0])} pages, "
                f"{self.free_pages} free"
            )
        del self._swapped[slot]
        new_slot = self.allocate()
        if keys.shape[0]:
            self.append(new_slot, keys, values)
        return new_slot

    def discard_swapped(self, slot: int) -> None:
        """Drop a swapped slot's host stash (the request was shed)."""
        del self._swapped[self._checked_swapped(slot)]

    def _grow(self, slot: int) -> Page:
        if self._allocated_pages >= self.budget_pages:
            raise KVCacheError(
                f"KV page budget exhausted: {self.budget_pages} pages "
                f"({self.budget_tokens} tokens) across {self.n_slots} slots"
            )
        if self._free:
            page = self._free.pop()
        else:
            shape = (self.page_tokens, self.n_heads, self.head_dim)
            page = Page(keys=np.zeros(shape, dtype=np.float32),
                        values=np.zeros(shape, dtype=np.float32))
        self._allocated_pages += 1
        self._slots[slot].append(page)
        return page

    # -- data path ----------------------------------------------------------

    def append(self, slot: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append K/V rows to ``slot``, growing it by whole pages as needed."""
        self._checked(slot)
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        expected = (k.shape[0], self.n_heads, self.head_dim)
        if k.shape != expected or v.shape != expected:
            raise ConfigError(
                f"pool append shape {k.shape}/{v.shape}, expected {expected}"
            )
        self._extend(slot, k.shape[0], k, v)

    def append_placeholder(self, slot: int, n_tokens: int) -> None:
        """Reserve ``n_tokens`` of zero K/V (occupancy tracking only)."""
        if n_tokens > 0:
            self._extend(self._checked(slot), n_tokens)

    def _extend(self, slot: int, n: int, k: np.ndarray | None = None,
                v: np.ndarray | None = None) -> None:
        """Grow ``slot`` by ``n`` rows of ``k``/``v`` (zeros if None),
        one slice per page touched; recycled pages are overwritten."""
        pages = self._slots[slot]
        done = 0
        while done < n:
            page = pages[-1] if pages else self._grow(slot)
            if page.used == self.page_tokens:
                page = self._grow(slot)
            take = min(self.page_tokens - page.used, n - done)
            rows = slice(page.used, page.used + take)
            if k is None:
                page.keys[rows] = page.values[rows] = 0.0
            else:
                page.keys[rows] = k[done:done + take]
                page.values[rows] = v[done:done + take]
            page.used += take
            self._used += take
            done += take

    def tokens(self, slot: int) -> int:
        return sum(p.used for p in self._slots[self._checked(slot)])

    def keys(self, slot: int) -> np.ndarray:
        return self._gather(slot, "keys")

    def values(self, slot: int) -> np.ndarray:
        return self._gather(slot, "values")

    def _gather(self, slot: int, field: str) -> np.ndarray:
        pages = self._slots[self._checked(slot)]
        if not pages:
            return np.zeros((0, self.n_heads, self.head_dim), dtype=np.float32)
        parts = [getattr(p, field)[:p.used] for p in pages]
        return np.concatenate(parts, axis=0)
