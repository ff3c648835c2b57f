"""Memoization of Monte-Carlo estimates with observable statistics.

Greedy seeding algorithms re-evaluate the same seed group many times
(CELF-style lazy evaluation, fallback comparisons, DR re-planning), so
the estimator memoizes :class:`MonteCarloEstimate`s keyed by the seed
group plus the full estimator configuration.  The
cache counts hits and misses so callers (``DysimResult``, benchmarks)
can report how much Monte-Carlo work memoization saved.

Keys include the sample count, trigger model and root RNG seed, so one
:class:`SigmaCache` can safely back several estimators — estimates from
incompatible configurations can never collide.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.diffusion.montecarlo import MonteCarloEstimate

__all__ = ["CacheStats", "SigmaCache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`SigmaCache`."""

    hits: int
    misses: int
    entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SigmaCache:
    """LRU memoization of Monte-Carlo estimates.

    Parameters
    ----------
    max_entries:
        Evict least-recently-used entries beyond this count.  ``None``
        (the default) keeps everything, which matches the lifetime of
        one algorithm run; long-lived services should set a bound.
    """

    def __init__(self, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, MonteCarloEstimate]" = OrderedDict()
        self._pins: list[object] = []
        self.hits = 0
        self.misses = 0

    def pin(self, obj: object) -> None:
        """Keep ``obj`` alive as long as this cache.

        Estimators key entries by ``id(instance)``; pinning the
        instance guarantees that id cannot be recycled by a different
        object while its entries are still retrievable.
        """
        if not any(pinned is obj for pinned in self._pins):
            self._pins.append(obj)

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> "MonteCarloEstimate | None":
        """Look up a key, counting the hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, estimate: "MonteCarloEstimate") -> None:
        """Store an estimate, evicting the LRU entry when over bound."""
        self._entries[key] = estimate
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/entry counters."""
        return CacheStats(
            hits=self.hits, misses=self.misses, entries=len(self._entries)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SigmaCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
