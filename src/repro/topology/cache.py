"""Cache-hierarchy description.

We model only the properties the paper's scheduler cares about:

* which cache levels exist and their sizes (used by the warmth model to set
  rewarm time constants — a bigger cache takes longer to rewarm);
* the **sharing scope** of each level (per hardware thread, per core, per
  chip, per machine), which decides whether a migration destroys warmth.
  On the evaluated POWER6 js22, L1 and L2 are private to a core and there is
  no L3, so *every* cross-core migration is fully cold (paper §IV, footnotes
  2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CacheLevel", "CacheHierarchy", "SharingScope"]


class SharingScope:
    """Enumeration of cache sharing scopes, ordered from narrowest to widest."""

    THREAD = "thread"
    CORE = "core"
    CHIP = "chip"
    MACHINE = "machine"

    ORDER = (THREAD, CORE, CHIP, MACHINE)

    @classmethod
    def validate(cls, scope: str) -> str:
        if scope not in cls.ORDER:
            raise ValueError(f"unknown sharing scope {scope!r}; expected one of {cls.ORDER}")
        return scope


@dataclass(frozen=True)
class CacheLevel:
    """One level of the hierarchy.

    Parameters
    ----------
    name:
        Conventional label ("L1", "L2", "L3").
    size_kib:
        Capacity in KiB; drives the warmth model's rewarm time constant.
    shared_by:
        A :class:`SharingScope` value: the topological unit whose CPUs share
        this cache.
    latency_ns:
        Load-to-use latency, retained for reporting and the memory model's
        miss-cost estimate.
    """

    name: str
    size_kib: int
    shared_by: str
    latency_ns: float = 0.0

    def __post_init__(self) -> None:
        SharingScope.validate(self.shared_by)
        if self.size_kib <= 0:
            raise ValueError(f"cache {self.name}: size must be positive")


@dataclass(frozen=True)
class CacheHierarchy:
    """An ordered (innermost-first) tuple of :class:`CacheLevel`."""

    levels: Tuple[CacheLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a cache hierarchy needs at least one level")

    @property
    def last_level(self) -> CacheLevel:
        return self.levels[-1]

    @property
    def total_kib(self) -> int:
        return sum(level.size_kib for level in self.levels)

    def widest_shared_scope(self) -> str:
        """The widest sharing scope of any level (decides how costly
        migrations are: migrating within this scope keeps some warmth)."""
        best = SharingScope.THREAD
        order = SharingScope.ORDER
        for level in self.levels:
            if order.index(level.shared_by) > order.index(best):
                best = level.shared_by
        return best

    def shared_fraction(self, scope: str) -> float:
        """Fraction of total cache capacity shared at least at *scope*.

        A migration between two CPUs whose nearest common ancestor is *scope*
        preserves roughly this fraction of the task's cache footprint.
        """
        SharingScope.validate(scope)
        order = SharingScope.ORDER
        idx = order.index(scope)
        shared = sum(
            level.size_kib
            for level in self.levels
            if order.index(level.shared_by) >= idx
        )
        return shared / self.total_kib


def power6_cache_hierarchy() -> CacheHierarchy:
    """POWER6 js22 blade caches: 64+64 KiB L1 and 4 MiB L2, both private to a
    core; no L3 on this blade (paper footnote 3)."""
    return CacheHierarchy(
        levels=(
            CacheLevel("L1", size_kib=128, shared_by=SharingScope.CORE, latency_ns=2.0),
            CacheLevel("L2", size_kib=4096, shared_by=SharingScope.CORE, latency_ns=12.0),
        )
    )
