"""Campaign result cache: content-addressed per-run records on disk.

Each finished repetition is stored under the digest of the spec that
produced it — a hash over (program, machine, noise, kernel config, fault
plan, seed, :func:`~repro.parallel.jobspec.model_epoch`).  Re-running a
campaign whose inputs are unchanged therefore loads every repetition from
``.repro-cache/`` and executes zero simulations; any input change (a
different seed, one kernel knob, one edited line of model source) misses
cleanly because the key moves.

Layout: ``<root>/<key[:2]>/<key>.pkl`` — a pickled ``{"schema", "result",
"faults"}`` payload (the model epoch is in the key, not the payload).
Writes are atomic (temp file + ``os.replace``) so concurrent campaigns —
including the engine's own workers' parents — never observe torn entries.  A *missing* entry is a
plain miss; a *corrupt or schema-mismatched* entry is quarantined: moved
into ``<root>/quarantine/`` (preserving the evidence for diagnosis) with a
one-line warning, then treated as a miss.  ``cache info`` reports the
quarantine count so silent decay is visible.

Three subdirectory names are reserved and never scanned for entries:
``quarantine`` (this module), ``journal`` (the supervisor's crash-safe
campaign checkpoints, :mod:`repro.parallel.supervisor`) and ``pricing``
(sim-model job prices shared by every batch campaign and worker,
:mod:`repro.batch.runtime`).  ``cache info`` counts pricing entries
separately and ``cache clear`` deletes them with the results.

The root defaults to ``.repro-cache`` in the working directory and can be
moved with the ``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

__all__ = [
    "CACHE_ENV_VAR",
    "DEFAULT_CACHE_DIR",
    "PRICING_DIR",
    "QUARANTINE_DIR",
    "CacheInfo",
    "ResultCache",
    "atomic_write",
    "cache_root",
]

log = logging.getLogger(__name__)

#: Environment variable overriding the cache root directory.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"
#: Default cache root (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"
#: Where corrupt / schema-mismatched entries are moved instead of deleted.
QUARANTINE_DIR = "quarantine"
#: Where batch campaigns persist sim-model job prices (one integer each).
PRICING_DIR = "pricing"

#: Bump when the payload layout changes; older entries then miss.
_PAYLOAD_SCHEMA = 2

#: Subdirectories of the cache root that hold non-entry data.
_RESERVED_SUBDIRS = frozenset({QUARANTINE_DIR, PRICING_DIR, "journal"})


def cache_root(root: Optional[str] = None) -> Path:
    """The cache root: *root*, else ``$REPRO_CACHE_DIR``, else the default."""
    if root is None:
        root = os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR
    return Path(root)


def atomic_write(path: Path, data: bytes) -> None:
    """Write *data* to *path* via a temp file and ``os.replace``, so a
    reader sees the old entry or the new one, never a torn one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class CacheInfo:
    """What ``hpl-repro cache info`` reports."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int = 0
    pricing: int = 0

    def render(self) -> str:
        size = self.total_bytes
        for unit in ("B", "KiB", "MiB", "GiB"):
            if size < 1024 or unit == "GiB":
                break
            size /= 1024
        lines = (
            f"cache root : {self.root}\n"
            f"entries    : {self.entries}\n"
            f"total size : {size:.1f} {unit}"
        )
        if self.quarantined:
            lines += f"\nquarantined: {self.quarantined}"
        if self.pricing:
            lines += f"\npricing entries: {self.pricing}"
        return lines


class ResultCache:
    """Content-addressed store of per-run campaign results.

    *metrics*, when given, is a
    :class:`repro.obs.metrics.MetricsRegistry` to which hit/miss/quarantine
    counters are reported (under ``cache.hits`` etc.) in addition to the
    plain integer attributes below — purely observational, never consulted.
    """

    def __init__(self, root: Optional[str] = None, *, metrics=None) -> None:
        self.root = cache_root(root)
        self.hits = 0
        self.misses = 0
        #: Entries moved to quarantine by this instance.
        self.quarantines = 0
        if metrics is not None:
            self._hit_counter = metrics.counter("cache.hits")
            self._miss_counter = metrics.counter("cache.misses")
            self._quarantine_counter = metrics.counter("cache.quarantines")
        else:
            self._hit_counter = None
            self._miss_counter = None
            self._quarantine_counter = None

    def _note_miss(self) -> None:
        self.misses += 1
        if self._miss_counter is not None:
            self._miss_counter.inc()

    # ----------------------------------------------------------------- paths

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def quarantine_path_for(self, key: str) -> Path:
        return self.root / QUARANTINE_DIR / f"{key}.pkl"

    # ------------------------------------------------------------ read/write

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a bad entry aside (evidence preserved) and warn once."""
        dest = self.quarantine_path_for(key)
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            return  # racing campaign already moved/overwrote it
        self.quarantines += 1
        if self._quarantine_counter is not None:
            self._quarantine_counter.inc()
        log.warning(
            "cache entry %s is %s — quarantined to %s and re-simulating",
            key,
            reason,
            dest,
        )

    def get(self, key: str) -> Optional[Tuple[object, Optional[dict]]]:
        """The cached ``(result, faults)`` pair for *key*, or None.

        A missing file is a plain miss.  A *present but unusable* entry —
        torn write, unpicklable blob, foreign schema — is quarantined into
        ``<root>/quarantine/`` with a one-line warning, then reported as a
        miss: the caller re-simulates and overwrites, and the bad blob
        stays available for diagnosis instead of being silently clobbered.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self._note_miss()
            return None
        except (OSError, pickle.PickleError, EOFError, AttributeError, ImportError):
            self._quarantine(key, path, "unreadable")
            self._note_miss()
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != _PAYLOAD_SCHEMA
            or "result" not in payload
        ):
            self._quarantine(key, path, "schema-mismatched")
            self._note_miss()
            return None
        self.hits += 1
        if self._hit_counter is not None:
            self._hit_counter.inc()
        return payload["result"], payload.get("faults")

    def put(self, key: str, result: object, faults: Optional[dict] = None) -> None:
        """Store one finished run atomically (last writer wins)."""
        payload = {
            "schema": _PAYLOAD_SCHEMA,
            "result": result,
            "faults": faults,
        }
        atomic_write(
            self.path_for(key),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # ------------------------------------------------------------ management

    def _entry_paths(self):
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir() and sub.name not in _RESERVED_SUBDIRS:
                yield from sorted(sub.glob("*.pkl"))

    def _quarantined_paths(self):
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.is_dir():
            yield from sorted(quarantine.glob("*.pkl"))

    def _pricing_paths(self):
        pricing = self.root / PRICING_DIR
        if pricing.is_dir():
            yield from sorted(p for p in pricing.iterdir() if p.is_file())

    def info(self) -> CacheInfo:
        entries = 0
        total = 0
        for path in self._entry_paths():
            entries += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        quarantined = sum(1 for _ in self._quarantined_paths())
        pricing = sum(1 for _ in self._pricing_paths())
        return CacheInfo(
            root=str(self.root),
            entries=entries,
            total_bytes=total,
            quarantined=quarantined,
            pricing=pricing,
        )

    def clear(self) -> int:
        """Delete every entry (quarantined and pricing included); returns
        how many."""
        removed = 0
        for path in (list(self._entry_paths()) + list(self._quarantined_paths())
                     + list(self._pricing_paths())):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # Sweep now-empty shard directories (best effort).
        if self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir():
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        return removed
