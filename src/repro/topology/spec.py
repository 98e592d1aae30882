"""Textual machine specifications (an ``hwloc``-flavoured mini-language).

The experiments construct machines from presets; users porting the library
to their own boxes shouldn't have to write Python.  A spec string describes
a machine compactly::

    "2x2x2 smt=1.0,0.62 L1:128K@core L2:4M@core"          # the js22
    "1x8x1 L1:64K@core L2:512K@core L3:8M@chip"           # a flat SMP
    "2x4x2 smt=1.0,0.7 L1:64K@core L2:256K@core L3:8M@chip name=xeon"

Grammar (whitespace-separated tokens, order free except the shape):

* ``CxKxT``      — chips x cores-per-chip x threads-per-core (required, first)
* ``smt=a,b,...``— per-busy-thread throughput factors (default 1.0 per level)
* ``NAME:SIZE@SCOPE`` — a cache level: size with K/M/G suffix (KiB base),
  scope one of ``core``/``chip``/``machine``
* ``name=...``   — machine label

:func:`parse_machine` builds a :class:`~repro.topology.machine.Machine`;
:func:`machine_spec` round-trips one back to a string.
"""

from __future__ import annotations

import re
from typing import List

from repro.topology.cache import CacheHierarchy, CacheLevel, SharingScope
from repro.topology.machine import Machine

__all__ = ["parse_machine", "machine_spec"]

_SHAPE_RE = re.compile(r"^(\d+)x(\d+)x(\d+)$")
_CACHE_RE = re.compile(r"^(\w+):(\d+(?:\.\d+)?)([KMG])@(core|chip|machine)$")
_SIZE_MULT = {"K": 1, "M": 1024, "G": 1024 * 1024}
_SCOPE_MAP = {
    "core": SharingScope.CORE,
    "chip": SharingScope.CHIP,
    "machine": SharingScope.MACHINE,
}


def parse_machine(spec: str) -> Machine:
    """Build a machine from a spec string (see module docstring)."""
    tokens = spec.split()
    if not tokens:
        raise ValueError("empty machine spec")

    shape = _SHAPE_RE.match(tokens[0])
    if not shape:
        raise ValueError(
            f"spec must start with its shape 'CxKxT', got {tokens[0]!r}"
        )
    chips, cores, threads = (int(g) for g in shape.groups())

    smt: List[float] = []
    caches: List[CacheLevel] = []
    name = f"spec-{tokens[0]}"

    for token in tokens[1:]:
        if token.startswith("smt="):
            try:
                smt = [float(x) for x in token[4:].split(",") if x]
            except ValueError as exc:
                raise ValueError(f"bad smt factors in {token!r}") from exc
            if not smt:
                raise ValueError(f"bad smt factors in {token!r}")
        elif token.startswith("name="):
            name = token[5:]
            if not name:
                raise ValueError("empty machine name")
        else:
            m = _CACHE_RE.match(token)
            if not m:
                raise ValueError(f"unrecognized spec token {token!r}")
            level_name, size, mult, scope = m.groups()
            caches.append(
                CacheLevel(
                    level_name,
                    size_kib=max(1, int(float(size) * _SIZE_MULT[mult])),
                    shared_by=_SCOPE_MAP[scope],
                )
            )

    if not caches:
        raise ValueError("a machine spec needs at least one cache level")
    if not smt:
        smt = [1.0] * threads
    if len(smt) < threads:
        raise ValueError(
            f"smt= must give {threads} factors (one per busy-thread count)"
        )

    return Machine(
        chips=chips,
        cores_per_chip=cores,
        threads_per_core=threads,
        cache=CacheHierarchy(levels=tuple(caches)),
        smt_throughput=tuple(smt),
        name=name,
    )


def _fmt_size(kib: int) -> str:
    if kib % (1024 * 1024) == 0:
        return f"{kib // (1024 * 1024)}G"
    if kib % 1024 == 0:
        return f"{kib // 1024}M"
    return f"{kib}K"


_SCOPE_BACK = {v: k for k, v in _SCOPE_MAP.items()}


def machine_spec(machine: Machine) -> str:
    """Render *machine* back to a parsable spec string."""
    parts = [
        f"{machine.n_chips}x{machine.cores_per_chip}x{machine.threads_per_core}"
    ]
    parts.append("smt=" + ",".join(f"{f:g}" for f in machine.smt_throughput))
    for level in machine.cache.levels:
        scope = _SCOPE_BACK.get(level.shared_by)
        if scope is None:
            # Thread-private caches cannot be expressed; promote to core.
            scope = "core"
        parts.append(f"{level.name}:{_fmt_size(level.size_kib)}@{scope}")
    parts.append(f"name={machine.name}")
    return " ".join(parts)
