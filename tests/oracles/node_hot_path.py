"""The SMT rate lookup and the per-phase jitter draw as they were before the
node layer kept a per-core busy count and drew jitter in blocks, kept
verbatim.

This is the differential-testing oracle for
:meth:`repro.kernel.sched_core.SchedCore._base_rate`, which now reads an
incrementally kept busy count instead of walking every SMT sibling's run
queue, and :meth:`repro.apps.mpi.MpiApplication._draw_work`, which now
takes its log-normal factors from the jitter stream's
:class:`~repro.sim.rng.NormalBlock` instead of one scalar numpy draw each.
``tests/test_node_hot_path_oracle.py`` runs jobs with these methods
installed and without, and demands the same results, provenance and fired
events.

:func:`installed` swaps the two methods onto the live classes for the
duration of a ``with`` block; everything else runs the current code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.apps.mpi import MpiApplication
from repro.apps.spmd import Phase
from repro.kernel.runqueue import CpuRunqueue
from repro.kernel.sched_core import SchedCore

__all__ = ["installed"]


def _base_rate(self, rq: CpuRunqueue) -> float:
    """Execution rate of the task on *rq* right now: SMT co-run factor
    times the tick-bookkeeping haircut (both via the precomputed
    tables — see :meth:`_rebuild_rate_tables`)."""
    busy = 0
    for other in self._core_rqs[rq.cpu_id]:
        curr = other.curr
        if curr is not None and not curr.is_idle:
            busy += 1
    if busy < 1:
        busy = 1
    mode = self._rate_mode
    if mode == 0:
        return self._rate_ticked[busy - 1]
    if mode == 1 or rq.nr_queued() == 0:
        return self._rate_quiet[busy - 1]
    return self._rate_ticked[busy - 1]


def _draw_work(self, phase: Phase, rank_index: int) -> int:
    work = phase.work * self._run_factor
    if self.work_scale != 1.0:
        work *= self.work_scale
    if phase.jitter_sigma > 0:
        work *= self.kernel.sim.rng.lognormal(
            self._jitter_stream, 0.0, phase.jitter_sigma
        )
    return max(1, int(work))


_ORACLE = {
    (SchedCore, "_base_rate"): _base_rate,
    (MpiApplication, "_draw_work"): _draw_work,
}


@contextmanager
def installed() -> Iterator[None]:
    """Run the enclosed code with the oracle methods on the live classes."""
    saved = {key: getattr(*key) for key in _ORACLE}
    try:
        for (cls, name), fn in _ORACLE.items():
            setattr(cls, name, fn)
        yield
    finally:
        for (cls, name), fn in saved.items():
            setattr(cls, name, fn)
