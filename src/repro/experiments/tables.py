"""Regenerators for the paper's tables (I-a, I-b, II) and the §IV policy
comparison.

The same campaigns back several artifacts (the paper's Tables Ia and II both
read the stock-Linux runs), so every function accepts pre-computed campaigns
and the module offers a :class:`CampaignCache` for the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import RunStatistics, summarize
from repro.analysis.tables import TextTable
from repro.experiments.runner import CampaignResult, run_nas_campaign

__all__ = [
    "BENCH_ORDER",
    "CampaignCache",
    "SchedulerNoiseRow",
    "table1",
    "ExecutionTimeRow",
    "table2",
    "policy_comparison",
]

#: Paper row order for Tables I and II.
BENCH_ORDER: Tuple[Tuple[str, str], ...] = (
    ("cg", "A"), ("cg", "B"),
    ("ep", "A"), ("ep", "B"),
    ("ft", "A"), ("ft", "B"),
    ("is", "A"), ("is", "B"),
    ("lu", "A"), ("lu", "B"),
    ("mg", "A"), ("mg", "B"),
)


class CampaignCache:
    """Memoizes campaigns so Table Ia and Table II (etc.) share runs.

    In-memory and per-process.  *run_opts* are the execution options of
    :func:`repro.parallel.run_specs` (workers, on-disk result cache,
    supervision, resume), applied to every campaign that does have to run
    — lenient about missing journals, since a multi-table invocation may
    never have reached some campaigns.
    """

    def __init__(self, n_runs: int, base_seed: int = 0, **run_opts) -> None:
        if n_runs < 2:
            raise ValueError("campaigns need at least 2 runs")
        self.n_runs = n_runs
        self.base_seed = base_seed
        self.run_opts = run_opts
        self._cache: Dict[Tuple[str, str, str], CampaignResult] = {}

    def get(self, name: str, klass: str, regime: str) -> CampaignResult:
        key = (name, klass, regime)
        if key not in self._cache:
            self._cache[key] = run_nas_campaign(
                name, klass, regime, self.n_runs, base_seed=self.base_seed,
                resume_missing_ok=True, **self.run_opts,
            )
        return self._cache[key]

    def all_for_regime(self, regime: str) -> Dict[Tuple[str, str], CampaignResult]:
        return {
            (name, klass): self.get(name, klass, regime)
            for name, klass in BENCH_ORDER
        }


# --------------------------------------------------------------------------
# Table I — scheduler OS noise (CPU migrations, context switches)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SchedulerNoiseRow:
    """One Table I row."""

    label: str
    migrations: RunStatistics
    context_switches: RunStatistics


@dataclass(frozen=True)
class Table1:
    """Table Ia (stock) or Ib (HPL)."""

    regime: str
    rows: Tuple[SchedulerNoiseRow, ...]

    def render(self) -> str:
        t = TextTable(
            f"Table I ({self.regime}): scheduler OS noise for NAS",
            ["Bench", "Mig.Min", "Mig.Avg", "Mig.Max", "CS.Min", "CS.Avg", "CS.Max"],
        )
        for row in self.rows:
            t.add_row(
                row.label,
                int(row.migrations.minimum),
                round(row.migrations.mean, 2),
                int(row.migrations.maximum),
                int(row.context_switches.minimum),
                round(row.context_switches.mean, 2),
                int(row.context_switches.maximum),
            )
        return t.render()

    def row(self, label: str) -> SchedulerNoiseRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def table1(
    regime: str,
    cache: Optional[CampaignCache] = None,
    *,
    n_runs: int = 50,
    base_seed: int = 0,
    benches: Sequence[Tuple[str, str]] = BENCH_ORDER,
    **run_opts,
) -> Table1:
    """Regenerate Table Ia (``regime="stock"``) or Ib (``regime="hpl"``).

    *run_opts* configure the :class:`CampaignCache` built when none is
    given."""
    cache = cache or CampaignCache(n_runs, base_seed, **run_opts)
    rows: List[SchedulerNoiseRow] = []
    for name, klass in benches:
        campaign = cache.get(name, klass, regime)
        rows.append(
            SchedulerNoiseRow(
                label=campaign.label,
                migrations=summarize(
                    [float(v) for v in campaign.migrations()], metric="count"
                ),
                context_switches=summarize(
                    [float(v) for v in campaign.context_switches()], metric="count"
                ),
            )
        )
    return Table1(regime=regime, rows=tuple(rows))


# --------------------------------------------------------------------------
# Table II — execution times, stock vs HPL
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionTimeRow:
    """One Table II row: both kernels side by side."""

    label: str
    stock: RunStatistics
    hpl: RunStatistics

    @property
    def hpl_wins_avg(self) -> bool:
        return self.hpl.mean <= self.stock.mean * 1.005  # ties allowed

    @property
    def variation_collapse(self) -> float:
        """Stock variation over HPL variation (the headline ratio)."""
        if self.hpl.variation <= 0:
            return float("inf")
        return self.stock.variation / self.hpl.variation


@dataclass(frozen=True)
class Table2:
    rows: Tuple[ExecutionTimeRow, ...]

    def render(self) -> str:
        t = TextTable(
            "Table II: NAS execution time, Std. Linux vs HPL (seconds)",
            [
                "Bench",
                "Std.Min", "Std.Avg", "Std.Max", "Std.Var%",
                "HPL.Min", "HPL.Avg", "HPL.Max", "HPL.Var%",
            ],
        )
        for row in self.rows:
            s, h = row.stock, row.hpl
            t.add_row(
                row.label,
                s.minimum, s.mean, s.maximum, s.variation,
                h.minimum, h.mean, h.maximum, h.variation,
            )
        return t.render()

    def row(self, label: str) -> ExecutionTimeRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def mean_hpl_variation(self) -> float:
        """The paper's headline: 2.11% average variation under HPL."""
        return sum(r.hpl.variation for r in self.rows) / len(self.rows)


def table2(
    cache: Optional[CampaignCache] = None,
    *,
    n_runs: int = 50,
    base_seed: int = 0,
    benches: Sequence[Tuple[str, str]] = BENCH_ORDER,
    **run_opts,
) -> Table2:
    """Regenerate Table II (runs — or reuses — both kernels' campaigns);
    *run_opts* as for :func:`table1`."""
    cache = cache or CampaignCache(n_runs, base_seed, **run_opts)
    rows: List[ExecutionTimeRow] = []
    for name, klass in benches:
        stock = cache.get(name, klass, "stock")
        hpl = cache.get(name, klass, "hpl")
        rows.append(
            ExecutionTimeRow(
                label=stock.label,
                stock=summarize(stock.app_times_s()),
                hpl=summarize(hpl.app_times_s()),
            )
        )
    return Table2(rows=tuple(rows))


# --------------------------------------------------------------------------
# §IV policy comparison — CFS / nice / RT / pinned / HPL on one benchmark
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyComparison:
    """§IV's argument in one table: each stock-Linux knob helps but only the
    HPL class removes both preemption and migration."""

    label: str
    per_regime: Mapping[str, CampaignResult]

    def stats(self, regime: str) -> Dict[str, RunStatistics]:
        c = self.per_regime[regime]
        return {
            "time": summarize(c.app_times_s()),
            "migrations": summarize([float(v) for v in c.migrations()], metric="count"),
            "context_switches": summarize(
                [float(v) for v in c.context_switches()], metric="count"
            ),
        }

    def render(self) -> str:
        t = TextTable(
            f"Scheduling-policy comparison for {self.label}",
            ["Regime", "T.Min", "T.Avg", "T.Max", "T.Var%", "Mig.Avg", "CS.Avg"],
        )
        for regime in self.per_regime:
            s = self.stats(regime)
            time = s["time"]
            t.add_row(
                regime,
                time.minimum, time.mean, time.maximum, time.variation,
                round(s["migrations"].mean, 1),
                round(s["context_switches"].mean, 1),
            )
        return t.render()


def policy_comparison(
    name: str = "ep",
    klass: str = "A",
    *,
    n_runs: int = 50,
    base_seed: int = 0,
    regimes: Sequence[str] = ("stock", "nice", "rt", "pinned", "hpl"),
    **run_opts,
) -> PolicyComparison:
    """Run one benchmark under every §IV regime (*run_opts*: the campaigns'
    execution options)."""
    campaigns = {
        regime: run_nas_campaign(
            name, klass, regime, n_runs, base_seed=base_seed,
            resume_missing_ok=True, **run_opts,
        )
        for regime in regimes
    }
    return PolicyComparison(
        label=f"{name}.{klass}.8",
        per_regime=campaigns,
    )
