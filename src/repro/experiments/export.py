"""Campaign export: CSV and rendered SVG figures.

Everything a downstream user needs to re-plot the paper's artifacts with
their own tools:

* :func:`campaign_to_csv` — one row per run (time, counters, mode, seed
  index);
* :func:`export_figures` — run the ep.A.8 campaigns and write Figs. 2, 3a,
  3b, 4 as SVG files plus the underlying CSVs into a directory (the repo's
  substitute for the paper's PDF panels).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import List, Optional, Union

from repro.analysis.svg import histogram_svg, scatter_svg
from repro.experiments.runner import CampaignResult, run_nas_campaign

__all__ = ["campaign_to_csv", "export_figures"]

_CSV_FIELDS = [
    "run_index",
    "program",
    "mode",
    "app_time_s",
    "wall_time_s",
    "context_switches",
    "cpu_migrations",
    "rank_migrations",
    "rank_involuntary_switches",
]


def campaign_to_csv(campaign: CampaignResult) -> str:
    """Render a campaign as CSV text (one row per run)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS)
    writer.writeheader()
    for i, r in enumerate(campaign.results):
        writer.writerow(
            {
                "run_index": i,
                "program": r.program_name,
                "mode": r.mode,
                "app_time_s": f"{r.app_time_s:.6f}",
                "wall_time_s": f"{r.wall_time / 1e6:.6f}",
                "context_switches": r.context_switches,
                "cpu_migrations": r.cpu_migrations,
                "rank_migrations": r.rank_migrations,
                "rank_involuntary_switches": r.rank_involuntary_switches,
            }
        )
    return buf.getvalue()


def export_figures(
    out_dir: Union[str, Path],
    *,
    n_runs: int = 60,
    seed: int = 7,
    stock_campaign: Optional[CampaignResult] = None,
    rt_campaign: Optional[CampaignResult] = None,
    **run_opts,
) -> List[Path]:
    """Write figure2.svg, figure3a.svg, figure3b.svg, figure4.svg (and the
    CSVs behind them) into *out_dir*; returns the written paths.

    Pass pre-run campaigns to reuse data (the benchmark harness does).
    *run_opts* are the underlying campaigns' execution options; with the
    result cache on, a re-export with unchanged inputs runs zero
    simulations."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    stock = stock_campaign or run_nas_campaign(
        "ep", "A", "stock", n_runs, base_seed=seed,
        resume_missing_ok=True, **run_opts,
    )
    rt = rt_campaign or run_nas_campaign(
        "ep", "A", "rt", n_runs, base_seed=seed,
        resume_missing_ok=True, **run_opts,
    )

    def write(name: str, content: str) -> None:
        path = out / name
        path.write_text(content)
        written.append(path)

    times = stock.app_times_s()
    write(
        "figure2.svg",
        histogram_svg(
            times,
            title=f"Fig. 2: ep.A.8 execution time, stock Linux (n={stock.n_runs})",
        ),
    )
    write(
        "figure3a.svg",
        scatter_svg(
            [float(v) for v in stock.migrations()], times,
            title="Fig. 3a: time vs cpu-migrations (stock)",
            xlabel="cpu-migrations", ylabel="execution time (s)",
        ),
    )
    write(
        "figure3b.svg",
        scatter_svg(
            [float(v) for v in stock.context_switches()], times,
            title="Fig. 3b: time vs context-switches (stock)",
            xlabel="context-switches", ylabel="execution time (s)",
        ),
    )
    write(
        "figure4.svg",
        histogram_svg(
            rt.app_times_s(),
            title=f"Fig. 4: ep.A.8 execution time, RT scheduler (n={rt.n_runs})",
            color="#4e9a06",
        ),
    )
    write("figure2_data.csv", campaign_to_csv(stock))
    write("figure4_data.csv", campaign_to_csv(rt))
    return written
