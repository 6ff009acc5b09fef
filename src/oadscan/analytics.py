"""Corpus statistics: monthly time series, hostname frequencies, reports.

One pass over a corpus fills one ``CorpusAggregate`` of plain counts,
and the reports and the paper's figures are read from it.  Percentages
and shares are expressed in percentage points (0..100).
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

from .fileio import atomic_write_text
from .ghp import Category, CategoryPolicy

__all__ = [
    "MonthlyStats",
    "HostnameStats",
    "DispersionMetrics",
    "AggregateConfig",
    "CorpusAggregate",
    "category_percentages",
    "ghp_share_of_oads",
    "frequency_histogram",
    "top_hostnames",
    "dispersion_metrics",
    "paper_figures",
    "write_reports",
]


@dataclass(frozen=True)
class MonthlyStats:
    """Per-month counts; identities: uri_total = oads + non_oads and
    oads = ghp + non_ghp_oads."""

    month: str
    publications: int = 0
    uri_total: int = 0
    oads: int = 0
    non_oads: int = 0
    ghp: int = 0
    non_ghp_oads: int = 0

    def check(self) -> None:
        counts = (self.publications, self.uri_total, self.oads, self.non_oads,
                  self.ghp, self.non_ghp_oads)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {self}")
        if self.uri_total != self.oads + self.non_oads:
            raise ValueError(f"uri_total != oads + non_oads in {self}")
        if self.oads != self.ghp + self.non_ghp_oads:
            raise ValueError(f"oads != ghp + non_ghp_oads in {self}")


def category_percentages(stats: MonthlyStats) -> tuple[float, float, float] | None:
    """(pct_ghp, pct_non_ghp_oads, pct_non_oads) over uri_total, or None
    when the month has no URIs."""
    if stats.uri_total == 0:
        return None
    total = float(stats.uri_total)
    return (
        100.0 * stats.ghp / total,
        100.0 * stats.non_ghp_oads / total,
        100.0 * stats.non_oads / total,
    )


def ghp_share_of_oads(stats: MonthlyStats) -> float | None:
    """Percentage of OADS URIs that point at a Git hosting platform."""
    if stats.oads == 0:
        return None
    return 100.0 * stats.ghp / stats.oads


@dataclass(frozen=True)
class HostnameStats:
    """Hostname frequency over non-GHP OADS mentions."""

    counts: dict[str, int]
    total: int


def frequency_histogram(
    stats: HostnameStats, bin_width: int = 50
) -> tuple[tuple[int, int, int], ...]:
    """Hostnames bucketed by their frequency into half-open bins
    [k*w, (k+1)*w), as (start, end, hostname count); bins are contiguous
    from zero and sum to the number of distinct hostnames."""
    if bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    if not stats.counts:
        return ()
    max_freq = max(stats.counts.values())
    n_bins = max_freq // bin_width + 1
    buckets = [0] * n_bins
    for freq in stats.counts.values():
        buckets[freq // bin_width] += 1
    return tuple(
        (k * bin_width, (k + 1) * bin_width, buckets[k]) for k in range(n_bins)
    )


def top_hostnames(stats: HostnameStats, n: int) -> list[tuple[str, int]]:
    """The n most frequent hostnames, ties broken lexicographically."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ranked = sorted(stats.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:n]


@dataclass(frozen=True)
class DispersionMetrics:
    """How spread-out hostname usage is, in percentage points."""

    singleton_uri_share: float   # mentions whose hostname occurs exactly once
    gt5_uri_share: float         # mentions whose hostname occurs more than 5 times
    hostnames_over_1000: int


def dispersion_metrics(stats: HostnameStats) -> DispersionMetrics | None:
    if stats.total == 0:
        return None
    singleton = sum(c for c in stats.counts.values() if c == 1)
    gt5 = sum(c for c in stats.counts.values() if c > 5)
    over_1000 = sum(1 for c in stats.counts.values() if c > 1000)
    return DispersionMetrics(
        100.0 * singleton / stats.total,
        100.0 * gt5 / stats.total,
        over_1000,
    )


# --- corpus-level aggregate ----------------------------------------------


@dataclass(frozen=True)
class AggregateConfig:
    category_policy: CategoryPolicy = CategoryPolicy.GHP_FORCES_OADS
    histogram_bin_width: int = 50


@dataclass
class CorpusAggregate:
    """Everything the reports need: plain counts, filled by one pass over a
    corpus, or by passes over parts of it summed with ``update``."""

    config: AggregateConfig = field(default_factory=AggregateConfig)
    publications: Counter = field(default_factory=Counter)  # month -> documents
    mentions: Counter = field(default_factory=Counter)  # (month, Category) -> in scope
    hostnames: Counter = field(default_factory=Counter)  # over non-GHP OADS mentions

    def add_publications(self, month: str, count: int = 1) -> None:
        self.publications[month] += count

    def add_mention(self, month: str, category: Category, hostname: str) -> None:
        self.mentions[month, category] += 1
        if category is Category.NON_GHP_OADS:
            self.hostnames[hostname] += 1

    def update(self, other: CorpusAggregate) -> None:
        """Add another aggregate's counts to this one's.  ``Counter.update``
        keeps a zero count (a month without documents), where ``+`` drops it."""
        self.publications.update(other.publications)
        self.mentions.update(other.mentions)
        self.hostnames.update(other.hostnames)

    def hostname_stats(self) -> HostnameStats:
        return HostnameStats(dict(self.hostnames), sum(self.hostnames.values()))

    def monthly_list(self) -> list[MonthlyStats]:
        months = set(self.publications).union(month for month, _ in self.mentions)
        return [_monthly_stats(m, self.publications[m], *(self.mentions[m, c] for c in Category))
                for m in sorted(months)]

    def totals(self) -> MonthlyStats:
        """Every month's counts summed."""
        return _monthly_stats("total", sum(self.publications.values()), *(
            sum(n for (_, c), n in self.mentions.items() if c is category) for category in Category))


def _monthly_stats(month: str, publications: int, ghp: int, non_ghp_oads: int,
                   non_oads: int) -> MonthlyStats:
    oads = ghp + non_ghp_oads
    return MonthlyStats(month, publications, oads + non_oads, oads, non_oads, ghp, non_ghp_oads)


def paper_figures(aggregate: CorpusAggregate) -> dict[str, float | int | None]:
    """The paper's headline figures for an aggregate: the GHP share of OADS
    mentions, the top hostname's share of non-GHP OADS mentions, the
    number of distinct hostnames and the dispersion metrics.  Shares are
    in percentage points; an undefined share is None."""
    stats = aggregate.hostname_stats()
    top = top_hostnames(stats, 1)
    dispersion = dispersion_metrics(stats)
    figures: dict[str, float | int | None] = {
        "ghp_share_of_oads": ghp_share_of_oads(aggregate.totals()),
        "top_hostname_share": 100.0 * top[0][1] / stats.total if top else None,
        "distinct_hostnames": len(stats.counts),
    }
    for f in fields(DispersionMetrics):
        figures[f.name] = None if dispersion is None else getattr(dispersion, f.name)
    return figures


# --- CSV reports -----------------------------------------------------------
#
# Fixed precision: averages and shares at 4 decimal places, category
# percentages at 2.  Months without URIs leave percentage cells empty.


def _fmt(value: float | None, places: int) -> str:
    return "" if value is None else f"{value:.{places}f}"


def _csv_text(header: list[str], rows: Iterable[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_monthly_csv(path: str | Path, monthly: Sequence[MonthlyStats]) -> None:
    rows = []
    for s in monthly:
        pubs = float(s.publications) if s.publications else None
        counts = (s.publications, s.uri_total, s.oads, s.non_oads, s.ghp, s.non_ghp_oads)
        rows.append([s.month, *map(str, counts),
                     *(_fmt(n / pubs if pubs else None, 4) for n in counts[1:4]),
                     *(_fmt(pct, 2) for pct in category_percentages(s) or (None,) * 3)])
    header = ["month", "publications", "uri_total", "oads", "non_oads", "ghp", "non_ghp_oads",
              "avg_total", "avg_oads", "avg_non_oads", "pct_ghp", "pct_non_ghp_oads",
              "pct_non_oads"]
    atomic_write_text(path, _csv_text(header, rows))


def write_hostnames_csv(path: str | Path, stats: HostnameStats) -> None:
    ranked = sorted(stats.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = [
        [host, str(count), _fmt(100.0 * count / stats.total, 4)]
        for host, count in ranked
    ]
    atomic_write_text(path, _csv_text(["hostname", "count", "share"], rows))


def write_histogram_csv(path: str | Path, bins: Sequence[tuple[int, int, int]]) -> None:
    rows = [[str(s), str(e), str(c)] for s, e, c in bins]
    atomic_write_text(path, _csv_text(["bin_start", "bin_end", "hostname_count"], rows))


def write_top_hostnames_csv(path: str | Path, stats: HostnameStats, n: int) -> None:
    rows = [[host, str(count)] for host, count in top_hostnames(stats, n)]
    atomic_write_text(path, _csv_text(["hostname", "count"], rows))


def write_reports(
    out_dir: str | Path,
    aggregate: CorpusAggregate,
    top_n: int = 15,
) -> dict[str, str]:
    """Write the four CSV reports; returns report name -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = aggregate.hostname_stats()
    paths = {
        "monthly": out_dir / "monthly.csv",
        "hostnames": out_dir / "hostnames.csv",
        "histogram": out_dir / "histogram.csv",
        "top_hostnames": out_dir / "top_hostnames.csv",
    }
    write_monthly_csv(paths["monthly"], aggregate.monthly_list())
    write_hostnames_csv(paths["hostnames"], stats)
    write_histogram_csv(
        paths["histogram"], frequency_histogram(stats, aggregate.config.histogram_bin_width)
    )
    write_top_hostnames_csv(paths["top_hostnames"], stats, top_n)
    return {name: str(p) for name, p in paths.items()}
