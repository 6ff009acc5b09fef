"""Corpus statistics: monthly time series, hostname frequencies, reports.

One pass over a corpus fills one ``CorpusAggregate`` of plain counts,
and the reports and the paper's figures are read from it.  Percentages
and shares are expressed in percentage points (0..100).
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple

from .fileio import atomic_open
from .ghp import Category, CategoryPolicy

__all__ = [
    "MonthlyStats",
    "HostnameStats",
    "AggregateConfig",
    "CorpusAggregate",
    "category_percentages",
    "ghp_share_of_oads",
    "frequency_histogram",
    "top_hostnames",
    "paper_figures",
    "write_reports",
]


class MonthlyStats(NamedTuple):
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


class HostnameStats(NamedTuple):
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


def top_hostnames(stats: HostnameStats, n: int | None = None) -> list[str]:
    """The n most frequent hostnames (all of them when n is None), ties
    broken lexicographically."""
    if n is not None and n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # Two stable sorts of one list rank the strings themselves: no key
    # tuple or (host, count) pair is built per hostname.
    ranked = sorted(stats.counts)
    ranked.sort(key=stats.counts.__getitem__, reverse=True)
    if n is not None:
        del ranked[n:]
    return ranked


# --- corpus-level aggregate ----------------------------------------------


class AggregateConfig(NamedTuple):
    category_policy: CategoryPolicy = CategoryPolicy.GHP_FORCES_OADS
    histogram_bin_width: int = 50


class CorpusAggregate:
    """Everything the reports need: plain counts, filled by one pass over a
    corpus, or by passes over parts of it summed with ``update``."""

    def __init__(self, config: AggregateConfig = AggregateConfig()) -> None:
        self.config = config
        self.publications = Counter()  # month -> documents
        self.mentions = Counter()  # (month, Category) -> mentions in scope
        self.hostnames = Counter()  # hostname -> non-GHP OADS mentions

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
        """The hostname counts and their sum.  The counts are this
        aggregate's own Counter, shared, not a copy."""
        return HostnameStats(self.hostnames, sum(self.hostnames.values()))

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
    stats = MonthlyStats(month, publications, oads + non_oads, oads, non_oads, ghp, non_ghp_oads)
    stats.check()
    return stats


def paper_figures(aggregate: CorpusAggregate) -> dict[str, float | int | None]:
    """The paper's headline figures for an aggregate: the GHP share of OADS
    mentions, the top hostname's share of non-GHP OADS mentions, the
    number of distinct hostnames, and how spread out hostname usage is:
    the shares of mentions whose hostname occurs exactly once and more
    than 5 times, and the number of hostnames with over 1000 mentions.
    Shares are in percentage points; an undefined share is None, and
    without a non-GHP OADS mention so is the count over 1000."""
    counts, total = aggregate.hostname_stats()

    def share(mentions: int) -> float | None:
        return 100.0 * mentions / total if total else None

    return {
        "ghp_share_of_oads": ghp_share_of_oads(aggregate.totals()),
        "top_hostname_share": share(max(counts.values(), default=0)),
        "distinct_hostnames": len(counts),
        "singleton_uri_share": share(sum(c for c in counts.values() if c == 1)),
        "gt5_uri_share": share(sum(c for c in counts.values() if c > 5)),
        "hostnames_over_1000": sum(1 for c in counts.values() if c > 1000) if total else None,
    }


# --- CSV reports -----------------------------------------------------------
#
# Fixed precision: averages and shares at 4 decimal places, category
# percentages at 2.  Months without URIs leave percentage cells empty.


def _fmt(value: float | None, places: int) -> str:
    return "" if value is None else f"{value:.{places}f}"


def _monthly_row(s: MonthlyStats) -> list:
    pubs = float(s.publications) if s.publications else None
    counts = (s.publications, s.uri_total, s.oads, s.non_oads, s.ghp, s.non_ghp_oads)
    return [s.month, *counts, *(_fmt(n / pubs if pubs else None, 4) for n in counts[1:4]),
            *(_fmt(pct, 2) for pct in category_percentages(s) or (None,) * 3)]


def _write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Stream the header and rows into path with ``atomic_open``, one row
    at a time."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_reports(
    out_dir: str | Path,
    aggregate: CorpusAggregate,
    top_n: int = 15,
) -> dict[str, str]:
    """Write the four CSV reports, ranking the hostnames once; returns report name -> path."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = aggregate.hostname_stats()
    counts, total = stats
    ranked = top_hostnames(stats)
    paths = {name: out_dir / f"{name}.csv"
             for name in ("monthly", "hostnames", "histogram", "top_hostnames")}
    _write_csv(paths["monthly"],
               ["month", "publications", "uri_total", "oads", "non_oads", "ghp", "non_ghp_oads",
                "avg_total", "avg_oads", "avg_non_oads", "pct_ghp", "pct_non_ghp_oads",
                "pct_non_oads"],
               map(_monthly_row, aggregate.monthly_list()))
    _write_csv(paths["hostnames"], ["hostname", "count", "share"],
               ((host, counts[host], _fmt(100.0 * counts[host] / total, 4)) for host in ranked))
    _write_csv(paths["histogram"], ["bin_start", "bin_end", "hostname_count"],
               frequency_histogram(stats, aggregate.config.histogram_bin_width))
    _write_csv(paths["top_hostnames"], ["hostname", "count"],
               ((host, counts[host]) for host in ranked[:top_n]))
    return {name: str(p) for name, p in paths.items()}
