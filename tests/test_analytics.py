import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oadscan.analytics import (
    CorpusAggregate,
    HostnameStats,
    MonthlyStats,
    category_percentages,
    frequency_histogram,
    ghp_share_of_oads,
    paper_figures,
    top_hostnames,
    write_reports,
)
from oadscan.ghp import Category
from oadscan.scope import host_of

EMPTY_HOSTS = HostnameStats({}, 0)


def aggregate_documents(docs):
    """The report's aggregate of (month, in-scope categories) per document."""
    agg = CorpusAggregate()
    for month, categories in docs:
        agg.add_publications(month)
        for category in categories:
            agg.add_mention(month, category, "host.example.org")
    return agg.monthly_list()


def hostname_stats(uris):
    """The report's hostname counts over non-GHP OADS mention URIs."""
    agg = CorpusAggregate()
    for uri in uris:
        agg.add_mention("2020-01", Category.NON_GHP_OADS, host_of(uri))
    return agg.hostname_stats()


class TestMonthlyStats:
    def test_hand_arithmetic_example(self):
        # Doc A: 1 OADS (non-GHP) + 2 non-OADS; doc B: no URIs.
        docs = [
            ("2020-01", [Category.NON_GHP_OADS, Category.NON_OADS, Category.NON_OADS]),
            ("2020-01", []),
        ]
        (stats,) = aggregate_documents(docs)
        assert stats.publications == 2
        assert stats.uri_total / stats.publications == 1.5
        assert stats.oads / stats.publications == 0.5
        assert stats.non_oads / stats.publications == 1.0

    def test_zero_uri_month(self):
        (stats,) = aggregate_documents([("2020-02", []), ("2020-02", []), ("2020-02", [])])
        assert stats.publications == 3
        assert stats.uri_total == stats.oads == stats.non_oads == 0

    def test_months_sorted(self):
        result = aggregate_documents([("2020-03", []), ("2019-12", []), ("2020-01", [])])
        assert [s.month for s in result] == ["2019-12", "2020-01", "2020-03"]

    def test_identities_on_every_record(self):
        rng = random.Random(3)
        docs = []
        for _ in range(300):
            month = f"201{rng.randint(0, 9)}-{rng.randint(1, 12):02d}"
            cats = [rng.choice(list(Category)) for _ in range(rng.randint(0, 6))]
            docs.append((month, cats))
        tallies = {}
        for month, cats in docs:
            tallies.setdefault(month, Counter()).update(cats)
        for stats in aggregate_documents(docs):
            tally = tallies[stats.month]
            assert stats.oads == stats.ghp + stats.non_ghp_oads == (
                tally[Category.GHP] + tally[Category.NON_GHP_OADS])
            assert stats.uri_total == stats.oads + stats.non_oads == sum(tally.values())


class TestCategoryPercentages:
    def test_hand_arithmetic(self):
        stats = MonthlyStats("2020-01", 1, 1, 1, 2)
        assert category_percentages(stats) == (25.0, 25.0, 50.0)

    def test_degenerate_all_non_oads(self):
        stats = MonthlyStats("2020-01", 1, 0, 0, 5)
        assert category_percentages(stats) == (0.0, 0.0, 100.0)

    def test_zero_total_is_undefined_not_an_error(self):
        assert category_percentages(MonthlyStats("2020-01", 3)) is None

    def test_published_ghp_ratio(self):
        stats = MonthlyStats("total", 0, 127529, 258288, 0)
        pct_ghp, pct_non_ghp, pct_non_oads = category_percentages(stats)
        assert pct_ghp == pytest.approx(33.05, abs=0.01)
        assert ghp_share_of_oads(stats) == pytest.approx(33.05, abs=0.01)
        assert pct_ghp + pct_non_ghp + pct_non_oads == pytest.approx(100.0, abs=1e-9)

    def test_rounded_percentages_sum_near_100(self):
        rng = random.Random(17)
        for _ in range(500):
            ghp = rng.randint(0, 50)
            ngo = rng.randint(0, 50)
            non = rng.randint(0, 50)
            total = ghp + ngo + non
            if total == 0:
                continue
            stats = MonthlyStats("2020-01", 1, ghp, ngo, non)
            pct = category_percentages(stats)
            assert sum(round(p, 2) for p in pct) == pytest.approx(100.0, abs=0.02)


class TestHostnameStats:
    def test_published_share(self):
        # 4,953 of 258,288 mentions on the top host, the rest 5 apiece.
        agg = CorpusAggregate()
        agg.hostnames.update({"cds.cern.ch": 4953})
        agg.hostnames.update({f"h{i}.example.org": 5 for i in range(50667)})
        assert agg.hostname_stats().total == 258288
        assert paper_figures(agg)["top_hostname_share"] == pytest.approx(1.9177, abs=0.005)

    def test_singleton(self):
        stats = hostname_stats(["https://only.example.org/x"])
        assert stats.counts == {"only.example.org": 1}
        assert stats.total == 1

    def test_brute_force_tally(self):
        rng = random.Random(11)
        hosts = ["a.org", "b.org", "c.net"]
        uris = [f"https://{rng.choice(hosts)}/p{i}" for i in range(10)]
        stats = hostname_stats(uris)
        expected = Counter(u.split("//")[1].split("/")[0] for u in uris)
        assert stats.counts == dict(expected)
        assert stats.total == 10

    def test_hosts_lowercased(self):
        stats = hostname_stats(["https://CDS.CERN.CH/x", "https://cds.cern.ch/y"])
        assert stats.counts == {"cds.cern.ch": 2}


class TestFrequencyHistogram:
    def test_hand_bucketing(self):
        stats = HostnameStats({"a": 1, "b": 1, "c": 49, "d": 50}, 101)
        assert frequency_histogram(stats, 50) == ((0, 50, 3), (50, 100, 1))

    def test_empty(self):
        assert frequency_histogram(EMPTY_HOSTS, 50) == ()

    def test_bad_width(self):
        with pytest.raises(ValueError):
            frequency_histogram(EMPTY_HOSTS, 0)

    def test_bins_contiguous_and_conserve_hostnames(self):
        rng = random.Random(23)
        for _ in range(100):
            counts = {f"h{i}": rng.randint(1, 300) for i in range(rng.randint(1, 40))}
            stats = HostnameStats(counts, sum(counts.values()))
            width = rng.choice([1, 5, 50, 100])
            bins = frequency_histogram(stats, width)
            assert sum(c for _, _, c in bins) == len(counts)
            for (s1, e1, _), (s2, e2, _) in zip(bins, bins[1:]):
                assert e1 == s2 and e2 - s2 == width
            assert bins[0][0] == 0


def ranked_oracle(counts, n):
    """The n most frequent hostnames, ranked by (-count, host) key tuples."""
    return [host for host, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]]


class TestTopHostnames:
    def test_tie_broken_lexicographically(self):
        stats = HostnameStats({"zeta.org": 2, "alpha.org": 2, "mid.org": 5}, 9)
        assert top_hostnames(stats) == ["mid.org", "alpha.org", "zeta.org"]

    def test_singleton_any_n(self):
        stats = HostnameStats({"one.org": 7}, 7)
        for n in (1, 5, 100):
            assert top_hostnames(stats)[:n] == ["one.org"]

    def test_prefix_property(self):
        rng = random.Random(29)
        counts = {f"h{i}.org": rng.randint(1, 9) for i in range(25)}
        stats = HostnameStats(counts, sum(counts.values()))
        ranked = top_hostnames(stats)
        assert ranked == ranked_oracle(counts, 25)
        for n in range(1, 25):
            assert ranked[:n] == ranked_oracle(counts, n)

    def test_hand_sorted_oracle(self):
        stats = HostnameStats({"b.org": 3, "a.org": 3, "c.org": 9, "d.org": 1, "e.org": 3}, 19)
        assert top_hostnames(stats) == ranked_oracle(stats.counts, 5)

    def test_three_way_ties_at_several_counts(self):
        # Three hostnames at each of four counts, inserted neither in rank
        # nor in name order.
        counts = {}
        for count in (2, 9, 1, 5):
            for name in ("m", "z", "a"):
                counts[f"{name}{count}.org"] = count
        stats = HostnameStats(counts, sum(counts.values()))
        assert top_hostnames(stats) == ["a9.org", "m9.org", "z9.org", "a5.org", "m5.org",
                                        "z5.org", "a2.org", "m2.org", "z2.org", "a1.org",
                                        "m1.org", "z1.org"]
        assert top_hostnames(stats) == ranked_oracle(counts, 12)


DISPERSION = ("singleton_uri_share", "gt5_uri_share", "hostnames_over_1000")


def dispersion(counts):
    """paper_figures' dispersion figures for an aggregate with these
    non-GHP OADS hostname counts."""
    agg = CorpusAggregate()
    agg.hostnames.update(counts)
    figures = paper_figures(agg)
    return tuple(figures[name] for name in DISPERSION)


class TestDispersion:
    def test_single_host_degenerate(self):
        assert dispersion({"only.org": 3}) == (0.0, 0.0, 0)

    def test_zero_total_undefined(self):
        assert dispersion({}) == (None, None, None)

    def test_brute_force_recount(self):
        rng = random.Random(31)
        for _ in range(100):
            counts = {f"h{i}": rng.randint(1, 1500) for i in range(rng.randint(1, 30))}
            total = sum(counts.values())
            singleton = sum(c for c in counts.values() if c == 1)
            gt5 = sum(c for c in counts.values() if c > 5)
            assert dispersion(counts) == (
                pytest.approx(100.0 * singleton / total), pytest.approx(100.0 * gt5 / total),
                sum(1 for c in counts.values() if c > 1000))


def random_aggregate(rng, months=4, mentions=30):
    agg = CorpusAggregate()
    month_pool = [f"2019-{m:02d}" for m in range(1, months + 1)]
    for month in month_pool:
        agg.add_publications(month, rng.randint(1, 5))
    hosts = [f"host{i}.org" for i in range(6)]
    for _ in range(mentions):
        agg.add_mention(
            rng.choice(month_pool), rng.choice(list(Category)), rng.choice(hosts)
        )
    return agg


class TestAccountingIdentity:
    def test_identities_hold_on_random_aggregates(self):
        rng = random.Random(53)
        for _ in range(200):
            mentions = rng.randint(0, 50)
            agg = random_aggregate(rng, months=rng.randint(1, 6), mentions=mentions)
            totals = agg.totals()
            # The totals are the months' counts summed, field by field.
            assert totals[1:] == tuple(map(sum, zip(*(s[1:] for s in agg.monthly_list()))))
            assert totals.oads == totals.ghp + totals.non_ghp_oads
            assert totals.uri_total == totals.oads + totals.non_oads == mentions


class TestCsvOutput:
    def test_top_n_below_one_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="^top_n must be >= 1, got 0$"):
            write_reports(tmp_path / "out", CorpusAggregate(), top_n=0)
        assert not (tmp_path / "out").exists()

    def test_monthly_csv_formatting(self, tmp_path):
        agg = CorpusAggregate()
        agg.add_publications("2020-01", 2)
        for category in Category:
            agg.add_mention("2020-01", category, "host.example.org")
        agg.add_publications("2020-02", 3)
        write_reports(tmp_path, agg)
        lines = (tmp_path / "monthly.csv").read_text().splitlines()
        assert lines[0].startswith("month,publications,uri_total")
        assert lines[1] == "2020-01,2,3,2,1,1,1,1.5000,1.0000,0.5000,33.33,33.33,33.33"
        assert lines[2] == "2020-02,3,0,0,0,0,0,0.0000,0.0000,0.0000,,,"

    def test_hostname_reports_stream_their_rows(self, tmp_path):
        # The reports are written row by row: no list of rows, no CSV text
        # and no (host, count) pair per hostname is held.  At 40,000
        # hostnames the peak is the ranked list of names and what the sort
        # needs beside it.
        n = 40_000
        agg = CorpusAggregate()
        for i in range(n):
            for _ in range(1 + i % 3):
                agg.add_mention("2020-01", Category.NON_GHP_OADS, f"host{i}.example.org")
        tracemalloc.start()
        try:
            write_reports(tmp_path, agg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * n, peak / n
        rows = (tmp_path / "hostnames.csv").read_text().splitlines()
        assert len(rows) == n + 1
        assert rows[1] == "host10001.example.org,3,0.0038"  # 3 of 79,999 mentions


MONTHS = st.sampled_from(["2019-01", "2019-02", "2020-07", "2021-12"])
# ("publications", month, count) or ("mention", month, category, host); a
# count of 0 still gives the month a row.
EVENTS = st.lists(st.one_of(
    st.tuples(st.just("publications"), MONTHS, st.integers(0, 3)),
    st.tuples(st.just("mention"), MONTHS, st.sampled_from(list(Category)),
              st.sampled_from(["a.org", "b.org", "c.org"])),
), max_size=40)


def fill(events):
    agg = CorpusAggregate()
    for kind, *args in events:
        if kind == "publications":
            agg.add_publications(*args)
        else:
            agg.add_mention(*args)
    return agg


def readings(agg):
    return agg.monthly_list(), agg.totals(), agg.hostname_stats(), paper_figures(agg)


@given(events=EVENTS, cuts=st.tuples(*[st.integers(0, 40)] * 3))
@settings(max_examples=300, deadline=None)
def test_update_joins_parts_into_the_one_pass_aggregate(events, cuts):
    whole = readings(fill(events))
    for bounds in ([cuts[0]], sorted(cuts[1:])):
        ends = [min(b, len(events)) for b in bounds] + [len(events)]
        joined = fill(events[:ends[0]])
        for start, end in zip(ends, ends[1:]):
            joined.update(fill(events[start:end]))
        assert readings(joined) == whole
