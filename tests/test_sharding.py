"""Sharded runs: the same bytes, counts, figures and errors at every shard count."""

from __future__ import annotations

import itertools
import json
import logging
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

from oadscan import cli, extraction, report, shards
from oadscan.analytics import AggregateConfig
from oadscan.classifier import DEFAULT_DENYLIST, TrainedModel
from oadscan.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from oadscan.corpus import ManifestEntry, MonthWindow, load_manifest, read_document
from oadscan.extraction import MentionsFileError, read_mentions_file
from oadscan.fileio import open_spool
from oadscan.ghp import DEFAULT_PATTERNS
from oadscan.scope import DEFAULT_POLICY
from oadscan.shards import MAX_WORKERS, MIN_SHARD_BYTES, contiguous, line_ranges, run_shards
from test_cli import CORPUS, MODEL, write_corpus
from test_extraction_linear import shape_b
from test_report_loop import CONTEXTS, HOSTS, PATHS, POLICIES

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "data" / "golden"
CSVS = ("monthly.csv", "hostnames.csv", "histogram.csv", "top_hostnames.csv")
# 25 is more shards than either corpus has documents.
SHARDS = (1, 2, 3, 25)


def run(*argv):
    return main([str(a) for a in argv])


def metadata(path):
    meta = json.loads(path.read_text(encoding="utf-8"))
    return {key: meta.get(key) for key in ("counts", "figures")}


def all_outputs(manifest: Path, out: Path) -> dict:
    """extract, report and pipeline: every file's bytes and every run
    record's counts and figures."""
    common = ["--manifest", manifest]
    staged = out / "staged"
    staged.mkdir(parents=True)
    assert run("extract", *common, "--out", staged / "mentions.tsv") == EXIT_OK
    assert run("report", *common, "--model", MODEL, "--mentions", staged / "mentions.tsv",
               "--out-dir", staged) == EXIT_OK
    assert run("pipeline", *common, "--model", MODEL, "--out-dir", out / "fused") == EXIT_OK
    outputs = {}
    for run_dir in ("staged", "fused"):
        for name in ("mentions.tsv", *CSVS):
            outputs[f"{run_dir}/{name}"] = (out / run_dir / name).read_bytes()
        outputs[f"{run_dir}/run_metadata.json"] = metadata(out / run_dir / "run_metadata.json")
    outputs["extract meta"] = metadata(staged / "mentions.tsv.meta.json")
    return outputs


def small_corpus(tmp_path):
    return write_corpus(tmp_path, [
        ("a", 1, "2019-01", "Data at https://zenodo.org/record/11 and code at "
                            "https://github.com/u/r."),
        ("b", 1, "2019-02", "No links in this one."),
        ("c", 1, "2019-02", "A talk at https://youtu.be/xyz123ab. See www.example.org/x too."),
        ("d", 1, "2019-03", "Mirror: https://figshare.com/s/abc; also https://github.com/u/r."),
        ("e", 1, "2019-05", "Spread over https://datadryad.org/stash/dataset/doi:10.5061/dryad.x."),
    ]) / "manifest.tsv"


@pytest.mark.parametrize("corpus", ["golden", "tmp"])
def test_outputs_identical_at_every_shard_count(corpus, tmp_path, force_shards):
    manifest = CORPUS / "manifest.tsv" if corpus == "golden" else small_corpus(tmp_path)
    force_shards(1)
    serial = all_outputs(manifest, tmp_path / "w1")
    assert serial["staged/mentions.tsv"] == serial["fused/mentions.tsv"]
    for name in CSVS:
        assert serial[f"staged/{name}"] == serial[f"fused/{name}"]
        if corpus == "golden":
            assert serial[f"fused/{name}"] == (GOLDEN / name).read_bytes()
    assert serial["extract meta"]["counts"]["mentions"] > 0
    for n in SHARDS[1:]:
        force_shards(n)
        assert all_outputs(manifest, tmp_path / f"w{n}") == serial, n


def test_never_more_shards_than_documents_or_lines(tmp_path, force_shards):
    manifest = small_corpus(tmp_path)
    out = tmp_path / "m.tsv"
    force_shards(25)
    assert run("extract", "--manifest", manifest, "--out", out) == EXIT_OK
    meta = json.loads((tmp_path / "m.tsv.meta.json").read_text())
    assert meta["timings"]["workers"] == 5
    assert run("report", "--manifest", manifest, "--model", MODEL, "--mentions", out,
               "--out-dir", tmp_path / "r") == EXIT_OK
    meta = json.loads((tmp_path / "r" / "run_metadata.json").read_text())
    with out.open(encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    assert 1 < meta["timings"]["workers"] <= lines


# --- errors ----------------------------------------------------------------


def mention_line(n, month="2019-01", end="\n"):
    return f"d{n}v1\t{month}\thttps://x.org/{n}\t0\t15\t\"context {n}\"{end}"


@pytest.fixture
def report_error(tmp_path, caplog, force_shards):
    """Run report on a mentions file in n shards; the one error it logs."""
    runs = itertools.count()

    def report(mentions: Path, n: int) -> str:
        caplog.clear()
        force_shards(n)
        k = next(runs)
        manifest = write_corpus(tmp_path / f"c{k}", [("d0", 1, "2019-01", "text")])
        code = run("report", "--manifest", manifest / "manifest.tsv", "--model", MODEL,
                   "--mentions", mentions, "--out-dir", tmp_path / f"r{k}")
        assert code == EXIT_DATA
        assert not (tmp_path / f"r{k}").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1
        return errors[0]
    return report


def test_bad_month_later_in_one_document_named_at_every_shard_count(tmp_path, report_error):
    # Every line is document d1; a month is checked only where it changes,
    # so line 30's bad month follows 29 good lines with one month.
    lines = [f"d1v1\t{'2019-13' if n == 30 else '2019-01'}\thttps://x.org/{n}\t0\t15\t"
             f"\"context {n}\"\n" for n in range(1, 40)]
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(MentionsFileError) as serial:
        read_mentions_file(mentions)
    assert str(serial.value) == (f"{mentions}:30: invalid month '2019-13': "
                                 "expected YYYY-MM with MM in 01..12")
    # at two shards the bad line is in the second one
    assert mentions.read_bytes().index(b"2019-13") > line_ranges(mentions, 2)[1][0]
    for n in (1, 2):
        assert report_error(mentions, n) == str(serial.value)


def test_shard_stage_seconds_are_cpu_time(tmp_path, monkeypatch, force_shards,
                                          force_chunk_bytes):
    # A fake CPU clock that moves one second per reading makes every span
    # timed in CPU time exactly 1 s, whatever the wall clock does.  pipeline
    # runs the report loop once per document; report, with one chunk per
    # shard, reads and loops once per shard.
    force_chunk_bytes(1 << 30)
    ticks = itertools.count(0, 10**9)
    monkeypatch.setattr(time, "process_time_ns", lambda: next(ticks))
    manifest = small_corpus(tmp_path)
    for n in (1, 2):
        force_shards(n)
        out = tmp_path / f"p{n}"
        assert run("pipeline", "--manifest", manifest, "--model", MODEL,
                   "--out-dir", out) == EXIT_OK
        timings = json.loads((out / "run_metadata.json").read_text())["timings"]
        workers = timings["workers"]
        assert workers == n
        assert timings["extract_s"] == 5.0  # one span per document
        assert timings["classify_s"] == 5 + 1  # one per document, one in the parent
        assert timings["read_documents_s"] < 1 and timings["write_mentions_s"] < 1
        assert run("report", "--manifest", manifest, "--model", MODEL, "--mentions",
                   out / "mentions.tsv", "--out-dir", tmp_path / f"r{n}") == EXIT_OK
        timings = json.loads((tmp_path / f"r{n}" / "run_metadata.json").read_text())["timings"]
        assert timings["read_mentions_s"] == timings["workers"]
        assert timings["classify_s"] == timings["workers"] + 1
        assert timings["write_reports_s"] < 1


def test_window_error_is_the_first_in_file_order(tmp_path, report_error):
    # Lines 5 and 30 have months outside the window and line 35 is
    # malformed; at 2 and 3 shards, later shards fail too.
    lines = [mention_line(n, month={5: "1999-05", 30: "1998-01"}.get(n, "2019-01"))
             for n in range(1, 40)]
    lines[34] = "d35v1\t2019-01\tonly four fields\n"
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text("".join(lines), encoding="utf-8")
    for n in (1, 2, 3):
        message = report_error(mentions, n)
        assert message == (f"{mentions}:5: mention month 1999-05 outside corpus window "
                           "2007-04..2021-12")


def test_invalid_utf8_mentions_line_named_at_every_shard_count(tmp_path, report_error):
    body = "".join(mention_line(n) for n in range(1, 30)).encode("utf-8")
    bad = b"d30v1\t2019-01\thttps://x.org/\xff\t0\t15\t\"c\"\n"
    mentions = tmp_path / "mentions.tsv"
    mentions.write_bytes(body + bad)
    column = bad.index(b"\xff")
    messages = {report_error(mentions, n) for n in (1, 2, 3)}
    assert messages == {f"{mentions}:30: invalid UTF-8 at byte offset {column} of the line "
                        "(invalid start byte)"}


@pytest.mark.parametrize("content", [b"", b"# doc_id\tmonth\turi\tspan_start\tspan_end\tcontext\n"],
                         ids=["empty", "header-only"])
def test_mentions_file_without_mentions(content, tmp_path, force_shards):
    mentions = tmp_path / "mentions.tsv"
    mentions.write_bytes(content)
    outputs = []
    for n in (1, 2, 3):
        force_shards(n)
        out = tmp_path / f"r{n}"
        assert run("report", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
                   "--mentions", mentions, "--out-dir", out) == EXIT_OK
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["counts"]["mentions"] == 0
        assert meta["timings"]["workers"] == 1
        outputs.append([metadata(out / "run_metadata.json")]
                       + [(out / name).read_bytes() for name in CSVS])
    assert outputs[0] == outputs[1] == outputs[2]


def test_skipped_documents_recorded_and_logged_in_manifest_order(tmp_path, caplog,
                                                                 force_shards):
    root = write_corpus(tmp_path, [
        (name, 1, "2019-01", f"See https://zenodo.org/record/{name}.") for name in "abcdef"
    ])
    (root / "docs" / "bv1.txt").write_bytes(b"Caf\xe9 data at https://x.org/b.")
    (root / "docs" / "ev1.txt").unlink()
    seen = []
    for n in SHARDS:
        caplog.clear()
        force_shards(n)
        out = tmp_path / f"m{n}.tsv"
        assert run("extract", "--manifest", root / "manifest.tsv", "--out", out) == EXIT_OK
        counts = json.loads(out.with_name(out.name + ".meta.json").read_text())["counts"]
        logged = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        seen.append((counts, logged, out.read_bytes()))
    counts, logged, _ = seen[0]
    assert [doc_id for doc_id, _ in counts["skipped"]] == ["bv1", "ev1"]
    assert counts["read_failures"] == 2
    assert "utf-8" in counts["skipped"][0][1]
    assert logged == [f"skipping document {doc_id}: {reason}"
                      for doc_id, reason in counts["skipped"]]
    assert all(s == seen[0] for s in seen)


# --- how many shards, and dead workers ---------------------------------------


@pytest.mark.real_shard_count
@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_shard_count(monkeypatch, cpus):
    monkeypatch.setattr(shards, "_usable_cpus", lambda: cpus)
    assert shards.shard_count(0) == 1
    assert shards.shard_count(2 * MIN_SHARD_BYTES - 1) == 1
    assert shards.shard_count(2 * MIN_SHARD_BYTES) == min(cpus, 2)
    assert shards.shard_count(10**9) == min(cpus, MAX_WORKERS)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="one CPU where the commands cannot fork")
@pytest.mark.parametrize("cpu_max, mask, expected", [
    ("max 100000\n", 2, 2),        # no quota: the affinity mask decides
    ("100000 100000\n", 2, 1),     # one CPU's worth of time
    ("50000 100000\n", 2, 1),      # part of a CPU rounds up to one
    ("150000 100000\n", 4, 2),     # 1.5 CPUs round up to two
    ("400000 100000\n", 2, 2),     # a quota above the mask leaves the mask
    (None, 3, 3),                  # no cpu.max file
    ("", 2, 2),                    # malformed files are ignored
    ("100000\n", 2, 2),
    ("max max\n", 2, 2),
    ("1 2 3\n", 2, 2),
    ("0 100000\n", 2, 2),
    ("100000 0\n", 2, 2),
    ("-100000 100000\n", 2, 2),
])
def test_usable_cpus_honours_the_cgroup_quota(tmp_path, monkeypatch, cpu_max, mask, expected):
    # A fake cpu.max file stands in for the cgroup's; no real quota is set.
    fake = tmp_path / "cpu.max"
    if cpu_max is not None:
        fake.write_text(cpu_max)
    monkeypatch.setattr(shards, "CPU_MAX", fake)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(mask)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: mask)
    assert shards._usable_cpus() == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="one CPU where the commands cannot fork")
@pytest.mark.parametrize("proc_cgroup, quotas, expected", [
    # quotas: cgroup path below the top -> its cpu.max; the mask is 4 CPUs
    ("0::/a/b\n", {"a/b": "100000 100000\n"}, 1),   # the process's own cgroup
    ("0::/a/b\n", {"a": "150000 100000\n"}, 2),     # an ancestor's quota
    ("0::/a/b\n", {"": "100000 100000\n"}, 1),      # the top's quota
    ("0::/a/b\n", {"": "300000 100000\n", "a": "200000 100000\n",
                   "a/b": "max 100000\n"}, 2),      # the smallest level wins
    ("0::/a/b\n", {"a": "junk\n", "a/b": "0 100000\n"}, 4),  # malformed: no limit
    ("0::/a/b\n", {}, 4),                           # no cpu.max at any level
    ("0::/a\n", {"a/b": "100000 100000\n"}, 4),     # a child's quota does not count
    ("0::/\n", {"a": "100000 100000\n"}, 4),
    ("1:cpu:/b\n0::/a\n", {"a": "100000 100000\n"}, 1),  # hybrid: the v2 line
    ("1:cpu:/a\n", {"a": "100000 100000\n"}, 4),  # v1 only: the top alone
    (None, {"a": "100000 100000\n"}, 4),            # no cgroup file: the top alone
    ("0::/../a\n", {"a": "100000 100000\n"}, 4),   # above the top: the top alone
])
def test_usable_cpus_honours_every_level_of_a_nested_cgroup(tmp_path, monkeypatch, proc_cgroup,
                                                            quotas, expected):
    # A fake hierarchy stands in for the mounted one; no real quota is set.
    top = tmp_path / "cgroup"
    (top / "a" / "b").mkdir(parents=True)
    for path, text in quotas.items():
        (top / path / "cpu.max").write_text(text)
    fake_proc = tmp_path / "self-cgroup"
    if proc_cgroup is not None:
        fake_proc.write_text(proc_cgroup)
    monkeypatch.setattr(shards, "CPU_MAX", top / "cpu.max")
    monkeypatch.setattr(shards, "PROC_CGROUP", fake_proc)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert shards._usable_cpus() == expected


@pytest.mark.real_shard_count
def test_small_input_skips_the_cpu_lookup(monkeypatch):
    def lookup():
        raise AssertionError("an input below two shards looked up the CPUs")

    monkeypatch.setattr(shards, "_usable_cpus", lookup)
    assert shards.shard_count(0) == 1
    assert shards.shard_count(2 * MIN_SHARD_BYTES - 1) == 1


@pytest.mark.real_shard_count
def test_input_size_sets_the_shards(tmp_path, monkeypatch):
    # The golden corpus is far below two minimum shards, so one process
    # does the work; a corpus of two or more minimum shards is cut in two.
    monkeypatch.setattr(shards, "_usable_cpus", lambda: 2)
    out = tmp_path / "golden"
    assert run("pipeline", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
               "--out-dir", out) == EXIT_OK
    assert json.loads((out / "run_metadata.json").read_text())["timings"]["workers"] == 1
    prose = "Plain prose without a link. " * 400
    manifest = write_corpus(tmp_path / "big", [
        (f"d{n}", 1, "2019-01", f"Data at https://zenodo.org/record/{n}. {prose}")
        for n in range(2 * MIN_SHARD_BYTES // len(prose) + 1)
    ]) / "manifest.tsv"
    out = tmp_path / "big-run"
    assert run("pipeline", "--manifest", manifest, "--model", MODEL, "--out-dir", out) == EXIT_OK
    assert json.loads((out / "run_metadata.json").read_text())["timings"]["workers"] == 2
    assert run("report", "--manifest", manifest, "--model", MODEL,
               "--mentions", out / "mentions.tsv", "--out-dir", tmp_path / "r") == EXIT_OK
    assert json.loads((tmp_path / "r" / "run_metadata.json").read_text())["timings"]["workers"] \
        == shards.shard_count((out / "mentions.tsv").stat().st_size)


def test_one_document_starts_no_pool(tmp_path):
    # A single shard runs in the command's own process, as before sharding;
    # two shards fork one child each, without multiprocessing's pool.
    manifest = write_corpus(tmp_path, [("a", 1, "2019-01",
                                        "See https://x.org/a. Data at https://zenodo.org/b.")])
    out = tmp_path / "m.tsv"
    pool_modules = "any(m in sys.modules for m in ('multiprocessing', 'concurrent.futures'))"
    code = ("import sys; from oadscan import shards; from oadscan.cli import main; "
            "shards.shard_count = lambda input_bytes: 4; "
            f"main(['extract', '--manifest', {str(manifest / 'manifest.tsv')!r}, "
            f"'--out', {str(out)!r}]); "
            f"print({pool_modules}); "
            "shards.shard_count = lambda input_bytes: 2; "
            f"main(['report', '--manifest', {str(manifest / 'manifest.tsv')!r}, "
            f"'--model', {str(MODEL)!r}, '--mentions', {str(out)!r}, "
            f"'--out-dir', {str(tmp_path / 'r')!r}]); "
            f"print({pool_modules})")
    env = {k: v for k, v in os.environ.items() if not k.startswith("OADSCAN_")}
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.split() == ["False", "False"]
    assert len(read_mentions_file(out)) == 2
    meta = json.loads((tmp_path / "r" / "run_metadata.json").read_text())
    assert meta["timings"]["workers"] == 2 and meta["counts"]["mentions"] == 2


def assert_no_children():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exit_in_second_shard(shard):
    if shard == 1:
        os._exit(1)
    return shard


def test_dead_worker_is_an_error_not_a_hang():
    assert run_shards(_exit_in_second_shard, [0, 2]) == [0, 2]
    with pytest.raises(ChildProcessError, match="a worker process died"):
        run_shards(_exit_in_second_shard, [0, 1, 2])
    assert_no_children()


def _fail_from_shard_one(shard):
    if shard == 1:
        time.sleep(0.3)  # shard 2 fails first
    if shard:
        raise ValueError(f"shard {shard} failed")
    return shard


def test_earliest_shard_error_wins():
    with pytest.raises(ValueError, match="^shard 1 failed$"):
        run_shards(_fail_from_shard_one, [0, 1, 2])
    assert_no_children()


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled: pickle calls it with args alone."""

    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


def _unpicklable_reply(kind):
    if kind == "result":
        return lambda: kind
    if kind == "exception":
        raise ValueError(lambda: kind)
    if kind == "unpickle":
        raise _TwoArgError("cannot be rebuilt", 1)
    return kind


@pytest.mark.parametrize("kind, message", [
    ("result", "shard 2: its result cannot be pickled"),
    ("exception", "shard 2: its ValueError exception cannot be pickled"),
    ("unpickle", "shard 2: its reply cannot be unpickled"),
])
def test_unpicklable_reply_names_its_shard(kind, message):
    with pytest.raises(ChildProcessError, match=f"^{message}"):
        run_shards(_unpicklable_reply, ["ok", "ok", kind])
    assert_no_children()


def _sleep(shard):
    time.sleep(60)


def test_interrupted_parent_leaves_no_child():
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)  # while the parent waits on shard 0
        with pytest.raises(KeyboardInterrupt):
            run_shards(_sleep, [0, 1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 30
    assert_no_children()


# Runs main on 2 shards after argv[1:3] (a directory, a stage), with the
# stage made to leave a <pid>.pid file in the directory and sleep: each
# worker's report loop for 60 s ("loop") or for 1 s a call ("slow": a call
# per document in pipeline, per chunk of about 64 bytes in report), or the
# parent's first rename of a finished file ("write").
SLEEP_THEN_MAIN = """\
import os, sys, time
from pathlib import Path
from oadscan import cli, fileio, report, shards

def mark_and_sleep(seconds=60):
    (Path(sys.argv[1]) / f"{os.getpid()}.pid").write_text("")
    time.sleep(seconds)

class SlowRename:
    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, *args):
        mark_and_sleep()

shards.shard_count = lambda input_bytes: 2
if sys.argv[2] == "loop":
    report._report_records = lambda *args: mark_and_sleep()
elif sys.argv[2] == "slow":
    shards.CHUNK_BYTES = 64
    report._report_records = lambda *args: mark_and_sleep(1)
else:
    fileio.os = SlowRename()
sys.exit(cli.main(sys.argv[3:]))
"""


def running(pid: int) -> bool:
    """The process exists and has not exited.  An orphan that has exited
    stays a zombie until init reaps it, which some inits do only seconds later."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # the state is the field after the parenthesized command name
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except OSError:  # no /proc, or the process went in between
        return True


def gone_within(pid: int, seconds: float) -> bool:
    """The process is gone, or goes within the seconds given."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if not running(pid):
            return True
        time.sleep(0.02)
    return False


def files_besides_pids(tmp_path: Path) -> set[Path]:
    """Every file under tmp_path outside its pids directory."""
    return {p for p in tmp_path.rglob("*") if p.is_file() and p.parent.name != "pids"}


def sleeping_command(tmp_path: Path, stage: str, marks: int,
                     command: str = "report") -> tuple[subprocess.Popen, Path, set[Path]]:
    """SLEEP_THEN_MAIN started on the fixture corpus, once ``marks`` pid
    files have appeared; the directory that holds them; and the files
    under tmp_path, the pid files aside, before the command started."""
    mentions = tmp_path / "mentions.tsv"
    assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", mentions) == EXIT_OK
    pids = tmp_path / "pids"
    pids.mkdir()
    before = files_besides_pids(tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("OADSCAN_")}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, "-c", SLEEP_THEN_MAIN, pids, stage, command, "--manifest",
            CORPUS / "manifest.tsv", "--model", MODEL, "--out-dir", tmp_path / "out"]
    if command == "report":
        argv += ["--mentions", mentions]
    proc = subprocess.Popen([str(a) for a in argv], env=env, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while len(list(pids.iterdir())) < marks:
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, pids, before


def assert_gone_within(pids: Path, seconds: float) -> None:
    """Every process that left a pid file is gone within the seconds given."""
    left = [pid for pid in (int(p.stem) for p in pids.iterdir()) if not gone_within(pid, seconds)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == [], "these processes outlived the command"


@pytest.mark.parametrize("stage, marks, command", [
    ("loop", 2, "report"), ("write", 1, "report"), ("loop", 2, "pipeline"), ("write", 1, "pipeline"),
], ids=["loop-2", "write-1", "pipeline-loop-2", "pipeline-write-1"])
def test_sigterm_to_the_parent_leaves_no_child_and_no_temp_file(stage, marks, command,
                                                                tmp_path):
    # pipeline's first rename is the mentions file's, with the spools open.
    proc, pids, before = sleeping_command(tmp_path, stage, marks, command)
    try:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM  # what a shell shows for SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert_gone_within(pids, 5)
    assert list(tmp_path.rglob("*.tmp")) == []
    assert files_besides_pids(tmp_path) == before
    assert not (tmp_path / "out" / "monthly.csv").exists()


@pytest.mark.parametrize("command", ["report", "pipeline"])
def test_workers_of_a_killed_parent_exit(command, tmp_path):
    # SIGKILL runs no cleanup in the parent.  Each worker has over 5 s of
    # report loop left, and checks between its documents or chunks that the
    # parent that forked it still lives.
    proc, pids, before = sleeping_command(tmp_path, "slow", 2, command)
    proc.kill()
    assert proc.wait(timeout=30) == -signal.SIGKILL
    assert_gone_within(pids, 5)
    assert files_besides_pids(tmp_path) == before


@pytest.mark.parametrize("command", ["report", "pipeline"])
def test_dead_worker_fails_the_command_and_writes_nothing(command, tmp_path, monkeypatch,
                                                          force_shards, caplog):
    mentions = tmp_path / "mentions.tsv"
    assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", mentions) == EXIT_OK
    # Each forked worker inherits this, and dies in its report loop.
    monkeypatch.setattr(report, "_report_records", lambda *args: os._exit(1))
    force_shards(2)
    out = tmp_path / "out"
    argv = ["--manifest", CORPUS / "manifest.tsv", "--model", MODEL, "--out-dir", out]
    if command == "report":
        argv += ["--mentions", mentions]
    assert run(command, *argv) == EXIT_USAGE
    assert not (out / "mentions.tsv").exists() and not (out / "monthly.csv").exists()
    assert "a worker process died" in caplog.text
    assert_no_children()


# --- the shard cuts ----------------------------------------------------------


def test_contiguous_runs_cover_the_items_in_order():
    for n_items in range(0, 12):
        items = list(range(n_items))
        for n in range(1, 6):
            runs = contiguous(items, n)
            assert len(runs) == max(1, min(n, n_items))
            assert [x for r in runs for x in r] == items
            assert max(map(len, runs)) - min(map(len, runs)) <= 1


def text_mode_lines(path: Path) -> list[str]:
    """The lines as text mode reads them, the reading the byte ranges keep."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def after_line_end(data: bytes, cut: int) -> bool:
    """cut falls just after an LF, or just after a CR that no LF follows."""
    before, after = data[cut - 1:cut], data[cut:cut + 1]
    return before == b"\n" or (before == b"\r" and after != b"\n")


@given(
    lines=st.lists(st.tuples(st.sampled_from(["mention", "comment", "blank"]),
                             st.text(alphabet="abcé€ \"\\", max_size=6), LINE_ENDS),
                   max_size=25),
    bad_at=st.none() | st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60, deadline=None)
# Lines longer than the 64 KiB block shards._after_line_end reads: a cut
# inside the first finds no line end in the first block it reads.  In the
# second, the file is 131,146 bytes, and the block read from its middle,
# 65,573, ends on the first line's CR at 131,108, the first half of a CRLF.
@example(lines=[("mention", "a" * (3 << 16), "\n"), ("mention", "b", "\r\n")], bad_at=None)
@example(lines=[("mention", "a" * ((2 << 16) + 1), "\r\n"), ("mention", "", "\n")],
         bad_at=None)
def test_byte_ranges_read_as_the_whole_file(tmp_path_factory, lines, bad_at):
    path = tmp_path_factory.mktemp("ranges") / "mentions.tsv"
    text = []
    for n, (kind, context, end) in enumerate(lines):
        if n == bad_at:
            text.append("bad line" + end)
        if kind == "mention":
            text.append(f"d{n}v1\t2019-01\thttps://x.org/{n}\t0\t{n}\t"
                        f"{json.dumps(context, ensure_ascii=n % 2 == 0)}{end}")
        else:
            text.append(("# " + context if kind == "comment" else "") + end)
    path.write_bytes("".join(text).encode("utf-8"))
    size = path.stat().st_size
    reference = text_mode_lines(path)
    for n in range(1, 5):
        ranges = line_ranges(path, n)
        assert ranges[0][0] == 0 and ranges[-1][1] == size
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(start < end for start, end in ranges) or ranges == [(0, 0)]
        assert len(ranges) <= max(1, min(n, len(reference)))
        data = path.read_bytes()
        assert all(after_line_end(data, end) for _, end in ranges[:-1])
        if "bad line" in reference:
            lineno = reference.index("bad line") + 1
            for start, end in ranges:
                if start <= data.index(b"bad line") < end:
                    with pytest.raises(MentionsFileError, match=f":{lineno}: expected 6"):
                        read_mentions_file(path, start, end)
        else:
            whole = read_mentions_file(path)
            assert [r for start, end in ranges for r in read_mentions_file(path, start, end)] \
                == whole
            assert [(str(r.doc_id), r.month, r.uri, *r.span, r.context) for r in whole] == [
                (*f[:3], int(f[3]), int(f[4]), json.loads(f[5]))
                for f in (line.split("\t", 5) for line in reference)
                if f[0] and not f[0].startswith("#")
            ]


# --- chunked shards ------------------------------------------------------------


def chunk_ranges(path: Path, n_shards: int, chunk_bytes: int) -> list[tuple[int, int]]:
    """The chunks report on n_shards shards cuts its mentions file into,
    checked: they cover the file in order, none is empty, each cut follows
    an LF or a lone CR, and each chunk less its last line spans no more than
    chunk_bytes, nor more than a shard's share of the file."""
    data = path.read_bytes()
    size = len(data)
    chunks = line_ranges(path, max(n_shards, -(-size // chunk_bytes)))
    assert chunks[0][0] == 0 and chunks[-1][1] == size
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert all(a < b for a, b in chunks) or chunks == [(0, 0)]
    assert all(after_line_end(data, b) for _, b in chunks[:-1])
    for a, b in chunks:
        ends = [m.end() for m in re.finditer(rb"\r\n?|\n", data[a:b]) if m.end() < b - a]
        assert max([0, *ends]) <= min(chunk_bytes, -(-size // n_shards)), (a, b)
    return chunks


def serial_shards(job, items):
    """``run_shards`` without the pool, so a test's patches reach every shard."""
    return [job(item) for item in items]


def chunked_report(manifest: Path, mentions: Path, out: Path, policy: str, n_shards: int,
                   chunk_bytes: int) -> list | str:
    """The run record's counts and figures and the four CSVs of report on
    n_shards shards that read in chunks of about chunk_bytes; or, when the
    mentions file is bad, the one error it logs."""
    errors = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shards, "shard_count", lambda input_bytes: n_shards)
        mp.setattr(shards, "CHUNK_BYTES", chunk_bytes)
        mp.setattr(shards, "run_shards", serial_shards)
        mp.setattr(cli.log, "error", lambda message, *args: errors.append(message % args))
        code = run("report", "--manifest", manifest, "--model", MODEL, "--mentions", mentions,
                   "--out-dir", out, "--category-policy", policy)
    if code == EXIT_DATA:
        assert len(errors) == 1 and not out.exists()
        return errors[0]
    assert code == EXIT_OK and errors == []
    return [metadata(out / "run_metadata.json"), *((out / name).read_bytes() for name in CSVS)]


# Lines that make a mentions file bad: malformed, an invalid month, and
# months on either side of the default window.
BAD_LINES = ["d{}v1\t2019-01\tonly four fields", "d{}v1\t2019-13\thttps://x.org/a\t0\t15\t\"c\"",
             "d{}v1\t1999-05\thttps://x.org/a\t0\t15\t\"c\"",
             "d{}v1\t2022-01\thttps://x.org/a\t0\t15\t\"c\""]


@given(
    lines=st.lists(st.tuples(st.sampled_from(["mention", "mention", "comment", "blank"]),
                             st.sampled_from(HOSTS), st.sampled_from(PATHS),
                             st.sampled_from(CONTEXTS),
                             st.sampled_from(["2019-01", "2019-02", "2020-06"]), LINE_ENDS),
                   max_size=30),
    bad=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(BAD_LINES), LINE_ENDS),
                 max_size=3),
    policy=st.sampled_from(POLICIES),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_chunked_report_matches_the_one_chunk_report(tmp_path_factory, lines, bad, policy, data):
    # With a bad line, every shard count and chunk size logs the error of a
    # whole-file read: the first bad line in file order, whatever its kind.
    tmp = tmp_path_factory.mktemp("chunks")
    text = []
    for n, (kind, host, path, context, month, end) in enumerate(lines):
        uri = f"https://{host}{path}"
        if kind == "mention":
            text.append(f"d{n % 4}v1\t{month}\t{uri}\t0\t{len(uri)}\t"
                        f"{json.dumps(context.format(uri))}{end}")
        else:
            text.append(("# " + host if kind == "comment" else "") + end)
    for at, line, end in sorted(bad, reverse=True):
        text.insert(at, line.format(at % 4) + end)
    mentions = tmp / "mentions.tsv"
    mentions.write_bytes("".join(text).encode("utf-8"))
    manifest = write_corpus(tmp, [(f"d{i}", 1, "2019-01", "text") for i in range(4)])
    manifest = manifest / "manifest.tsv"
    size = mentions.stat().st_size
    whole = chunked_report(manifest, mentions, tmp / "whole", policy, 1, size + 1)
    try:
        read_mentions_file(mentions, window=MonthWindow())
        assert not isinstance(whole, str)
    except MentionsFileError as exc:
        assert whole == str(exc)
    chunk_sizes = (1, data.draw(st.integers(1, max(1, size)), label="chunk_bytes"), size + 1)
    for n, chunk_bytes in itertools.product((1, 2, 3), chunk_sizes):
        chunk_ranges(mentions, n, chunk_bytes)
        out = tmp / f"r{n}-{chunk_bytes}"
        assert chunked_report(manifest, mentions, out, policy, n, chunk_bytes) == whole, \
            (n, chunk_bytes)


def test_error_line_number_counts_a_crlf_across_blocks_once(tmp_path, monkeypatch):
    # A bad line read from a byte range is numbered by counting the line
    # ends before the range, a block at a time.  At these block sizes a
    # CRLF in that prefix is split by a block's end.
    lines = [mention_line(n, end="\r\n" if n % 2 else "\r") for n in range(1, 12)]
    lines += [mention_line(12), "d13v1\t2019-01\tonly four fields\n"]
    mentions = tmp_path / "mentions.tsv"
    mentions.write_bytes("".join(lines).encode("utf-8"))
    raw = mentions.read_bytes()
    with pytest.raises(MentionsFileError) as serial:
        read_mentions_file(mentions)
    assert str(serial.value) == f"{mentions}:13: expected 6 fields"
    start = raw.index(b"d13v1")  # just after line 12's LF
    for block in (1, 2, 5, 23, 65):
        assert any(raw[k - 1:k + 1] == b"\r\n" for k in range(block, start, block)), block
        monkeypatch.setattr(extraction, "_COUNT_BLOCK", block)
        with pytest.raises(MentionsFileError) as ranged:
            read_mentions_file(mentions, start)
        assert str(ranged.value) == str(serial.value), block


def cr_only_twin(path: Path) -> Path:
    """A copy of a mentions file with every LF made a lone CR."""
    twin = path.with_name(path.stem + "-cr" + path.suffix)
    twin.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    return twin


@pytest.mark.parametrize("bad_at", [None, 45], ids=["good", "bad"])
def test_cr_only_twin_reports_the_same(tmp_path, bad_at):
    # The twin is cut into shards and chunks at its CRs, as the LF file is
    # at its LFs, and gives the same CSVs and counts, or the same error.
    lines = [f"d{i % 3}v1\t2019-0{1 + i % 2}\thttps://{HOSTS[i % len(HOSTS)]}"
             f"{PATHS[i % len(PATHS)]}\t0\t9\t"
             f"{json.dumps(CONTEXTS[i % len(CONTEXTS)].format(i))}\n" for i in range(80)]
    if bad_at is not None:
        lines.insert(bad_at - 1, BAD_LINES[1].format(1) + "\n")
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text("".join(lines), encoding="utf-8")
    twin = cr_only_twin(mentions)
    manifest = write_corpus(tmp_path, [(f"d{i}", 1, "2019-01", "text") for i in range(3)])
    manifest = manifest / "manifest.tsv"
    assert len(line_ranges(twin, 2)) == 2
    assert len(chunk_ranges(twin, 2, 256)) > 2
    for n in (1, 2):
        report = chunked_report(manifest, mentions, tmp_path / f"lf{n}", "ghp-forces-oads", n, 256)
        if bad_at is not None:
            assert report == f"{mentions}:{bad_at}: invalid month '2019-13': " \
                             "expected YYYY-MM with MM in 01..12"
            report = report.replace(str(mentions), str(twin))
        assert chunked_report(manifest, twin, tmp_path / f"cr{n}", "ghp-forces-oads", n,
                              256) == report, n


def test_report_shard_memory_does_not_grow_with_its_range(tmp_path):
    # A shard over 4N lines that reuse N lines' hosts and months peaks at
    # about the memory of one over N lines: one chunk's records at a time,
    # also when the lines end in lone CRs.
    setup = report._ReportSetup(TrainedModel.load(MODEL), DEFAULT_POLICY, DEFAULT_DENYLIST,
                                DEFAULT_PATTERNS, AggregateConfig())
    hosts = [h for h in HOSTS if h not in ("localhost", "10.0.0.7")]

    def mentions(n: int, end: str = "\n") -> Path:
        path = tmp_path / f"m{n}.tsv"
        path.write_text("".join(
            f"d{i // 10}v1\t2019-0{1 + i % 9}\thttps://{hosts[i % len(hosts)]}/record/{i}\t0\t30\t"
            f"\"The data and code for this study are at record {i}.\"\n" for i in range(n)),
            encoding="utf-8")
        return path if end == "\n" else cr_only_twin(path)

    def peak(path: Path) -> int:
        chunks = chunk_ranges(path, 1, 32 * 1024)
        tracemalloc.start()
        try:
            part = report._report_shard(setup, MonthWindow(), path, chunks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert part.counts["mentions"] == int(path.stem[1:].removesuffix("-cr"))

    # A first run of several chunks: in a long test session, the first such
    # run peaked about 40 KB higher than the runs after it.
    peak(mentions(600))
    for end in ("\n", "\r"):
        assert peak(mentions(8000, end)) <= 1.2 * peak(mentions(2000, end)), repr(end)


# --- extraction spools ---------------------------------------------------------


def test_a_spool_has_no_name(tmp_path):
    with open_spool(tmp_path) as spool:
        assert list(tmp_path.iterdir()) == []
        spool.write(b"a line\n")
        spool.seek(0)
        assert spool.read() == b"a line\n"
    assert list(tmp_path.iterdir()) == []


def reference_list(tmp_path: Path) -> tuple[Path, ManifestEntry]:
    """A one-document corpus of about 4,000 reference-style URIs: its
    manifest and its entry."""
    manifest = write_corpus(tmp_path, [("refs", 1, "2020-01", shape_b(4000))]) / "manifest.tsv"
    return manifest, load_manifest(manifest)[0]


def traced_peak(call: Callable[[], object]) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_holds_no_mention_text(tmp_path):
    # Reading and extracting the document is most of what extract needs;
    # the mention lines go to a spool one at a time, so the command adds
    # less than half its mentions file: no list of lines, no joined text
    # and no encoded copy of it.
    manifest, entry = reference_list(tmp_path)
    out = tmp_path / "mentions.tsv"
    assert run("extract", "--manifest", manifest, "--out", out) == EXIT_OK  # imports, caches
    extraction_peak = traced_peak(
        lambda: extraction.extract_uri_mentions(read_document(entry, manifest.parent)))
    command_peak = traced_peak(lambda: run("extract", "--manifest", manifest, "--out", out))
    assert out.stat().st_size > 500_000
    assert command_peak - extraction_peak < out.stat().st_size / 2


def test_extract_shard_replies_without_mention_text(tmp_path):
    # What a forked shard pickles back: counts, timings, skipped documents.
    manifest, entry = reference_list(tmp_path)
    with open_spool(tmp_path) as spool:
        part = cli._extract_shard(manifest.parent, False, None, (spool, [entry]))
        spool.seek(0)
        lines = spool.read().decode("utf-8").splitlines()
    assert part.counts["mentions"] == len(lines) == 4000
    assert len(pickle.dumps(part, pickle.HIGHEST_PROTOCOL)) < 2048
    assert list(tmp_path.iterdir()) == [tmp_path / "corpus"]  # the spool has no name
