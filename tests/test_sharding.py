"""Sharded runs: the same bytes, counts, figures and errors at every shard count."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oadscan import cli, shards
from oadscan.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from oadscan.extraction import MentionsFileError, read_mentions_file
from oadscan.shards import MAX_WORKERS, MIN_SHARD_BYTES, contiguous, line_ranges, run_shards
from test_cli import CORPUS, MODEL, write_corpus

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
    lines = sum(1 for _ in out.open(encoding="utf-8"))
    assert 1 < meta["timings"]["workers"] <= lines


# --- errors ----------------------------------------------------------------


def mention_line(n, month="2019-01", end="\n"):
    return f"d{n}v1\t{month}\thttps://x.org/{n}\t0\t15\t\"context {n}\"{end}"


@pytest.fixture
def report_error(tmp_path, caplog, force_shards):
    """Run report on a mentions file in n shards; the one error it logs."""
    def report(mentions: Path, n: int) -> str:
        caplog.clear()
        force_shards(n)
        manifest = write_corpus(tmp_path / f"c{n}", [("d0", 1, "2019-01", "text")])
        code = run("report", "--manifest", manifest / "manifest.tsv", "--model", MODEL,
                   "--mentions", mentions, "--out-dir", tmp_path / f"r{n}")
        assert code == EXIT_DATA
        assert not (tmp_path / f"r{n}").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1
        return errors[0]
    return report


def test_file_error_in_a_later_shard_beats_window_error_in_an_earlier_one(tmp_path,
                                                                          report_error):
    # Line 3 has a month outside the window and line 40 is malformed.  CRLF
    # and lone-CR line ends before both check the line numbering.
    lines = ["# header\r\n", mention_line(1, end="\r"), mention_line(2, month="1999-01")]
    lines += [mention_line(n, end="\r\n" if n % 3 else "\n") for n in range(3, 39)]
    lines.append("d40v1\t2019-01\tonly four fields\n")
    lines += [mention_line(n) for n in range(41, 45)]
    mentions = tmp_path / "mentions.tsv"
    mentions.write_bytes("".join(lines).encode("utf-8"))
    with pytest.raises(MentionsFileError) as serial:
        read_mentions_file(mentions)
    assert str(serial.value) == f"{mentions}:40: expected 6 fields"
    window_at = mentions.read_bytes().index(b"1999-01")
    for n in (1, 2, 3):
        ranges = line_ranges(mentions, n)
        assert len(ranges) == n
        if n > 1:
            # the window error is in the first shard, the file error later
            assert window_at < ranges[0][1]
        assert report_error(mentions, n) == str(serial.value)


def test_window_error_is_the_first_in_file_order(tmp_path, report_error):
    lines = [mention_line(n, month={5: "1999-05", 30: "1998-01"}.get(n, "2019-01"))
             for n in range(1, 40)]
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text("".join(lines), encoding="utf-8")
    for n in (1, 2, 3):
        message = report_error(mentions, n)
        assert message == ("mention month 1999-05 outside corpus window 2007-04..2021-12 "
                           "(doc d5v1)")


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


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_shard_count(monkeypatch, cpus):
    monkeypatch.setattr(shards, "_usable_cpus", lambda: cpus)
    assert shards.shard_count(0) == 1
    assert shards.shard_count(2 * MIN_SHARD_BYTES - 1) == 1
    assert shards.shard_count(2 * MIN_SHARD_BYTES) == min(cpus, 2)
    assert shards.shard_count(10**9) == min(cpus, MAX_WORKERS)


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
    # A single shard runs in the command's own process, as before sharding.
    manifest = write_corpus(tmp_path, [("a", 1, "2019-01", "See https://x.org/a.")])
    out = tmp_path / "m.tsv"
    code = ("import sys; from oadscan import shards; from oadscan.cli import main; "
            "shards.shard_count = lambda input_bytes: 4; "
            f"main(['extract', '--manifest', {str(manifest / 'manifest.tsv')!r}, "
            f"'--out', {str(out)!r}]); "
            "print('multiprocessing' in sys.modules)")
    env = {k: v for k, v in os.environ.items() if not k.startswith("OADSCAN_")}
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"
    assert len(read_mentions_file(out)) == 1


def _exit_in_second_shard(shard):
    if shard == 1:
        os._exit(1)
    return shard


def test_dead_worker_is_an_error_not_a_hang():
    assert run_shards(_exit_in_second_shard, [0, 2]) == [0, 2]
    with pytest.raises(ChildProcessError, match="a worker process died"):
        run_shards(_exit_in_second_shard, [0, 1, 2])


@pytest.mark.parametrize("command", ["report", "pipeline"])
def test_dead_worker_fails_the_command_and_writes_nothing(command, tmp_path, monkeypatch,
                                                          force_shards, caplog):
    mentions = tmp_path / "mentions.tsv"
    assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", mentions) == EXIT_OK
    # Each forked worker inherits this, and dies in its report loop.
    monkeypatch.setattr(cli, "_report_records", lambda *args: os._exit(1))
    force_shards(2)
    out = tmp_path / "out"
    argv = ["--manifest", CORPUS / "manifest.tsv", "--model", MODEL, "--out-dir", out]
    if command == "report":
        argv += ["--mentions", mentions]
    assert run(command, *argv) == EXIT_USAGE
    assert not (out / "mentions.tsv").exists() and not (out / "monthly.csv").exists()
    assert "a worker process died" in caplog.text


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


@given(
    lines=st.lists(st.tuples(st.sampled_from(["mention", "comment", "blank"]),
                             st.text(alphabet="abcé€ \"\\", max_size=6), LINE_ENDS),
                   max_size=25),
    bad_at=st.none() | st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60, deadline=None)
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
        assert all(data[end - 1:end] == b"\n" for _, end in ranges[:-1])
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
