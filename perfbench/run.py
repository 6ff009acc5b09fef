#!/usr/bin/env python3
"""Seeded, offline benchmark of the oadscan command-line pipeline.

    python3 perfbench/run.py --workload corpus_pipeline --seed 0 --seconds 27 --trace 0

Run from a source checkout; the program under test is ``src/oadscan``.
Each run generates its inputs from ``--seed`` (``gen.py``), trains the
classifier on generated labeled sentences, then drives the real CLI as
a subprocess, one command at a time (a closed loop, concurrency 1), for
``--seconds`` seconds.  Every command's outputs are checked against the
planted ground truth.  ``--jobs`` is never passed.

Each sample runs between two measurements of ``reference.py``, a fixed
task that times the machine.  Times are reported at reference speed: a
sample's wall divided by the mean reference wall just before and just
after it, times REFERENCE_S, the reference's typical wall.  On a shared
host both walls drift together by tens of percent; their ratio does
not.  The plain walls are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced commands with an in-process traced replay (``tracing.py``) and
reports the per-layer metrics.  Every metric is printed with its unit;
the last line of output is one JSON object.  ``--workload all`` runs
every workload in turn and ends with one JSON object for the set.  The
exit code is nonzero when an output check fails or the program cannot
be found.

Workloads, and why each exists, are in ``record.json`` next to this file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import gen  # noqa: E402 - the script's directory is on sys.path
import tracing  # noqa: E402

CSVS = ("monthly.csv", "hostnames.csv", "histogram.csv", "top_hostnames.csv")
SETUP_REPEATS = 3
# The unit that makes a reference-speed time read as seconds: the
# reference's median wall on a shared 2-vCPU machine (CPython 3.11.7).
REFERENCE_S = 0.13
# Runs of reference.py per measurement.  One run lasts ~0.13 s and is
# itself noisy; the mean of four before and four after a sample cut by
# a third the spread that one before and one after left on
# mentions_report.
REFERENCE_RUNS = 4
COMMAND_TIMEOUT_S = 120
# Percentage points by which mentions_report may miss the paper's two
# figures.  Seeds 0-19 gave 33.05-33.65% and 1.78-2.02%; each tolerance
# leaves more than five standard deviations of that spread on each side.
PAPER_FIGURE_TOLERANCE = {"ghp_share_of_oads": 1.5, "top_host_share": 0.4}

# Printed but not listed in BENCHMARK.json (record.json says why).
UNLISTED_UNITS = {"error_rate": "ratio", "scaling_exponent": "log2",
                  "scope.in_scope_share": "ratio", "ghp.ghp_share": "ratio",
                  "analytics.distinct_hosts": "count"}


class CheckFailed(Exception):
    pass


def _child_env() -> dict:
    # Options also resolve from OADSCAN_* variables; the benchmark runs
    # the defaults only.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OADSCAN_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _reference_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if not k.startswith("OADSCAN_") and k != "PYTHONPATH"}


class Launcher:
    """Starts each oadscan command from ``launcher.py``, a small helper
    process, which reaps it with wait4 and reports its wall time, exit
    code and peak RSS.

    A command started from this process would report this process's
    peak RSS as its own when that is larger: Linux carries the peak
    across fork and exec, and this process holds the generated inputs
    and, when traced, the replay.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
        """Run one command; returns (wall s, exit code, peak RSS MB)."""
        request = {"argv": argv, "cwd": str(ROOT), "env": env, "log": str(log),
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise CheckFailed("the command launcher exited")
        result = json.loads(reply)
        return result["wall"], result["code"], result["maxrss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_planted(mentions: Path, expected: dict[str, list[str]]) -> list[str]:
    """Every planted URI is recovered, as a per-document multiset, and no
    document that must be skipped contributes a mention."""
    got: dict[str, Counter] = {}
    with open(mentions, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                doc, _month, uri, _rest = line.split("\t", 3)
                got.setdefault(doc, Counter())[uri] += 1
    problems = [f"{doc}: recovered URIs differ from the planted ones"
                for doc, uris in expected.items() if got.pop(doc, Counter()) != Counter(uris)]
    if got:
        problems.append(f"mentions from documents that must be skipped: {sorted(got)[:3]}")
    return problems


def check_report(out_dir: Path, counts: dict, info: dict) -> list[str]:
    """Report counts against the planted host classes, and monthly.csv
    against them and the manifest."""
    problems = []
    for key in ("scope_reasons", "provenance"):
        want = {k: info[key].get(k, 0) for k in counts[key]}
        if counts[key] != want:
            problems.append(f"{key} {counts[key]} != planted {want}")
        if min(counts[key].values()) == 0:
            problems.append(f"{key}: a value is never exercised")
    if counts["in_scope"] != info["in_scope"]:
        problems.append(f"in-scope {counts['in_scope']} != planted {info['in_scope']}")
    if counts["categories"]["ghp"] != info["ghp"]:
        problems.append(f"GHP {counts['categories']['ghp']} != planted {info['ghp']}")
    if min(counts["categories"].values()) == 0:
        problems.append("a category is never exercised")
    with open(out_dir / "monthly.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if {r["month"]: int(r["publications"]) for r in rows} != info["publications"]:
        problems.append("monthly.csv publications differ from the manifest")
    if sum(int(r["uri_total"]) for r in rows) != info["in_scope"]:
        problems.append("monthly.csv uri_total does not sum to the in-scope count")
    if sum(int(r["ghp"]) for r in rows) != info["ghp"]:
        problems.append("monthly.csv ghp does not sum to the planted GHP count")
    return problems


def paper_figures(out_dir: Path) -> dict[str, float]:
    """The two report figures the generated traffic is calibrated to
    (gen.MIX): GHP share of OADS mentions and the top hostname's share
    of non-GHP OADS mentions, both in percent."""
    with open(out_dir / "monthly.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out_dir / "hostnames.csv", encoding="utf-8", newline="") as fh:
        top = next(csv.DictReader(fh))
    return {"ghp_share_of_oads": 100 * sum(int(r["ghp"]) for r in rows)
            / sum(int(r["oads"]) for r in rows),
            "top_host_share": float(top["share"])}


def check_paper_figures(out_dir: Path) -> list[str]:
    """The report reproduces the paper's figures within a tolerance."""
    got = paper_figures(out_dir)
    paper = {"ghp_share_of_oads": gen.PAPER_GHP_SHARE_OF_OADS,
             "top_host_share": gen.PAPER_TOP_HOST_SHARE}
    return [f"{name} {got[name]:.3f}% is not within {tol} points of the paper's {paper[name]}%"
            for name, tol in PAPER_FIGURE_TOLERANCE.items()
            if abs(got[name] - paper[name]) > tol]


def report_counts(out_dir: Path) -> dict:
    return json.loads((out_dir / "run_metadata.json").read_text(encoding="utf-8"))["counts"]


class Bench:
    """One benchmark run: work directory, operation counts, failures."""

    def __init__(self, workload: str, seed: int, seconds: float, launcher: Launcher):
        self.launcher = launcher
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}"
        self.inputs = self.work / "inputs"
        self.cli_out = self.work / "cli"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        # The reference measurement after the last sample, while no
        # command has run since; it also serves as the next one's before.
        self._last_reference: float | None = None

    def op(self, problems: list[str], what: str) -> bool:
        """Count one operation; a failed one carries its problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])
        return not problems

    def reference(self) -> float:
        """Mean wall seconds of REFERENCE_RUNS runs of reference.py, each
        started like a command."""
        log = self.work / "reference.log"
        walls = []
        for _ in range(REFERENCE_RUNS):
            wall, code, _ = self.launcher.run([sys.executable, "-I", str(HERE / "reference.py")],
                                              _reference_env(), log)
            if code != 0:
                raise CheckFailed(f"reference.py exited with code {code}; see {log}")
            walls.append(wall)
        return sum(walls) / len(walls)

    def at_reference_speed(self, run):
        """Call ``run`` between two reference measurements; returns its
        result and the factor that turns its seconds into seconds at
        reference speed."""
        before = self._last_reference or self.reference()
        result = run()
        self._last_reference = self.reference()
        return result, 2 * REFERENCE_S / (before + self._last_reference)

    def cli(self, args: list[str], log_name: str) -> tuple[float, float, list[str]]:
        """Run one oadscan command; returns (wall s, peak RSS MB, problems)."""
        self._last_reference = None
        log = self.work / f"{log_name}.log"
        wall, code, rss = self.launcher.run([sys.executable, "-m", "oadscan.cli", *args],
                                            _child_env(), log)
        problems = []
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {code}: {' '.join(tail)}")
        return wall, rss, problems

    def same_outputs(self, files: dict[str, Path]) -> list[str]:
        """Outputs are byte-identical from one sample to the next."""
        problems = []
        for name, path in files.items():
            digest = sha256(path)
            if self.digests.setdefault(name, digest) != digest:
                problems.append(f"{name} changed between identical runs")
        return problems

    def check_pins(self, workload: str) -> None:
        """At the default seed, outputs match the digests in record.json."""
        pins = json.loads((HERE / "record.json").read_text(encoding="utf-8"))["pinned_sha256"]
        if self.seed == pins["seed"]:
            self.op([f"{name} sha256 {self.digests.get(name)} != pinned {digest}"
                     for name, digest in pins[workload].items()
                     if self.digests.get(name) != digest], "pinned digests")

    def setup(self, workload: "Workload") -> tuple[float, float]:
        """Generate the inputs and train the model, SETUP_REPEATS times,
        each between reference measurements; returns the median seconds
        at reference speed and the median plain seconds."""
        times, scaled = [], []

        def setup_once():
            t0 = time.perf_counter()
            workload.info = workload.generate(self.inputs, self.seed)
            gen.write_labeled(self.inputs / "labeled.tsv", self.seed)
            _, _, problems = self.cli(["train", "--labeled", str(self.inputs / "labeled.tsv"),
                                       "--out", str(self.inputs / "model.json")], "train")
            return time.perf_counter() - t0, problems

        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.inputs, ignore_errors=True)
            self.inputs.mkdir(parents=True)
            (seconds, problems), scale = self.at_reference_speed(setup_once)
            times.append(seconds)
            scaled.append(seconds * scale)
            if not self.op(problems, "train"):
                raise CheckFailed("training failed")
        self.cli_out.mkdir()
        return tracing.median(scaled), tracing.median(times)


class Workload:
    name: str
    info: dict

    def generate(self, inputs: Path, seed: int) -> dict:
        raise NotImplementedError

    def sample(self, b: Bench) -> tuple[float, float, float]:
        """Run the workload's command(s) once, between reference
        measurements; returns (wall s, reference-speed s, peak RSS MB)."""
        raise NotImplementedError

    def outputs(self, out: Path) -> dict[str, Path]:
        """The files a sample writes under ``out`` that must not change."""
        raise NotImplementedError

    def replay(self, t: tracing.Tracer, pkg, b: Bench, out: Path, stats: Counter) -> None:
        """The sample's loop, traced and in-process, writing under ``out``."""
        raise NotImplementedError

    def amounts(self) -> tuple[int, int, int]:
        """Input bytes, documents and mentions handled per sample."""
        return self.info["input_bytes"], self.info["docs"], self.info["mentions"]

    def docs(self) -> list[str]:
        """Ids of the documents whose text the program reads."""
        return []

    def final_check(self, b: Bench) -> dict[str, float]:
        """Checks made once per run, after the samples."""
        return {}


class CorpusPipeline(Workload):
    """``oadscan pipeline`` over the typical corpus."""

    name = "corpus_pipeline"

    def generate(self, inputs: Path, seed: int) -> dict:
        return gen.write_corpus(inputs, seed)

    def _args(self, b: Bench) -> list[str]:
        return ["--manifest", str(b.inputs / self.info["manifest"]),
                "--model", str(b.inputs / "model.json")]

    def outputs(self, out: Path) -> dict[str, Path]:
        return {"mentions.tsv": out / "mentions.tsv", **{c: out / c for c in CSVS}}

    def sample(self, b: Bench) -> tuple[float, float, float]:
        out = b.cli_out
        (wall, rss, problems), scale = b.at_reference_speed(
            lambda: b.cli(["pipeline", *self._args(b), "--out-dir", str(out)], "pipeline"))
        if not problems:
            counts = report_counts(out)
            extract = counts["extract"]
            problems = check_planted(out / "mentions.tsv", self.info["expected_uris"])
            if extract["read_failures"]:
                problems.append(f"{extract['read_failures']} per-document read failures")
            if (extract["documents"], extract["window_skipped"]) != (self.info["docs"],
                                                                    self.info["window_skipped"]):
                problems.append("wrong documents selected from the manifest")
            problems += check_report(out, counts["report"], self.info)
            problems += b.same_outputs(self.outputs(out))
        b.op(problems, "pipeline")
        return wall, wall * scale, rss

    def final_check(self, b: Bench) -> dict[str, float]:
        """The staged extract + report give the pipeline's bytes."""
        staged = b.work / "staged"
        staged.mkdir()
        mentions = staged / "mentions.tsv"
        wall_e, _, problems = b.cli(["extract", *self._args(b)[:2], "--out", str(mentions)],
                                    "staged-extract")
        b.op(problems, "staged extract")
        wall_r, _, problems = b.cli(["report", *self._args(b), "--mentions", str(mentions),
                                     "--out-dir", str(staged)], "staged-report")
        if not problems:
            cli = self.outputs(b.cli_out)
            problems = [f"staged {name} differs from the pipeline's"
                        for name, path in self.outputs(staged).items()
                        if path.read_bytes() != cli[name].read_bytes()]
        b.op(problems, "staged report")
        return {"staged extract MB/s": self.info["input_bytes"] / 1e6 / wall_e,
                "staged report mentions/s": self.info["mentions"] / wall_r,
                **{f"{k} %": v for k, v in paper_figures(b.cli_out).items()}}

    def replay(self, t: tracing.Tracer, pkg, b: Bench, out: Path, stats: Counter) -> None:
        manifest = b.inputs / self.info["manifest"]
        tracing.replay_extract(t, pkg, manifest, out / "mentions.tsv", stats)
        tracing.replay_report(t, pkg, manifest, out / "mentions.tsv", b.inputs / "model.json",
                              out, stats)

    def docs(self) -> list[str]:
        return list(self.info["expected_uris"])


class MentionsReport(Workload):
    """``oadscan report`` over a large pre-generated mentions file."""

    name = "mentions_report"

    def generate(self, inputs: Path, seed: int) -> dict:
        return gen.write_mentions(inputs, seed)

    def outputs(self, out: Path) -> dict[str, Path]:
        return {c: out / c for c in CSVS}

    def sample(self, b: Bench) -> tuple[float, float, float]:
        out = b.cli_out
        (wall, rss, problems), scale = b.at_reference_speed(lambda: b.cli(
            ["report", "--manifest", str(b.inputs / self.info["manifest"]),
             "--model", str(b.inputs / "model.json"),
             "--mentions", str(b.inputs / self.info["mentions_file"]),
             "--out-dir", str(out)], "report"))
        if not problems:
            counts = report_counts(out)
            if counts["mentions"] != self.info["mentions"]:
                problems.append(f"{counts['mentions']} mentions read, {self.info['mentions']} written")
            problems += check_report(out, counts, self.info)
            problems += check_paper_figures(out)
            problems += b.same_outputs(self.outputs(out))
        b.op(problems, "report")
        return wall, wall * scale, rss

    def final_check(self, b: Bench) -> dict[str, float]:
        return {f"{k} %": v for k, v in paper_figures(b.cli_out).items()}

    def replay(self, t: tracing.Tracer, pkg, b: Bench, out: Path, stats: Counter) -> None:
        tracing.replay_report(t, pkg, b.inputs / self.info["manifest"],
                              b.inputs / self.info["mentions_file"], b.inputs / "model.json",
                              out, stats)


class AdversarialExtract(Workload):
    """``oadscan extract`` on shape (a) and shape (b) at N and 2N."""

    name = "adversarial_extract"

    # In-process extraction repeats per case for the scaling exponent:
    # at most this many, and none more once a case has taken this long.
    EXPONENT_REPEATS = 3
    EXPONENT_BUDGET_S = 1.0

    def __init__(self) -> None:
        self.walls: dict[str, list[float]] = {}
        self.in_process: dict[str, float] = {}

    def generate(self, inputs: Path, seed: int) -> dict:
        return gen.write_adversarial(inputs, seed)

    def cases(self) -> list[dict]:
        return [c for c in self.info["cases"] if c["shape"] != "startup"]

    def outputs(self, out: Path) -> dict[str, Path]:
        return {f"{c['name']}.tsv": out / f"{c['name']}.tsv" for c in self.cases()}

    def sample(self, b: Bench) -> tuple[float, float, float]:
        """One round: the start-up probe, then every case once, all between
        two reference measurements; the round's wall leaves out the probe."""

        def one_round():
            return [b.cli(["extract", "--manifest", str(b.inputs / case["manifest"]),
                           "--out", str(b.cli_out / f"{case['name']}.tsv")],
                          f"extract-{case['name']}") for case in self.info["cases"]]

        results, scale = b.at_reference_speed(one_round)
        wall_sum, peak = 0.0, 0.0
        for case, (wall, rss, problems) in zip(self.info["cases"], results):
            out = b.cli_out / f"{case['name']}.tsv"
            if not problems:
                meta = json.loads(out.with_name(out.name + ".meta.json").read_text(encoding="utf-8"))
                if meta["counts"]["read_failures"]:
                    problems.append("per-document read failure")
                problems += check_planted(out, case["expected_uris"])
                problems += b.same_outputs({out.name: out})
            b.op(problems, f"extract {case['name']}")
            self.walls.setdefault(case["name"], []).append(wall)
            if case["shape"] != "startup":
                wall_sum += wall
                peak = max(peak, rss)
        return wall_sum, wall_sum * scale, peak

    def final_check(self, b: Bench) -> dict[str, float]:
        """Median in-process extraction seconds per case: extraction
        alone, without the interpreter start-up a command also pays."""
        pkg = import_oadscan()
        for case in self.cases():
            times: list[float] = []
            while len(times) < self.EXPONENT_REPEATS and sum(times) < self.EXPONENT_BUDGET_S:
                seconds, uris = tracing.timed_extract(pkg, b.inputs / case["manifest"])
                times.append(seconds)
            planted = [u for doc_uris in case["expected_uris"].values() for u in doc_uris]
            b.op([] if Counter(uris) == Counter(planted)
                 else ["recovered URIs differ from the planted ones"],
                 f"in-process extract {case['name']}")
            self.in_process[case["name"]] = tracing.median(times)
        return {f"in-process extract {k} s": v for k, v in self.in_process.items()}

    def exponents(self, seconds: dict[str, float]) -> dict[str, float]:
        """log2 t(2N)/t(N) per shape."""
        out = {}
        for shape in ("a", "b"):
            small, large = [c["name"] for c in self.cases() if c["shape"] == shape]
            out[shape] = math.log2(max(seconds[large], 1e-9) / max(seconds[small], 1e-9))
        return out

    def wall_exponents(self) -> dict[str, float]:
        """Per shape, from median command walls less the start-up probe."""
        t0 = tracing.median(self.walls["startup1"])
        return self.exponents({k: tracing.median(v) - t0 for k, v in self.walls.items()})

    def amounts(self) -> tuple[int, int, int]:
        cases = self.cases()
        mentions = sum(len(u) for c in cases for u in c["expected_uris"].values())
        return sum(c["input_bytes"] for c in cases), len(cases), mentions

    def replay(self, t: tracing.Tracer, pkg, b: Bench, out: Path, stats: Counter) -> None:
        for case in self.cases():
            tracing.replay_extract(t, pkg, b.inputs / case["manifest"],
                                   out / f"{case['name']}.tsv", stats)

    def docs(self) -> list[str]:
        return [doc for c in self.cases() for doc in c["expected_uris"]]


WORKLOADS = {w.name: w for w in (CorpusPipeline, MentionsReport, AdversarialExtract)}


def measure(b: Bench, workload: Workload,
            between=None) -> tuple[list[float], list[float], list[float]]:
    """Samples until --seconds have passed (at least one): walls,
    reference-speed times and peak RSS."""
    walls, scaled, rss = [], [], []
    deadline = time.perf_counter() + b.seconds
    while not walls or time.perf_counter() < deadline:
        wall, at_reference, peak = workload.sample(b)
        walls.append(wall)
        scaled.append(at_reference)
        rss.append(peak)
        if between is not None:
            between()
    return walls, scaled, rss


def end_to_end(b: Bench, workload: Workload) -> tuple[dict, list[str]]:
    setup_s, setup_plain = b.setup(workload)
    walls, scaled, rss = measure(b, workload)
    extra = workload.final_check(b)
    size, docs, mentions = workload.amounts()
    wall = tracing.median(scaled)
    metrics = {
        "wall_s": wall,
        "mb_per_s": size / 1e6 / wall,
        "docs_per_s": docs / wall,
        "mentions_per_s": mentions / wall,
        "peak_rss_mb": tracing.median(rss),
        "setup_s": setup_s,
        "error_rate": b.failed / b.attempted,
    }
    notes = [f"{len(walls)} samples; times are at reference speed (reference.py in "
             f"{REFERENCE_S} s); plain wall median {tracing.median(walls):.4f} s, "
             f"min {min(walls):.4f} s, max {max(walls):.4f} s; plain setup median "
             f"{setup_plain:.4f} s; input {size / 1e6:.3f} MB, {docs} docs, "
             f"{mentions} mentions per sample"]
    if isinstance(workload, AdversarialExtract):
        # The larger shape's exponent of in-process extraction time.
        per_shape = workload.exponents(workload.in_process)
        metrics["scaling_exponent"] = max(per_shape.values())
        notes.append("scaling exponent per shape, in-process: "
                     + ", ".join(f"({s}) {v:.3f}" for s, v in per_shape.items())
                     + "; from command walls less start-up: "
                     + ", ".join(f"({s}) {v:.3f}" for s, v in workload.wall_exponents().items())
                     + "; median walls " + ", ".join(f"{k} {tracing.median(v):.4f} s"
                                                     for k, v in workload.walls.items()))
    notes += [f"{k} {v:.4f}" for k, v in extra.items()]
    notes.append("per sample, plain wall / at reference speed, s: "
                 + " ".join(f"{w:.4f}/{r:.4f}" for w, r in zip(walls, scaled)))
    return metrics, notes


def import_oadscan():
    """The oadscan package of this checkout, imported in-process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oadscan.cli  # noqa: F401 - imports every module the replay calls
    pkg = sys.modules["oadscan"]
    if Path(pkg.__file__).resolve().parent != SRC / "oadscan":
        raise CheckFailed(f"imported oadscan from {pkg.__file__}, not {SRC}")
    return pkg


def per_layer(b: Bench, workload: Workload) -> tuple[dict, list[str]]:
    """Untraced commands alternate with traced replays; per-layer times
    are medians over the replays."""
    pkg = import_oadscan()
    b.setup(workload)
    traced_out = b.work / "traced"
    traced_out.mkdir()
    replays: list[tuple[tracing.Tracer, Counter, Counter, Counter]] = []

    def traced_replay():
        t = tracing.Tracer()
        stats: Counter = Counter()
        with tracing.count_host_parses(pkg) as parses:
            root = t.begin("run")
            workload.replay(t, pkg, b, traced_out, stats)
            t.finish(root)
        cli = workload.outputs(b.cli_out)
        b.op([f"traced {name} differs from the CLI's"
              for name, path in workload.outputs(traced_out).items()
              if path.read_bytes() != cli[name].read_bytes()], "traced replay")
        replays.append((t, t.totals(), stats, Counter(parses)))

    walls, _, _ = measure(b, workload, between=traced_replay)
    t0 = time.perf_counter()
    model = pkg.classifier.train(pkg.classifier.read_labeled_file(b.inputs / "labeled.tsv"))
    train_s = time.perf_counter() - t0
    b.op([] if model.to_json() == (b.inputs / "model.json").read_text(encoding="utf-8")
         else ["in-process model differs from the CLI's"], "in-process train")
    # The replay's mention spans per document, for the segment probe.
    spans: dict[str, list[tuple[int, int]]] = {}
    for name, path in workload.outputs(traced_out).items():
        if name.endswith(".tsv"):
            for r in pkg.extraction.read_mentions_file(path):
                spans.setdefault(str(r.doc_id), []).append(r.span)
    probes = tracing.probe_extraction(
        pkg, [((b.inputs / "docs" / f"{doc}.txt").read_text(encoding="utf-8"), spans.get(doc, []))
              for doc in workload.docs()])

    def span_s(name):
        return tracing.median([totals[name] for _, totals, _, _ in replays])

    last, _, stats, parses = replays[-1]
    trace_out = ROOT / ".perfbench_out" / f"{workload.name}-seed{b.seed}-spans.tsv.gz"
    last.write(trace_out)
    docs_ms = [d * 1e3 for d in last.durations("extraction.extract")]
    tail_name, tail_ms = tracing.tail(docs_ms)
    # Per mention handled: classified ones when the replay reports,
    # extracted ones when it only extracts.
    mentions = max(stats["mentions"] or stats["extracted"], 1)
    layer_self = last.self_time_by_layer()
    metrics = {
        "corpus.load_s": span_s("corpus.load"),
        "corpus.read_s": span_s("corpus.read"),
        "corpus.read_mb": stats["read_chars"] / 1e6,
        "corpus.read_failures": stats["read_failures"],
        "extraction.extract_s": span_s("extraction.extract"),
        "extraction.doc_p50_ms": tracing.median(docs_ms),
        "extraction.doc_tail_ms": tail_ms,
        "extraction.repair_probe_s": probes["repair_probe_s"],
        "extraction.scan_probe_s": probes["scan_probe_s"],
        "extraction.segment_probe_s": probes["segment_probe_s"],
        "extraction.match_yield": stats["extracted"] / probes["raw_matches"] if probes["raw_matches"] else 0.0,
        "extraction.write_mentions_s": span_s("extraction.write_mentions"),
        "extraction.read_mentions_s": span_s("extraction.read_mentions"),
        "extraction.mentions_file_mb": stats["mentions_file_bytes"] / 1e6,
        "classifier.classify_s": span_s("classifier.classify"),
        "classifier.calls": stats["classify_calls"],
        "classifier.heuristic_share": stats["heuristic"] / mentions,
        "classifier.train_s": train_s,
        "scope.scope_s": span_s("scope.scope"),
        "scope.in_scope_share": stats["in_scope"] / mentions,
        "scope.host_of_calls": parses["host_of"] / mentions,
        "scope.split_port_calls": parses["split_port"] / mentions,
        "ghp.categorize_s": span_s("ghp.categorize"),
        "ghp.ghp_share": stats["ghp"] / max(stats["in_scope"], 1),
        "analytics.add_mention_s": span_s("analytics.add_mention"),
        "analytics.write_reports_s": span_s("analytics.write_reports"),
        "analytics.distinct_hosts": stats["distinct_hosts"],
        "trace.overhead": span_s("run") / tracing.median(walls),
        "trace.coverage": tracing.median(
            [sum(v for k, v in t.self_time_by_layer().items() if k != "run") / totals["run"]
             for t, totals, _, _ in replays]),
    }
    notes = [f"{len(replays)} traced replays alternating with {len(walls)} untraced samples; "
             f"extraction.doc_tail_ms is the {tail_name} of {len(docs_ms)} documents",
             f"host parses in the last replay: {dict(parses)} for {mentions} mentions",
             "self seconds by layer in the last replay: "
             + ", ".join(f"{k} {v:.4f}" for k, v in sorted(layer_self.items())),
             f"spans of the last replay written to {trace_out.relative_to(ROOT)}",
             "extraction.*_probe_s are probes: each pass re-run alone on the same texts"]
    if isinstance(workload, AdversarialExtract):
        per_doc = dict(zip([c["name"] for c in workload.cases()], docs_ms))
        exps = workload.exponents(per_doc)
        notes.append("in-process extract ms per document: "
                     + ", ".join(f"{k} {v:.2f}" for k, v in per_doc.items())
                     + "; scaling exponent " + ", ".join(f"({k}) {v:.3f}" for k, v in exps.items()))
    return metrics, notes


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict | None:
    """Run one workload and print its metrics; the result, or None when
    the run could not finish."""
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(UNLISTED_UNITS)
    workload = WORKLOADS[name]()
    b = Bench(name, seed, seconds, Launcher())
    shutil.rmtree(b.work, ignore_errors=True)
    b.work.mkdir(parents=True)
    try:
        metrics, notes = (per_layer if trace else end_to_end)(b, workload)
        b.check_pins(name)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        for p in b.problems:
            print(f"check failed: {p}", file=sys.stderr)
        return None
    finally:
        b.launcher.close()
        shutil.rmtree(b.work, ignore_errors=True)

    mode = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"# {name} seed {seed}, {mode}, {seconds:g} s")
    for metric, value in metrics.items():
        print(f"{metric:30s} {value:16.6f} {units[metric]}")
    for note in notes:
        print(f"# {note}")
    for file, digest in sorted(b.digests.items()):
        print(f"# sha256 {file} {digest}")
    for p in b.problems:
        print(f"check failed: {p}")
    print(f"# attempted {b.attempted}, failed {b.failed}")
    return {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oadscan" / "cli.py").is_file():
        print(f"error: oadscan sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace), spec)
        if result is None:
            return 1
        results[name] = result
        print(json.dumps(result))
    if len(results) > 1:
        # One last line for the whole set, metrics prefixed by workload.
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
