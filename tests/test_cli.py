import json
import logging
import os
import stat
from pathlib import Path

import pytest

import oadscan.cli as cli_mod
from oadscan.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from oadscan.extraction import read_mentions_file

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "fixture_corpus"
MODEL = DATA / "model.json"


def run(*argv):
    return main([str(a) for a in argv])


def write_corpus(tmp_path, docs):
    """docs: list of (id, version, month, text)."""
    root = tmp_path / "corpus"
    (root / "docs").mkdir(parents=True)
    lines = []
    for doc_id, version, month, text in docs:
        rel = f"docs/{doc_id}v{version}.txt"
        (root / rel).write_text(text, encoding="utf-8")
        lines.append(f"{doc_id}\t{version}\t{month}\t{rel}")
    (root / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


class TestExtract:
    def test_three_document_corpus_matches_hand_extraction(self, tmp_path):
        root = write_corpus(tmp_path, [
            ("a", 1, "2019-01", "The dataset is available at https://zenodo.org/record/11."),
            ("b", 1, "2019-02", "No links in this one."),
            ("c", 1, "2019-03", "Code at https://github.com/u/r and a talk at https://youtu.be/xyz123ab."),
        ])
        out = tmp_path / "mentions.tsv"
        assert run("extract", "--manifest", root / "manifest.tsv", "--out", out) == EXIT_OK
        records = read_mentions_file(out)
        assert [(str(r.doc_id), r.uri) for r in records] == [
            ("av1", "https://zenodo.org/record/11"),
            ("cv1", "https://github.com/u/r"),
            ("cv1", "https://youtu.be/xyz123ab"),
        ]
        meta = json.loads((tmp_path / "mentions.tsv.meta.json").read_text())
        assert meta["counts"] == {
            "manifest_entries": 3, "documents": 3, "window_skipped": 0,
            "read_failures": 0, "skipped": [], "mentions": 3,
        }

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("", encoding="utf-8")
        out = tmp_path / "mentions.tsv"
        assert run("extract", "--manifest", manifest, "--out", out) == EXIT_OK
        assert read_mentions_file(out) == []

    def test_unreadable_document_skipped_and_counted(self, tmp_path):
        root = write_corpus(tmp_path, [
            ("a", 1, "2019-01", "See https://zenodo.org/record/5."),
        ])
        (root / "manifest.tsv").write_text(
            "a\t1\t2019-01\tdocs/av1.txt\nmissing\t1\t2019-01\tdocs/gone.txt\n",
            encoding="utf-8",
        )
        out = tmp_path / "mentions.tsv"
        assert run("extract", "--manifest", root / "manifest.tsv", "--out", out) == EXIT_OK
        meta = json.loads((tmp_path / "mentions.tsv.meta.json").read_text())
        assert meta["counts"]["read_failures"] == 1
        assert meta["counts"]["skipped"] == [
            ["missingv1", f"{root / 'docs' / 'gone.txt'}: [Errno 2] No such file or directory: "
                          f"'{root / 'docs' / 'gone.txt'}'"]]
        assert meta["counts"]["mentions"] == 1

    def test_malformed_manifest_is_data_error(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("only two\tfields\n", encoding="utf-8")
        assert run("extract", "--manifest", manifest, "--out", tmp_path / "m.tsv") == EXIT_DATA

    def test_missing_manifest_is_usage_error(self, tmp_path):
        assert run("extract", "--manifest", tmp_path / "nope.tsv", "--out", tmp_path / "m.tsv") == EXIT_USAGE

    def test_missing_out_directory_is_usage_error_before_reading(self, tmp_path, monkeypatch,
                                                                 caplog):
        reads = []
        monkeypatch.setattr(cli_mod, "read_document", lambda *a: reads.append(a))
        out = tmp_path / "missing" / "dir" / "m.tsv"
        assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", out) == EXIT_USAGE
        assert reads == []
        assert f"mentions file {out}: directory {out.parent} does not exist" in caplog.text

    def test_out_that_is_a_directory_is_usage_error_before_reading(self, tmp_path, monkeypatch,
                                                                   caplog):
        reads = []
        monkeypatch.setattr(cli_mod, "read_document", lambda *a: reads.append(a))
        assert run("extract", "--manifest", CORPUS / "manifest.tsv",
                   "--out", tmp_path) == EXIT_USAGE
        assert reads == []
        assert f"mentions file {tmp_path} is a directory" in caplog.text

    def test_window_filtering(self, tmp_path):
        root = write_corpus(tmp_path, [
            ("old", 1, "2006-01", "See https://zenodo.org/record/5."),
            ("new", 1, "2019-01", "See https://zenodo.org/record/6."),
        ])
        out = tmp_path / "mentions.tsv"
        assert run("extract", "--manifest", root / "manifest.tsv", "--out", out) == EXIT_OK
        assert [str(r.doc_id) for r in read_mentions_file(out)] == ["newv1"]

    def test_dedup_flag(self, tmp_path):
        root = write_corpus(tmp_path, [
            ("a", 1, "2019-01", "See https://x.org/a and https://x.org/a twice."),
        ])
        out = tmp_path / "m.tsv"
        run("extract", "--manifest", root / "manifest.tsv", "--out", out, "--dedup-per-doc")
        assert len(read_mentions_file(out)) == 1

    def test_non_utf8_document_skipped_and_named(self, tmp_path, caplog):
        root = write_corpus(tmp_path, [
            ("a", 1, "2019-01", "See https://zenodo.org/record/5."),
            ("b", 1, "2019-01", "placeholder"),
        ])
        (root / "docs" / "bv1.txt").write_bytes(b"Caf\xe9 data at https://x.org/b.")
        out = tmp_path / "mentions.tsv"
        assert run("extract", "--manifest", root / "manifest.tsv", "--out", out) == EXIT_OK
        meta = json.loads((tmp_path / "mentions.tsv.meta.json").read_text())
        assert meta["counts"]["read_failures"] == 1
        assert [r.uri for r in read_mentions_file(out)] == ["https://zenodo.org/record/5"]
        assert any("bv1" in r.getMessage() and "utf-8" in r.getMessage() for r in caplog.records)


class TestTrain:
    def test_train_writes_model_and_summary(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert run("train", "--labeled", DATA / "labeled_seed.tsv", "--out", out) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["training_set"]["accuracy"] == 1.0
        assert out.exists()

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("train", "--labeled", DATA / "labeled_200.tsv", "--out", a)
        run("train", "--labeled", DATA / "labeled_200.tsv", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_committed_model_reproducible(self, tmp_path):
        out = tmp_path / "model.json"
        run("train", "--labeled", DATA / "labeled_200.tsv", "--out", out)
        assert out.read_bytes() == MODEL.read_bytes()

    def test_empty_labeled_file_fails(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        assert run("train", "--labeled", empty, "--out", tmp_path / "m.json") == EXIT_DATA

    def test_single_class_fails(self, tmp_path):
        labeled = tmp_path / "one.tsv"
        labeled.write_text("OADS\thttps://a.b/c\tThe dataset.\n", encoding="utf-8")
        assert run("train", "--labeled", labeled, "--out", tmp_path / "m.json") == EXIT_DATA


class TestEvaluate:
    def test_prints_metrics(self, capsys):
        assert run("evaluate", "--model", MODEL, "--labeled", DATA / "labeled_seed.tsv") == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["accuracy"] == 1.0
        assert sum(metrics["confusion"].values()) == 6

    def test_missing_model_is_usage_error(self, tmp_path):
        assert run(
            "evaluate", "--model", tmp_path / "none.json", "--labeled", DATA / "labeled_seed.tsv"
        ) == EXIT_USAGE

    @pytest.mark.parametrize("shape, named", [
        ("missing key", "'weights'"),
        ("unknown training key", "'momentum'"),
        ("top level not an object", "list"),
        ("value of the wrong type", "malformed model file"),
        ("other format version", "format_version 99"),
    ])
    def test_malformed_model_is_data_error_naming_it(self, tmp_path, caplog, shape, named):
        data = json.loads(MODEL.read_text(encoding="utf-8"))
        if shape == "missing key":
            del data["weights"]
        elif shape == "unknown training key":
            data["training"]["momentum"] = 0.9
        elif shape == "top level not an object":
            data = [data]
        elif shape == "other format version":
            data["format_version"] = 99
        else:
            data["weights"] = None
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data), encoding="utf-8")
        assert run("evaluate", "--model", model, "--labeled", DATA / "labeled_seed.tsv") == EXIT_DATA
        assert named in caplog.text


class TestReport:
    def test_zero_in_scope_mentions(self, tmp_path):
        root = write_corpus(tmp_path, [
            ("a", 1, "2019-01", "Only ftp://mirror.example.org/pub here."),
        ])
        mentions = tmp_path / "mentions.tsv"
        run("extract", "--manifest", root / "manifest.tsv", "--out", mentions)
        out_dir = tmp_path / "reports"
        assert run(
            "report", "--mentions", mentions, "--model", MODEL,
            "--manifest", root / "manifest.tsv", "--out-dir", out_dir,
        ) == EXIT_OK
        hostnames = (out_dir / "hostnames.csv").read_text().splitlines()
        assert hostnames == ["hostname,count,share"]
        monthly = (out_dir / "monthly.csv").read_text().splitlines()
        assert len(monthly) == 2  # header + the one publication month
        assert monthly[1].startswith("2019-01,1,0,")

    def test_rerun_byte_identical(self, tmp_path):
        mentions = tmp_path / "mentions.tsv"
        run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", mentions)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir in (out_a, out_b):
            assert run(
                "report", "--mentions", mentions, "--model", MODEL,
                "--manifest", CORPUS / "manifest.tsv", "--out-dir", out_dir,
            ) == EXIT_OK
        for name in ("monthly.csv", "hostnames.csv", "histogram.csv", "top_hostnames.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_out_of_window_mention_is_data_error(self, tmp_path):
        mentions = tmp_path / "mentions.tsv"
        mentions.write_text(
            'av1\t2000-01\thttps://x.org/a\t0\t15\t"ctx"\n', encoding="utf-8"
        )
        root = write_corpus(tmp_path, [("a", 1, "2019-01", "x")])
        assert run(
            "report", "--mentions", mentions, "--model", MODEL,
            "--manifest", root / "manifest.tsv", "--out-dir", tmp_path / "r",
        ) == EXIT_DATA

    def test_missing_model_is_usage_error(self, tmp_path):
        root = write_corpus(tmp_path, [("a", 1, "2019-01", "x")])
        mentions = tmp_path / "m.tsv"
        run("extract", "--manifest", root / "manifest.tsv", "--out", mentions)
        assert run(
            "report", "--mentions", mentions, "--model", tmp_path / "none.json",
            "--manifest", root / "manifest.tsv", "--out-dir", tmp_path / "r",
        ) == EXIT_USAGE

    def test_corrupt_model_is_data_error(self, tmp_path):
        root = write_corpus(tmp_path, [("a", 1, "2019-01", "x")])
        mentions = tmp_path / "m.tsv"
        run("extract", "--manifest", root / "manifest.tsv", "--out", mentions)
        bad_model = tmp_path / "model.json"
        bad_model.write_text("{not json", encoding="utf-8")
        assert run(
            "report", "--mentions", mentions, "--model", bad_model,
            "--manifest", root / "manifest.tsv", "--out-dir", tmp_path / "r",
        ) == EXIT_DATA


    def test_out_dir_that_is_a_file_is_usage_error_before_reading(self, tmp_path, monkeypatch,
                                                                  caplog):
        mentions = tmp_path / "m.tsv"
        assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", mentions) == EXIT_OK
        reads = []
        monkeypatch.setattr(cli_mod, "read_mentions_file", lambda *a: reads.append(a))
        for out_dir in (mentions, mentions / "sub"):
            assert run("report", "--mentions", mentions, "--model", MODEL, "--manifest",
                       CORPUS / "manifest.tsv", "--out-dir", out_dir) == EXIT_USAGE
            assert f"output directory {out_dir}: {mentions} is not a directory" in caplog.text
        assert reads == []


class TestFilterFiles:
    """A malformed --policy, --denylist or --patterns file is a data error
    that names the file and the problem, found before any output exists."""

    CASES = {
        "denylist unknown key": ("--denylist", '{"hosts": ["a.org"]}', "unknown key 'hosts'"),
        "denylist empty object": ("--denylist", "{}", "no 'publisher_hosts' key"),
        "denylist one string": ("--denylist", '"springer.com"', "must be a list of strings"),
        "denylist number host": ("--denylist", '[1, "a.org"]', "must be a list of strings"),
        "patterns rule without kind": ("--patterns", '{"github": [{"host": "github.com"}]}',
                                       "a github rule has no 'kind' key"),
        "patterns unknown platform": ("--patterns", '{"githib": []}', "unknown key 'githib'"),
        "patterns rules not a list": ("--patterns", '{"gitlab": {"kind": "exact"}}',
                                      "gitlab rules must be a list"),
        "patterns host not a string": ("--patterns",
                                       '{"github": [{"kind": "exact", "host": 7}]}',
                                       "kind and host must be strings"),
        "patterns list": ("--patterns", "[]", "patterns must be a JSON object"),
        "policy value of the wrong type": ("--policy", '{"allowed_schemes": 5}',
                                           "allowed_schemes must be a list of strings"),
        "policy list": ("--policy", '["http"]', "policy must be a JSON object"),
        "policy unknown key": ("--policy", '{"allowed_scheme": ["http"]}',
                               "unknown key 'allowed_scheme'"),
        "policy bad range": ("--policy", '{"private_ranges": ["10.0.0.300/8"]}', "10.0.0.300/8"),
        "policy not JSON": ("--policy", '{"allowed_schemes": [', "Expecting value"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_malformed_file_is_data_error_naming_it(self, case, tmp_path, caplog):
        option, text, problem = self.CASES[case]
        path = tmp_path / "filter.json"
        path.write_text(text, encoding="utf-8")
        mentions = tmp_path / "m.tsv"
        assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", mentions) == EXIT_OK
        caplog.clear()
        out = tmp_path / "r"
        assert run("report", "--mentions", mentions, "--model", MODEL, "--manifest",
                   CORPUS / "manifest.tsv", "--out-dir", out, option, path) == EXIT_DATA
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1
        assert errors[0].startswith(f"{path}: ") and problem in errors[0]
        assert not out.exists()

    def test_denylist_list_and_object_forms_agree(self, tmp_path):
        mentions = tmp_path / "m.tsv"
        assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", mentions) == EXIT_OK
        outputs = []
        for n, text in enumerate(['["Zenodo.org"]', '{"publisher_hosts": ["zenodo.org"]}']):
            denylist = tmp_path / f"denylist{n}.json"
            denylist.write_text(text, encoding="utf-8")
            out = tmp_path / f"r{n}"
            assert run("report", "--mentions", mentions, "--model", MODEL, "--manifest",
                       CORPUS / "manifest.tsv", "--out-dir", out,
                       "--denylist", denylist) == EXIT_OK
            outputs.append(json.loads((out / "run_metadata.json").read_text())["counts"])
        assert outputs[0] == outputs[1]
        assert outputs[0]["provenance"]["heuristic_publisher"] > 0


class TestPipeline:
    def test_fused_equals_staged(self, tmp_path):
        staged_mentions = tmp_path / "mentions.tsv"
        staged_dir = tmp_path / "staged"
        run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", staged_mentions)
        run(
            "report", "--mentions", staged_mentions, "--model", MODEL,
            "--manifest", CORPUS / "manifest.tsv", "--out-dir", staged_dir,
        )
        fused_dir = tmp_path / "fused"
        assert run(
            "pipeline", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
            "--out-dir", fused_dir,
        ) == EXIT_OK
        for name in ("monthly.csv", "hostnames.csv", "histogram.csv", "top_hostnames.csv"):
            assert (staged_dir / name).read_bytes() == (fused_dir / name).read_bytes()
        assert staged_mentions.read_bytes() == (fused_dir / "mentions.tsv").read_bytes()

    def test_mentions_not_read_back(self, tmp_path, monkeypatch):
        staged_mentions = tmp_path / "mentions.tsv"
        run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", staged_mentions)

        def no_read_back(path):
            raise AssertionError(f"pipeline read {path} back")

        monkeypatch.setattr(cli_mod, "read_mentions_file", no_read_back)
        fused_dir = tmp_path / "fused"
        assert run(
            "pipeline", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
            "--out-dir", fused_dir,
        ) == EXIT_OK
        assert staged_mentions.read_bytes() == (fused_dir / "mentions.tsv").read_bytes()

    def test_metadata_counts_partition_mentions(self, tmp_path):
        out_dir = tmp_path / "run"
        run("pipeline", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
            "--out-dir", out_dir)
        meta = json.loads((out_dir / "run_metadata.json").read_text())
        counts = meta["counts"]["report"]
        assert sum(counts["provenance"].values()) == counts["mentions"]
        assert sum(counts["scope_reasons"].values()) == counts["mentions"]
        assert sum(counts["categories"].values()) == counts["in_scope"]


    def test_missing_mentions_directory_is_usage_error_before_reading(self, tmp_path,
                                                                      monkeypatch, caplog):
        reads = []
        monkeypatch.setattr(cli_mod, "read_document", lambda *a: reads.append(a))
        mentions = tmp_path / "missing" / "m.tsv"
        assert run("pipeline", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
                   "--out-dir", tmp_path / "run", "--mentions", mentions) == EXIT_USAGE
        assert reads == []
        assert f"mentions file {mentions}: directory {mentions.parent} does not exist" in caplog.text

    def test_missing_model_fails_before_extracting(self, tmp_path):
        out_dir = tmp_path / "run"
        assert run("pipeline", "--manifest", CORPUS / "manifest.tsv",
                   "--model", tmp_path / "missing.json", "--out-dir", out_dir) == EXIT_USAGE
        assert not (out_dir / "mentions.tsv").exists()

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_outputs_honour_umask(self, tmp_path, umask):
        out_dir = tmp_path / "run"
        old = os.umask(umask)
        try:
            assert run("pipeline", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
                       "--out-dir", out_dir) == EXIT_OK
        finally:
            os.umask(old)
        outputs = sorted(out_dir.iterdir())
        assert [p.name for p in outputs] == [
            "histogram.csv", "hostnames.csv", "mentions.tsv", "monthly.csv",
            "run_metadata.json", "top_hostnames.csv",
        ]
        for path in outputs:
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


class TestTimings:
    EXTRACT = {"read_documents_s", "extract_s", "write_mentions_s", "input_mb",
               "extract_mb_per_s"}
    REPORT = {"classify_s", "write_reports_s"}

    @staticmethod
    def check(timings, keys):
        assert set(timings) == keys | {"workers", "peak_rss_mb"}
        assert all(v >= 0 for v in timings.values())
        assert timings["peak_rss_mb"] > 0

    def test_each_command_records_its_stage_timings(self, tmp_path):
        mentions = tmp_path / "mentions.tsv"
        assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", mentions) == EXIT_OK
        meta = json.loads((tmp_path / "mentions.tsv.meta.json").read_text())
        self.check(meta["timings"], self.EXTRACT)
        assert meta["timings"]["input_mb"] > 0

        assert run("report", "--mentions", mentions, "--model", MODEL,
                   "--manifest", CORPUS / "manifest.tsv", "--out-dir", tmp_path / "r") == EXIT_OK
        meta = json.loads((tmp_path / "r" / "run_metadata.json").read_text())
        self.check(meta["timings"], self.REPORT | {"read_mentions_s"})

        assert run("pipeline", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
                   "--out-dir", tmp_path / "p") == EXIT_OK
        meta = json.loads((tmp_path / "p" / "run_metadata.json").read_text())
        self.check(meta["timings"], self.EXTRACT | self.REPORT)


class TestConfigResolution:
    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path):
        root = write_corpus(tmp_path, [
            ("a", 1, "2019-01", "See https://x.org/a and https://x.org/a twice."),
        ])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(root / "manifest.tsv"),
            "dedup_per_doc": True,
        }))
        out = tmp_path / "m.tsv"
        assert run("extract", "--config", config, "--out", out) == EXIT_OK
        assert len(read_mentions_file(out)) == 1
        # flag overrides the config file
        out2 = tmp_path / "m2.tsv"
        assert run("extract", "--config", config, "--out", out2, "--no-dedup-per-doc") == EXIT_OK
        assert len(read_mentions_file(out2)) == 2

    def test_environment_overrides_config(self, tmp_path, monkeypatch):
        root = write_corpus(tmp_path, [
            ("a", 1, "2019-01", "See https://x.org/a and https://x.org/a twice."),
        ])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dedup_per_doc": True}))
        monkeypatch.setenv("OADSCAN_DEDUP_PER_DOC", "false")
        out = tmp_path / "m.tsv"
        assert run("extract", "--config", config, "--manifest", root / "manifest.tsv",
                   "--out", out) == EXIT_OK
        assert len(read_mentions_file(out)) == 2

    def test_unknown_category_policy_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("report", "--category-policy", "bogus")
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_option_is_usage_error(self, tmp_path):
        assert run("extract", "--out", tmp_path / "m.tsv") == EXIT_USAGE


class TestOptionSources:
    """Each command's options, wherever their values come from, go through
    that command's own parser declarations."""

    OPTIONS = {
        "extract": {"config", "manifest", "window_start", "window_end", "docs_root",
                    "dedup_per_doc", "out"},
        "train": {"config", "labeled", "out", "learning_rate", "iterations", "l2",
                  "threshold", "seed"},
        "evaluate": {"config", "model", "labeled"},
        "report": {"config", "manifest", "window_start", "window_end", "mentions", "model",
                   "out_dir", "policy", "denylist", "patterns", "category_policy",
                   "bin_width", "top_n"},
        "pipeline": {"config", "manifest", "window_start", "window_end", "docs_root",
                     "dedup_per_doc", "mentions", "model", "out_dir", "policy", "denylist",
                     "patterns", "category_policy", "bin_width", "top_n"},
    }

    # kind: command, option, command-line flags, env value, config value,
    # and the value the command sees from flag, env and config.
    SOURCES = {
        "int": ("report", "bin_width", ["--bin-width", "7"], "8", 9, (7, 8, 9)),
        "float": ("train", "learning_rate", ["--learning-rate=0.5"], "0.25", 0.125,
                  (0.5, 0.25, 0.125)),
        "choice": ("pipeline", "category_policy", ["--category-policy", "classifier-decides"],
                   "ghp-forces-oads", "classifier-decides",
                   ("classifier-decides", "ghp-forces-oads", "classifier-decides")),
        "boolean": ("extract", "dedup_per_doc", ["--no-dedup-per-doc"], "yes", False,
                    (False, True, False)),
        "path": ("evaluate", "model", ["--model", "flag.json"], "-env.json", "config.json",
                 ("flag.json", "-env.json", "config.json")),
    }

    @staticmethod
    def capture(monkeypatch, command):
        seen = []
        monkeypatch.setattr(cli_mod, f"cmd_{command}",
                            lambda settings: seen.append(settings) or EXIT_OK)
        return seen

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_command_reads_only_its_own_options(self, command, monkeypatch):
        seen = self.capture(monkeypatch, command)
        assert run(command) == EXIT_OK
        assert set(seen[0]) - {"command", "func"} == self.OPTIONS[command]

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_flag_beats_env_beats_config(self, kind, tmp_path, monkeypatch):
        command, dest, flags, env_value, config_value, expected = self.SOURCES[kind]
        seen = self.capture(monkeypatch, command)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({dest: config_value}))
        run(command, "--config", config)
        monkeypatch.setenv("OADSCAN_" + dest.upper(), env_value)
        run(command, "--config", config)
        run(command, "--config", config, *flags)
        assert [s[dest] for s in seen] == list(reversed(expected))

    BAD = {
        "int": ("pipeline", "bin_width", "abc", "--bin-width"),
        "float": ("train", "learning_rate", "x", "--learning-rate"),
        "choice": ("pipeline", "category_policy", "bogus", "--category-policy"),
        "boolean": ("pipeline", "dedup_per_doc", "ture", "--dedup-per-doc"),
    }

    @staticmethod
    def command_line(command, tmp_path, out):
        """A command line that runs, writing everything under ``out``."""
        if command == "train":
            return [command, "--labeled", DATA / "labeled_seed.tsv", "--out", out / "model.json"]
        argv = [command, "--model", MODEL, "--manifest", CORPUS / "manifest.tsv",
                "--out-dir", out]
        if command == "report":
            mentions = tmp_path / "mentions.tsv"
            assert run("extract", "--manifest", CORPUS / "manifest.tsv",
                       "--out", mentions) == EXIT_OK
            argv += ["--mentions", mentions]
        return argv

    @pytest.mark.parametrize("source", ["env", "config"])
    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_bad_value_is_usage_error_naming_the_flag(self, kind, source, tmp_path,
                                                      monkeypatch, capsys):
        command, dest, value, flag = self.BAD[kind]
        out = tmp_path / "out"
        argv = self.command_line(command, tmp_path, out)
        if source == "env":
            monkeypatch.setenv("OADSCAN_" + dest.upper(), value)
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({dest: value}))
            argv += ["--config", config]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("TRUE", True), ("Yes", True), (True, True),
        ("0", False), ("False", False), ("no", False), (False, False),
    ])
    def test_boolean_spellings(self, value, expected, tmp_path, monkeypatch):
        seen = self.capture(monkeypatch, "extract")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dedup_per_doc": value}))
        run("extract", "--config", config)
        # the environment's value over the config file's opposite
        config.write_text(json.dumps({"dedup_per_doc": not expected}))
        monkeypatch.setenv("OADSCAN_DEDUP_PER_DOC", str(value))
        run("extract", "--config", config)
        assert [s["dedup_per_doc"] for s in seen] == [expected, expected]

    @pytest.mark.parametrize("value", [0.5, "ture", ""])
    def test_other_boolean_value_in_config_is_usage_error(self, value, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dedup_per_doc": value}))
        with pytest.raises(SystemExit) as exc:
            run("extract", "--config", config, "--manifest", CORPUS / "manifest.tsv",
                "--out", tmp_path / "m.tsv")
        assert exc.value.code == EXIT_USAGE
        assert "argument --dedup-per-doc" in capsys.readouterr().err
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("command", ["report", "pipeline"])
    @pytest.mark.parametrize("flag", ["--bin-width", "--top-n"])
    def test_size_below_one_rejected_before_any_work(self, command, flag, tmp_path, capsys):
        out = tmp_path / "out"
        argv = self.command_line(command, tmp_path, out)
        with pytest.raises(SystemExit) as exc:
            run(*argv, flag, "0")
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--window-start"), ("evaluate", "--window-start"),
        ("report", "--seed"), ("pipeline", "--seed"),
    ])
    def test_option_the_command_never_reads_is_rejected(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            run(command, flag, "1")
        assert exc.value.code == EXIT_USAGE

    def test_another_commands_environment_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OADSCAN_BIN_WIDTH", "abc")
        monkeypatch.setenv("OADSCAN_SEED", "abc")
        out = tmp_path / "m.tsv"
        assert run("extract", "--manifest", CORPUS / "manifest.tsv", "--out", out) == EXIT_OK
        assert read_mentions_file(out)


def test_pipeline_reads_the_manifest_once(tmp_path, monkeypatch):
    calls = []
    real = cli_mod.load_manifest
    monkeypatch.setattr(cli_mod, "load_manifest", lambda path: calls.append(path) or real(path))
    assert run("pipeline", "--manifest", CORPUS / "manifest.tsv", "--model", MODEL,
               "--out-dir", tmp_path / "run") == EXIT_OK
    assert len(calls) == 1
