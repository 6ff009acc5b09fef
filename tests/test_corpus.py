import random
import re

import pytest
from hypothesis import given, strategies as st

from oadscan.corpus import (
    Document,
    DocumentId,
    DocumentReadError,
    DuplicateVersionError,
    ManifestEntry,
    ManifestError,
    MonthWindow,
    filter_window,
    load_manifest,
    parse_document_id,
    read_document,
    select_latest_versions,
    validate_month,
)

# Independent month grammar oracle: four digits, dash, 01..12.
MONTH_ORACLE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])$")


def entry(base, version, month="2020-01", path="x.txt"):
    return ManifestEntry(DocumentId(base, version), month, path)


def write_manifest(tmp_path, lines):
    p = tmp_path / "manifest.tsv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


class TestLoadManifest:
    def test_three_well_formed_records(self, tmp_path):
        p = write_manifest(tmp_path, [
            "a\t1\t2019-05\tdocs/a1.txt",
            "b\t2\t2019-06\tdocs/b2.txt",
            "c\t1\t2019-07\tdocs/c1.txt",
        ])
        manifest = load_manifest(p)
        assert len(manifest) == 3
        assert manifest[0] == ManifestEntry(DocumentId("a", 1), "2019-05", "docs/a1.txt")
        assert [e.doc_id.base_id for e in manifest] == ["a", "b", "c"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("", encoding="utf-8")
        assert len(load_manifest(p)) == 0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = write_manifest(tmp_path, ["# header", "", "a\t1\t2019-05\ta.txt"])
        assert len(load_manifest(p)) == 1

    @pytest.mark.parametrize("bad_month", ["2007-13", "2007-00", "2007-1", "200701", "07-2007"])
    def test_bad_month_rejected_with_line_number(self, tmp_path, bad_month):
        assert not MONTH_ORACLE.match(bad_month)
        p = write_manifest(tmp_path, ["a\t1\t2019-05\ta.txt", f"b\t1\t{bad_month}\tb.txt"])
        with pytest.raises(ManifestError, match=r":2:"):
            load_manifest(p)

    @given(st.integers(min_value=1, max_value=9999), st.integers(min_value=1, max_value=99))
    def test_month_validation_agrees_with_oracle(self, year, month):
        candidate = f"{year:04d}-{month:02d}"
        if MONTH_ORACLE.match(candidate):
            assert validate_month(candidate) == candidate
        else:
            with pytest.raises(ValueError):
                validate_month(candidate)

    def test_wrong_field_count(self, tmp_path):
        p = write_manifest(tmp_path, ["a\t1\t2019-05"])
        with pytest.raises(ManifestError, match=r":1:"):
            load_manifest(p)

    def test_non_integer_version(self, tmp_path):
        p = write_manifest(tmp_path, ["a\tfirst\t2019-05\ta.txt"])
        with pytest.raises(ManifestError, match="version"):
            load_manifest(p)

    def test_id_suffix_must_agree_with_version_column(self, tmp_path):
        ok = write_manifest(tmp_path, ["a1v3\t3\t2019-05\ta.txt"])
        manifest = load_manifest(ok)
        assert manifest[0].doc_id == DocumentId("a1", 3)
        bad = write_manifest(tmp_path, ["a1v3\t2\t2019-05\ta.txt"])
        with pytest.raises(ManifestError, match="disagrees"):
            load_manifest(bad)


class TestParseDocumentId:
    def test_version_suffix_split(self):
        assert parse_document_id("2104.01234v3") == DocumentId("2104.01234", 3)
        assert parse_document_id("astro-ph/0601001v12") == DocumentId("astro-ph/0601001", 12)

    def test_no_suffix_means_version_one(self):
        assert parse_document_id("2104.01234") == DocumentId("2104.01234", 1)

    def test_str_roundtrip(self):
        doc_id = DocumentId("abcv2", 3)
        assert parse_document_id(str(doc_id)) == doc_id

    def test_invariants(self):
        with pytest.raises(ValueError):
            DocumentId("x", 0)
        with pytest.raises(ValueError):
            DocumentId("", 1)
        with pytest.raises(ValueError):
            DocumentId("a b", 1)


class TestSelectLatestVersions:
    def test_keeps_maximal_version(self):
        manifest = (entry("X", 1), entry("X", 3), entry("X", 2))
        result = select_latest_versions(manifest)
        assert [e.doc_id for e in result] == [DocumentId("X", 3)]

    def test_singleton(self):
        manifest = (entry("X", 1),)
        assert select_latest_versions(manifest) == manifest

    def test_order_preserved(self):
        manifest = (entry("X", 2), entry("Y", 1), entry("X", 5), entry("Y", 3))
        result = select_latest_versions(manifest)
        assert [(e.doc_id.base_id, e.doc_id.version) for e in result] == [("X", 5), ("Y", 3)]

    def test_duplicate_pairs_rejected(self):
        manifest = (entry("X", 1), entry("X", 1))
        with pytest.raises(DuplicateVersionError, match="Xv1"):
            select_latest_versions(manifest)

    def test_brute_force_oracle_on_random_manifests(self):
        rng = random.Random(1234)
        for _ in range(200):
            bases = [f"b{i}" for i in range(rng.randint(1, 6))]
            pairs = set()
            while len(pairs) < rng.randint(1, 12):
                pairs.add((rng.choice(bases), rng.randint(1, 9)))
            entries = [entry(b, v) for b, v in pairs]
            rng.shuffle(entries)
            manifest = tuple(entries)
            result = select_latest_versions(manifest)
            # Brute force: group by base, take max version.
            expected = {}
            for e in entries:
                b = e.doc_id.base_id
                if b not in expected or e.doc_id.version > expected[b]:
                    expected[b] = e.doc_id.version
            assert {e.doc_id.base_id: e.doc_id.version for e in result} == expected
            # Idempotence.
            assert select_latest_versions(result) == result

    def test_idempotent(self):
        manifest = (entry("X", 2), entry("Y", 1), entry("X", 5))
        once = select_latest_versions(manifest)
        assert select_latest_versions(once) == once


class TestReadDocument:
    def test_reads_contents(self, tmp_path):
        (tmp_path / "d.txt").write_text("hello", encoding="utf-8")
        doc = read_document(entry("a", 1, path="d.txt"), tmp_path)
        assert doc == Document(DocumentId("a", 1), "2020-01", "hello")

    def test_empty_file(self, tmp_path):
        (tmp_path / "d.txt").write_text("", encoding="utf-8")
        assert read_document(entry("a", 1, path="d.txt"), tmp_path).text == ""

    def test_missing_file_error_names_document(self, tmp_path):
        with pytest.raises(DocumentReadError, match="a77v4"):
            read_document(entry("a77", 4, path="gone.txt"), tmp_path)

    def test_read_does_not_mutate_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("payload", encoding="utf-8")
        before = p.read_bytes()
        read_document(entry("a", 1, path="d.txt"), tmp_path)
        assert p.read_bytes() == before


class TestWindow:
    def test_default_window(self):
        w = MonthWindow()
        assert w.contains("2007-04") and w.contains("2021-12")
        assert not w.contains("2007-03") and not w.contains("2022-01")

    def test_filter_window_counts_rejects(self):
        manifest = (entry("a", 1, month="2006-12"), entry("b", 1, month="2010-06"))
        kept, skipped = filter_window(manifest)
        assert [e.doc_id.base_id for e in kept] == ["b"]
        assert skipped == 1

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            MonthWindow("2020-01", "2019-01")
