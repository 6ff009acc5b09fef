import json

import pytest
from hypothesis import given, settings, strategies as st

from oadscan.corpus import Document, DocumentId, ManifestEntry, read_document
from oadscan.extraction import (
    MentionRecord,
    MentionsFileError,
    canonicalize_raw,
    extract_uri_mentions,
    read_mentions_file,
    repair_linewrap,
    segment_sentences,
    trim_trailing,
    write_mentions_file,
)


def doc(text, base="d1", month="2020-06"):
    return Document(DocumentId(base, 1), month, text)


class TestSegmentSentences:
    def test_two_simple_sentences(self):
        result = segment_sentences("A. B.")
        assert [s for s, _ in result] == ["A.", "B."]

    def test_spans_tile_text(self):
        text = "First one. Second one! Third?"
        result = segment_sentences(text)
        spans = [span for _, span in result]
        assert spans[0][0] == 0 and spans[-1][1] == len(text)
        for (_, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 == s2

    def test_uri_dot_does_not_split(self):
        result = segment_sentences("See http://x.y/a.b for data. Next.")
        assert [s for s, _ in result] == ["See http://x.y/a.b for data.", "Next."]

    def test_empty_text(self):
        assert segment_sentences("") == []

    def test_fragment_without_terminator(self):
        result = segment_sentences("A full sentence here.\n\nhttps://osf.io/xyz99")
        assert [s for s, _ in result] == ["A full sentence here.", "https://osf.io/xyz99"]

    def test_single_newline_is_not_a_boundary(self):
        result = segment_sentences("The archive is\navailable online.")
        assert len(result) == 1

    def test_abbreviation_like_lowercase_start_does_not_split(self):
        result = segment_sentences("approx. values are listed. Next sentence.")
        assert [s for s, _ in result] == ["approx. values are listed.", "Next sentence."]

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=400))
    @settings(max_examples=200)
    def test_tiling_property(self, text):
        result = segment_sentences(text)
        if not text:
            assert result == []
            return
        prev_end = 0
        for _, (s, e) in result:
            assert s == prev_end
            assert e > s
            prev_end = e
        assert prev_end == len(text)


class TestTrimTrailing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("https://example.org/tool).", "https://example.org/tool"),
            ("http://x.org/a.", "http://x.org/a"),
            ("http://x.org/a,;:", "http://x.org/a"),
            ('http://x.org/a."', "http://x.org/a"),
            ("http://en.wikipedia.org/wiki/X_(lang)", "http://en.wikipedia.org/wiki/X_(lang)"),
            ("http://x.org/f(1).", "http://x.org/f(1)"),
            ("http://x.org/a]}", "http://x.org/a"),
            ("http://x.org/a", "http://x.org/a"),
        ],
    )
    def test_cases(self, raw, expected):
        assert trim_trailing(raw) == expected


class TestRepairLinewrap:
    # Oracle: the rejoin rules applied by hand to a fixture set.
    @pytest.mark.parametrize(
        "text,expected",
        [
            # split mid-path, continuation looks like a URI tail -> rejoin
            ("https://example.org/long\npath", "https://example.org/longpath"),
            # hyphen at the break is kept as URI content
            ("https://example.org/long-\npath", "https://example.org/long-path"),
            # no newline -> identity
            ("plain text without breaks", "plain text without breaks"),
            # hyphenated prose is not a URI candidate
            ("word-\nbreak", "word-\nbreak"),
            # space before the break -> the URI ended on its own
            ("see https://x.org/a \nnext line", "see https://x.org/a \nnext line"),
            # continuation starting with prose stays prose
            ("see https://x.org/a\nand more text", "see https://x.org/a\nand more text"),
            ("at http://10.0.0.7/metrics\nduring data taking", "at http://10.0.0.7/metrics\nduring data taking"),
            # uppercase continuation reads as a new sentence
            ("https://x.org/path\nNext sentence", "https://x.org/path\nNext sentence"),
            # a bare host ending the line is complete; no join
            ("https://x.org\nalpha", "https://x.org\nalpha"),
            # trailing punctuation before the break means the URI closed
            ("https://x.org/a.\nbeta", "https://x.org/a.\nbeta"),
            # three-line wrap cascades
            (
                "https://example.org/aa\nbb\ncc and text",
                "https://example.org/aabbcc and text",
            ),
            ("", ""),
        ],
    )
    def test_fixture_set(self, text, expected):
        assert repair_linewrap(text) == expected

    def test_other_newlines_preserved(self):
        text = "First line.\nSecond line with https://x.org/path inside.\nThird."
        assert repair_linewrap(text) == text


class TestExtractUriMentions:
    def test_sentence_context_and_trailing_dot(self):
        text = "The dataset is available at http://ibm.biz/multishapeinsertion."
        mentions = extract_uri_mentions(doc(text))
        assert len(mentions) == 1
        m = mentions[0]
        assert m.uri == "http://ibm.biz/multishapeinsertion"
        assert m.context == text
        assert text[m.span[0]:m.span[1]] == "http://ibm.biz/multishapeinsertion."

    def test_empty_document(self):
        assert extract_uri_mentions(doc("")) == []

    def test_parenthesized_uri_trimmed(self):
        mentions = extract_uri_mentions(doc("(see https://example.org/tool)."))
        assert [m.uri for m in mentions] == ["https://example.org/tool"]

    def test_www_host_gets_implicit_scheme(self):
        mentions = extract_uri_mentions(doc("Data at www.cosmos.esa.int/web/planck here."))
        assert mentions[0].uri == "http://www.cosmos.esa.int/web/planck"
        assert mentions[0].implicit_scheme

    def test_duplicates_kept_by_default(self):
        text = "See https://x.org/a and https://x.org/a again."
        assert len(extract_uri_mentions(doc(text))) == 2

    def test_dedup_per_doc(self):
        text = "See https://x.org/a and https://x.org/a again."
        assert len(extract_uri_mentions(doc(text), dedup=True)) == 1

    def test_mentions_in_document_order(self):
        text = "First https://a.org/1 then https://b.org/2. Later https://c.org/3."
        mentions = extract_uri_mentions(doc(text))
        assert [m.uri for m in mentions] == [
            "https://a.org/1", "https://b.org/2", "https://c.org/3",
        ]
        starts = [m.span[0] for m in mentions]
        assert starts == sorted(starts) and len(set(starts)) == len(starts)

    def test_multiple_uris_share_sentence_context(self):
        text = "Code (https://a.org/x) and data (https://b.org/y) are online."
        mentions = extract_uri_mentions(doc(text))
        assert len(mentions) == 2
        assert mentions[0].context == mentions[1].context == text

    def test_wrapped_uri_spans_original_text(self):
        text = "Corpus at https://data.example.org/colle\nctions/v2 for everyone."
        mentions = extract_uri_mentions(doc(text))
        m = mentions[0]
        assert m.uri == "https://data.example.org/collections/v2"
        assert text[m.span[0]:m.span[1]] == "https://data.example.org/colle\nctions/v2"
        assert m.context == text.strip()

    def test_crlf_spans_index_text_as_read(self, tmp_path):
        # Reading normalises each CRLF to one newline, and spans index that
        # text, not the raw bytes (where this URI starts one byte later).
        raw = b"Data here:\r\nat https://x.org/data/v22 now.\r\n"
        (tmp_path / "d.txt").write_bytes(raw)
        d = read_document(ManifestEntry(DocumentId("d", 1), "2020-01", "d.txt"), tmp_path)
        assert d.text == "Data here:\nat https://x.org/data/v22 now.\n"
        (m,) = extract_uri_mentions(d)
        assert m.span == (14, 36)
        assert canonicalize_raw(d.text[m.span[0]:m.span[1]]) == m.uri == "https://x.org/data/v22"
        assert raw.decode("utf-8").index(m.uri) == 15

    def test_mailto_without_slashes_not_extracted(self):
        assert extract_uri_mentions(doc("Write to mailto:me@example.org today.")) == []

    def test_ftp_extracted_for_later_scope_filtering(self):
        mentions = extract_uri_mentions(doc("Data at ftp://mirror.example.org/pub now."))
        assert [m.uri for m in mentions] == ["ftp://mirror.example.org/pub"]

    def test_uri_fragment_closed_by_blank_line(self):
        # A footnote-style URI without a terminator still gets its own
        # context; the blank line ends the fragment.
        text = "see https://x.org/data\n\nNext paragraph starts here."
        mentions = extract_uri_mentions(doc(text))
        assert mentions[0].context == "see https://x.org/data"


URI_TEMPLATES = [
    "https://github.com/{w}/{w2}",
    "http://www.example.org/{w}",
    "https://zenodo.org/record/{n}",
    "www.archive.example.net/{w}/{w2}",
    "http://data.example.org/{w}.html",
]
WORDS = ["alpha", "beta", "gamma", "delta", "files", "data"]


@st.composite
def documents_with_uris(draw):
    n_sentences = draw(st.integers(min_value=1, max_value=5))
    parts = []
    for _ in range(n_sentences):
        lead = draw(st.sampled_from(
            ["The dataset is available at", "See", "Results are hosted at", "Visit"]
        ))
        template = draw(st.sampled_from(URI_TEMPLATES))
        uri = template.format(
            w=draw(st.sampled_from(WORDS)),
            w2=draw(st.sampled_from(WORDS)),
            n=draw(st.integers(min_value=1, max_value=9999)),
        )
        tail = draw(st.sampled_from([".", " for details.", ")."]))
        parts.append(f"{lead} {uri}{tail}")
    return " ".join(parts)


FUZZ_ALPHABET = st.sampled_from(
    list("ab.: /()<>\n\"'-") + ["http://", "https://", "www.", "x.org", "path", "and"]
)


class TestExtractionFuzz:
    @given(st.lists(FUZZ_ALPHABET, max_size=60).map("".join))
    @settings(max_examples=400)
    def test_total_and_invariants_on_arbitrary_text(self, text):
        document = doc(text)
        mentions = extract_uri_mentions(document)
        prev = -1
        for m in mentions:
            raw = text[m.span[0]:m.span[1]]
            assert canonicalize_raw(raw) == m.uri
            assert raw in m.context
            assert m.span[0] > prev
            prev = m.span[0]

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_never_raises_on_unicode(self, text):
        extract_uri_mentions(doc(text))
        segment_sentences(text)
        repair_linewrap(text)


class TestExtractionProperties:
    @given(documents_with_uris())
    @settings(max_examples=150)
    def test_roundtrip_and_containment(self, text):
        document = doc(text)
        mentions = extract_uri_mentions(document)
        assert mentions, text
        prev = -1
        for m in mentions:
            raw = text[m.span[0]:m.span[1]]
            assert canonicalize_raw(raw) == m.uri
            assert raw in m.context
            assert m.span[0] > prev
            prev = m.span[0]

    @given(documents_with_uris())
    @settings(max_examples=50)
    def test_deterministic(self, text):
        document = doc(text)
        assert extract_uri_mentions(document) == extract_uri_mentions(document)

    @given(documents_with_uris())
    @settings(max_examples=50)
    def test_contexts_are_nonempty_substrings(self, text):
        for m in extract_uri_mentions(doc(text)):
            assert m.context
            assert m.context in text


class TestMentionsFile:
    def make_records(self):
        text = "The dataset is available at http://ibm.biz/multishapeinsertion."
        d = doc(text, base="fx1", month="2019-03")
        return [
            MentionRecord(d.id, d.month, m.uri, m.span, m.context)
            for m in extract_uri_mentions(d)
        ]

    def test_roundtrip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "mentions.tsv"
        count = write_mentions_file(path, records)
        assert count == 1
        assert read_mentions_file(path) == records

    def test_context_json_escaped(self, tmp_path):
        record = MentionRecord(
            DocumentId("a", 1), "2019-01", "https://x.org/a", (4, 19),
            'multi\nline "context" with https://x.org/a',
        )
        path = tmp_path / "mentions.tsv"
        write_mentions_file(path, [record])
        raw_line = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
        assert "\n" not in raw_line
        assert json.loads(raw_line.split("\t", 5)[5]) == record.context
        assert read_mentions_file(path) == [record]

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "mentions.tsv"
        path.write_text("only\tthree\tfields\n", encoding="utf-8")
        with pytest.raises(MentionsFileError, match=":1:"):
            read_mentions_file(path)

    def test_consecutive_mentions_share_one_document_id(self, tmp_path):
        ids = [DocumentId("a", 2), DocumentId("a", 2), DocumentId("b", 1), DocumentId("a", 2)]
        records = [MentionRecord(i, "2019-01", f"https://x.org/{n}", (0, 15), "c")
                   for n, i in enumerate(ids)]
        path = tmp_path / "mentions.tsv"
        write_mentions_file(path, records)
        read = read_mentions_file(path)
        assert read == records
        assert read[0].doc_id is read[1].doc_id
        assert read[2].doc_id is not read[1].doc_id
        assert read[3].doc_id is not read[1].doc_id

    def test_bad_document_id_after_a_good_one_rejected(self, tmp_path):
        path = tmp_path / "mentions.tsv"
        path.write_text("av1\t2019-01\thttps://x.org/a\t0\t15\t\"c\"\n"
                        "av0\t2019-01\thttps://x.org/b\t0\t15\t\"c\"\n", encoding="utf-8")
        with pytest.raises(MentionsFileError, match=":2:"):
            read_mentions_file(path)

    def test_malformed_context_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "mentions.tsv"
        path.write_text("# header\n"
                        "av1\t2019-01\thttps://x.org/a\t0\t15\t\"c\"\n"
                        "av1\t2019-01\thttps://x.org/b\t0\t15\t\"unterminated\n",
                        encoding="utf-8")
        with pytest.raises(MentionsFileError, match=r":3: Unterminated string"):
            read_mentions_file(path)

    @pytest.mark.parametrize("context", ["7", "null", '["c"]', '{"c": 1}'])
    def test_context_that_is_not_a_string_rejected(self, tmp_path, context):
        path = tmp_path / "mentions.tsv"
        path.write_text(f"av1\t2019-01\thttps://x.org/a\t0\t15\t{context}\n", encoding="utf-8")
        with pytest.raises(MentionsFileError, match=r":1: context is not a JSON string"):
            read_mentions_file(path)

    def test_invalid_utf8_named_with_its_line(self, tmp_path):
        path = tmp_path / "mentions.tsv"
        path.write_bytes(b"av1\t2019-01\thttps://x.org/a\t0\t15\t\"c\"\r\n"
                         b"av1\t2019-01\thttps://x.org/\xff\t0\t15\t\"c\"\n")
        with pytest.raises(MentionsFileError) as exc:
            read_mentions_file(path)
        assert str(exc.value) == (f"{path}:2: invalid UTF-8 at byte offset 26 of the line "
                                  "(invalid start byte)")
