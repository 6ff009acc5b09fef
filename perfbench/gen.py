"""Seeded, standard-library-only input generator for the benchmark.

Every input is a pure function of the seed, and every generator returns
the ground truth it planted, so the benchmark can check the program's
outputs without trusting the program:

* ``write_corpus``: a typical corpus of ~50 KB articles hard-wrapped at
  80 columns with 40 URIs each; some URIs are wrapped across a line
  break the way a PDF text extractor leaves them.  The manifest also
  holds superseded versions and out-of-window months, which must not be
  read.
* ``write_mentions``: a large mentions file whose hosts follow a
  Zipf-like law with a long tail of distinct hosts.
* ``write_adversarial``: shape (a), one URI hard-wrapped over N lines,
  and shape (b), a reference list of N URLs each followed by a full stop.
* ``write_labeled``: labeled sentences to train the classifier on.

Host classes cover every scope reason, provenance and category: data
and code hosts, the four Git hosting platforms, ordinary web pages,
denylisted publishers, ``.pdf`` paths, non-HTTP schemes, private and
loopback hosts, publication hosts, and allowlisted and other DOIs.
All text is ASCII, so it is valid UTF-8.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import accumulate
from pathlib import Path

WIDTH = 80

# Expected (scope reason, provenance) per host class; the benchmark
# compares these against the counts the program reports.
CLASSES = {
    "data": ("accepted", "learned"),
    "ghp": ("accepted", "learned"),
    "web": ("accepted", "learned"),
    "publisher": ("accepted", "heuristic_publisher"),
    "pdf": ("accepted", "heuristic_pdf"),
    "scheme": ("scheme_excluded", "learned"),
    "private": ("local_or_private_host", "learned"),
    "publication": ("publication_link", "learned"),
    "doi_other": ("doi_excluded", "learned"),
    "doi_allow": ("doi_allowlisted", "learned"),
}

# Share of drawn URIs per host class, in percent.  Two figures are
# calibrated to the paper's corpus (the 33% and 1.92% that the README's
# acceptance suite pins): GHP mentions are 33.05% of OADS mentions, and
# the most frequent hostname holds 1.92% of the non-GHP OADS mentions.
# OADS mentions are the data, doi_allow and ghp classes, so GHP takes
# 25.7 / 77.7 = 33.08% of them; ZIPF_EXPONENT sets the top-host share.
# The other classes' shares and the tail size are not calibrated.
MIX = {
    "data": 51, "doi_allow": 1, "ghp": 25.7, "web": 8, "publisher": 3, "pdf": 3,
    "scheme": 2, "private": 2, "publication": 3, "doi_other": 1.3,
}
PAPER_GHP_SHARE_OF_OADS = 33.05  # 127,529 of 385,817 OADS mentions
PAPER_TOP_HOST_SHARE = 1.92      # cds.cern.ch, 4,953 of 258,288 non-GHP OADS mentions

# Distinct synthetic tail hosts, spread over the classes that have a
# tail in proportion to their MIX share (7,830 of them data hosts).
TAIL_HOSTS = 15_000
_NO_TAIL = ("doi_allow", "doi_other")

# Within a class, the host of rank k is drawn with weight k ** -ZIPF_EXPONENT.
# Over the 9 head and 7,830 tail data hosts, rank 1 then takes
# 1 / sum(k ** -0.684) = 1.96% of data draws: 1.92% of non-GHP OADS
# mentions, of which data is 51 parts in 52.
ZIPF_EXPONENT = 0.684

_HEAD_HOSTS = {
    "data": ["https://zenodo.org", "https://figshare.com", "https://osf.io",
             "https://data.mendeley.com", "https://huggingface.co",
             "https://dataverse.harvard.edu", "http://archive.ics.uci.edu",
             "https://cran.r-project.org", "http://www.bioinformatics-lab.org"],
    "ghp": ["https://github.com", "https://gitlab.com", "https://bitbucket.org",
            "https://sourceforge.net", "https://gitlab.cern.ch"],
    "web": ["https://www.nature.com", "https://ieeexplore.ieee.org",
            "https://www.youtube.com", "https://en.wikipedia.org", "http://www.example.com"],
    "publisher": ["https://link.springer.com", "https://onlinelibrary.wiley.com",
                  "https://journals.sagepub.com"],
    "pdf": ["https://www.stanford.edu", "http://www.cs.toronto.edu"],
    "scheme": ["ftp://ftp.ncbi.nlm.nih.gov", "ftp://ftp.ebi.ac.uk"],
    "private": ["http://localhost:8888", "http://127.0.0.1:5000", "http://[::1]:8080"],
    "publication": ["https://arxiv.org", "https://refhub.elsevier.com",
                    "https://crossmark.crossref.org"],
    "doi_other": ["https://doi.org", "http://dx.doi.org"],
    "doi_allow": ["https://doi.org", "http://dx.doi.org"],
}

_WORDS = """alpha orbit lattice spectra kernel mosaic quanta tensor galaxy proton
neural fusion vortex plasma crystal signal cosmic stellar photon matrix
delta sigma boreal cobalt ember falcon garnet harbor indigo juniper krypton
lumen meadow nimbus onyx prism quartz raven saffron tundra umber velvet
willow xenon yarrow zephyr""".split()

_NAMES = """jsmith lchen mgarcia akumar tnguyen rwilson efischer pmoreau ssato
dkowalski hbrown yzhang ookafor ipetrov""".split()

_FILLER = """we propose a method that improves the baseline on several benchmarks
results show consistent gains across all settings in our experiments the model
is trained with stochastic gradient descent and evaluated on held out data
this approach reduces error while keeping the computational cost low our
analysis considers both synthetic and real observations from the survey
previous work has studied related problems under stronger assumptions
parameters were selected by cross validation on the training split the
measurements agree with theoretical predictions within the stated
uncertainty further details of the derivation appear in the appendix
figure shows the distribution of residuals for each configuration table
lists the hyperparameters used throughout these findings suggest that the
effect is robust to the choice of prior""".split()

_OADS_TEMPLATES = [
    "The dataset is available at {u}.",
    "Our source code is available at {u}.",
    "We release the full implementation of our method at {u}.",
    "All data and analysis scripts can be downloaded from {u}.",
    "The software package is hosted at {u}, together with its documentation.",
    "Trained models and preprocessing code are published at {u}.",
    "Replication materials are archived at {u}; see the readme for details.",
    "Code and materials for the experiments are openly available at {u}.",
    "The simulation software (see {u}) can be downloaded freely.",
]

_NON_OADS_TEMPLATES = [
    "This article is published in the journal at {u}.",
    "A video demonstration can be seen at {u}.",
    "The full paper is available from {u}.",
    "More information about the conference can be found at {u}.",
    "The author's homepage is located at {u}, where slides are posted.",
    "Further reading on this topic is available at {u}.",
    "The publisher's version of record is accessible at {u}.",
    "An extended abstract appeared in the proceedings (see {u}) last year.",
]

_OADS_CONTEXT = {"data", "ghp", "scheme", "doi_allow"}

# Mirrors of the extractor's documented wrap rule (README, pipeline stage
# 2): a break is only planted where a PDF text extractor's wrap would be
# rejoined, so every planted URI has exactly one correct reading.
_TRIM = set(".,;:!?'\")]}")
_TAIL = set("abcdefghijklmnopqrstuvwxyz0123456789/._~%&=?#+-")
_PROSE = set("""a an and are as at be but by during for from has have if in is it its
of on or our so that the these this to was we were which will with""".split())


def _short(rng: random.Random, n: int = 8) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz23456789") for _ in range(n))


def _slug(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}-{rng.choice(_WORDS)}"


def _tail_host(rng: random.Random, cls: str, n: int) -> str:
    """A distinct host of the given class for the Zipf tail."""
    w = rng.choice(_WORDS)
    if cls == "data":
        return f"https://{w}{n}.data-archive.org"
    if cls == "ghp":
        return f"https://{rng.choice(_NAMES)}{n}.github.io" if n % 2 else f"https://gitlab.{w}{n}.edu"
    if cls == "web":
        return f"https://www.{w}{n}-news.com"
    if cls == "publisher":
        return f"https://{w}{n}.springer.com"
    if cls == "pdf":
        return f"http://www.{w}{n}-university.edu"
    if cls == "scheme":
        return f"ftp://ftp.{w}{n}.org"
    if cls == "private":
        return f"http://192.168.{n // 250 % 250}.{n % 250 + 1}" if n % 2 else f"http://10.{n // 250 % 250}.{n % 250}.7:8080"
    return f"https://{w}{n}.arxiv.org"  # publication


def _path(rng: random.Random, cls: str) -> str:
    num = rng.randint(1000, 9999999)
    if cls == "pdf":
        return f"/papers/{_slug(rng)}.pdf"
    if cls == "publication":
        return f"/abs/{rng.randint(701, 2112):04d}.{rng.randint(1, 99999):05d}"
    if cls == "doi_other":
        return f"/10.{rng.choice([1038, 1109, 1016, 1145, 1093])}/{_short(rng)}"
    if cls == "doi_allow":
        return rng.choice([f"/10.5281/zenodo.{num}", f"/10.5061/dryad.{_short(rng)}",
                           f"/10.6084/m9.figshare.{num}", f"/10.17605/osf.io/{_short(rng, 5)}"])
    if cls == "ghp":
        return f"/{rng.choice(_NAMES)}/{_slug(rng)}"
    if cls == "web":
        return rng.choice([f"/articles/s{num}", f"/watch?v={_short(rng, 11)}", f"/document/{num}"])
    if cls == "publisher":
        return f"/article/10.1007/s{num}"
    return rng.choice([f"/record/{num}", f"/datasets/{_slug(rng)}/{num}", f"/{_short(rng)}/files",
                       f"/pub/{_slug(rng)}/release-{rng.randint(1, 9)}.{rng.randint(0, 9)}"])


class HostPool:
    """Hosts ranked per class for a Zipf-like draw: the class's named
    head hosts in a seeded order, then its tail of distinct synthetic
    hosts.  A draw picks the class by MIX, then the host by rank."""

    def __init__(self, rng: random.Random):
        tailed = sum(w for cls, w in MIX.items() if cls not in _NO_TAIL)
        self.pools: dict[str, tuple[list[str], list[float]]] = {}
        for cls, weight in MIX.items():
            hosts = list(_HEAD_HOSTS[cls])
            rng.shuffle(hosts)
            if cls not in _NO_TAIL:
                hosts += [_tail_host(rng, cls, n) for n in range(round(TAIL_HOSTS * weight / tailed))]
            cum = list(accumulate(k ** -ZIPF_EXPONENT for k in range(1, len(hosts) + 1)))
            self.pools[cls] = (hosts, cum)
        self.class_cum = list(accumulate(MIX.values()))

    def draw(self, rng: random.Random) -> tuple[str, str]:
        cls = rng.choices(list(self.pools), cum_weights=self.class_cum)[0]
        hosts, cum = self.pools[cls]
        return rng.choices(hosts, cum_weights=cum)[0] + _path(rng, cls), cls


def _context(rng: random.Random, cls: str, token: str) -> str:
    templates = _OADS_TEMPLATES if cls in _OADS_CONTEXT else _NON_OADS_TEMPLATES
    return rng.choice(templates).format(u=token)


def _filler_sentence(rng: random.Random) -> str:
    words = [rng.choice(_FILLER) for _ in range(rng.randint(9, 18))]
    return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def _break_point(token: str, room: int) -> int | None:
    """Largest split of a URI-bearing token within ``room`` columns that
    the extractor rejoins, or None."""
    start = token.find("://")
    start = start + 3 if start >= 0 else token.find("www.") + 4
    slash = token.find("/", start)
    if slash < 0:
        return None
    end = len(token.rstrip(".,;)"))
    for k in range(min(room, end - 1), slash, -1):
        if token[k - 1] not in _TRIM and token[k] in _TAIL and token[k:] not in _PROSE:
            return k
    return None


def _wrap(paragraph: str) -> list[str]:
    """Hard-wrap at WIDTH columns; URIs that straddle the margin are
    split mid-path where the extractor will rejoin them."""
    lines: list[str] = []
    line = ""
    for token in paragraph.split(" "):
        if not line:
            line = token
        elif len(line) + 1 + len(token) <= WIDTH:
            line += " " + token
        else:
            k = None
            if "://" in token or "www." in token:
                k = _break_point(token, WIDTH - len(line) - 1)
            if k is not None:
                lines.append(line + " " + token[:k])
                line = token[k:]
            else:
                lines.append(line)
                line = token
    if line:
        lines.append(line)
    return lines


def _document(rng: random.Random, pool: HostPool, n_uris: int, target_chars: int) -> tuple[str, list[str], list[str]]:
    """Paragraphs of filler with ``n_uris`` URI sentences spread through
    them; returns (text, expected URIs in order, their classes)."""
    sentences: list[str] = []
    uris: list[str] = []
    classes: list[str] = []
    per_gap = max(1, target_chars // (n_uris + 1) // 95)
    for _ in range(n_uris):
        sentences.extend(_filler_sentence(rng) for _ in range(rng.randint(per_gap // 2, per_gap * 3 // 2)))
        uri, cls = pool.draw(rng)
        token = uri
        if uri.startswith("http://www.") and rng.random() < 0.5:
            token = uri[len("http://"):]  # bare www. host; the scheme is implied
        sentences.append(_context(rng, cls, token))
        uris.append(uri)
        classes.append(cls)
    size = sum(len(s) + 1 for s in sentences)
    while size < target_chars:
        sentences.append(_filler_sentence(rng))
        size += len(sentences[-1]) + 1
    paragraphs: list[str] = []
    i = 0
    while i < len(sentences):
        n = rng.randint(5, 10)
        paragraphs.append("\n".join(_wrap(" ".join(sentences[i:i + n]))))
        i += n
    return "\n\n".join(paragraphs) + "\n", uris, classes


def _months(rng: random.Random, n: int) -> list[str]:
    return [f"{rng.randint(2008, 2021)}-{rng.randint(1, 12):02d}" for _ in range(n)]


def write_corpus(root: Path, seed: int, docs: int = 100, uris_per_doc: int = 40,
                 doc_chars: int = 50_000) -> dict:
    """Typical corpus: ``docs`` latest in-window articles plus superseded
    versions and out-of-window articles that must be skipped."""
    rng = random.Random(f"corpus-{seed}")
    pool = HostPool(rng)
    (root / "docs").mkdir(parents=True, exist_ok=True)
    manifest = ["# id\tversion\tmonth\tpath"]
    expected: dict[str, list[str]] = {}
    class_counts: Counter = Counter()
    publications: Counter = Counter()
    text_bytes = 0
    superseded = set(rng.sample(range(docs), docs // 10))
    for i, month in enumerate(_months(rng, docs)):
        base = f"{month[2:4]}{month[5:]}.{i:05d}"
        version = 2 if i in superseded else 1
        if version == 2:
            # The old version is listed first but must never be read.
            old, _, _ = _document(rng, pool, 4, 4_000)
            (root / "docs" / f"{base}v1.txt").write_text(old, encoding="utf-8")
            manifest.append(f"{base}\t1\t{month}\tdocs/{base}v1.txt")
        text, uris, classes = _document(rng, pool, uris_per_doc, doc_chars)
        (root / "docs" / f"{base}v{version}.txt").write_text(text, encoding="utf-8")
        manifest.append(f"{base}\t{version}\t{month}\tdocs/{base}v{version}.txt")
        expected[f"{base}v{version}"] = uris
        publications[month] += 1
        class_counts.update(classes)
        text_bytes += len(text)
    for j, month in enumerate(["2005-06", "2006-11", "2007-03", "2022-01", "2023-05"] * 2):
        base = f"out.{j:05d}"
        text, _, _ = _document(rng, pool, 4, 4_000)
        (root / "docs" / f"{base}v1.txt").write_text(text, encoding="utf-8")
        manifest.append(f"{base}\t1\t{month}\tdocs/{base}v1.txt")
    (root / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    return _record(root, {
        "manifest": "manifest.tsv",
        "docs": docs,
        "window_skipped": 10,
        "input_bytes": text_bytes,
        "mentions": docs * uris_per_doc,
        "publications": dict(publications),
        "expected_uris": expected,
        **_class_totals(class_counts),
    })


def _record(root: Path, truth: dict) -> dict:
    """Write the planted ground truth next to the inputs and return it."""
    (root / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return truth


def _class_totals(class_counts: Counter) -> dict:
    scope: Counter = Counter()
    provenance: Counter = Counter()
    for cls, n in class_counts.items():
        reason, prov = CLASSES[cls]
        scope[reason] += n
        provenance[prov] += n
    in_scope = scope["accepted"] + scope["doi_allowlisted"]
    return {"scope_reasons": dict(scope), "provenance": dict(provenance),
            "in_scope": in_scope, "ghp": class_counts["ghp"]}


def write_mentions(root: Path, seed: int, mentions: int = 50_000, docs: int = 1_250) -> dict:
    """A mentions file in the extract stage's format, Zipf-distributed
    hosts, and a manifest of the articles it cites (no document text)."""
    rng = random.Random(f"mentions-{seed}")
    pool = HostPool(rng)
    months = _months(rng, docs)
    ids = [f"{m[2:4]}{m[5:]}.{i:05d}" for i, m in enumerate(months)]
    manifest = ["# id\tversion\tmonth\tpath"]
    publications: Counter = Counter()
    for base, month in zip(ids, months):
        manifest.append(f"{base}\t1\t{month}\tdocs/{base}v1.txt")
        publications[month] += 1
    for j, month in enumerate(["2006-01", "2022-02"]):
        manifest.append(f"old.{j:05d}\t1\t{month}\tdocs/old.{j:05d}v1.txt")
    (root / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")

    per_doc = Counter(rng.randrange(docs) for _ in range(mentions))
    lines = ["# doc_id\tmonth\turi\tspan_start\tspan_end\tcontext"]
    class_counts: Counter = Counter()
    for d in range(docs):
        offset = 0
        for _ in range(per_doc[d]):
            uri, cls = pool.draw(rng)
            class_counts[cls] += 1
            offset += rng.randint(200, 2000)
            context = _context(rng, cls, uri)
            lines.append(f"{ids[d]}v1\t{months[d]}\t{uri}\t{offset}\t{offset + len(uri)}\t"
                         f"{json.dumps(context, ensure_ascii=True)}")
    text = "\n".join(lines) + "\n"
    (root / "mentions.tsv").write_text(text, encoding="utf-8")
    return _record(root, {
        "manifest": "manifest.tsv",
        "mentions_file": "mentions.tsv",
        "docs": len(per_doc),
        "input_bytes": len(text),
        "mentions": mentions,
        "publications": dict(publications),
        **_class_totals(class_counts),
    })


def _shape_a(rng: random.Random, n: int) -> tuple[str, str]:
    """One URI hard-wrapped over n lines of WIDTH columns."""
    head = f"The complete archive is at https://{rng.choice(_WORDS)}.data-archive.org/"
    chunks = [_short(rng, WIDTH - len(head))]
    chunks += [_short(rng, WIDTH) for _ in range(n - 1)]
    uri = head[len("The complete archive is at "):] + "".join(chunks)
    text = (_filler_sentence(rng) + "\n" + head + "\n".join(chunks)
            + ". " + _filler_sentence(rng) + "\n")
    return text, uri


def _shape_b(rng: random.Random, pool: HostPool, n: int) -> tuple[str, list[str]]:
    """A reference list of n URLs, each followed by a full stop."""
    lines = ["References", ""]
    uris = []
    for k in range(1, n + 1):
        uri, _ = pool.draw(rng)
        uris.append(uri)
        lines.append(f"[{k}] {rng.choice(_NAMES)}, {rng.choice(_WORDS)} {rng.choice(_WORDS)}, "
                     f"{rng.randint(1990, 2021)}. {uri}.")
    return "\n".join(lines) + "\n", uris


ADVERSARIAL = (("a", 1_000), ("a", 2_000), ("b", 2_000), ("b", 4_000))


def write_adversarial(root: Path, seed: int) -> dict:
    """One single-document manifest per (shape, N), plus a one-line
    document that times the command's fixed start-up cost."""
    rng = random.Random(f"adversarial-{seed}")
    pool = HostPool(rng)
    (root / "docs").mkdir(parents=True, exist_ok=True)
    cases = []
    specs = [("startup", 1)] + list(ADVERSARIAL)
    for shape, n in specs:
        name = f"{shape}{n}"
        if shape == "a":
            text, uri = _shape_a(rng, n)
            uris = [uri]
        elif shape == "b":
            text, uris = _shape_b(rng, pool, n)
        else:
            text, uris = "A single line without links.\n", []
        base = f"2001.{len(cases):05d}"
        (root / "docs" / f"{base}v1.txt").write_text(text, encoding="utf-8")
        (root / f"{name}.tsv").write_text(
            f"{base}\t1\t2020-01\tdocs/{base}v1.txt\n", encoding="utf-8")
        cases.append({"name": name, "shape": shape, "n": n, "manifest": f"{name}.tsv",
                      "input_bytes": len(text), "expected_uris": {f"{base}v1": uris}})
    return _record(root, {"cases": cases})


def write_labeled(path: Path, seed: int, per_label: int = 120) -> None:
    """Training sentences in the labeled-file format."""
    rng = random.Random(f"labeled-{seed}")
    rows = []
    for label, classes in (("OADS", ["data", "ghp", "doi_allow"]),
                           ("Non-OADS", ["web", "publication", "doi_other", "publisher"])):
        templates = _OADS_TEMPLATES if label == "OADS" else _NON_OADS_TEMPLATES
        for i in range(per_label):
            cls = classes[i % len(classes)]
            uri = rng.choice(_HEAD_HOSTS[cls]) + _path(rng, cls)
            rows.append(f"{label}\t{uri}\t{templates[i % len(templates)].format(u=uri)}")
    rng.shuffle(rows)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
