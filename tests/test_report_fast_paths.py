"""Differential tests: the report layers' fast paths against direct references.

``score_text`` sums only the in-vocabulary terms, ``detect_ghp`` looks hosts
up in compiled rule tables, and ``is_private_or_local`` parses only hosts
shaped like an IP literal.  Each reference below is the direct form the
fast path replaces; the two must agree exactly (``==`` on the float score).
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from oadscan.classifier import (
    FIXED_FEATURE_NAMES,
    TrainedModel,
    _fixed_features,
    _sigmoid,
    _sparse_counts,
    score_text,
)
from oadscan.ghp import DEFAULT_PATTERNS, GhpPatternSet, HostRule, Platform, detect_ghp
from oadscan.scope import (
    DEFAULT_POLICY,
    ParsedUri,
    ScopeReason,
    ScopeVerdict,
    is_private_or_local,
    parse_uri,
    split_port,
)
from test_ghp import load_ghp_cases

# --- references ------------------------------------------------------------


@dataclass(frozen=True)
class Features:
    """Sparse feature vector: token counts plus fixed URI-feature slots."""

    tokens: tuple[tuple[str, float], ...]
    fixed: tuple[float, ...]


def featurize(context: str, uri: str | ParsedUri) -> Features:
    """Bag-of-words over the context (URI masked) plus URI lexical features.

    Deterministic: tokens are reported in sorted order with raw counts.
    """
    parsed = parse_uri(uri)
    return Features(tuple(sorted(_sparse_counts(context, parsed).items())),
                    _fixed_features(parsed))


def _indexed(features: Features, vocabulary: dict[str, int], n_vocab: int) -> list[tuple[int, float]]:
    pairs = []
    for token, value in features.tokens:
        idx = vocabulary.get(token)
        if idx is not None:
            pairs.append((idx, value))
    for k, value in enumerate(features.fixed):
        if value:
            pairs.append((n_vocab + k, value))
    return pairs


def reference_score(model: TrainedModel, context: str, uri: str) -> float:
    """The score as featurize + _indexed give it: sorted tokens, then the
    fixed slots."""
    z = model.bias
    for idx, value in _indexed(featurize(context, uri), model.vocabulary, len(model.vocabulary)):
        z += model.weights[idx] * value
    return _sigmoid(z)


def reference_detect_ghp(uri: str, patterns: GhpPatternSet) -> Platform | None:
    """Every rule of every platform in turn; the first platform that matches."""
    host = parse_uri(uri).host
    if host is None:
        return None
    for platform, rules in patterns.rules:
        for rule in rules:
            if rule.kind == "exact":
                hit = host == rule.host
            elif rule.kind == "suffix":
                hit = host.endswith(rule.host)
            else:
                hit = host.split(".", 1)[0] == rule.host
            if hit:
                return platform
    return None


def reference_is_private_or_local(host: str) -> bool:
    """is_private_or_local with ipaddress called on every host."""
    if host == "localhost" or host.endswith(".localhost"):
        return True
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        addr = ipaddress.ip_address(host)
    except ValueError:
        return False
    addrs = [addr]
    if isinstance(addr, ipaddress.IPv6Address) and addr.ipv4_mapped is not None:
        addrs.append(addr.ipv4_mapped)
    return any(a in net for a in addrs for net in DEFAULT_POLICY.networks)


def outcome(fn, *args):
    """The value fn returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def on_bare_host(fn, host):
    """outcome of fn on host as ParsedUri.host holds it: lowercased, with
    its port split off."""
    return outcome(lambda: fn(split_port(host.lower())[0]))


# --- scorer ----------------------------------------------------------------

HOST_LABELS = ["github", "gitlab", "zenodo", "data", "code", "www", "io", "com", "org", "uk",
               "ac", "sourceforge", "net", "x"]
WORDS = ["the", "data", "code", "is", "at", "available", "software", "dataset", "download",
         "see", "our", "repository", "url", "https", "www", "github", "com", "and", "in",
         "1", "2", "a_b", "x"]
PATHS = ["", "/", "/code", "/data/set", "/Dataset/1", "/software/x.tar", "/download?x=1",
         "/u/r", "/a/b/c"]


def _shuffled_model(tokens: list[str], seed: int) -> TrainedModel:
    """A model whose vocabulary indices are not in token order, so the
    sum's order is visible in the float result."""
    rng = random.Random(seed)
    order = list(range(len(tokens)))
    rng.shuffle(order)
    vocabulary = dict(zip(tokens, order))
    weights = [rng.uniform(-1.5, 1.5) for _ in range(len(tokens) + len(FIXED_FEATURE_NAMES))]
    return TrainedModel(vocabulary=vocabulary, weights=weights, bias=rng.uniform(-1, 1),
                        threshold=0.5)


def _vocabulary_tokens() -> list[str]:
    tokens = set(WORDS) | {"_url_"}
    for a in HOST_LABELS:
        tokens.add("tld:" + a)
        for b in HOST_LABELS:
            tokens.add(f"host:{a}.{b}")
            tokens.add(f"host:www.{a}.{b}")
    return sorted(tokens)


SHUFFLED = [_shuffled_model(_vocabulary_tokens(), seed) for seed in range(3)]


@st.composite
def uris(draw):
    scheme = draw(st.sampled_from(["http", "https", "HTTPS", "ftp"]))
    labels = draw(st.lists(st.sampled_from(HOST_LABELS), min_size=1, max_size=3))
    port = draw(st.sampled_from(["", ":80", ":443", ":8080"]))
    path = draw(st.sampled_from(PATHS))
    return f"{scheme}://{'.'.join(labels)}{port}{path}"


@st.composite
def contexts(draw, uri):
    words = draw(st.lists(st.sampled_from(WORDS + [uri, uri.partition("://")[2], "GitHub.COM"]),
                          max_size=25))
    punct = draw(st.sampled_from(["", ".", " (", ")."]))
    return " ".join(words) + punct


class TestScoreText:
    @pytest.mark.parametrize("name", ["labeled_seed", "labeled_200"])
    def test_equals_reference_on_labeled_files(self, request, fixture_model, name):
        examples = request.getfixturevalue(name)
        for model in [fixture_model, *SHUFFLED]:
            for ex in examples:
                assert score_text(model, ex.context, parse_uri(ex.uri)) == reference_score(
                    model, ex.context, ex.uri), ex

    def test_host_and_tld_features_count(self):
        # The hypothesis hosts' host:/tld: features are in the vocabulary.
        tokens = set(_sparse_counts("x", parse_uri("https://github.io/u")))
        assert {"host:github.io", "tld:io"} <= tokens <= set(SHUFFLED[0].vocabulary)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_on_generated_mentions(self, data):
        uri = data.draw(uris())
        context = data.draw(contexts(uri))
        for model in SHUFFLED:
            assert score_text(model, context, parse_uri(uri)) == reference_score(
                model, context, uri)


# --- GHP -------------------------------------------------------------------

# Rules that overlap across platforms, listed out of the default order and
# with one platform twice: the first platform in the rule set must win.
OVERLAPPING = GhpPatternSet((
    (Platform.BITBUCKET, (HostRule("first-label", "code"), HostRule("suffix", ".example.org"))),
    (Platform.GITLAB, (HostRule("exact", "code.example.org"), HostRule("suffix", ".org"))),
    (Platform.GITHUB, (HostRule("suffix", ".code.example.org"), HostRule("first-label", "git"),
                       HostRule("exact", "github.com"))),
    (Platform.SOURCEFORGE, (HostRule("exact", "git.example.org"), HostRule("suffix", "."),
                            HostRule("exact", "code.site"))),
    (Platform.GITLAB, (HostRule("first-label", "lab"), HostRule("exact", ".lead"),
                       HostRule("first-label", "git"))),
))

GHP_HOST_LABELS = ["github", "gitlab", "sourceforge", "bitbucket", "code", "git", "lab",
                   "example", "com", "org", "net", "io", "www", ""]


@st.composite
def ghp_uris(draw):
    labels = draw(st.lists(st.sampled_from(GHP_HOST_LABELS), min_size=1, max_size=4))
    port = draw(st.sampled_from(["", ":8443"]))
    return f"https://{'.'.join(labels)}{port}/x"


class TestDetectGhp:
    def test_rules_compiled_once(self):
        assert DEFAULT_PATTERNS.tables is DEFAULT_PATTERNS.tables

    def test_equals_reference_on_fixture_table(self):
        for uri, _ in load_ghp_cases():
            for patterns in (DEFAULT_PATTERNS, OVERLAPPING):
                assert detect_ghp(parse_uri(uri), patterns) is reference_detect_ghp(
                    uri, patterns), uri

    @pytest.mark.parametrize("host, expected", [
        ("code.example.org", Platform.BITBUCKET),     # beats GitLab's exact rule
        ("a.code.example.org", Platform.BITBUCKET),   # beats GitHub's suffix rule
        ("git.other.org", Platform.GITLAB),           # beats GitHub's first label
        ("git.example.com", Platform.GITHUB),         # not the later GitLab "git"
        ("code.site", Platform.BITBUCKET),            # first label beats a later exact rule
        ("git.example.org", Platform.BITBUCKET),
        ("github.com", Platform.GITHUB),
        ("lab.example.net", Platform.GITLAB),         # the second GitLab entry
        ("example.net.", Platform.SOURCEFORGE),       # suffix "." on a trailing dot
        (".lead", Platform.GITLAB),                   # an exact rule with a leading dot
        ("x.lead", None),                             # ... is not a suffix rule
        ("example.net", None),
    ])
    def test_first_platform_in_rule_set_wins(self, host, expected):
        uri = f"https://{host}/x"
        assert reference_detect_ghp(uri, OVERLAPPING) is expected
        assert detect_ghp(parse_uri(uri), OVERLAPPING) is expected

    @given(ghp_uris())
    @settings(max_examples=500, deadline=None)
    def test_equals_reference_on_generated_hosts(self, uri):
        for patterns in (DEFAULT_PATTERNS, OVERLAPPING):
            assert detect_ghp(parse_uri(uri), patterns) is reference_detect_ghp(uri, patterns)


# --- IP check --------------------------------------------------------------

ARABIC_INDIC = "١٠.٠.٠.١"  # 10.0.0.1 in Arabic-Indic digits


class TestIsPrivateOrLocal:
    @pytest.mark.parametrize("host", [
        "1.2.3.4", "10.0.0.1", "010.0.0.1", "127.0.0.1:8080", "[::1]", "[::1]:80",
        "::ffff:10.0.0.1", "[::ffff:10.0.0.1]", "[::ffff:8.8.8.8]", "fe80::1%eth0",
        "[fe80::1%eth0]", "[fe80:0:0:0:0:0:0:1]", ARABIC_INDIC, ARABIC_INDIC + ":80", "localhost:8080",
        "LOCALHOST", "a.localhost", "", ".", "1.2.3", "1.2.3.4.5", "10.0.0.1.",
        "192.168.0.1/24", "0x7f.0.0.1", "[]", "[1.2.3.4]", "example.org", "1e1.0.0.1",
    ])
    def test_equals_reference(self, host):
        assert (on_bare_host(is_private_or_local, host)
                == on_bare_host(reference_is_private_or_local, host))

    def test_private_literals_still_found(self):
        for host in ("10.0.0.1", "[::1]", "[fe80::1%eth0]", "127.0.0.1:8080"):
            assert on_bare_host(is_private_or_local, host) is True

    @given(st.one_of(
        st.text(alphabet="0123456789.:[]abcdef%x١٠", max_size=20),
        st.text(max_size=12),
    ))
    @settings(max_examples=1000, deadline=None)
    def test_equals_reference_on_generated_strings(self, host):
        assert (on_bare_host(is_private_or_local, host)
                == on_bare_host(reference_is_private_or_local, host))


def test_verdict_per_reason_is_shared():
    for reason in ScopeReason:
        verdict = ScopeVerdict.from_reason(reason)
        assert verdict is ScopeVerdict.from_reason(reason)
        in_scope = reason in (ScopeReason.ACCEPTED, ScopeReason.DOI_ALLOWLISTED)
        assert verdict == ScopeVerdict(in_scope, reason)
