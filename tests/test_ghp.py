import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oadscan.classifier import Label
from oadscan.ghp import (
    Category,
    CategoryPolicy,
    DEFAULT_PATTERNS,
    GhpPatternSet,
    HostRule,
    Platform,
    categorize,
    detect_ghp,
)
from oadscan.scope import parse_uri

GHP_CASES = Path(__file__).parent / "data" / "ghp_cases.tsv"


def load_ghp_cases():
    cases = []
    for line in GHP_CASES.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        uri, platform = line.split("\t")
        cases.append((uri, None if platform == "-" else Platform(platform)))
    return cases


class TestDetectGhp:
    def test_github_repo_path(self):
        uri = "https://github.com/elescamilla/Extract-URLs/blob/main/extract.py"
        assert detect_ghp(parse_uri(uri)) is Platform.GITHUB

    def test_self_hosted_gitlab_first_label(self):
        assert detect_ghp(parse_uri("https://gitlab.cern.ch/group/proj")) is Platform.GITLAB

    def test_embedded_name_is_not_a_label_match(self):
        assert detect_ghp(parse_uri("https://mygithub.example.com/x")) is None

    def test_sourceforge(self):
        assert detect_ghp(parse_uri("https://sourceforge.net/projects/foo")) is Platform.SOURCEFORGE

    def test_fixture_table(self):
        cases = load_ghp_cases()
        assert len(cases) >= 20
        assert sum(1 for _, p in cases if p is None) >= 5
        for uri, expected in cases:
            assert detect_ghp(parse_uri(uri)) is expected, uri

    def test_fixture_platforms_disjoint(self):
        # On the fixture set, at most one platform's rules match any host.
        for uri, _ in load_ghp_cases():
            matched = [
                platform
                for platform, rules in DEFAULT_PATTERNS.rules
                for rule in rules
                if detect_ghp(parse_uri(uri), GhpPatternSet(((platform, (rule,)),))) is platform
            ]
            assert len(set(matched)) <= 1, uri

    def test_unparseable_uri_matches_nothing(self):
        assert detect_ghp(parse_uri("not a uri")) is None
        assert detect_ghp(parse_uri("mailto:me@github.com")) is None

    def test_port_does_not_break_label_match(self):
        assert detect_ghp(parse_uri("https://github.com:8443/u/r")) is Platform.GITHUB

    def test_default_rules(self):
        assert DEFAULT_PATTERNS.rules == (
            (Platform.GITHUB, (HostRule("exact", "github.com"), HostRule("suffix", ".github.com"),
                               HostRule("suffix", ".github.io"))),
            (Platform.GITLAB, (HostRule("exact", "gitlab.com"),
                               HostRule("first-label", "gitlab"))),
            (Platform.SOURCEFORGE, (HostRule("exact", "sourceforge.net"),
                                    HostRule("suffix", ".sourceforge.net"))),
            (Platform.BITBUCKET, (HostRule("exact", "bitbucket.org"),
                                  HostRule("suffix", ".bitbucket.org"))),
        )

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            HostRule("suffix", "github.com")  # suffix must start with a dot
        with pytest.raises(ValueError):
            HostRule("glob", "*.github.com")

    def test_pattern_file_roundtrip(self, tmp_path):
        path = tmp_path / "patterns.json"
        path.write_text(
            '{"github": [{"kind": "exact", "host": "github.com"}],'
            ' "gitlab": [], "sourceforge": [], "bitbucket": []}'
        )
        patterns = GhpPatternSet.from_file(path)
        assert detect_ghp(parse_uri("https://github.com/a/b"), patterns) is Platform.GITHUB
        assert detect_ghp(parse_uri("https://gitlab.com/a/b"), patterns) is None


HOST_LABEL_ALPHABET = st.sampled_from(["alpha", "beta", "data", "lab", "web", "mirror"])


@st.composite
def non_platform_hosts(draw):
    labels = draw(st.lists(HOST_LABEL_ALPHABET, min_size=1, max_size=4))
    return ".".join(labels) + ".example"


class TestHostLabelSafety:
    @given(non_platform_hosts())
    @settings(max_examples=200)
    def test_no_platform_label_means_no_match(self, host):
        assert detect_ghp(parse_uri(f"https://{host}/path")) is None


class TestCategorize:
    def test_ghp_forced_for_nonoads_verdict(self):
        assert categorize("https://github.com/u/r", Label.NON_OADS) is Category.GHP

    def test_non_ghp_oads(self):
        assert categorize("http://ibm.biz/x", Label.OADS) is Category.NON_GHP_OADS

    def test_non_oads_passthrough(self):
        assert categorize("https://youtu.be/x", Label.NON_OADS) is Category.NON_OADS

    def test_classifier_decides_policy(self):
        uri = "https://github.com/u/r"
        assert categorize(uri, Label.NON_OADS, policy=CategoryPolicy.CLASSIFIER_DECIDES) is Category.NON_OADS
        assert categorize(uri, Label.OADS, policy=CategoryPolicy.CLASSIFIER_DECIDES) is Category.GHP

    def _random_mentions(self, rng, n):
        hosts = [
            "github.com", "gitlab.com", "bitbucket.org", "sourceforge.net",
            "zenodo.org", "example.org", "youtu.be", "cds.cern.ch",
        ]
        return [
            (f"https://{rng.choice(hosts)}/item{i}", rng.choice([Label.OADS, Label.NON_OADS]))
            for i in range(n)
        ]

    def test_partition_on_random_inputs(self):
        rng = random.Random(99)
        for _ in range(50):
            mentions = self._random_mentions(rng, rng.randint(1, 60))
            for policy in CategoryPolicy:
                counts = Counter(categorize(u, l, policy=policy) for u, l in mentions)
                assert sum(counts.values()) == len(mentions)

    def test_policy_relationship(self):
        # classifier-decides GHP set is a subset of ghp-forces-oads GHP set.
        rng = random.Random(5)
        mentions = self._random_mentions(rng, 300)
        forced = {
            (u, l) for u, l in mentions if categorize(u, l) is Category.GHP
        }
        decided = {
            (u, l)
            for u, l in mentions
            if categorize(u, l, policy=CategoryPolicy.CLASSIFIER_DECIDES) is Category.GHP
        }
        assert decided <= forced
        assert decided == {(u, l) for u, l in forced if l is Label.OADS}
        # under the default policy, GHP category equals the regex match set
        assert forced == {(u, l) for u, l in mentions if detect_ghp(parse_uri(u)) is not None}
