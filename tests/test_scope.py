import json
import random
from collections import Counter
from pathlib import Path

import pytest

from oadscan.classifier import _sparse_counts, classify_heuristic
from oadscan.ghp import detect_ghp
from oadscan.scope import (
    DEFAULT_POLICY,
    ScopePolicy,
    ScopeReason,
    ScopeVerdict,
    host_of,
    is_in_scope,
    is_private_or_local,
    parse_uri,
    split_port,
)

SCOPE_CASES = Path(__file__).parent / "data" / "scope_cases.tsv"
URI_CASES = Path(__file__).parent / "data" / "uri_cases.tsv"


def load_scope_cases():
    cases = []
    for line in SCOPE_CASES.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        uri, reason, in_scope = line.split("\t")
        cases.append((uri, ScopeReason(reason), in_scope == "true"))
    return cases


class TestHostOf:
    def test_lowercases(self):
        assert host_of("https://CDS.CERN.CH/record/1") == "cds.cern.ch"

    def test_www_preserved(self):
        assert host_of("http://www.nature.org/x") == "www.nature.org"

    def test_default_port_stripped(self):
        assert host_of("http://192.168.1.5:80/data") == "192.168.1.5"
        assert host_of("https://example.org:443/x") == "example.org"

    def test_non_default_port_kept(self):
        assert host_of("http://example.org:8080/x") == "example.org:8080"

    def test_ip_literal_verbatim(self):
        assert host_of("http://[::1]/status") == "[::1]"
        assert host_of("http://[FE80::1]:9000/x") == "[fe80::1]:9000"

    def test_userinfo_stripped(self):
        assert host_of("ftp://user:pw@mirror.example.org/pub") == "mirror.example.org"

    def test_no_host_is_an_error(self):
        for uri in ("mailto:x@y.org", "http:///path", "file:///etc/passwd"):
            with pytest.raises(ValueError):
                host_of(uri)

    def test_split_port(self):
        assert split_port("example.org:8080") == ("example.org", "8080")
        assert split_port("example.org") == ("example.org", None)
        assert split_port("[::1]:443") == ("[::1]", "443")
        assert split_port("[::1]") == ("[::1]", None)
        assert split_port("example.org:") == ("example.org", None)
        assert split_port("[::1]:") == ("[::1]", None)
        for host in ("example.org:abc", "[::1]x", "[::1]:8x", "example.org:8080:9090",
                     "localhost:1:80", "a:b:", "::1"):
            with pytest.raises(ValueError):
                split_port(host)


def _host_features(counts):
    """The host:/tld: feature names, prefix dropped; '-' when absent."""
    tokens = list(counts)
    host = [t[len("host:"):] for t in tokens if t.startswith("host:")]
    tld = [t[len("tld:"):] for t in tokens if t.startswith("tld:")]
    return (host or ["-"])[0], (tld or ["-"])[0]


class TestParseUri:
    def test_edge_case_table(self):
        rows = [line.split("\t") for line in URI_CASES.read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]
        assert len(rows) >= 11
        for uri, host, reason, platform, provenance, host_feature, tld_feature in rows:
            parsed = parse_uri(uri)
            assert parse_uri(parsed) is parsed
            if host == "ValueError":
                with pytest.raises(ValueError):
                    host_of(uri)
                assert parsed.hostname is None and parsed.host is None, uri
            else:
                assert host_of(uri) == parsed.hostname == host, uri
            for form in (uri, parsed):
                assert is_in_scope(form).reason.value == reason, uri
            got = detect_ghp(parsed)
            assert (got.value if got else "-") == platform, uri
            assert _host_features(_sparse_counts("", parsed)) == (host_feature, tld_feature), uri
            verdict = classify_heuristic(parsed)
            assert (verdict.provenance.value if verdict else "-") == provenance, uri

    def test_fields(self):
        parsed = parse_uri("HTTPS://User:pw@GitHub.COM:8443/A/b?q=1#f")
        assert parsed.uri == "HTTPS://User:pw@GitHub.COM:8443/A/b?q=1#f"
        assert parsed.scheme == "https"
        assert (parsed.host, parsed.port, parsed.hostname) == ("github.com", "8443", "github.com:8443")
        assert parsed.path == "/A/b"

    def test_in_domains_matches_label_suffixes_only(self):
        domains = frozenset({"springer.com", "doi.org"})
        assert parse_uri("https://springer.com/x").in_domains(domains)
        assert parse_uri("https://link.springer.com:8080/x").in_domains(domains)
        assert not parse_uri("https://notspringer.com/x").in_domains(domains)
        assert not parse_uri("https://springer.com.evil.org/x").in_domains(domains)
        assert not parse_uri("mailto:x@doi.org").in_domains(domains)


class TestIsPrivateOrLocal:
    def test_networks_parsed_once_per_policy(self):
        policy = ScopePolicy(private_ranges=("10.0.0.0/8",))
        assert policy.networks is policy.networks
        assert is_private_or_local("10.1.2.3", policy)
        assert not is_private_or_local("192.168.0.1", policy)

    @pytest.mark.parametrize(
        "host",
        ["localhost", "demo.localhost", "127.0.0.1", "127.8.8.8", "10.0.0.7",
         "172.16.0.1", "172.31.255.254", "192.168.44.2", "169.254.0.9",
         "[::1]", "[fe80::1]", "[fc00::2]", "localhost:8080", "10.0.0.7:9999"],
    )
    def test_private(self, host):
        assert is_private_or_local(split_port(host.lower())[0])

    @pytest.mark.parametrize(
        "host",
        ["cds.cern.ch", "8.8.8.8", "172.32.0.1", "192.169.0.1", "[2001:db8::1]",
         "example.org", "mylocalhost.example.org"],
    )
    def test_public(self, host):
        assert not is_private_or_local(host)


class TestIsInScope:
    @pytest.mark.parametrize(
        "uri,reason",
        [
            ("ftp://mirror.example.org/data", ScopeReason.SCHEME_EXCLUDED),
            ("http://localhost:8080/demo", ScopeReason.LOCAL_OR_PRIVATE_HOST),
            ("https://arxiv.org/abs/1234.5678", ScopeReason.PUBLICATION_LINK),
            ("https://doi.org/10.5281/zenodo.4242", ScopeReason.DOI_ALLOWLISTED),
            ("https://doi.org/10.1016/j.example.2020.01.001", ScopeReason.DOI_EXCLUDED),
        ],
    )
    def test_rule_examples(self, uri, reason):
        verdict = is_in_scope(uri)
        assert verdict.reason is reason
        assert verdict.in_scope == (reason in (ScopeReason.ACCEPTED, ScopeReason.DOI_ALLOWLISTED))

    def test_decision_table(self):
        cases = load_scope_cases()
        assert len(cases) >= 30
        for uri, reason, in_scope in cases:
            verdict = is_in_scope(uri)
            assert verdict.reason is reason, uri
            assert verdict.in_scope is in_scope, uri

    def test_decision_table_covers_every_reason(self):
        covered = {reason for _, reason, _ in load_scope_cases()}
        assert covered == set(ScopeReason)

    def test_unparseable_is_scheme_excluded(self):
        for uri in ("", ":", "http://", "%%%", "http://[badv6/x"):
            verdict = is_in_scope(uri)
            assert not verdict.in_scope
            assert verdict.reason is ScopeReason.SCHEME_EXCLUDED

    def test_totality_and_partition(self):
        uris = [uri for uri, _, _ in load_scope_cases()]
        counts = Counter(is_in_scope(u).reason for u in uris)
        assert sum(counts.values()) == len(uris)

    def test_verdict_invariant(self):
        for reason in ScopeReason:
            verdict = ScopeVerdict.from_reason(reason)
            assert verdict.in_scope == (
                reason in (ScopeReason.ACCEPTED, ScopeReason.DOI_ALLOWLISTED)
            )

    def test_policy_set_order_never_changes_verdicts(self):
        uris = [uri for uri, _, _ in load_scope_cases()]
        baseline = [is_in_scope(u, DEFAULT_POLICY) for u in uris]
        rng = random.Random(7)
        for _ in range(5):
            hosts = list(DEFAULT_POLICY.publication_hosts)
            prefixes = list(DEFAULT_POLICY.doi_allow_prefixes)
            rng.shuffle(hosts)
            rng.shuffle(prefixes)
            shuffled = ScopePolicy(
                publication_hosts=frozenset(hosts),
                doi_allow_prefixes=frozenset(prefixes),
            )
            assert [is_in_scope(u, shuffled) for u in uris] == baseline

    def test_doi_allowlist_soundness(self):
        for uri, _, _ in load_scope_cases():
            verdict = is_in_scope(uri)
            if verdict.reason is ScopeReason.DOI_ALLOWLISTED:
                path = uri.split("doi.org/", 1)[1]
                assert any(path.startswith(p + "/") for p in DEFAULT_POLICY.doi_allow_prefixes)

    def test_subdomain_of_publication_host(self):
        assert is_in_scope("https://export.arxiv.org/abs/1").reason is ScopeReason.PUBLICATION_LINK
        # Similar names that are not subdomains stay in scope.
        assert is_in_scope("https://notarxiv.org/abs/1").reason is ScopeReason.ACCEPTED


class TestPolicyFile:
    def test_from_file_overrides_and_defaults(self, tmp_path):
        config = {
            "publication_hosts": ["arxiv.org", "biorxiv.org"],
            "doi_allow_prefixes": ["10.5281"],
        }
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        policy = ScopePolicy.from_file(path)
        assert policy.publication_hosts == frozenset({"arxiv.org", "biorxiv.org"})
        assert policy.doi_allow_prefixes == frozenset({"10.5281"})
        # untouched keys keep defaults
        assert policy.allowed_schemes == DEFAULT_POLICY.allowed_schemes
        assert policy.private_ranges == DEFAULT_POLICY.private_ranges
        assert is_in_scope("https://www.biorxiv.org/content/x", policy).reason is ScopeReason.PUBLICATION_LINK
        assert is_in_scope("https://doi.org/10.6084/m9", policy).reason is ScopeReason.DOI_EXCLUDED
