"""Scope filtering: which classified URIs count toward the analytics.

URIs are excluded for a non-HTTP(S) scheme, a localhost/private-range
host, a publication-pointing host (arXiv, Elsevier RefHub, Crossmark), or
a DOI outside the data-repository allowlist.  Rules apply in that fixed
order and the first match decides.

This module also owns the URI parse: ``parse_uri`` splits a URI once into
a ``ParsedUri``, and the scope, GHP, classifier and report code all read
its fields instead of splitting the string again.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from pathlib import Path
from urllib.parse import urlsplit

from .fileio import json_object, load_json, string_list

__all__ = [
    "ScopeReason",
    "ScopeVerdict",
    "ScopePolicy",
    "DEFAULT_POLICY",
    "ParsedUri",
    "parse_uri",
    "host_of",
    "split_port",
    "is_in_scope",
    "is_private_or_local",
]


class ScopeReason(Enum):
    SCHEME_EXCLUDED = "scheme_excluded"
    LOCAL_OR_PRIVATE_HOST = "local_or_private_host"
    PUBLICATION_LINK = "publication_link"
    DOI_EXCLUDED = "doi_excluded"
    DOI_ALLOWLISTED = "doi_allowlisted"
    ACCEPTED = "accepted"


_IN_SCOPE_REASONS = frozenset({ScopeReason.ACCEPTED, ScopeReason.DOI_ALLOWLISTED})


@dataclass(frozen=True)
class ScopeVerdict:
    in_scope: bool
    reason: ScopeReason

    @classmethod
    def from_reason(cls, reason: ScopeReason) -> "ScopeVerdict":
        """The one shared verdict for ``reason``."""
        return _VERDICTS[reason]


_VERDICTS = {r: ScopeVerdict(r in _IN_SCOPE_REASONS, r) for r in ScopeReason}


# Default ports per scheme; a host carrying its scheme's default port is
# reported without the port, any other port is kept.
_DEFAULT_PORTS = {"http": "80", "https": "443", "ftp": "21", "ws": "80", "wss": "443"}

_DEFAULT_PRIVATE_RANGES = (
    "127.0.0.0/8",      # loopback
    "169.254.0.0/16",   # link-local
    "10.0.0.0/8",       # private blocks
    "172.16.0.0/12",
    "192.168.0.0/16",
    "::1/128",
    "fe80::/10",
    "fc00::/7",
)


@dataclass(frozen=True)
class ScopePolicy:
    """Immutable filter configuration with paper-faithful defaults."""

    allowed_schemes: frozenset[str] = frozenset({"http", "https"})
    publication_hosts: frozenset[str] = frozenset(
        {"arxiv.org", "refhub.elsevier.com", "crossmark.crossref.org"}
    )
    doi_hosts: frozenset[str] = frozenset({"doi.org", "dx.doi.org"})
    # DOI registrant prefixes resolved offline: Zenodo, Dryad, figshare, OSF.
    doi_allow_prefixes: frozenset[str] = frozenset(
        {"10.5281", "10.5061", "10.6084", "10.17605"}
    )
    private_ranges: tuple[str, ...] = _DEFAULT_PRIVATE_RANGES

    @cached_property
    def networks(self) -> tuple[ipaddress.IPv4Network | ipaddress.IPv6Network, ...]:
        """The private ranges, parsed on first use and kept."""
        return tuple(ipaddress.ip_network(r) for r in self.private_ranges)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScopePolicy":
        """Load a policy JSON file: an object whose keys are this class's
        fields, each a list of strings; absent keys keep their defaults."""
        return load_json(path, cls._from_json)

    @classmethod
    def _from_json(cls, value: object) -> "ScopePolicy":
        kwargs = {}
        for key, items in json_object(value, "policy", [f.name for f in fields(cls)]).items():
            items = string_list(items, key)
            kwargs[key] = (tuple(items) if key == "private_ranges"
                           else frozenset(v.lower() for v in items))
        policy = cls(**kwargs)
        policy.networks  # a range that is not an IP network fails here, not mid-run
        return policy


DEFAULT_POLICY = ScopePolicy()


def split_port(host: str) -> tuple[str, str | None]:
    """Split an optional trailing port off a host string.

    Bracketed IPv6 literals keep their brackets: ``[::1]:8080`` splits into
    (``[::1]``, ``8080``).  An empty port (``example.org:``) counts as no
    port.  A port that is not all digits, text after ``]`` that is not a
    port, or a second colon in a host without brackets raises ValueError.
    """
    if host.startswith("["):
        end = host.find("]") + 1
        if not end:
            return host, None
        head, rest = host[:end], host[end:]
        if rest and rest[0] != ":":
            raise ValueError(f"text after IPv6 literal: {host!r}")
        tail = rest[1:]
    else:
        head, sep, tail = host.rpartition(":")
        if not sep:
            return host, None
        if ":" in head:
            raise ValueError(f"colon inside host: {host!r}")
    if tail and not tail.isdigit():
        raise ValueError(f"port is not a number: {host!r}")
    return head, tail or None


@dataclass(frozen=True)
class ParsedUri:
    """A URI split once, with every field the scope, GHP, classifier and
    report rules read.

    ``hostname`` is the report form: lowercased, userinfo stripped, the
    scheme's default port dropped and any other port kept as
    ``host:port``; ``host`` is ``hostname`` with its port split off.  Both
    are None when the URI has no host or does not parse, and a URI that
    does not parse has an empty scheme and path.  ``port`` is the port as
    written, default or not.
    """

    uri: str
    scheme: str
    host: str | None
    port: str | None
    path: str
    hostname: str | None

    def in_domains(self, domains: frozenset[str]) -> bool:
        """True when the host is one of ``domains`` or a subdomain of one
        (matched on label boundaries)."""
        host = self.host
        if host is None:
            return False
        while host not in domains:
            dot = host.find(".")
            if dot == -1:
                return False
            host = host[dot + 1 :]
        return True


def parse_uri(uri: str | ParsedUri) -> ParsedUri:
    """Parse a URI string; an already-parsed value is returned unchanged."""
    if isinstance(uri, ParsedUri):
        return uri
    try:
        parts = urlsplit(uri)
        scheme = parts.scheme.lower()
        # Strip userinfo; the rightmost @ separates it from the host.
        host, port = split_port(parts.netloc.rpartition("@")[2].lower())
        if port is not None and port != _DEFAULT_PORTS.get(scheme):
            hostname = f"{host}:{port}"
        else:
            hostname = host
    except ValueError:
        return ParsedUri(uri, "", None, None, "", None)
    if not host:
        return ParsedUri(uri, scheme, None, port, parts.path, None)
    return ParsedUri(uri, scheme, host, port, parts.path, hostname)


def host_of(uri: str) -> str:
    """Extract the lowercased host from a URI.

    The scheme's default port is stripped, other ports are kept as
    ``host:port``.  A leading ``www.`` is preserved and IP-literal hosts
    are returned verbatim (lowercased).
    """
    hostname = parse_uri(uri).hostname
    if hostname is None:
        raise ValueError(f"URI has no host: {uri!r}")
    return hostname


_IPV4_CHARS = "0123456789."


def is_private_or_local(host: str, policy: ScopePolicy = DEFAULT_POLICY) -> bool:
    """True for localhost, loopback, link-local, and private-range hosts.
    ``host`` is a ``ParsedUri.host``: lowercased, its port split off."""
    if host == "localhost" or host.endswith(".localhost"):
        return True
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    # An IPv6 address holds a colon and an IPv4 address only ASCII digits
    # and dots; any other string cannot parse as either, so skip the parse.
    if ":" not in host and host.strip(_IPV4_CHARS):
        return False
    try:
        addr = ipaddress.ip_address(host)
    except ValueError:
        return False
    # An IPv4-mapped IPv6 address (::ffff:10.0.0.1) reaches the IPv4 host.
    mapped = addr.version == 6 and addr.ipv4_mapped
    return any(addr in net or (mapped and mapped in net) for net in policy.networks)


def is_in_scope(uri: str | ParsedUri, policy: ScopePolicy = DEFAULT_POLICY) -> ScopeVerdict:
    """Apply the scope rules in fixed order and return the first verdict.

    Never raises: anything unparseable is excluded under the scheme rule.
    """
    parsed = parse_uri(uri)
    if parsed.scheme not in policy.allowed_schemes or parsed.host is None:
        return ScopeVerdict.from_reason(ScopeReason.SCHEME_EXCLUDED)
    if is_private_or_local(parsed.host, policy):
        return ScopeVerdict.from_reason(ScopeReason.LOCAL_OR_PRIVATE_HOST)
    if parsed.in_domains(policy.publication_hosts):
        return ScopeVerdict.from_reason(ScopeReason.PUBLICATION_LINK)
    if parsed.in_domains(policy.doi_hosts):
        # The DOI registrant prefix is the first non-empty path segment.
        prefix = next((s for s in parsed.path.split("/") if s), "")
        if prefix in policy.doi_allow_prefixes:
            return ScopeVerdict.from_reason(ScopeReason.DOI_ALLOWLISTED)
        return ScopeVerdict.from_reason(ScopeReason.DOI_EXCLUDED)
    return ScopeVerdict.from_reason(ScopeReason.ACCEPTED)
