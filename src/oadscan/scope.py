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
import re
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

from .fileio import json_object, load_json, string_list

__all__ = [
    "ScopeReason",
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
    __hash__ = object.__hash__  # equality is identity; skip Enum's Python-level hash

    SCHEME_EXCLUDED = "scheme_excluded"
    LOCAL_OR_PRIVATE_HOST = "local_or_private_host"
    PUBLICATION_LINK = "publication_link"
    DOI_EXCLUDED = "doi_excluded"
    DOI_ALLOWLISTED = "doi_allowlisted"
    ACCEPTED = "accepted"

    @property
    def in_scope(self) -> bool:
        """True when a mention with this reason counts toward the analytics."""
        return self is ScopeReason.ACCEPTED or self is ScopeReason.DOI_ALLOWLISTED


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


class _ScopePolicy(NamedTuple):
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


class ScopePolicy(_ScopePolicy):
    """Immutable filter configuration with paper-faithful defaults.  Not
    slotted, so that ``networks`` has a ``__dict__`` to be kept in."""

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
        for key, items in json_object(value, "policy", cls._fields).items():
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


class ParsedUri(NamedTuple):
    """A URI split once, with every field the scope, GHP, classifier and
    report rules read.

    ``hostname`` is the report form: lowercased, userinfo stripped, the
    scheme's default port dropped and any other port kept as
    ``host:port``; ``host`` is ``hostname`` with its port split off.  Both
    are None when the URI has no host or does not parse, and a URI that
    does not parse has an empty scheme and path.  ``suffixes`` is the host,
    then the host from after each dot (``a.b.org``, ``b.org``, ``org``)
    up to 253 characters long, the longest DNS name: a host with many dots
    costs linear time and memory, and a longer domain or rule matches only
    a host equal to it.
    """

    uri: str
    scheme: str
    host: str | None
    path: str
    hostname: str | None
    suffixes: tuple[str, ...]

    def in_domains(self, domains: frozenset[str]) -> bool:
        """True when the host is one of ``domains`` or a subdomain of one (on
        label boundaries; a domain over 253 characters only as the host)."""
        return not domains.isdisjoint(self.suffixes)

    @property
    def after_dots(self) -> tuple[str, ...]:
        """The listed suffixes from after the host's dots, without the host."""
        return self.suffixes[1:]

    @property
    def tld(self) -> str | None:
        """The host's last label; None without a dot or after a final dot."""
        _, dot, label = (self.host or "").rpartition(".")
        return label if dot and label else None


# A plain URI: scheme://host[:port][/path][?query or #fragment], with no
# space, no userinfo or IPv6 brackets in the authority, and a port of
# digits only.  urlsplit splits such a URI (when it is also ASCII and
# printable) at the first "/", "?" and "#" after the authority, and
# split_port splits its netloc at the colon, as this pattern's groups do.
# A netloc it rejects for a second colon or a port that is not digits
# makes split_port raise on the urlsplit path.
_PLAIN_URI = re.compile(
    r"([A-Za-z][A-Za-z0-9+.-]*)://([^/?#@\[\] :]*)(?::([0-9]*))?(/[^?# ]*)?(?:[?#][^ ]*)?")

# The text after each dot, to the end of the host.
_AFTER_DOTS = re.compile(r"\.(?=(.*))", re.DOTALL).findall
# The longest suffix listed, that of a DNS name; each starts after a dot
# in the host's last 254 characters.
_MAX_SUFFIX = 253
# A NamedTuple built from a tuple of its fields, without the Python-level
# __new__ call that checks their number.
_new = tuple.__new__


def _split(uri: str) -> tuple[str, str, str | None, str]:
    """(scheme, host, port, path) of a URI: the scheme and host lowercased,
    the host without userinfo, and the port None when absent or empty.

    A plain URI is split by one regex match; every other URI goes through
    ``urlsplit`` and ``split_port``, whose ValueError propagates.
    """
    if uri.isascii() and uri.isprintable():
        m = _PLAIN_URI.fullmatch(uri)
        if m is not None:
            scheme, host, port, path = m.groups()
            return scheme.lower(), host.lower(), port or None, path or ""
    parts = urlsplit(uri)
    # Strip userinfo; the rightmost @ separates it from the host.
    host, port = split_port(parts.netloc.rpartition("@")[2].lower())
    return parts.scheme.lower(), host, port, parts.path


def parse_uri(uri: str | ParsedUri) -> ParsedUri:
    """Parse a URI string; an already-parsed value is returned unchanged."""
    if isinstance(uri, ParsedUri):
        return uri
    try:
        scheme, host, port, path = _split(uri)
    except ValueError:
        return ParsedUri(uri, "", None, "", None, ())
    if not host:
        return ParsedUri(uri, scheme, None, path, None, ())
    hostname = host if port is None or port == _DEFAULT_PORTS.get(scheme) else f"{host}:{port}"
    suffixes = (host, *_AFTER_DOTS(host[-_MAX_SUFFIX - 1 :]))
    return _new(ParsedUri, (uri, scheme, host, path, hostname, suffixes))


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


def is_in_scope(uri: str | ParsedUri, policy: ScopePolicy = DEFAULT_POLICY) -> ScopeReason:
    """Apply the scope rules in fixed order and return the first match's
    reason; ``ACCEPTED`` when none matches.

    Never raises: anything unparseable is excluded under the scheme rule.
    """
    parsed = parse_uri(uri)
    if parsed.scheme not in policy.allowed_schemes or parsed.host is None:
        return ScopeReason.SCHEME_EXCLUDED
    if is_private_or_local(parsed.host, policy):
        return ScopeReason.LOCAL_OR_PRIVATE_HOST
    if parsed.in_domains(policy.publication_hosts):
        return ScopeReason.PUBLICATION_LINK
    if parsed.in_domains(policy.doi_hosts):
        # The DOI registrant prefix is the first non-empty path segment.
        prefix = next((s for s in parsed.path.split("/") if s), "")
        if prefix in policy.doi_allow_prefixes:
            return ScopeReason.DOI_ALLOWLISTED
        return ScopeReason.DOI_EXCLUDED
    return ScopeReason.ACCEPTED
