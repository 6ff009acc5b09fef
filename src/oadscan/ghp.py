"""Git-hosting-platform detection and the three-way mention category.

Hosts are tested against per-platform rules (exact host, dotted suffix,
or first label) in the fixed order GitHub, GitLab, SourceForge,
Bitbucket.  Matching is on whole host labels only, never raw substrings,
so ``mygithub.example.com`` is not GitHub while ``gitlab.cern.ch`` is a
GitLab instance.  A rule set is compiled once into one lookup table per
rule kind, so a host costs a lookup per dotted suffix, not a test per rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

from .classifier import Label
from .fileio import json_object, load_json
from .scope import ParsedUri, parse_uri

__all__ = [
    "Platform",
    "HostRule",
    "GhpPatternSet",
    "DEFAULT_PATTERNS",
    "Category",
    "CategoryPolicy",
    "detect_ghp",
    "categorize",
]


class Platform(Enum):
    GITHUB = "github"
    GITLAB = "gitlab"
    SOURCEFORGE = "sourceforge"
    BITBUCKET = "bitbucket"


_RULE_KINDS = ("exact", "suffix", "first-label")


@dataclass(frozen=True)
class HostRule:
    kind: str  # exact | suffix | first-label
    host: str

    def __post_init__(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "suffix" and not self.host.startswith("."):
            raise ValueError(f"suffix rule must start with '.': {self.host!r}")


# A compiled rule table: the rule's host (an exact host, a dotted suffix
# with its leading dot, or a first label) -> (the position of its
# platform in the rule set, the platform).
_RuleTable = dict[str, tuple[int, Platform]]


@dataclass(frozen=True)
class GhpPatternSet:
    rules: tuple[tuple[Platform, tuple[HostRule, ...]], ...]

    @cached_property
    def tables(self) -> dict[str, _RuleTable]:
        """The rules by kind, compiled on first use and kept.  A host
        listed by several platforms keeps the earliest one."""
        tables: dict[str, _RuleTable] = {kind: {} for kind in _RULE_KINDS}
        for order, (platform, rules) in enumerate(self.rules):
            for rule in rules:
                tables[rule.kind].setdefault(rule.host, (order, platform))
        return tables

    @classmethod
    def from_file(cls, path: str | Path) -> "GhpPatternSet":
        """Load a pattern file; it replaces the whole rule set."""
        return load_json(path, cls._from_json)

    @classmethod
    def _from_json(cls, value: object) -> "GhpPatternSet":
        """Rules from a JSON object keyed by platform name, each holding a
        list of {"kind": ..., "host": ...} rules; an absent platform has none."""
        data = json_object(value, "patterns", [p.value for p in Platform])
        rules = []
        for platform in Platform:
            entries = data.get(platform.value, [])
            if not isinstance(entries, list):
                raise ValueError(f"the {platform.value} rules must be a list")
            rules.append((platform, tuple(_host_rule(e, platform) for e in entries)))
        return cls(tuple(rules))


def _host_rule(value: object, platform: Platform) -> HostRule:
    what = f"a {platform.value} rule"
    rule = json_object(value, what, ("kind", "host"), required=("kind", "host"))
    if not isinstance(rule["kind"], str) or not isinstance(rule["host"], str):
        raise ValueError(f"{what}'s kind and host must be strings: {rule}")
    return HostRule(rule["kind"], rule["host"].lower())


# The built-in rules, written as a pattern file holds them.
DEFAULT_PATTERNS = GhpPatternSet._from_json({
    "github": [{"kind": "exact", "host": "github.com"},
               {"kind": "suffix", "host": ".github.com"},
               {"kind": "suffix", "host": ".github.io"}],
    "gitlab": [{"kind": "exact", "host": "gitlab.com"},
               {"kind": "first-label", "host": "gitlab"}],
    "sourceforge": [{"kind": "exact", "host": "sourceforge.net"},
                    {"kind": "suffix", "host": ".sourceforge.net"}],
    "bitbucket": [{"kind": "exact", "host": "bitbucket.org"},
                  {"kind": "suffix", "host": ".bitbucket.org"}],
})


def detect_ghp(parsed: ParsedUri, patterns: GhpPatternSet = DEFAULT_PATTERNS) -> Platform | None:
    """First platform whose host rules match the URI's host, if any."""
    host = parsed.host
    if host is None:
        return None
    tables = patterns.tables
    best = tables["exact"].get(host)
    hit = tables["first-label"].get(host.partition(".")[0])
    # Hits compare by platform position; one position is one platform.
    if hit is not None and (best is None or hit < best):
        best = hit
    # A suffix rule matches when it equals the host from one of its dots on.
    suffixes = tables["suffix"]
    dot = host.find(".")
    while dot != -1:
        hit = suffixes.get(host[dot:])
        if hit is not None and (best is None or hit < best):
            best = hit
        dot = host.find(".", dot + 1)
    return None if best is None else best[1]


class Category(Enum):
    GHP = "ghp"
    NON_GHP_OADS = "non_ghp_oads"
    NON_OADS = "non_oads"


class CategoryPolicy(Enum):
    # A GHP host match forces the mention into the GHP (OADS) bucket,
    # overriding a Non-OADS model verdict; the alternative trusts the
    # classifier and only counts OADS-labeled GHP matches as GHP.
    GHP_FORCES_OADS = "ghp-forces-oads"
    CLASSIFIER_DECIDES = "classifier-decides"


def categorize(
    uri: str | ParsedUri,
    label: Label,
    patterns: GhpPatternSet = DEFAULT_PATTERNS,
    policy: CategoryPolicy = CategoryPolicy.GHP_FORCES_OADS,
) -> Category:
    """Bucket an in-scope classified mention as GHP / non-GHP OADS / non-OADS."""
    platform = detect_ghp(parse_uri(uri), patterns)
    if platform is not None:
        if policy is CategoryPolicy.GHP_FORCES_OADS or label is Label.OADS:
            return Category.GHP
    if label is Label.OADS:
        return Category.NON_GHP_OADS
    return Category.NON_OADS
