"""Git-hosting-platform detection and the three-way mention category.

Hosts are tested against per-platform rules (exact host, dotted suffix,
or first label) in the fixed order GitHub, GitLab, SourceForge,
Bitbucket.  Matching is on whole host labels only, never raw substrings,
so ``mygithub.example.com`` is not GitHub while ``gitlab.cern.ch`` is a
GitLab instance.  A rule set is compiled once into one lookup table per
rule kind, so a host costs a lookup per dotted suffix, not a test per rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

from .classifier import Label
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


_PLATFORM_ORDER = (Platform.GITHUB, Platform.GITLAB, Platform.SOURCEFORGE, Platform.BITBUCKET)

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
    def default(cls) -> "GhpPatternSet":
        return cls(
            (
                (
                    Platform.GITHUB,
                    (
                        HostRule("exact", "github.com"),
                        HostRule("suffix", ".github.com"),
                        HostRule("suffix", ".github.io"),
                    ),
                ),
                (
                    Platform.GITLAB,
                    (
                        HostRule("exact", "gitlab.com"),
                        HostRule("first-label", "gitlab"),
                    ),
                ),
                (
                    Platform.SOURCEFORGE,
                    (
                        HostRule("exact", "sourceforge.net"),
                        HostRule("suffix", ".sourceforge.net"),
                    ),
                ),
                (
                    Platform.BITBUCKET,
                    (
                        HostRule("exact", "bitbucket.org"),
                        HostRule("suffix", ".bitbucket.org"),
                    ),
                ),
            )
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "GhpPatternSet":
        """Load per-platform rule lists from JSON keyed by platform name."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        rules = []
        for platform in _PLATFORM_ORDER:
            entries = data.get(platform.value, [])
            rules.append(
                (
                    platform,
                    tuple(HostRule(e["kind"], str(e["host"]).lower()) for e in entries),
                )
            )
        return cls(tuple(rules))


DEFAULT_PATTERNS = GhpPatternSet.default()


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
