"""oadscan: mine scholarly article text for open-access data/software links.

The pipeline ingests a corpus of plain-text articles, extracts URI
mentions with their context sentences, classifies each mention as
open-access data/software (OADS) or not with a hybrid rule+model
classifier, filters out-of-scope URIs, tags Git-hosting-platform links,
and aggregates monthly and hostname statistics into CSV reports.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["__version__", "Category", "CategoryPolicy", "Classification", "Document",
           "DocumentId", "Label", "LabeledExample", "MonthWindow", "Platform", "ScopePolicy",
           "ScopeReason", "TrainedModel"]

_SUBMODULES = {"analytics", "classifier", "cli", "corpus", "extraction", "fileio", "ghp",
               "scope", "shards"}
_HOMES = {"Category": "ghp", "CategoryPolicy": "ghp", "Classification": "classifier",
          "Document": "corpus", "DocumentId": "corpus", "Label": "classifier",
          "LabeledExample": "classifier", "MonthWindow": "corpus", "Platform": "ghp",
          "ScopePolicy": "scope", "ScopeReason": "scope", "TrainedModel": "classifier"}


# Submodules and re-exported names load on first use, so a command loads only what it runs.
def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
