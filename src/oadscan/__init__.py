"""oadscan: mine scholarly article text for open-access data/software links.

The pipeline ingests a corpus of plain-text articles, extracts URI
mentions with their context sentences, classifies each mention as
open-access data/software (OADS) or not with a hybrid rule+model
classifier, filters out-of-scope URIs, tags Git-hosting-platform links,
and aggregates monthly and hostname statistics into CSV reports.
"""

__version__ = "0.1.0"

from .classifier import Classification, Label, LabeledExample, TrainedModel
from .corpus import Document, DocumentId, MonthWindow
from .extraction import UriMention
from .ghp import Category, CategoryPolicy, Platform
from .scope import ScopePolicy, ScopeReason, ScopeVerdict

__all__ = [
    "__version__",
    "Category",
    "CategoryPolicy",
    "Classification",
    "Document",
    "DocumentId",
    "Label",
    "LabeledExample",
    "MonthWindow",
    "Platform",
    "ScopePolicy",
    "ScopeReason",
    "ScopeVerdict",
    "TrainedModel",
    "UriMention",
]
