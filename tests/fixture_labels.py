"""Deterministic generator for the synthetic labeled fixture set.

200 sentences (100 per label) built from templates that mimic how
scholarly text introduces resource links.  The committed file
tests/data/labeled_200.tsv is the frozen output of generate_examples();
test_fixture_files checks it has not drifted.  Regenerate with:

    python3 tests/fixture_labels.py
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Iterable

from oadscan.classifier import Label, LabeledExample

OADS_TEMPLATES = [
    "The dataset is available at {u}.",
    "Our source code is available at {u}.",
    "We release the full implementation of our method at {u}.",
    "All data and analysis scripts can be downloaded from {u}.",
    "The software package is hosted at {u}.",
    "Trained models and preprocessing code are published at {u}.",
    "The benchmark corpus can be obtained from {u}.",
    "An open source implementation is provided at {u}.",
    "Replication materials are archived at {u}.",
    "The annotated corpus is distributed through {u}.",
    "The codebase we adapted was developed by {name} and is maintained at {u}",
    "We deposited the raw measurement data at {u}.",
    "Code and materials for the experiments are openly available at {u}.",
    "Scripts for reproducing all figures are released at {u}.",
    "The simulation software described here can be downloaded at {u}.",
    "A snapshot of the repository is archived at {u}.",
    "The data described in this paper are available at {u}.",
]

NON_OADS_TEMPLATES = [
    "This article is published in the journal at {u}.",
    "A video demonstration can be seen at {u}.",
    "The full paper is available from {u}.",
    "Their contributions are individually acknowledged at {u}.",
    "More information about the conference can be found at {u}.",
    "A press release describing the project appeared at {u}.",
    "The author's homepage is located at {u}.",
    "Further reading on this topic is available at {u}.",
    "The recorded talk can be watched at {u}.",
    "Details of the workshop are announced at {u}.",
    "The publisher's version of record is accessible at {u}.",
    "We thank the volunteers listed at {u}.",
    "An extended abstract appeared in the proceedings at {u}.",
    "The news coverage of this result is collected at {u}.",
    "A video walkthrough of the user interface is hosted at {u}.",
    "The journal's submission guidelines are posted at {u}.",
    "Biographies of the survey participants are acknowledged at {u}.",
]

OADS_URI_PATTERNS = [
    "https://github.com/{name}/{slug}",
    "https://gitlab.com/{name}/{slug}",
    "https://bitbucket.org/{name}/{slug}",
    "https://sourceforge.net/projects/{slug}",
    "https://zenodo.org/record/{num}",
    "https://doi.org/10.5281/zenodo.{num}",
    "https://figshare.com/articles/dataset/{slug}/{num}",
    "https://osf.io/{short}",
    "https://data.mendeley.com/datasets/{slug}/1",
    "http://archive.ics.uci.edu/ml/datasets/{slug}",
    "https://cran.r-project.org/package={slug}",
    "https://huggingface.co/datasets/{name}/{slug}",
    "https://codeberg.org/{name}/{slug}",
    "http://cds.cern.ch/record/{num}",
    "https://heasarc.gsfc.nasa.gov/docs/{slug}/archive",
]

NON_OADS_URI_PATTERNS = [
    "http://www.nature.com/articles/srep{num}",
    "https://science.sciencemag.org/content/{num}",
    "https://dl.acm.org/doi/10.1145/{num}",
    "https://ieeexplore.ieee.org/document/{num}",
    "https://www.pnas.org/content/{num}",
    "https://youtu.be/{short}",
    "https://www.youtube.com/watch?v={short}",
    "https://vimeo.com/{num}",
    "https://twitter.com/{name}",
    "https://neurips.cc/Conferences/2021",
    "https://www.icml.cc/virtual/{num}",
    "http://www.example-university.edu/~{name}",
    "https://www.sciencenews.example.org/article/{slug}",
]

_WORDS = [
    "alpha", "orbit", "lattice", "spectra", "kernel", "mosaic", "quanta",
    "tensor", "galaxy", "proton", "neural", "fusion", "vortex", "plasma",
    "crystal", "signal", "cosmic", "stellar", "photon", "matrix",
]

_NAMES = [
    "jsmith", "lchen", "mgarcia", "akumar", "tnguyen", "rwilson",
    "efischer", "pmoreau", "ssato", "dkowalski",
]


def _slug(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}-{rng.choice(_WORDS)}"


def _fill(rng: random.Random, pattern: str) -> str:
    return pattern.format(
        name=rng.choice(_NAMES),
        slug=_slug(rng),
        num=rng.randint(1000, 99999),
        short="".join(rng.choice("abcdefghjkmnpqrstuvwxyz23456789") for _ in range(8)),
    )


def generate_examples(seed: int = 42, per_label: int = 100) -> list[LabeledExample]:
    rng = random.Random(seed)
    examples: list[LabeledExample] = []
    for i in range(per_label):
        template = OADS_TEMPLATES[i % len(OADS_TEMPLATES)]
        uri = _fill(rng, OADS_URI_PATTERNS[i % len(OADS_URI_PATTERNS)])
        context = template.format(u=uri, name=rng.choice(_NAMES))
        examples.append(LabeledExample(context, uri, Label.OADS))
    for i in range(per_label):
        template = NON_OADS_TEMPLATES[i % len(NON_OADS_TEMPLATES)]
        uri = _fill(rng, NON_OADS_URI_PATTERNS[i % len(NON_OADS_URI_PATTERNS)])
        context = template.format(u=uri, name=rng.choice(_NAMES))
        examples.append(LabeledExample(context, uri, Label.NON_OADS))
    # Interleave deterministically so folds stay balanced.
    rng.shuffle(examples)
    return examples


def write_labeled_file(path: str | Path, examples: Iterable[LabeledExample]) -> None:
    """Write examples in the labeled-file format read by
    ``read_labeled_file``, one label<TAB>uri<TAB>context line each.  Tabs
    and line breaks inside a context are flattened to one space."""
    lines = []
    for ex in examples:
        context = re.sub(r"[\t\n\r]+", " ", ex.context)
        lines.append(f"{ex.label.value}\t{ex.uri}\t{context}\n")
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")


def main() -> None:
    out = Path(__file__).parent / "data" / "labeled_200.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_labeled_file(out, generate_examples())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
