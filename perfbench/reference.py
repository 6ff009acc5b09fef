"""A fixed task that times the machine, not the program.

The benchmark starts this script just before each timed oadscan command,
the same way it starts the command, and divides the command's wall time
by this script's.  Other tenants of a shared host slow both alike, so
the ratio stays put while either wall time drifts by tens of percent
from one minute to the next.

The task mixes what an oadscan command spends its time on: interpreter
start-up and imports, a regular-expression scan over text, and pure
Python loops over strings and dicts.  It imports only the standard
library and does the same work on every run.
"""

import csv  # noqa: F401 - imported for its start-up cost, like the program's imports
import json  # noqa: F401
import re
from collections import Counter

WORDS = ("data", "code", "https://zenodo.org/record/", "see", "the", "results",
         "http://github.com/", "and", "in", "of", "doi.org/10.", "table", "we")
URI = re.compile(r"https?://[^\s<>\"]+|doi\.org/\S+")


def main() -> int:
    state = 12345
    words = []
    for _ in range(60_000):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        words.append(WORDS[state % len(WORDS)] + str(state % 97))
    text = " ".join(words)
    counts = Counter()
    for match in URI.finditer(text):
        counts[match.group().split("/")[2] if "://" in match.group() else "doi"] += 1
    lines = [text[i:i + 80] for i in range(0, len(text), 80)]
    joined = sum(len(line.rstrip("-")) for line in lines)
    return 0 if counts and joined else 1


if __name__ == "__main__":
    raise SystemExit(main())
