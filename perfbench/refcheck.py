"""Output checks against the outputs pinned in `reference/`.

`reference/corpus_report.txt` is `Corpus().run().render()` of the 92-entry
corpus (92/92 verified); `reference/enum.json` holds the pocrim counts per
size, the count per theory class and a SHA-256 digest of the
`format_algebra` stream, all in enumeration order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
ENUM_SIZE = 6


def corpus_reference() -> str:
    return (REFERENCE / "corpus_report.txt").read_text()


def corpus_report_ok(report_text: str, reference: str) -> bool:
    """Byte-for-byte equality with the pinned report."""
    return report_text.encode() == reference.encode()


def enum_runs():
    """The `enum` op: all pocrims up to ENUM_SIZE, then each theory's class."""
    from hooplog import ALL_THEORIES, enumerate_algebras
    from hooplog.algebra import theory_class

    runs = [("all", list(enumerate_algebras(ENUM_SIZE)))]
    for t in ALL_THEORIES:
        runs.append((t.name, list(enumerate_algebras(ENUM_SIZE, theory_class(t)))))
    return runs


def enum_signature(runs) -> dict:
    from hooplog.algebra import format_algebra

    digest = hashlib.sha256()
    for _, algebras in runs:
        for alg in algebras:
            digest.update(format_algebra(alg).encode())
    everything = runs[0][1]
    return {
        "per_size": [
            sum(1 for a in everything if a.size == n) for n in range(1, ENUM_SIZE + 1)
        ],
        "per_class": {name: len(algebras) for name, algebras in runs},
        "format_sha256": digest.hexdigest(),
    }


def enum_reference() -> dict:
    return json.loads((REFERENCE / "enum.json").read_text())
