"""The nine logics, their axiom sets, and the strength lattice between them.

A theory is a pair (base, level).  The base axis adds contraction strength:
affine < lukasiewicz < full; the level axis adds the falsehood axioms:
minimal < intuitionistic < classical.  Axioms: ASM always, CWC iff base is
lukasiewicz, CON iff base is full, EFQ iff level is at least intuitionistic,
DNE iff level is classical.
"""

from __future__ import annotations

from dataclasses import dataclass

BASES = ("affine", "lukasiewicz", "full")
LEVELS = ("minimal", "intuitionistic", "classical")

_BASE_ORD = {b: i for i, b in enumerate(BASES)}
_LEVEL_ORD = {l: i for i, l in enumerate(LEVELS)}


@dataclass(frozen=True)
class TheoryId:
    base: str
    level: str

    def __post_init__(self):
        if self.base not in BASES or self.level not in LEVELS:
            raise ValueError(f"unknown theory ({self.base}, {self.level})")

    @property
    def name(self) -> str:
        return _NAMES[(self.base, self.level)]

    def axioms(self) -> frozenset[str]:
        return _AXIOMS[self.base, self.level]

    def leq(self, other: "TheoryId") -> bool:
        """True when everything provable here is provable in `other`."""
        return (
            _BASE_ORD[self.base] <= _BASE_ORD[other.base]
            and _LEVEL_ORD[self.level] <= _LEVEL_ORD[other.level]
        )

    def classical(self) -> "TheoryId":
        return TheoryId(self.base, "classical")

    def __str__(self) -> str:
        return self.name


def _axiom_set(base: str, level: str) -> frozenset[str]:
    ax = {"ASM"}
    if base == "lukasiewicz":
        ax.add("CWC")
    if base == "full":
        ax.add("CON")
    if _LEVEL_ORD[level] >= 1:
        ax.add("EFQ")
    if level == "classical":
        ax.add("DNE")
    return frozenset(ax)


# Built once: the search asks for a theory's axioms at every node.
_AXIOMS = {(b, l): _axiom_set(b, l) for b in BASES for l in LEVELS}

_NAMES = {
    ("affine", "minimal"): "ALm",
    ("affine", "intuitionistic"): "ALi",
    ("affine", "classical"): "ALc",
    ("lukasiewicz", "minimal"): "LLm",
    ("lukasiewicz", "intuitionistic"): "LLi",
    ("lukasiewicz", "classical"): "LLc",
    ("full", "minimal"): "ML",
    ("full", "intuitionistic"): "IL",
    ("full", "classical"): "BL",
}

ALm = TheoryId("affine", "minimal")
ALi = TheoryId("affine", "intuitionistic")
ALc = TheoryId("affine", "classical")
LLm = TheoryId("lukasiewicz", "minimal")
LLi = TheoryId("lukasiewicz", "intuitionistic")
LLc = TheoryId("lukasiewicz", "classical")
ML = TheoryId("full", "minimal")
IL = TheoryId("full", "intuitionistic")
BL = TheoryId("full", "classical")

ALL_THEORIES = (ALm, ALi, ALc, LLm, LLi, LLc, ML, IL, BL)

_BY_NAME = {t.name: t for t in ALL_THEORIES}


def theory_by_name(name: str) -> TheoryId:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown theory {name!r}; expected one of {sorted(_BY_NAME)}")
