"""The nine logics, their axiom sets, and the strength lattice between them.

A theory is a pair (base, level).  The base axis adds contraction strength:
affine < lukasiewicz < full; the level axis adds the falsehood axioms:
minimal < intuitionistic < classical.  Axioms: ASM always, CWC iff base is
lukasiewicz, CON iff base is full, EFQ iff level is at least intuitionistic,
DNE iff level is classical.
"""

from __future__ import annotations

BASES = ("affine", "lukasiewicz", "full")
LEVELS = ("minimal", "intuitionistic", "classical")

_BASE_ORD = {b: i for i, b in enumerate(BASES)}
_LEVEL_ORD = {l: i for i, l in enumerate(LEVELS)}


class TheoryId:
    """One of the nine theories, as its (base, level) pair.  There is one
    instance per pair, so theories compare and hash by identity."""

    __slots__ = ("base", "level", "name", "_axioms")

    def __new__(cls, base: str, level: str) -> "TheoryId":
        try:
            return _BY_PAIR[base, level]
        except KeyError:
            raise ValueError(f"unknown theory ({base}, {level})") from None

    def __reduce__(self):
        return TheoryId, (self.base, self.level)

    def __repr__(self) -> str:
        return f"TheoryId(base={self.base!r}, level={self.level!r})"

    def axioms(self) -> frozenset[str]:
        return self._axioms

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


def _theory(base: str, level: str, name: str) -> TheoryId:
    t = object.__new__(TheoryId)
    # The axiom set is built once: the search asks for it at every node.
    t.base, t.level, t.name, t._axioms = base, level, name, _axiom_set(base, level)
    return t


_BY_PAIR = {pair: _theory(*pair, name) for pair, name in _NAMES.items()}
ALm, ALi, ALc, LLm, LLi, LLc, ML, IL, BL = _BY_PAIR.values()

ALL_THEORIES = (ALm, ALi, ALc, LLm, LLi, LLc, ML, IL, BL)

_BY_NAME = {t.name: t for t in ALL_THEORIES}


def theory_by_name(name: str) -> TheoryId:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown theory {name!r}; expected one of {sorted(_BY_NAME)}")
