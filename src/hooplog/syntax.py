r"""Formula terms, the ASCII grammar, and structural operations.

The language has variables, the constant 1 (falsehood), implication -o and
multiplicative conjunction *.  Four derived binary connectives (/\, \/, =>,
!!) plus postfix negation ^ and the constant 0 are kept as explicit nodes so
that proof scripts can unfold definitions step by step; `expand_derived`
rewrites any formula to the -o/*/1 core.

Formulas are hash-consed: there is exactly one node per structure.  The
constructors `Var`, `Neg` and the binary classes look the structure up in a
weak-value table and return the existing node when there is one, so
equality is identity and a node lives exactly as long as some caller holds
it.  Build nodes only through the constructors and never change a field
other than the two caches: `_ac` holds the result of
`eqengine.ac_normalize` and `_core` that of `expand_derived`.

Precedence, tightest first:  ^  >  {*, /\, \/, !!}  >  =>  >  -o.
Within the second tier a chain of one connective associates to the left and
mixing two different tier-2 connectives requires parentheses.  -o and =>
associate to the right.
"""

from __future__ import annotations

import weakref
from typing import Iterator


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position})")
        self.position = position


# (class, name) or (class, children...) -> the one node of that structure
_NODES = weakref.WeakValueDictionary()


class Formula:
    __slots__ = ("_hash", "_key", "_ac", "_core", "__weakref__")

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return format_formula(self)


class Var(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            node.name = name
            node._hash = hash(("Var", name))
            node._key = (0, name)
            node._ac = node._core = None
            _NODES[key] = node
        return node

    def __reduce__(self):
        return (Var, (self.name,))


class _Const(Formula):
    __slots__ = ("tag",)

    def __init__(self, tag: str, rank: int):
        self.tag = tag
        self._hash = hash(("Const", tag))
        self._key = (rank,)
        self._ac = self._core = None

    def __reduce__(self):
        return (_const_by_tag, (self.tag,))


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    _rank = -1

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            node.left = left
            node.right = right
            node._hash = hash((cls.__name__, left._hash, right._hash))
            node._key = (cls._rank, left._key, right._key)
            node._ac = node._core = None
            _NODES[key] = node
        return node

    def children(self):
        return (self.left, self.right)

    def __reduce__(self):
        return (type(self), (self.left, self.right))


class Imp(_Binary):
    __slots__ = ()
    _rank = 4


class Tensor(_Binary):
    __slots__ = ()
    _rank = 5


class Neg(Formula):
    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __new__(cls, body: Formula):
        key = (cls, body)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            node.body = body
            node._hash = hash(("Neg", body._hash))
            node._key = (3, body._key)
            node._ac = node._core = None
            _NODES[key] = node
        return node

    def children(self):
        return (self.body,)

    def __reduce__(self):
        return (Neg, (self.body,))


class WConj(_Binary):
    __slots__ = ()
    _rank = 6


class SDisj(_Binary):
    __slots__ = ()
    _rank = 7


class SImp(_Binary):
    __slots__ = ()
    _rank = 8


class Nor(_Binary):
    __slots__ = ()
    _rank = 9


ONE = _Const("1", 1)
ZERO = _Const("0", 2)


def _const_by_tag(tag: str) -> Formula:
    return ONE if tag == "1" else ZERO


def is_one(f: Formula) -> bool:
    return f is ONE


def is_zero(f: Formula) -> bool:
    return f is ZERO


def formula_key(f: Formula) -> tuple:
    """Deterministic total-order key, used wherever formulas get sorted."""
    return f._key


DERIVED_TYPES = (Neg, WConj, SDisj, SImp, Nor)


def is_core(f: Formula) -> bool:
    if isinstance(f, DERIVED_TYPES) or is_zero(f):
        return False
    return all(is_core(c) for c in f.children())


def expand_derived(f: Formula) -> Formula:
    """Rewrite to core form: only Var, 1, -o and * remain.  Cached in the
    node's `_core` slot, which holds True when the node is core itself."""
    core = f._core
    if core is None:
        core = _expand_derived(f)
        f._core = True if core is f else core
        if core._core is None:
            core._core = True
        return core
    return f if core is True else core


def _expand_derived(f: Formula) -> Formula:
    if isinstance(f, Var) or is_one(f):
        return f
    if is_zero(f):
        return Imp(ONE, ONE)
    if isinstance(f, Neg):
        return Imp(expand_derived(f.body), ONE)
    l = expand_derived(f.left) if isinstance(f, _Binary) else None
    r = expand_derived(f.right) if isinstance(f, _Binary) else None
    if isinstance(f, Imp):
        return Imp(l, r)
    if isinstance(f, Tensor):
        return Tensor(l, r)
    if isinstance(f, WConj):
        return Tensor(l, Imp(l, r))
    if isinstance(f, SDisj):
        return Imp(Imp(r, l), l)
    if isinstance(f, SImp):
        return Imp(l, Tensor(l, r))
    if isinstance(f, Nor):
        return Tensor(Imp(l, ONE), Imp(r, l))
    raise FormulaError(f"unknown node {f!r}")


def expand_one_level(f: Formula) -> Formula:
    """Unfold only the outermost derived connective, children untouched."""
    if is_zero(f):
        return Imp(ONE, ONE)
    if isinstance(f, Neg):
        return Imp(f.body, ONE)
    if isinstance(f, WConj):
        return Tensor(f.left, Imp(f.left, f.right))
    if isinstance(f, SDisj):
        return Imp(Imp(f.right, f.left), f.left)
    if isinstance(f, SImp):
        return Imp(f.left, Tensor(f.left, f.right))
    if isinstance(f, Nor):
        return Tensor(Imp(f.left, ONE), Imp(f.right, f.left))
    raise FormulaError(f"not a derived connective: {f!r}")


def substitute(f: Formula, sigma: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for variables."""
    if not sigma:
        return f
    if isinstance(f, Var):
        return sigma.get(f.name, f)
    if isinstance(f, _Const):
        return f
    if isinstance(f, Neg):
        return Neg(substitute(f.body, sigma))
    return type(f)(substitute(f.left, sigma), substitute(f.right, sigma))


def variables(f: Formula) -> set[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            out.add(g.name)
        else:
            stack.extend(g.children())
    return out


# Positions

Position = tuple[int, ...]


def subterm_at(f: Formula, pos: Position) -> Formula:
    cur = f
    for i in pos:
        kids = cur.children()
        if i >= len(kids):
            raise FormulaError(f"invalid position {pos} in {f!r}")
        cur = kids[i]
    return cur


def replace_at(f: Formula, pos: Position, new: Formula) -> Formula:
    if not pos:
        return new
    i, rest = pos[0], pos[1:]
    kids = f.children()
    if i >= len(kids):
        raise FormulaError(f"invalid position {pos} in {f!r}")
    child = replace_at(kids[i], rest, new)
    if isinstance(f, Neg):
        return Neg(child)
    if i == 0:
        return type(f)(child, kids[1])
    return type(f)(kids[0], child)


def positions(f: Formula) -> Iterator[Position]:
    yield ()
    for i, c in enumerate(f.children()):
        for p in positions(c):
            yield (i,) + p


# Polarity

POSITIVE = "positive"
NEGATIVE = "negative"
MIXED = "mixed"


def polarity_at(f: Formula, pos: Position) -> str:
    """Sign of the occurrence at `pos` in a core formula.

    The sign flips on each left edge of -o and is preserved by * and by
    right edges of -o.  Derived connectives are rejected: their left
    operands occur with both signs after expansion.
    """
    if not is_core(f):
        raise FormulaError("polarity_at requires core form")
    sign = POSITIVE
    cur = f
    for i in pos:
        kids = cur.children()
        if i >= len(kids):
            raise FormulaError(f"invalid position {pos} in {f!r}")
        if isinstance(cur, Imp) and i == 0:
            sign = NEGATIVE if sign == POSITIVE else POSITIVE
        cur = kids[i]
    return sign


def signed_polarity(f: Formula, pos: Position) -> str:
    """Like polarity_at but total on derived nodes.

    Left operands of /\\, \\/, => and !! expand to both signs, so any path
    through one is `mixed`; right operands keep a determinate sign (positive
    for /\\, \\/ and =>, negative for !!).
    """
    sign = POSITIVE
    cur = f
    for i in pos:
        kids = cur.children()
        if i >= len(kids):
            raise FormulaError(f"invalid position {pos} in {f!r}")
        if sign != MIXED:
            flip = NEGATIVE if sign == POSITIVE else POSITIVE
            if isinstance(cur, (Imp, Neg)) and i == 0:
                sign = flip
            elif isinstance(cur, (WConj, SDisj, SImp, Nor)) and i == 0:
                sign = MIXED
            elif isinstance(cur, Nor) and i == 1:
                sign = flip
        cur = kids[i]
    return sign


# Parsing

_TIER2 = {"*": Tensor, "/\\": WConj, "\\/": SDisj, "!!": Nor}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.pos = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = t[i]
            if c.isspace():
                i += 1
                continue
            start = i
            if c.isalpha():
                if not c.isupper():
                    raise ParseError("variables start with an uppercase letter", i + 1)
                j = i + 1
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("var", t[i:j], start))
                i = j
            elif c in "01":
                self.tokens.append(("const", c, start))
                i += 1
            elif t.startswith("-o", i):
                self.tokens.append(("op", "-o", start))
                i += 2
            elif t.startswith("=>", i):
                self.tokens.append(("op", "=>", start))
                i += 2
            elif t.startswith("/\\", i) or t.startswith("\\/", i) or t.startswith("!!", i):
                self.tokens.append(("op", t[i : i + 2], start))
                i += 2
            elif c in "*^()":
                self.tokens.append(("op", c, start))
                i += 1
            else:
                raise ParseError(f"unexpected character {c!r}", i + 1)
        self.tokens.append(("eof", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok


def parse_formula(text: str) -> Formula:
    tz = _Tokenizer(text)
    f = _parse_imp(tz)
    kind, val, at = tz.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {val!r}", at + 1)
    return f


def _parse_imp(tz: _Tokenizer) -> Formula:
    left = _parse_simp(tz)
    kind, val, _ = tz.peek()
    if kind == "op" and val == "-o":
        tz.next()
        return Imp(left, _parse_imp(tz))
    return left


def _parse_simp(tz: _Tokenizer) -> Formula:
    left = _parse_tier2(tz)
    kind, val, _ = tz.peek()
    if kind == "op" and val == "=>":
        tz.next()
        return SImp(left, _parse_simp(tz))
    return left


def _parse_tier2(tz: _Tokenizer) -> Formula:
    left = _parse_postfix(tz)
    chain_op: str | None = None
    while True:
        kind, val, at = tz.peek()
        if kind == "op" and val in _TIER2:
            if chain_op is None:
                chain_op = val
            elif val != chain_op:
                raise ParseError(
                    f"mixing {chain_op!r} and {val!r} needs parentheses", at + 1
                )
            tz.next()
            left = _TIER2[val](left, _parse_postfix(tz))
        else:
            return left


def _parse_postfix(tz: _Tokenizer) -> Formula:
    f = _parse_atom(tz)
    while True:
        kind, val, _ = tz.peek()
        if kind == "op" and val == "^":
            tz.next()
            f = Neg(f)
        else:
            return f


def _parse_atom(tz: _Tokenizer) -> Formula:
    kind, val, at = tz.next()
    if kind == "var":
        return Var(val)
    if kind == "const":
        return ONE if val == "1" else ZERO
    if kind == "op" and val == "(":
        f = _parse_imp(tz)
        kind2, val2, at2 = tz.next()
        if not (kind2 == "op" and val2 == ")"):
            raise ParseError("expected ')'", at2 + 1)
        return f
    raise ParseError(f"expected a formula, got {val!r}", at + 1)


# Printing

_TIER2_SYM = {Tensor: "*", WConj: "/\\", SDisj: "\\/", Nor: "!!"}


def format_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; parse_formula(format_formula(f)) == f."""
    return _fmt(f, 0, None)


def _prec(f: Formula) -> int:
    if isinstance(f, Imp):
        return 1
    if isinstance(f, SImp):
        return 2
    if type(f) in _TIER2_SYM:
        return 3
    if isinstance(f, Neg):
        return 4
    return 5


def _fmt(f: Formula, need: int, chain_op) -> str:
    # need: minimal precedence at this slot; chain_op: the tier-2 connective
    # whose left-assoc chain this slot continues, if any.
    if isinstance(f, Var):
        return f.name
    if isinstance(f, _Const):
        return f.tag
    if isinstance(f, Neg):
        return _fmt(f.body, 4, None) + "^"
    if isinstance(f, Imp):
        s = _fmt(f.left, 2, None) + " -o " + _fmt(f.right, 1, None)
        return f"({s})" if _prec(f) < need else s
    if isinstance(f, SImp):
        s = _fmt(f.left, 3, None) + " => " + _fmt(f.right, 2, None)
        return f"({s})" if _prec(f) < need else s
    op = _TIER2_SYM[type(f)]
    s = _fmt(f.left, 3, type(f)) + f" {op} " + _fmt(f.right, 4, None)
    if _prec(f) < need or (need == 3 and chain_op is not None and chain_op is not type(f)):
        return f"({s})"
    return s
