r"""Formula terms, the ASCII grammar, and structural operations.

The language has variables, the constant 1 (falsehood), implication -o and
multiplicative conjunction *.  The derived connectives -- the constant 0,
postfix negation ^ and the binary /\, \/, => and !! -- are kept as explicit
nodes so that proof scripts can unfold definitions step by step.  Each one
is defined once, in the table `DEFINITIONS`, as formula text over its
operands A and B, and everything that depends on a definition reads that
table: `expand_derived` (the -o/*/1 core form) and `expand_one_level`
substitute the operands into it, `signed_polarity` takes each operand's
sign from where it occurs in it, `core_neg` and `core_dneg` give the core
forms of A^ and A^^, the parser and printer take the symbols from it, and
the chain checker's `def` steps name connectives by its keys.

Formulas are hash-consed: there is exactly one node per structure.  The
constructors `Var`, `Neg` and the binary classes look the structure up in
`_NODES`, a plain dict from a structure to a weak reference to its node (a
`_Ref`, which carries its key), and return the node when the reference is
live, so equality is identity and a node lives exactly as long as some
caller holds it.  Looking up and inserting make no Python-level call; a
node's death calls `_drop`, which removes the entry if it is still that
node's reference.  Hashing is identity too (the inherited
`object.__hash__`), so hashing a formula, a tuple of formulas or a table key
makes no Python-level call.  An identity hash differs between runs, so
nothing may depend on the iteration order of a set of formulas: sets of
formulas serve membership tests only, dicts keyed by formulas iterate in
insertion order, and sorting uses `formula_key`.  Build nodes only through
the constructors and never change a field other than the two caches that
remain: `_ac` holds the result of `eqengine.ac_normalize` and `_core` that
of `expand_derived`.

Precedence, tightest first:  ^  >  {*, /\, \/, !!}  >  =>  >  -o.
Within the second tier a chain of one connective associates to the left and
mixing two different tier-2 connectives requires parentheses.  -o and =>
associate to the right.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position})")
        self.position = position


class _Ref(weakref.ref):
    """A weak reference to a node, holding the node's key in `_NODES`."""

    __slots__ = ("key",)


# (class, name) or (class, children...) -> a `_Ref` to the one node of that
# structure
_NODES: dict[tuple, _Ref] = {}


def _drop(ref: _Ref) -> None:
    """Called when a node dies: remove its entry, unless a node built since
    with the same structure has taken it over."""
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


class Formula:
    __slots__ = ("_key", "_ac", "_core", "__weakref__")

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __repr__(self) -> str:
        return format_formula(self)


class Var(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        r = _NODES.get(key)
        if r is not None:
            node = r()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.name = name
        node._key = (0, name)
        node._ac = node._core = None
        r = _NODES[key] = _Ref(node, _drop)
        r.key = key
        return node

    def __reduce__(self):
        return (Var, (self.name,))


class _Const(Formula):
    __slots__ = ("tag",)

    def __init__(self, tag: str, rank: int):
        self.tag = tag
        self._key = (rank,)
        self._ac = self._core = None

    def __reduce__(self):
        return (_const_by_tag, (self.tag,))


class _Zero(_Const):
    """The class of 0 alone, so that 0 has a row in `DEFINITIONS`."""

    __slots__ = ()


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    _rank = -1

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        r = _NODES.get(key)
        if r is not None:
            node = r()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.left = left
        node.right = right
        node._key = (cls._rank, left._key, right._key)
        node._ac = node._core = None
        r = _NODES[key] = _Ref(node, _drop)
        r.key = key
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
        r = _NODES.get(key)
        if r is not None:
            node = r()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.body = body
        node._key = (3, body._key)
        node._ac = node._core = None
        r = _NODES[key] = _Ref(node, _drop)
        r.key = key
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
ZERO = _Zero("0", 2)


# The derived connectives: symbol -> (node class, definition over the
# operands A and B).  Each definition is written here and nowhere else; the
# texts are parsed once, at the end of this module.
DEFINITIONS = {
    "0": (_Zero, "1 -o 1"),
    "^": (Neg, "A -o 1"),
    "/\\": (WConj, "A * (A -o B)"),
    "\\/": (SDisj, "(B -o A) -o A"),
    "=>": (SImp, "A -o A * B"),
    "!!": (Nor, "(A -o 1) * (B -o A)"),
}


def _const_by_tag(tag: str) -> Formula:
    return ONE if tag == "1" else ZERO


def is_zero(f: Formula) -> bool:
    return f is ZERO


def formula_key(f: Formula) -> tuple:
    """Deterministic total-order key, used wherever formulas get sorted."""
    return f._key


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
    operands = [expand_derived(c) for c in f.children()]
    if type(f) in _DEFINED:
        return _fill(_DEFINED[type(f)], operands)
    return type(f)(*operands) if operands else f


def expand_one_level(f: Formula) -> Formula:
    """Unfold only the outermost derived connective, children untouched."""
    if type(f) not in _DEFINED:
        raise FormulaError(f"not a derived connective: {f!r}")
    return _fill(_DEFINED[type(f)], f.children())


def core_neg(f: Formula) -> Formula:
    """f -o 1: the definition of f^, with f left as it is."""
    return _fill(_DEFINED[Neg], (f,))


def core_dneg(f: Formula) -> Formula:
    """(f -o 1) -o 1: the definition of f^^, with f left as it is."""
    return core_neg(core_neg(f))


# The names of the double-negation translations that `translate.translate`
# applies, kept here so that the command line can offer them without
# loading `translate`.
TRANSLATIONS = ("kolmogorov", "goedel", "gentzen", "glivenko")


def _fill(t: Formula, operands) -> Formula:
    """The core definition t with operands[0] for A and operands[1] for B."""
    if isinstance(t, Var):
        return operands["AB".index(t.name)]
    if isinstance(t, _Const):
        return t
    return type(t)(_fill(t.left, operands), _fill(t.right, operands))


def substitute(f: Formula, sigma: dict[str, Formula], memo: dict | None = None) -> Formula:
    """Simultaneous substitution of formulas for variables.  A caller that
    substitutes many formulas under one sigma may pass one dict as `memo`,
    so that each distinct subformula is substituted once."""
    if not sigma:
        return f
    if memo is not None:
        got = memo.get(f)
        if got is not None:
            return got
    if isinstance(f, _Binary):
        out = type(f)(substitute(f.left, sigma, memo), substitute(f.right, sigma, memo))
    elif isinstance(f, Var):
        out = sigma.get(f.name, f)
    elif isinstance(f, Neg):
        out = Neg(substitute(f.body, sigma, memo))
    else:
        out = f
    if memo is not None:
        memo[f] = out
    return out


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
    """f with its subformula at pos replaced by new: one walk down collects
    the path, one walk up rebuilds it, in time linear in the depth."""
    path = []
    cur = f
    for i in pos:
        kids = cur.children()
        if i >= len(kids):
            raise FormulaError(f"invalid position {pos} in {f!r}")
        path.append((cur, kids, i))
        cur = kids[i]
    for g, kids, i in reversed(path):
        if isinstance(g, Neg):
            new = Neg(new)
        elif i == 0:
            new = type(g)(new, kids[1])
        else:
            new = type(g)(kids[0], new)
    return new


def positions(f: Formula) -> Iterator[Position]:
    yield ()
    for i, c in enumerate(f.children()):
        for p in positions(c):
            yield (i,) + p


# Polarity

POSITIVE = "positive"
NEGATIVE = "negative"
MIXED = "mixed"


def signed_polarity(f: Formula, pos: Position) -> str:
    """Sign of the occurrence at `pos`: positive, negative or mixed.

    The sign flips on each left edge of -o and is kept by * and by right
    edges of -o.  An operand of a derived connective takes the sign of its
    occurrences in the connective's definition, `mixed` when they have both
    signs (the left operands of /\\, \\/, => and !!), and any path through
    a mixed operand is mixed.
    """
    sign = POSITIVE
    cur = f
    for i in pos:
        kids = cur.children()
        if i >= len(kids):
            raise FormulaError(f"invalid position {pos} in {f!r}")
        step = _SIGNS[type(cur)][i]
        if step == MIXED:
            sign = MIXED
        elif step == NEGATIVE and sign != MIXED:
            sign = NEGATIVE if sign == POSITIVE else POSITIVE
        cur = kids[i]
    return sign


def _operand_signs(definition: Formula) -> tuple[str, ...]:
    """Per operand A, B, the sign of its occurrences in a core definition."""
    found: dict[str, set[str]] = {}
    for p in positions(definition):
        g = subterm_at(definition, p)
        if isinstance(g, Var):
            found.setdefault(g.name, set()).add(signed_polarity(definition, p))
    return tuple(s.pop() if len(s) == 1 else MIXED for _, s in sorted(found.items()))


# Parsing

# Every connective's symbol and node class.  -o and => are the
# right-associative levels, loosest first; every other binary connective is
# in the tier of left-associative chains.
_CLASS = {"-o": Imp, "*": Tensor} | {sym: cls for sym, (cls, _) in DEFINITIONS.items()}
_SYMBOL = {cls: sym for sym, cls in _CLASS.items()}
_RIGHT = ("-o", "=>")
_TIER2 = {s for s, cls in _CLASS.items() if issubclass(cls, _Binary) and s not in _RIGHT}
_DIGRAPHS = tuple(s for s in _CLASS if len(s) == 2)


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
            elif t.startswith(_DIGRAPHS, i):
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
    f = _parse_right(tz, 0)
    kind, val, at = tz.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {val!r}", at + 1)
    return f


def _parse_right(tz: _Tokenizer, level: int) -> Formula:
    """The right-associative level `_RIGHT[level]`; past the last level, a
    tier-2 chain."""
    if level == len(_RIGHT):
        return _parse_tier2(tz)
    left = _parse_right(tz, level + 1)
    kind, val, _ = tz.peek()
    if kind == "op" and val == _RIGHT[level]:
        tz.next()
        return _CLASS[val](left, _parse_right(tz, level))
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
            left = _CLASS[val](left, _parse_postfix(tz))
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
        f = _parse_right(tz, 0)
        kind2, val2, at2 = tz.next()
        if not (kind2 == "op" and val2 == ")"):
            raise ParseError("expected ')'", at2 + 1)
        return f
    raise ParseError(f"expected a formula, got {val!r}", at + 1)


# Printing


def format_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; parse_formula(format_formula(f)) == f."""
    return _fmt(f, 0, None)


def _fmt(f: Formula, need: int, chain_op) -> str:
    # need: minimal precedence at this slot (1 -o, 2 =>, 3 tier 2, 4 ^);
    # chain_op: the tier-2 connective whose left-assoc chain this slot
    # continues, if any.
    if isinstance(f, Var):
        return f.name
    if isinstance(f, _Const):
        return f.tag
    if isinstance(f, Neg):
        return _fmt(f.body, 4, None) + "^"
    op = _SYMBOL[type(f)]
    if op in _RIGHT:
        p = 1 + _RIGHT.index(op)
        s = _fmt(f.left, p + 1, None) + f" {op} " + _fmt(f.right, p, None)
        return f"({s})" if p < need else s
    s = _fmt(f.left, 3, type(f)) + f" {op} " + _fmt(f.right, 4, None)
    if need > 3 or (need == 3 and chain_op is not None and chain_op is not type(f)):
        return f"({s})"
    return s


# The parsed definitions, and the operand signs read off them.
_DEFINED = {cls: parse_formula(text) for cls, text in DEFINITIONS.values()}
_SIGNS = {Imp: (NEGATIVE, POSITIVE), Tensor: (POSITIVE, POSITIVE)}
_SIGNS |= {cls: _operand_signs(d) for cls, d in _DEFINED.items()}
