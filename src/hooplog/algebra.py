"""Finite algebraic semantics: pocrims, hoops, chains, countermodel search.

Carrier elements are indices 0..n-1 with 0 the monoid identity, which
interprets the formula 0 (truth).  `add` interprets * and `res` interprets
-o; `a >= b` holds when res[a][b] == 0, and 0 is the least element, so
larger means logically stronger (falser).  A bounded algebra has a top
element interpreting the constant 1 (falsehood).

Class flags on top of pocrim: hoop (divisibility, the algebraic CWC),
bounded (EFQ), involutive (DNE), idempotent (CON).  Enumeration yields one
representative per isomorphism class, chains before non-linear orders,
sorted by canonical table form within each size.  Each size is held in
blocks, one per size and set of required flags, built when first read.
Countermodel search returns the first falsifying (algebra, assignment) of
a theory's class from size 2 (size 1 falsifies nothing): for at most five
names, sizes 2 and 3 in one pass over `refuter`'s union, then block by block.

How a size is enumerated: every finite pocrim is bounded, since
a + b >= a + 0 = a puts the sum of all the elements above each of them.
So only orders with bottom 0 and a top are listed, generated with the
numeric order as a linear extension: the top is the last label, n-1,
placed above an order of size n-1.  Only the first order of each
isomorphism class is kept (an isomorphism of such orders fixes 0, so every
algebra class first shows up on that labelling); when a class is first
met, its relabellings in the stream are marked by a depth-first walk of
its linear extensions from 0, each step placing an element whose lower
covers are all placed.  For each kept order the top's row and column of
the add table are forced, as a + top = top, and so are its residuals, all
0; every associativity instance that reads a top cell, or a sum equal to
the top, holds by monotonicity.  The other cells are filled cell by cell,
by backtracking, with monotone candidates, the cells below each cell being
listed once per order; after each placement only the associativity
instances that read the new cell as x+y or as (x+y)+z are checked (by
commutativity the other readings are their mirror images), the filled
cells with a given sum being indexed by that sum (appended on placement,
truncated on undo); once row b's last free cell is placed, column b is
complete (the table is symmetric), and its residuals are derived there,
the branch cut if one is missing.  So completion guarantees the pocrim
laws, and a completed table is not verified again: only its class flags
are computed (`_class_flags`, which `check_class` reports after verifying
the laws), once per class.  Completed tables are merged by `canonical_key`, the
first labelling found standing for its class: a branch and bound over
relabellings fixing 0 that bounds every add row of the key from a prefix
(the labels placed so far, the unplaced columns' bounds sorted), prunes a
prefix whose bounds already exceed the best key, and tries the children
of a prefix in ascending order of their bounds.  Each size is enumerated
once per process.

How formulas are evaluated: by one evaluator, `_Values`, a dict from each
formula to its value table over a set of rows, filled when first read.
The rows are a block of one algebra's assignments to the sorted names, in
product order, at most _BLOCK_ROWS of them with the leading names constant
over the block (`_blocks`), or the rows of a `_union`: those of every
algebra of sizes 2 and 3 of a class, over their disjoint union.  A value
table is an int with one byte per row, and a connective is one multiply-
add and one `bytes.translate`: a*n + b, in one byte and carrying out of none
while n <= _PACKED_MAX, through its 256-byte lookup table, entry a*n + b
its value at (a, b) (for a derived connective, its definition's, evaluated
by the same evaluator).  Larger algebras, the only size branch, hold lists
and look each row up.  An algebra's lookup tables are built on first use
and kept in its `_Tables`, which does not refer back to it.  A sequent's
check is its context tensored from 0, -o its goal, 0 exactly where it
holds, and a block's first failing row is the lowest byte at which the
check differs from the zero column; `eval_formula` and `seq_holds` are the
one-row case, and reject a value that is not an element.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import product
from typing import TYPE_CHECKING, Callable

from .syntax import (
    ONE,
    ZERO,
    Formula,
    FormulaError,
    Imp,
    Neg,
    Nor,
    SDisj,
    SImp,
    Tensor,
    Var,
    WConj,
    expand_one_level,
    variables,
)
from .theories import TheoryId

if TYPE_CHECKING:
    from .sequent import Sequent

FLAGS = ("pocrim", "hoop", "bounded", "involutive", "idempotent")


class AlgebraError(Exception):
    pass


class FiniteAlgebra:
    """An algebra by its size, add and res tables and top (or None), which
    it is compared and hashed by."""

    def __init__(
        self,
        size: int,
        add: tuple[tuple[int, ...], ...],
        res: tuple[tuple[int, ...], ...],
        top: int | None = None,
    ):
        self.size, self.add, self.res, self.top = size, add, res, top

    def _fields(self) -> tuple:
        return self.size, self.add, self.res, self.top

    def __eq__(self, other):
        if type(other) is not FiniteAlgebra:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def geq(self, a: int, b: int) -> bool:
        return self.res[a][b] == 0

    @cached_property
    def _tables(self) -> _Tables:
        """Its size, top and connectives' lookup tables, for evaluation."""
        return _Tables(self)

    def __repr__(self):
        return f"<FiniteAlgebra n={self.size} top={self.top}>"


def lukasiewicz_chain(k: int) -> FiniteAlgebra:
    """The chain on {0, 1/(k-1), ..., 1} with truncated addition; index i
    stands for the exact rational i/(k-1)."""
    if k < 2:
        raise ValueError("a chain needs at least two elements")
    m = k - 1
    add = tuple(tuple(min(m, i + j) for j in range(k)) for i in range(k))
    res = tuple(tuple(max(0, j - i) for j in range(k)) for i in range(k))
    return FiniteAlgebra(k, add, res, top=m)


def boolean_algebra() -> FiniteAlgebra:
    return lukasiewicz_chain(2)


def godel_chain(k: int) -> FiniteAlgebra:
    """Chain with add = max; bounded hoop that is not involutive for k >= 3."""
    if k < 2:
        raise ValueError("a chain needs at least two elements")
    add = tuple(tuple(max(i, j) for j in range(k)) for i in range(k))
    res = tuple(tuple(0 if i >= j else j for j in range(k)) for i in range(k))
    return FiniteAlgebra(k, add, res, top=k - 1)


class ClassReport:
    """The class flags of an algebra, or why it is not a pocrim."""

    def __init__(self, flags: frozenset[str], failure: str | None = None):
        self.flags, self.failure = flags, failure

    def __eq__(self, other):
        if type(other) is not ClassReport:
            return NotImplemented
        return (self.flags, self.failure) == (other.flags, other.failure)


def check_class(m: FiniteAlgebra) -> ClassReport:
    """Verify the pocrim laws, then report the optional class flags."""
    n = m.size
    add, res = m.add, m.res
    rng = range(n)
    if len(add) != n or len(res) != n or any(len(r) != n for r in add + res):
        return ClassReport(frozenset(), "tables are not n x n")
    for a in rng:
        if add[0][a] != a:
            return ClassReport(frozenset(), f"0 is not an identity: 0+{a}={add[0][a]}")
        for b in rng:
            if add[a][b] != add[b][a]:
                return ClassReport(frozenset(), f"add not commutative at ({a},{b})")
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return ClassReport(
                        frozenset(), f"add not associative at ({a},{b},{c})"
                    )

    def geq(a, b):
        return res[a][b] == 0

    for a in rng:
        if not geq(a, a):
            return ClassReport(frozenset(), f"order not reflexive at {a}")
        if not geq(a, 0):
            return ClassReport(frozenset(), f"0 not least: {a} >= 0 fails")
        for b in rng:
            if a != b and geq(a, b) and geq(b, a):
                return ClassReport(frozenset(), f"order not antisymmetric at ({a},{b})")
            for c in rng:
                if geq(a, b) and geq(b, c) and not geq(a, c):
                    return ClassReport(
                        frozenset(), f"order not transitive at ({a},{b},{c})"
                    )
                if geq(add[a][b], c) != geq(a, res[b][c]):
                    return ClassReport(
                        frozenset(), f"residuation fails at ({a},{b},{c})"
                    )
    if m.top is not None and not (m.top in rng and all(geq(m.top, a) for a in rng)):
        return ClassReport(frozenset(), f"declared top {m.top} is not the maximum")
    return ClassReport(_class_flags(m))


def _class_flags(m: FiniteAlgebra) -> frozenset[str]:
    """The class flags of a pocrim, whose laws are taken as given: pocrim,
    and hoop, bounded, involutive and idempotent where they hold."""
    add, res = m.add, m.res
    rng = range(m.size)
    flags = {"pocrim"}
    if all(add[a][res[a][b]] == add[b][res[b][a]] for a in rng for b in rng):
        flags.add("hoop")
    top = next((t for t in rng if all(res[t][a] == 0 for a in rng)), None)
    if top is not None:
        flags.add("bounded")
        if all(res[res[a][top]][top] == a for a in rng):
            flags.add("involutive")
    if all(add[a][a] == a for a in rng):
        flags.add("idempotent")
    return frozenset(flags)


Assignment = dict[str, int]
_A, _B = Var("A"), Var("B")

# The most assignments evaluated together; see `_blocks`.
_BLOCK_ROWS = 256
# The largest algebra whose pairs (a, b) fit one byte, as a*n + b.
_PACKED_MAX = 16


class _Tables(dict):
    """An algebra's size, top and connectives' lookup tables, entry a*n + b
    a connective's value at (a, b): res and add, or a derived connective's
    definition evaluated over A, B in product order (so ^ ignores b).  Each
    table is built when first read; ^ and !! raise without a top.  It holds
    the algebra's operation tables but not the algebra."""

    __slots__ = ("size", "top", "add", "res")

    def __init__(self, m: FiniteAlgebra):
        self.size, self.top, self.add, self.res = m.size, m.top, m.add, m.res

    def __missing__(self, cls: type) -> bytes | list[int]:
        if self.top is None and cls in (Neg, Nor):
            raise AlgebraError(f"{'negation' if cls is Neg else '!!'} needs a bounded algebra")
        if cls in (Imp, Tensor):
            t = [x for row in (self.res if cls is Imp else self.add) for x in row]
        else:
            d = expand_one_level(Neg(_A) if cls is Neg else cls(_A, _B))
            t = [x for _, tails, vals in _blocks([_A, _B], self) for x in _unpack(vals[d], len(tails))]
        t = self[cls] = bytes(t).ljust(256, b"\0") if self.size <= _PACKED_MAX else t
        return t


class _Values(dict):
    """Formulas' value tables over a set of rows, each computed when first
    read (a known one is read with no Python-level call).  A value table is
    an int with one byte per row while the rows' algebras have at most
    _PACKED_MAX elements, a list otherwise; a connective is one lookup of
    its table in tables over its operands' value tables.  The rows are a
    block of one algebra's assignments (`_blocks`) or a `_union`'s."""

    __slots__ = ("lookup", "tables", "zero")

    def __init__(self, leaves, tables, lookup: Callable):
        super().__init__(leaves)
        self.tables, self.lookup, self.zero = tables, lookup, self[ZERO]

    def __missing__(self, f: Formula):
        kids = f.children()
        if not kids:  # a leaf with no column
            raise AlgebraError(
                f"unassigned variable {f.name}" if isinstance(f, Var)
                else "the constant 1 needs a bounded algebra"
            )
        if type(f) is Nor:  # !! is checked after its operands, ^ before its body
            self[kids[0]], self[kids[1]]
        v = self[f] = self.lookup(self.tables[type(f)], self[kids[0]], self[kids[-1]])
        return v

    def check(self, s: Sequent):
        """The value table of s's check: the context tensored from 0, -o the
        goal, a row's algebra's 0 exactly where s holds."""
        ctx, lookup, tables = s.context, self.lookup, self.tables
        acc = self[ctx[0]] if ctx else self.zero  # 0 * f = f
        for f in ctx[1:]:
            acc = lookup(tables[Tensor], acc, self[f])
        return lookup(tables[Imp], acc, self[s.goal])

    def refutes(self, s: Sequent) -> bool:
        return self.check(s) != self.zero

    def first_failure(self, s: Sequent) -> int | None:
        """The first row where s fails, the lowest byte at which its check
        differs from the zero column, or None."""
        bad = self.check(s)
        if isinstance(bad, list):  # one algebra, whose 0 is 0
            return next((i for i, x in enumerate(bad) if x), None)
        bad ^= self.zero
        return ((bad & -bad).bit_length() - 1) >> 3 if bad else None


@cache
def _block_layout(n: int, k: int) -> tuple:
    """(tails, columns, consts, lookup) of blocks over k names in an
    n-element algebra: each row's values; each name's and element's value
    table; and lookup(t, a, b), the connective with lookup table t over
    value tables a and b."""
    rows, tails = n**k, list(product(range(n), repeat=k))
    if n > _PACKED_MAX:
        pack = list
        lookup = lambda t, a, b: [t[x * n + y] for x, y in zip(a, b)]  # noqa: E731
    else:
        pack = lambda col: int.from_bytes(bytes(col), "little")  # noqa: E731
        lookup = _packed_lookup(n, rows)
    consts = [pack([a] * rows) for a in range(n)]
    return tails, [pack(col) for col in zip(*tails)], consts, lookup


def _packed_lookup(n: int, rows: int) -> Callable[[bytes, int, int], int]:
    """lookup(t, a, b): lookup table t over value tables of rows bytes."""

    def lookup(t: bytes, a: int, b: int) -> int:
        return int.from_bytes((a * n + b).to_bytes(rows, "little").translate(t), "little")

    return lookup


def _unpack(v, rows: int) -> bytes | list[int]:
    """The values of a value table of rows rows."""
    return v if isinstance(v, list) else v.to_bytes(rows, "little")


def _block(tables: _Tables, xs: list[Var], head: tuple, layout: tuple) -> _Values:
    """The `_Values` of a block of layout in tables' algebra, its leading
    variables of xs taking the values head and the others its columns."""
    _, columns, consts, lookup = layout
    leaves = [*zip(xs, [consts[a] for a in head] + columns), (ZERO, consts[0])]
    if tables.top is not None:
        leaves.append((ONE, consts[tables.top]))
    return _Values(leaves, tables, lookup)


def _blocks(xs: list[Var], tables: _Tables):
    """All assignments of tables' algebra's elements to the variables xs in
    product order, in blocks of at most _BLOCK_ROWS rows: per block, (head,
    tails, values), the values of the leading variables, constant over the
    block, each row's values of the trailing ones, and the block's
    `_Values`."""
    n, k = tables.size, 0
    while k < len(xs) and n ** (k + 1) <= _BLOCK_ROWS:
        k += 1
    layout = _block_layout(n, k)
    for head in product(range(n), repeat=len(xs) - k):
        yield head, layout[0], _block(tables, xs, head, layout)


def value_tables(fs, m: FiniteAlgebra, names: list[str]):
    """Per block of the assignments to names (`_blocks`), in order: its
    columns and the value table of each formula of fs."""
    for head, tails, vals in _blocks([*map(Var, names)], m._tables):
        cols = [[a] * len(tails) for a in head] + [list(c) for c in zip(*tails)]
        yield dict(zip(names, cols)), [list(_unpack(vals[f], len(tails))) for f in fs]


def _row(m: FiniteAlgebra, v: Assignment) -> _Values:
    """The `_Values` of the one row v."""
    for x, a in v.items():
        if not 0 <= a < m.size:
            raise AlgebraError(f"{x}={a} is outside 0..{m.size - 1}")
    return _block(m._tables, [*map(Var, v)], tuple(v.values()), _block_layout(m.size, 0))


def eval_formula(f: Formula, m: FiniteAlgebra, v: Assignment) -> int:
    """Homomorphic evaluation under one assignment."""
    return _unpack(_row(m, v)[f], 1)[0]


def seq_holds(s: Sequent, m: FiniteAlgebra, v: Assignment) -> bool:
    return _row(m, v).first_failure(s) is None


def sequent_names(s: Sequent) -> list[str]:
    """The sorted names of s's variables."""
    return sorted(set().union(variables(s.goal), *map(variables, s.context)))


def falsifier(s: Sequent) -> Callable[[FiniteAlgebra], Assignment | None]:
    """A function from an algebra to the first assignment, in `_blocks`
    order, under which s fails there, or None.  A caller checking s in
    several algebras gathers its names once this way."""
    xs = [*map(Var, sequent_names(s))]
    return lambda m: _first_failure(s, xs, m)


def valid(s: Sequent, m: FiniteAlgebra) -> bool:
    """True iff the tensored context dominates the goal for all assignments."""
    return falsifier(s)(m) is None


def falsifying_assignment(s: Sequent, m: FiniteAlgebra) -> Assignment | None:
    """The first assignment, in `_blocks` order, under which s fails."""
    return falsifier(s)(m)


def _first_failure(s: Sequent, xs: list[Var], m: FiniteAlgebra) -> Assignment | None:
    """The first assignment to xs, s's variables, under which s fails in m."""
    for head, tails, vals in _blocks(xs, m._tables):
        row = vals.first_failure(s)
        if row is not None:
            return {x.name: a for x, a in zip(xs, head + tails[row])}
    return None


# Enumeration up to isomorphism


def _posets_with_bottom(n: int):
    """Down-set matrices leq[i][j] ('i <= j') with 0 the bottom and the
    numeric order a linear extension."""
    if n == 1:
        yield ((True,),)
        return

    def extend(leq: list[list[bool]], j: int):
        if j == n:
            yield tuple(tuple(row) for row in leq)
            return
        below = list(range(j))
        for mask in range(1 << len(below)):
            down = [i for i in below if mask >> i & 1]
            if 0 not in down or any(
                leq[k][i] and k not in down for i in down for k in range(i)
            ):
                continue
            for i in down:
                leq[i][j] = True
            yield from extend(leq, j + 1)
            for i in down:
                leq[i][j] = False

    leq = [[i == j for j in range(n)] for i in range(n)]
    yield from extend(leq, 1)
    del extend  # see `_complete_tables`


def _bounded_posets(n: int):
    """The orders of `_posets_with_bottom(n)` that have a top, in the same
    order: the top is n-1, the last of every linear extension, so each is
    an order of `_posets_with_bottom(n-1)` with n-1 placed above it."""
    if n == 1:
        yield ((True,),)
        return
    last = ((False,) * (n - 1) + (True,),)
    for leq in _posets_with_bottom(n - 1):
        yield tuple(row + (True,) for row in leq) + last


def _poset_representatives(posets):
    """The first poset of each isomorphism class in the stream posets, which
    is `_posets_with_bottom` or `_bounded_posets`.  Isomorphisms of posets
    with a bottom fix 0 (and a top), and relabelling a poset by the
    permutation p of its elements gives another poset of the stream exactly
    when p lists them in a linear extension; those relabellings are marked
    as seen when the class is first met."""
    seen: set = set()
    for leq in posets:
        if leq not in seen:
            yield leq
            _mark_relabellings(leq, seen)


def _mark_relabellings(leq, seen: set) -> None:
    """Add to seen the relabelling of leq by each of its linear extensions
    from 0, walked depth first: each step places an element whose lower
    covers are all placed."""
    n = len(leq)
    below = [[y for y in range(n) if y != x and leq[y][x]] for x in range(n)]
    covers = [
        [y for y in below[x] if not any(leq[y][z] for z in below[x] if z != y)]
        for x in range(n)
    ]
    p, placed = [0], [True] + [False] * (n - 1)

    def walk():
        if len(p) == n:
            seen.add(tuple(tuple(leq[x][y] for y in p) for x in p))
            return
        for x in range(1, n):
            if not placed[x] and all(placed[y] for y in covers[x]):
                p.append(x)
                placed[x] = True
                walk()
                placed[x] = False
                p.pop()

    walk()
    del walk  # see `_complete_tables`


def _chain_poset(n: int):
    return tuple(tuple(i <= j for j in range(n)) for i in range(n))


def _complete_tables(n: int, leq) -> list[tuple]:
    """Backtrack over commutative monotone integral add tables for a fixed
    order that residuate; returns completed (add, res, top) triples.  An
    order without a top has none, and the top, n-1, absorbs: its row and
    column of add are n-1, its residuals 0."""
    top = n - 1
    if not all(leq[a][top] for a in range(n)):
        return []
    geq = [[leq[j][i] for j in range(n)] for i in range(n)]
    ups = [frozenset(j for j in range(n) if geq[j][i]) for i in range(n)]
    add = [[0] * n for _ in range(n)]
    for a in range(n):
        add[a][top] = add[top][a] = top
        add[0][a] = add[a][0] = a
    filled = [[i in (0, top) or j in (0, top) for j in range(n)] for i in range(n)]
    # by_sum[v]: the filled ordered cells (x, y) with add[x][y] == v
    by_sum = [[(0, v), (v, 0)] if v else [(0, 0)] for v in range(n)]
    by_sum[top] = [(x, y) for x in range(n) for y in range(n) if top in (x, y)]
    cells = [(i, j) for i in range(1, top) for j in range(i, top)]
    # Cell k's value must dominate both arguments, ups[i] & ups[j], and, for
    # monotonicity, every filled cell below it in either orientation: the
    # earlier cells of below[k].  The only filled cells above it are the
    # top's, whose value is the maximum: the other cells are filled in
    # lexicographic order, and the numeric order extends the partial one.
    bounds = [sorted(ups[i] & ups[j]) for i, j in cells]
    below = [
        [
            (x, y)
            for x, y in cells[:k]
            if (leq[x][i] and leq[y][j]) or (leq[y][i] and leq[x][j])
        ]
        for k, (i, j) in enumerate(cells)
    ]
    out: list[tuple] = []

    def candidates(k):
        lo = {add[x][y] for x, y in below[k]}
        return [c for c in bounds[k] if all(geq[c][v] for v in lo)]

    def holds(x, y, z):
        # (x+y)+z == x+(y+z), or one of its four sums is still unknown
        if not (filled[x][y] and filled[y][z]):
            return True
        xy, yz = add[x][y], add[y][z]
        if not (filled[xy][z] and filled[x][yz]):
            return True
        return add[xy][z] == add[x][yz]

    def assoc_ok(i, j):
        # Every instance whose sums were all known before (i,j) was placed
        # has been checked already; check those that read the new cell.  The
        # table is commutative, so (z, y, x) states the same equation as
        # (x, y, z) over the same cells, its (z+y)+x being x+(y+z) and its
        # z+(y+x) being (x+y)+z: an instance reading the new cell as y+z or
        # x+(y+z) is the mirror of one reading it as x+y or (x+y)+z.  So,
        # per orientation (a, b) of the cell, only (a, b, t) and (x, y, b)
        # with x+y == a are checked.
        for a, b in {(i, j), (j, i)}:
            ab = add[a][b]
            for t in range(n):  # (a, b, t), with a+b filled
                if filled[b][t]:
                    bt = add[b][t]
                    if filled[ab][t] and filled[a][bt] and add[ab][t] != add[a][bt]:
                        return False
            for x, y in by_sum[a]:
                if not holds(x, y, b):
                    return False
        return True

    def residuates(b):
        # Column b of add is final once its last free cell, (b, top-1), is
        # placed: res[b][c] is the least a with a+b >= c, which comes first
        # in the numeric order if it exists.
        for c in range(n):
            sat = [a for a in range(n) if geq[add[a][b]][c]]
            if not sat or not all(leq[sat[0]][x] for x in sat):
                return False
            res[b][c] = sat[0]
        return True

    def place(k):
        if k == len(cells):
            out.append((tuple(map(tuple, add)), tuple(map(tuple, res)), top))
            return
        i, j = cells[k]
        new = [(i, j)] if i == j else [(i, j), (j, i)]
        for c in candidates(k):
            add[i][j] = add[j][i] = c
            filled[i][j] = filled[j][i] = True
            by_sum[c].extend(new)
            if assoc_ok(i, j) and (j < top - 1 or residuates(i)):
                place(k + 1)
            del by_sum[c][-len(new) :]
            filled[i][j] = filled[j][i] = False
        add[i][j] = add[j][i] = 0

    # rows 0 and top are final: 0 is the identity, and 0+top = top lies
    # above every element
    res = [list(range(n)) for _ in range(top)] + [[0] * n]
    place(0)
    # place refers to itself through this cell; emptying it frees place by
    # reference counting, leaving no cycle for the collector
    del place
    return out


def canonical_key(m: FiniteAlgebra) -> tuple:
    """Lexicographically minimal flattened (add, res, top) over carrier
    permutations p fixing 0, found by a best-first branch and bound over
    prefixes of p.

    A prefix places labels 0..k.  Each placed row i >= 1 of the add key is
    bounded below by its images at the placed columns (an image not yet
    placed read as k+1), followed by the lower bounds min(label, k+1) of its
    unplaced columns sorted ascending, the least arrangement of that
    multiset.  Every completion of the prefix has each of these rows at or
    above its bound, so its key is at or above the list of bounds, compared
    lexicographically row by row; a prefix whose bounds compare above the
    best key's rows is pruned.  Children are tried in ascending order of
    their bounds, ties by element number, so the first leaf is near the
    minimum; a leaf's key is built row by row, dropped once a row exceeds
    the best key's."""
    n = m.size
    add = m.add
    best: list | None = None
    p, inv = [0], [0] + [n] * (n - 1)

    def bounded_rows(k):
        # lower bounds of rows 1..k of the add key over completions of a
        # prefix placing labels 0..k
        rest = [y for y in range(n) if inv[y] == n]
        lab = inv[:]
        for y in rest:
            lab[y] = k + 1
        return [
            tuple([lab[src[y]] for y in p] + sorted([lab[src[y]] for y in rest]))
            for src in [add[x] for x in p[1:]]
        ]

    def leaf():
        nonlocal best
        key = []
        tied = best is not None
        for src in [add[x] for x in p] + [m.res[x] for x in p]:
            row = tuple([inv[src[y]] for y in p])
            if tied:
                if row > best[len(key)]:
                    return
                tied = row == best[len(key)]
            key.append(row)
        top = -1 if m.top is None else inv[m.top]
        if not tied or top < best[-1]:
            best = key + [top]

    def extend(k):
        # labels 0..k are placed; place label k+1
        if k == n - 1:
            leaf()
            return
        children = []
        for x in range(1, n):
            if inv[x] == n:
                p.append(x)
                inv[x] = k + 1
                children.append((bounded_rows(k + 1), x))
                inv[x] = n
                p.pop()
        children.sort()
        for rows, x in children:
            if best is not None and rows > best[1 : k + 2]:
                continue
            p.append(x)
            inv[x] = k + 1
            extend(k + 1)
            inv[x] = n
            p.pop()

    extend(0)
    del extend  # see `_complete_tables`
    return tuple(best[:n]), tuple(best[n : 2 * n]), best[-1]


def _pocrims_of_size(
    n: int, chains_only: bool
) -> list[tuple[FiniteAlgebra, frozenset[str]]]:
    """(algebra, class flags) for one representative of each isomorphism
    class of size-n pocrims whose order is the chain (chains_only) or is
    not, in canonical order.  Every such order is bounded."""
    found: dict[tuple, tuple[FiniteAlgebra, frozenset[str]]] = {}
    chain = _chain_poset(n)
    if chains_only:
        posets = [chain]
    else:
        posets = (
            leq for leq in _poset_representatives(_bounded_posets(n)) if leq != chain
        )
    for leq in posets:
        for add, res, top in _complete_tables(n, leq):
            alg = FiniteAlgebra(n, add, res, top)
            form = canonical_key(alg)
            if form not in found:
                found[form] = (alg, _class_flags(alg))
    return [found[k] for k in sorted(found)]


_POCRIM = frozenset(("pocrim",))
_ENUM_CACHE: dict[tuple[int, frozenset[str]], list[tuple[FiniteAlgebra, frozenset[str]]]] = {}


def _class_block(
    n: int, required: frozenset[str]
) -> list[tuple[FiniteAlgebra, frozenset[str]]]:
    """The (algebra, class flags) pairs of size n whose flags include
    required, in stream order: chains first.  Each size is enumerated once
    per process, and each (size, required) block is filtered from it once."""
    block = _ENUM_CACHE.get((n, required))
    if block is None:
        if required == _POCRIM:
            block = _pocrims_of_size(n, True) + _pocrims_of_size(n, False)
        else:
            block = [p for p in _class_block(n, _POCRIM) if required <= p[1]]
        _ENUM_CACHE[n, required] = block
    return block


def enumerate_classified(
    size_max: int,
    required: frozenset[str] | set[str] = _POCRIM,
    forbidden: frozenset[str] | set[str] = frozenset(),
):
    """(algebra, class flags) pairs in the order of `enumerate_algebras`,
    read size by size from their `_class_block`s."""
    required = frozenset(required) | {"pocrim"}
    forbidden = frozenset(forbidden)
    unknown = (required | forbidden) - set(FLAGS)
    if unknown:
        raise ValueError(
            f"unknown class flag {', '.join(sorted(unknown))};"
            f" FLAGS are {', '.join(FLAGS)}"
        )
    return (
        pair
        for n in range(1, size_max + 1)
        for pair in _class_block(n, required)
        if not (forbidden & pair[1])
    )


def enumerate_algebras(
    size_max: int,
    required: frozenset[str] | set[str] = _POCRIM,
    forbidden: frozenset[str] | set[str] = frozenset(),
):
    """One representative per isomorphism class, sizes ascending, chains
    first within each size, canonical order within each block.  Raises
    ValueError at once for a flag name that is not in FLAGS."""
    return (alg for alg, _ in enumerate_classified(size_max, required, forbidden))


# The class flag that validates each axiom beyond ASM.
_AXIOM_FLAG = {"CWC": "hoop", "CON": "idempotent", "EFQ": "bounded", "DNE": "involutive"}


@cache
def theory_class(t: TheoryId) -> frozenset[str]:
    return frozenset(["pocrim"] + [_AXIOM_FLAG[a] for a in t.axioms() if a != "ASM"])


def find_countermodel(
    s: Sequent, t: TheoryId, size_max: int
) -> tuple[FiniteAlgebra, Assignment] | None:
    """First algebra of t's class (by the enumeration order) falsifying s,
    and the assignment.  With at most _REFUTE_VARS names, sizes 2 to
    _REFUTE_SIZE are one evaluation over their `_union`, whose rows are in
    the walk's order.  Later sizes, or all from 2 with more names (size 1
    falsifies nothing), walk t's `_class_block`s block by block."""
    names = sequent_names(s)
    required = theory_class(t)
    start = 2
    if len(names) <= _REFUTE_VARS:
        row = _refutation(names, required).first_failure(s)
        if row is not None:
            alg, values = _union(len(names), required)[0][row]
            return (alg, dict(zip(names, values))) if alg.size <= size_max else None
        start = _REFUTE_SIZE + 1
    xs = [*map(Var, names)]
    for n in range(start, size_max + 1):
        for alg, _ in _class_block(n, required):
            v = _first_failure(s, xs, alg)
            if v is not None:
                return alg, v
    return None


def countermodel_fault(s: Sequent, t: TheoryId, m: FiniteAlgebra, v: Assignment) -> str | None:
    """Why the kernel rejects (m, v) as a countermodel of s in t's class,
    or None: `check_class` must find m in the class, and s must fail under v."""
    rep = check_class(m)
    if rep.failure or theory_class(t) - rep.flags:
        return rep.failure or f"the algebra is not in the {t} class"
    try:
        return "the sequent holds under the assignment" if seq_holds(s, m, v) else None
    except AlgebraError as e:
        return str(e)


# The largest size whose class algebras a `_union` holds: their disjoint
# union has at most 2 + 2*3 = 8 elements, so a pair fits a byte (to 36 with size 4).
_REFUTE_SIZE = 3
_REFUTE_VARS = 5  # the most names of a `_union`: at most 2^5 + 2 * 3^5 = 518 rows


@cache
def _union(k: int, required: frozenset[str]) -> tuple:
    """(rows, columns, tables, lookup): each row's (algebra, values of k
    names) in the disjoint union of the algebras of sizes 2 to _REFUTE_SIZE
    with flags required, in `_class_block` then product order; the packed
    tables of the names, 0 and 1 over them; its lookup tables."""
    algs = [m for size in range(2, _REFUTE_SIZE + 1) for m, _ in _class_block(size, required)]
    n = sum(m.size for m in algs)
    rows, cols = [], [[] for _ in range(k + 2)]
    tables = {cls: bytearray(256) for cls in (Imp, Tensor, Neg, WConj, SDisj, SImp, Nor)}
    o = 0  # the union's element o + a is element a of m
    for m in algs:
        tails = list(product(range(m.size), repeat=k))
        rows += [(m, tail) for tail in tails]
        for col, vals in zip(cols, [*zip(*tails), [0] * len(tails), [m.top] * len(tails)]):
            col += [o + x for x in vals]
        for cls, t in tables.items():
            own = m._tables[cls]
            for a, b in product(range(m.size), repeat=2):
                t[(o + a) * n + o + b] = o + own[a * m.size + b]
        o += m.size
    columns = [int.from_bytes(bytes(col), "little") for col in cols]
    tables = {c: bytes(t) for c, t in tables.items()}
    return rows, columns, tables, _packed_lookup(n, len(rows))


@cache
def _union_leaves(names: tuple[str, ...], required: frozenset[str]) -> dict:
    """The columns of names, 0 and 1 over their `_union`, by formula."""
    return dict(zip([*map(Var, names), ZERO, ONE], _union(len(names), required)[1]))


def _refutation(names: list[str], required: frozenset[str]) -> _Values:
    """The `_Values` over the `_union` of names and required."""
    _, _, tables, lookup = _union(len(names), required)
    return _Values(_union_leaves(tuple(names), required), tables, lookup)


def refuter(names: list[str], t: TheoryId) -> Callable[[Sequent], bool]:
    """refutes(s): whether an algebra of t's class of size 2 to _REFUTE_SIZE
    falsifies s, a sequent over names, so that s has no proof in t."""
    return _refutation(names, theory_class(t)).refutes


# Plain-text algebra files: `size n`, optional `top i`, `add:` rows, `res:` rows.


def format_algebra(m: FiniteAlgebra) -> str:
    lines = [f"size {m.size}"]
    if m.top is not None:
        lines.append(f"top {m.top}")
    lines.append("add:")
    lines.extend(" ".join(str(x) for x in row) for row in m.add)
    lines.append("res:")
    lines.extend(" ".join(str(x) for x in row) for row in m.res)
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> FiniteAlgebra:
    size = None
    top = None
    add: list[tuple[int, ...]] = []
    res: list[tuple[int, ...]] = []
    target = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, *rest = line.split()
            if head == "size":
                (value,) = rest
                size = int(value)
            elif head == "top":
                (value,) = rest
                top = int(value)
            elif line == "add:":
                target = add
            elif line == "res:":
                target = res
            else:
                if target is None:
                    raise FormulaError(f"unexpected algebra line {line!r}")
                target.append(tuple(int(x) for x in line.split()))
        except ValueError:  # a missing, extra or non-integer number
            raise FormulaError(f"malformed algebra line {line!r}") from None
    if size is None or size < 1 or len(add) != size or len(res) != size:
        raise FormulaError("malformed algebra file")
    for name, rows in (("add", add), ("res", res)):
        for a, row in enumerate(rows):
            if len(row) != size:
                raise FormulaError(
                    f"{name} row {a} has {len(row)} entries, not {size}"
                )
            for x in row:
                if not 0 <= x < size:
                    raise FormulaError(
                        f"{name} row {a}: entry {x} is outside 0..{size - 1}"
                    )
    if top is not None and not 0 <= top < size:
        raise FormulaError(f"top {top} is outside 0..{size - 1}")
    return FiniteAlgebra(size, tuple(add), tuple(res), top)
