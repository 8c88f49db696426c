"""Hilbert-style systems, derivation checking, and proof translation.

Each sequent theory has a Hilbert twin whose only rule is modus ponens; the
base system has composition, commutativity, currying, uncurrying and
weakening, and the extensions add EFQ, DNE, CWC or Con.  The Rose-Rosser
system (A1-A4 over -o and ^ only) is registered alongside them.  Each schema
is written once, as a constructor over its variables (`_MAKE`): an axiom
line is built by it, and `SCHEMAS` holds each constructor applied to the
variables themselves.

`sequent_to_hilbert` realises one direction of the equivalence between the
two presentations constructively: by induction on the proof tree it keeps,
for every node, the context formulas `x1, ..., xk` that the node's leaves
use, each once per use, and a derived formula `comb(x1, ..., xk) -o G` with
`comb = x1 * (x2 * ... )`; an axiom leaf's comb holds only its schema's own
formulas.  The five base schemata serve as the combinators of the B, C, K
reading of a Hilbert system (Troelstra and Schwichtenberg, *Basic Proof
Theory*, ch. 6): Comp composes, Curry, Uncurry and Comm flip two
antecedents, and Wk curried is K.  A formula that no leaf uses is a vacuous
abstraction, and it enters once, by K, where it is discharged (Hindley and
Seldin, *Lambda-Calculus and Combinators*, 2008, ch. 2): `G -o (x -o G)`
composed after the node for a vacuous ImpI hypothesis or a root context
formula, and Wk on the tensor premise for a TensorE component that the body
does not use (a premise neither of whose components is used is left out).
A K over a closed identity `|- a -o a` is built from Comm, Wk and Curry
(`k_ident`), without the identity's own lines.  Every two-premise node goes
through `_apply`: it applies a step `comb(o1) -o (X -o G)` to a premise
`comb(o2) -o X`, chaining them into `comb(o1) -o (comb(o2) -o G)` and
uncurrying `comb(o2)` into the comb one element of o1 at a time; TensorI
applies `a -o (b -o a * b)`, or its flip, to the premise with the shorter
comb first.  No step permutes a comb: ImpI curries its hypothesis out where
it stands (`curry_out`, the mirror of that uncurrying), TensorE curries its
components out and uncurries them into their tensor, and the root curries
the sorted context out one element at a time, last to first.  A subproof is
translated once, and in place of each subproof that concludes its goal from
at least its context, so a detour back to the same sequent is never built.

`hilbert_to_sequent` replays the other direction, turning modus ponens into
ImpE and each axiom instance into one `Lem` leaf.  It only builds: the one
validator of a derivation is `check_derivation`, which the replay calls
first.  Each (schema, theory) sequent proof is found once and admitted by
the kernel (`sequent.admit`) when `schema_proof` first builds it, so the
leaf cites |- schema and the kernel checks that the line is an instance of
it, in time linear in the schema, not in its proof.  `check_derivation`
walks the schema against an axiom line under its substitution
(`_is_instance`), building nothing, and tests an mp line by identity, which
for interned formulas is equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Formula,
    FormulaError,
    Imp,
    ONE,
    ParseError,
    Tensor,
    Var,
    core_dneg,
    core_neg,
    expand_derived,
    format_formula,
    formula_key,
    parse_formula,
)
from .sequent import (
    ProofTree,
    Sequent,
    Verdict,
    _ctx_minus,
    admit,
    bounded_prove,
    check_proof,
    imp_e,
)
from .theories import ALL_THEORIES, TheoryId

# One constructor per schema, over its variables A, B, C in that order:
# `_Builder.axiom` builds an instance with it, and SCHEMAS holds each schema
# as its constructor applied to the variables themselves.
_MAKE = {
    "Comp": lambda A, B, C: Imp(Imp(A, B), Imp(Imp(B, C), Imp(A, C))),
    "Comm": lambda A, B: Imp(Tensor(A, B), Tensor(B, A)),
    "Curry": lambda A, B, C: Imp(Imp(Tensor(A, B), C), Imp(A, Imp(B, C))),
    "Uncurry": lambda A, B, C: Imp(Imp(A, Imp(B, C)), Imp(Tensor(A, B), C)),
    "Wk": lambda A, B: Imp(Tensor(A, B), A),
    "EFQ": lambda A: Imp(ONE, A),
    "DNE": lambda A: Imp(core_dneg(A), A),
    "CWC": lambda A, B: Imp(Tensor(A, Imp(A, B)), Tensor(B, Imp(B, A))),
    "Con": lambda A: Imp(A, Tensor(A, A)),
    "A1": lambda A, B: Imp(A, Imp(B, A)),
    "A2": lambda A, B, C: Imp(Imp(A, B), Imp(Imp(B, C), Imp(A, C))),
    "A3": lambda A, B: Imp(Imp(Imp(A, B), B), Imp(Imp(B, A), A)),
    "A4": lambda A, B: Imp(Imp(core_neg(A), core_neg(B)), Imp(B, A)),
}

SCHEMAS: dict[str, Formula] = {
    name: make(*map(Var, "ABC"[: make.__code__.co_argcount])) for name, make in _MAKE.items()
}


def _is_instance(s: Formula, sigma: dict[str, Formula], f: Formula) -> bool:
    """Whether f is s with each variable X replaced by sigma.get(X, X), for
    a core schema s, walking s against f and building nothing.  The walk is
    unrolled one level: a variable child is looked up in place."""
    if type(s) is Var:
        return sigma.get(s.name, s) is f
    if type(f) is not type(s):
        return False
    if type(s) is not Imp and type(s) is not Tensor:
        return s is f  # the constant 1
    sl, sr = s.left, s.right
    if type(sl) is Var:
        if sigma.get(sl.name, sl) is not f.left:
            return False
    elif not _is_instance(sl, sigma, f.left):
        return False
    if type(sr) is Var:
        return sigma.get(sr.name, sr) is f.right
    return _is_instance(sr, sigma, f.right)


_BASE = ("Comp", "Comm", "Curry", "Uncurry", "Wk")

# The schema that adds each axiom beyond ASM, in the order systems list them.
_AXIOM_SCHEMA = {"CWC": "CWC", "CON": "Con", "EFQ": "EFQ", "DNE": "DNE"}


def system_for(theory: TheoryId) -> tuple[str, ...]:
    return _BASE + tuple(v for k, v in _AXIOM_SCHEMA.items() if k in theory.axioms())


ROSE_ROSSER = ("A1", "A2", "A3", "A4")

SYSTEMS: dict[str, tuple[str, ...]] = {
    f"H-{t.name}": system_for(t) for t in ALL_THEORIES
}
SYSTEMS["RoseRosser"] = ROSE_ROSSER


Justification = tuple  # ("axiom", schema, subst) | ("mp", i, j)


@dataclass(frozen=True)
class HilbertDerivation:
    lines: tuple[tuple[Formula, Justification], ...]

    @property
    def final(self) -> Formula:
        return self.lines[-1][0]

    def __len__(self):
        return len(self.lines)


def check_derivation(d: HilbertDerivation, system: str) -> Verdict:
    """Every line must be a schema instance of the system or follow by
    modus ponens from two earlier lines."""
    try:
        schemas = SYSTEMS[system]
    except KeyError:
        raise ValueError(f"unknown Hilbert system {system!r}")
    lines = d.lines
    for n, (f, just) in enumerate(lines):
        if just[0] == "axiom":
            _, name, subst = just
            if name not in schemas:
                return Verdict(False, f"line {n + 1}: schema {name} not in {system}")
            if not _is_instance(SCHEMAS[name], subst, f):
                return Verdict(False, f"line {n + 1}: not an instance of {name}")
        elif just[0] == "mp":
            _, i, j = just
            if not (0 <= i < n and 0 <= j < n):
                return Verdict(False, f"line {n + 1}: mp premises must be earlier")
            g = lines[j][0]
            if not (type(g) is Imp and g.left is lines[i][0] and g.right is f):
                return Verdict(
                    False,
                    f"line {n + 1}: line {j + 1} is not (line {i + 1}) -o this line",
                )
        else:
            return Verdict(False, f"line {n + 1}: unknown justification {just[0]!r}")
    return Verdict(True)


def curry_sequent(s: Sequent, order: list[Formula] | tuple[Formula, ...]) -> Formula:
    """The right-nested implication C1 -o ... -o Ck -o A."""
    if tuple(sorted(order, key=formula_key)) != s.context:
        raise FormulaError("order does not enumerate the context multiset")
    out = s.goal
    for c in reversed(tuple(order)):
        out = Imp(c, out)
    return out


def rose_rosser_embed(f: Formula) -> Formula:
    """Replace every A * B by (A -o B^)^, innermost first; output uses only
    variables, 1 and -o."""
    f = expand_derived(f)

    def go(g: Formula) -> Formula:
        if isinstance(g, Tensor):
            return core_neg(Imp(go(g.left), core_neg(go(g.right))))
        if isinstance(g, Imp):
            return Imp(go(g.left), go(g.right))
        return g

    return go(f)


class _Id:
    """|- a -o a, standing in for a line index until a line needs it."""

    __slots__ = ("a",)

    def __init__(self, a: Formula):
        self.a = a


Ref = int | _Id


class _Builder:
    """Accumulates derivation lines, each formula emitted once.

    Combinators take and return a `Ref`: a line index, or an `_Id` for an
    identity `|- a -o a` whose lines are not yet emitted.  Composition drops
    an identity, modus ponens against one returns the minor premise, and
    `lift` and `pre` map one to an identity; `line` emits its
    lines only where a line must cite it (an mp minor premise, `c_rule`,
    `extract`), so identities that the combinators cancel cost nothing.

    The comb combinators: `uncurry_comb` joins two combs, the last step of
    `_apply`, through which every two-premise node goes, and `curry_out`
    takes one element out of a comb into the goal, the only way a comb is
    reordered (`_discharge` applies its steps to a node's line by mp, with
    no composition at the top)."""

    def __init__(self, schemas: tuple[str, ...]):
        self.schemas = schemas
        self.lines: list[tuple[Formula, Justification]] = []
        self.by_formula: dict[Formula, int] = {}

    def extract(self, ref: Ref) -> HilbertDerivation:
        """The sub-derivation reachable from ref, renumbered: one backward
        pass marks the premises of each needed line."""
        top = self.line(ref)
        lines = self.lines
        needed = bytearray(top + 1)
        needed[top] = 1
        for k in range(top, -1, -1):
            if needed[k]:
                just = lines[k][1]
                if just[0] == "mp":
                    needed[just[1]] = needed[just[2]] = 1
        if needed.count(1) == len(lines):
            return HilbertDerivation(tuple(lines))
        renum = [0] * (top + 1)
        out = []
        for k in range(top + 1):
            if needed[k]:
                renum[k] = len(out)
                f, just = lines[k]
                if just[0] == "mp":
                    just = ("mp", renum[just[1]], renum[just[2]])
                out.append((f, just))
        return HilbertDerivation(tuple(out))

    def _emit(self, f: Formula, just: Justification) -> int:
        got = self.by_formula.get(f)
        if got is None:
            got = self.by_formula[f] = len(self.lines)
            self.lines.append((f, just))
        return got

    def axiom(self, name: str, **subst: Formula) -> int:
        if name not in self.schemas:
            raise FormulaError(f"schema {name} unavailable in this system")
        return self._emit(_MAKE[name](**subst), ("axiom", name, subst))

    def mp(self, i: Ref, j: Ref) -> Ref:
        fi = self.formula(i)
        if type(j) is _Id:
            if j.a is not fi:
                raise FormulaError("mp: major premise does not match")
            return i
        fj = self.lines[j][0]
        if type(fj) is not Imp or fj.left is not fi:
            raise FormulaError("mp: major premise does not match")
        return self._emit(fj.right, ("mp", self.line(i) if type(i) is _Id else i, j))

    def formula(self, i: Ref) -> Formula:
        if type(i) is _Id:
            return Imp(i.a, i.a)
        return self.lines[i][0]

    def line(self, i: Ref, thm: int | None = None) -> int:
        """The line index of i, emitting an identity's lines on first need:
        two commutations for a tensor, uncurry then curry for a curried
        implication, else `k_ident` applied to a theorem: the line thm, or
        a * a -o a."""
        if not isinstance(i, _Id):
            return i
        a = i.a
        got = self.by_formula.get(Imp(a, a))
        if got is not None:
            return got
        if isinstance(a, Tensor):
            x, y = a.left, a.right
            return self.comp(self.axiom("Comm", A=x, B=y), self.axiom("Comm", A=y, B=x))
        if isinstance(a, Imp) and isinstance(a.right, Imp):
            x, y, z = a.left, a.right.left, a.right.right
            return self.comp(
                self.axiom("Uncurry", A=x, B=y, C=z), self.axiom("Curry", A=x, B=y, C=z)
            )
        if thm is None:
            thm = self.axiom("Wk", A=a, B=a)  # the stock theorem a * a -o a
        return self.mp(thm, self.k_ident(self.formula(thm), a))

    # Derived combinators.

    def comp(self, i: Ref, j: Ref) -> Ref:
        """From |- X -o Y and |- Y -o Z conclude |- X -o Z."""
        if isinstance(i, _Id):
            return j
        if isinstance(j, _Id):
            return i
        fi, fj = self.formula(i), self.formula(j)
        step = self.axiom("Comp", A=fi.left, B=fi.right, C=fj.right)
        return self.mp(j, self.mp(i, step))

    def ident(self, a: Formula) -> _Id:
        """|- a -o a, emitted only where a line cites it."""
        return _Id(a)

    def c_rule(self, i: Ref) -> int:
        """From |- X -o (Y -o Z) conclude |- Y -o (X -o Z)."""
        f = self.formula(i)
        x, y, z = f.left, f.right.left, f.right.right
        unc = self.mp(i, self.axiom("Uncurry", A=x, B=y, C=z))  # x*y -o z
        comm = self.axiom("Comm", A=y, B=x)  # y*x -o x*y
        swapped = self.comp(comm, unc)  # y*x -o z
        return self.mp(swapped, self.axiom("Curry", A=y, B=x, C=z))

    def k(self, g: Formula, x: Formula) -> int:
        """|- g -o (x -o g): K, as Wk(g, x) curried."""
        return self.mp(self.axiom("Wk", A=g, B=x), self.axiom("Curry", A=g, B=x, C=g))

    def k_ident(self, x: Formula, a: Formula) -> int:
        """|- x -o (a -o a), the K over an identity, without the identity's
        own lines: x * a -o a * x -o a, curried."""
        dropped = self.comp(self.axiom("Comm", A=x, B=a), self.axiom("Wk", A=a, B=x))
        return self.mp(dropped, self.axiom("Curry", A=x, B=a, C=a))

    def lift(self, c: Formula, i: Ref) -> Ref:
        """From |- P -o Q conclude |- (C -o P) -o (C -o Q)."""
        if isinstance(i, _Id):
            return _Id(Imp(c, i.a))
        f = self.formula(i)
        step = self.axiom("Comp", A=c, B=f.left, C=f.right)
        return self.mp(i, self.c_rule(step))

    def pair(self, a: Formula, b: Formula) -> int:
        """|- a -o (b -o a * b), from the identity on a * b."""
        t = Tensor(a, b)
        return self.mp(self.ident(t), self.axiom("Curry", A=a, B=b, C=t))

    def pair_flipped(self, a: Formula, b: Formula) -> int:
        """|- b -o (a -o a * b), from b * a -o a * b."""
        t = Tensor(a, b)
        return self.mp(self.axiom("Comm", A=b, B=a), self.axiom("Curry", A=b, B=a, C=t))

    def pre(self, i: Ref, goal: Formula) -> Ref:
        """From |- X -o Y conclude |- (Y -o goal) -o (X -o goal): one Comp
        instance, none for an identity."""
        if isinstance(i, _Id):
            return _Id(Imp(i.a, goal))
        f = self.formula(i)
        return self.mp(i, self.axiom("Comp", A=f.left, B=f.right, C=goal))

    # Right-nested combs over an explicit order.  All structure is driven by
    # the order lists: a context element may itself be a tensor, so the comb
    # shape cannot be recovered from the formula.

    def uncurry_comb(self, o1: list[Formula], o2: list[Formula], goal: Formula) -> Ref:
        """|- (comb(o1) -o (comb(o2) -o goal)) -o (comb(o1 ++ o2) -o goal):
        one Uncurry for a single x, else Curry x off, recurse under x, and
        Uncurry x back on."""
        x, rest = o1[0], o1[1:]
        if not rest:
            return self.axiom("Uncurry", A=x, B=_comb(o2), C=goal)
        curry = self.axiom("Curry", A=x, B=_comb(rest), C=Imp(_comb(o2), goal))
        inner = self.lift(x, self.uncurry_comb(rest, o2, goal))
        unc = self.axiom("Uncurry", A=x, B=_comb(rest + o2), C=goal)
        return self.comp(self.comp(curry, inner), unc)

    def curry_out_steps(self, order: list[Formula], k: int, goal: Formula) -> list[Ref]:
        """The implications whose chain is `curry_out(order, k, goal)`, so
        that a caller holding |- comb(order) -o goal can apply them by mp.
        For order[k] at the head: flip it behind the rest (Comm, Comp), then
        Curry; for [x, a], one Curry; else Curry x off, the lifted recursion,
        and Uncurry x back on."""
        a, rest = order[k], order[:k] + order[k + 1 :]
        if k == 0:
            r = _comb(rest)
            comm = self.axiom("Comm", A=r, B=a)  # r*a -o a*r
            flip = self.mp(comm, self.axiom("Comp", A=Tensor(r, a), B=Tensor(a, r), C=goal))
            return [flip, self.axiom("Curry", A=r, B=a, C=goal)]
        x = order[0]
        if len(order) == 2:
            return [self.axiom("Curry", A=x, B=a, C=goal)]
        return [
            self.axiom("Curry", A=x, B=_comb(order[1:]), C=goal),
            self.lift(x, self.curry_out(order[1:], k - 1, goal)),
            self.axiom("Uncurry", A=x, B=_comb(rest[1:]), C=Imp(a, goal)),
        ]

    def curry_out(self, order: list[Formula], k: int, goal: Formula) -> Ref:
        """|- (comb(order) -o goal) -o (comb(order less k) -o (order[k] -o goal)),
        the mirror of `uncurry_comb`."""
        steps = self.curry_out_steps(order, k, goal)
        out = steps[0]
        for step in steps[1:]:
            out = self.comp(out, step)
        return out


def _comb(order) -> Formula:
    if not order:
        raise FormulaError("empty comb")
    out = order[-1]
    for f in reversed(order[:-1]):
        out = Tensor(f, out)
    return out


@dataclass
class _Node:
    order: list[Formula]  # context enumeration; empty means |- goal directly
    idx: Ref  # comb(order) -o goal, or goal itself


def sequent_to_hilbert(
    p: ProofTree, theory: TheoryId
) -> tuple[HilbertDerivation, list[Formula]]:
    """Translate a checked proof into the matching Hilbert system.

    Returns the derivation and the context order; the final line is
    curry_sequent(conclusion, order) with the context in canonical order.
    """
    v = check_proof(p, theory)
    if not v:
        raise FormulaError(f"sequent proof does not check: {v.message}")
    b = _Builder(SYSTEMS[f"H-{theory.name}"])
    node = _Translation(p, b).node(p)
    order = list(p.conclusion.context)
    goal = p.conclusion.goal
    # the sorted context last to first: a used formula curried out of the
    # comb, an unused one weakened in by K
    for x in reversed(order):
        if x in node.order:
            node = _discharge(b, node, x, goal)
        else:
            node = _weaken(b, node, x, goal)
        goal = Imp(x, goal)
    idx = node.idx
    if b.formula(idx) != curry_sequent(p.conclusion, order):
        raise FormulaError("internal translation error: wrong final formula")
    return b.extract(idx), order


class _Translation:
    """The nodes of one proof's subproofs.  In place of each subproof, the
    lowest one that concludes its goal from a sub-multiset of its context
    is translated (so a detour back to the same sequent is never built),
    and each once."""

    def __init__(self, root: ProofTree, b: _Builder):
        self.b = b
        self.memo: dict[ProofTree, _Node] = {}
        self.short: dict[ProofTree, ProofTree] = {}
        by_goal: dict[Formula, list[ProofTree]] = {}
        stack = [root]
        while stack:
            p = stack.pop()
            by_goal.setdefault(p.conclusion.goal, []).append(p)
            stack += p.premises
        for nodes in by_goal.values():
            if len(nodes) > 1:
                # lowest first, ties in walk order: each node's choice is
                # its own choice's choice, and lower than any node it
                # contains, so the recursion ends
                nodes.sort(key=ProofTree.height)
                for i, p in enumerate(nodes):
                    ctx = p.conclusion.context
                    for q in nodes[:i]:
                        qc = q.conclusion.context
                        if qc == ctx or len(qc) < len(ctx) and _ctx_minus(ctx, qc) is not None:
                            self.short[p] = q
                            break

    def node(self, p: ProofTree) -> _Node:
        p = self.short.get(p, p)
        got = self.memo.get(p)
        if got is None:
            got = self.memo[p] = _translate(p, self)
        return got


def _translate(p: ProofTree, tr: _Translation) -> _Node:
    """The node of p: its comb lists the context formulas that p's leaves
    use, each once per use; the rest of p's context is weakened in where
    it is discharged."""
    b = tr.b
    rule = p.rule
    s = p.conclusion
    if rule == "AxASM":
        return _Node([s.goal], b.ident(s.goal))
    # an axiom |- hyp -o goal over its own hypothesis
    if rule == "AxCON":
        return _Node([s.goal.left], b.axiom("Con", A=s.goal.left))
    if rule == "AxEFQ":
        return _Node([ONE], b.axiom("EFQ", A=s.goal))
    if rule == "AxDNE":
        return _Node([core_dneg(s.goal)], b.axiom("DNE", A=s.goal))
    if rule == "AxCWC":
        bb, a = s.goal.left, s.goal.right.right
        return _Node([a, Imp(a, bb)], b.axiom("CWC", A=a, B=bb))
    if rule == "ImpI":
        sub = tr.node(p.premises[0])
        a, g = s.goal.left, s.goal.right
        if a not in sub.order:  # a vacuous hypothesis: one K
            return _weaken(b, sub, a, g)
        return _discharge(b, sub, a, g)
    if rule == "ImpE":
        minor = tr.node(p.premises[0])
        major = tr.node(p.premises[1])
        return _apply(b, major, minor, s.goal)
    if rule == "TensorI":
        l = tr.node(p.premises[0])
        r = tr.node(p.premises[1])
        a = p.premises[0].conclusion.goal
        bb = p.premises[1].conclusion.goal
        # the premise with the shorter comb first, as `_apply` joins the
        # first one's comb element by element
        if len(l.order) < len(r.order):  # comb(l) -o (b -o a*b)
            part = _apply(b, _Node([], b.pair(a, bb)), l, Imp(bb, s.goal))
            return _apply(b, part, r, s.goal)
        # comb(r) -o (a -o a*b)
        part = _apply(b, _Node([], b.pair_flipped(a, bb)), r, Imp(a, s.goal))
        return _apply(b, part, l, s.goal)
    if rule == "TensorE":
        return _tensor_e(p, tr)
    raise FormulaError(f"unknown rule {rule!r}")


def _tensor_e(p: ProofTree, tr: _Translation) -> _Node:
    """The body with its used components curried out and the tensor premise
    applied: as a*b when both are used, weakened by Wk to the one that is,
    and left out when neither is."""
    b = tr.b
    body = tr.node(p.premises[1])
    t = p.premises[0].conclusion.goal
    a, bb = t.left, t.right
    goal = p.conclusion.goal
    rest = list(body.order)
    used = []
    for x in (a, bb):
        if x in rest:
            rest.remove(x)
            used.append(x)
    if not used:
        return body
    tprem = tr.node(p.premises[0])
    if len(used) == 1:
        (x,) = used
        if x is a:  # a * b -o a
            drop = b.axiom("Wk", A=a, B=bb)
        else:  # a * b -o b * a -o b
            drop = b.comp(b.axiom("Comm", A=a, B=bb), b.axiom("Wk", A=bb, B=a))
        weakened = b.comp(tprem.idx, drop) if tprem.order else b.mp(tprem.idx, drop)
        return _apply(b, _discharge(b, body, x, goal), _Node(tprem.order, weakened), goal)
    if body.order == [a, bb]:  # its comb is exactly a*b
        curried = body.idx
    elif body.order == [bb, a]:  # a*b -o b*a, then the body
        curried = b.comp(b.axiom("Comm", A=a, B=bb), body.idx)
    else:
        # both curried out of the body, the one at its head first (the
        # cheap flip), then uncurried into a*b -o goal
        if body.order[0] is a and a is not bb:  # comb(rest) -o (b -o (a -o goal))
            n = _discharge(b, _discharge(b, body, a, goal), bb, Imp(a, goal))
            unc = b.comp(
                b.axiom("Uncurry", A=bb, B=a, C=goal), b.pre(b.axiom("Comm", A=a, B=bb), goal)
            )
        else:  # comb(rest) -o (a -o (b -o goal))
            n = _discharge(b, _discharge(b, body, bb, goal), a, Imp(bb, goal))
            unc = b.axiom("Uncurry", A=a, B=bb, C=goal)
        curried = b.comp(n.idx, unc) if n.order else b.mp(n.idx, unc)
    return _apply(b, _Node(rest, curried), tprem, goal)


def _weaken(b: _Builder, n: _Node, x: Formula, goal: Formula) -> _Node:
    """From n, |- comb(order) -o goal with x not in order: the node of
    |- comb(order) -o (x -o goal), K composed after n's line, or applied to
    it when order is empty.  A closed identity takes `k_ident`, which emits
    none of the identity's lines."""
    if not n.order and isinstance(n.idx, _Id):
        return _Node([], b.k_ident(x, n.idx.a))
    k = b.k(goal, x)
    return _Node(n.order, b.comp(n.idx, k) if n.order else b.mp(n.idx, k))


def _apply(b: _Builder, f: _Node, x: _Node, goal: Formula) -> _Node:
    """From a step f, |- comb(f.order) -o (X -o goal), and a premise x,
    |- comb(x.order) -o X, the node for f.order ++ x.order.  A node with an
    empty order proves its formula without a comb.  A premise that is a
    closed identity |- c -o c is never cited as such: its lines would be
    built only to be applied."""
    if not x.order and isinstance(x.idx, _Id):
        c = x.idx.a
        if not isinstance(f.idx, _Id):  # f's line is a theorem at hand
            x = _Node([], b.line(x.idx, f.idx))
        elif f.order:  # f is d |- d, d = (c -o c) -o goal
            # d -o (t -o goal) from t -o (c -o c), for the stock theorem
            # t := c * c -o c, flipped and applied to t
            thm = b.axiom("Wk", A=c, B=c)
            pre = b.pre(b.k_ident(b.formula(thm), c), goal)
            return _Node(f.order, b.mp(thm, b.c_rule(pre)))
    if not f.order:
        if not x.order:
            return _Node([], b.mp(x.idx, f.idx))
        return _Node(x.order, b.comp(x.idx, f.idx))
    if not x.order:
        return _Node(f.order, b.mp(x.idx, b.c_rule(f.idx)))
    # f, then (X -o goal) -o (comb(x.order) -o goal) from x; comb(x.order)
    # uncurried into the comb one element of f.order at a time
    chained = b.comp(f.idx, b.pre(x.idx, goal))
    return _Node(f.order + x.order, b.mp(chained, b.uncurry_comb(f.order, x.order, goal)))


def _discharge(b: _Builder, n: _Node, x: Formula, goal: Formula) -> _Node:
    """From n, |- comb(order) -o goal with x in order: the node of
    |- comb(order less x) -o (x -o goal).  For order [x] that is n's own
    line, else each step of `curry_out_steps` applied to n's line by mp,
    with no composition at the top."""
    order = n.order
    if len(order) == 1:
        return _Node([], n.idx)
    k = order.index(x)
    idx = n.idx
    for step in b.curry_out_steps(order, k, goal):
        idx = b.mp(idx, step)
    return _Node(order[:k] + order[k + 1 :], idx)


# Hilbert -> sequent replay

_SCHEMA_PROOFS: dict[tuple[str, TheoryId], ProofTree] = {}


def schema_proof(name: str, theory: TheoryId) -> ProofTree:
    """A once-computed sequent proof of |- schema, admitted in theory when
    it is built."""
    key = (name, theory)
    tree = _SCHEMA_PROOFS.get(key)
    if tree is None:
        tree = bounded_prove(Sequent((), SCHEMAS[name]), theory, 8)
        if tree is None:
            raise FormulaError(f"no sequent proof for schema {name} in {theory}")
        v = admit(tree, theory)
        if not v:
            raise FormulaError(f"schema {name}'s proof is rejected in {theory}: {v.message}")
        _SCHEMA_PROOFS[key] = tree
    return tree


def hilbert_to_sequent(d: HilbertDerivation, theory: TheoryId) -> ProofTree:
    """Replay a derivation as a sequent proof of |- final line: an axiom
    line is a `Lem` leaf concluding it and citing its schema, whose proof
    `schema_proof` admits on first use (one call per distinct schema), and
    an mp line is ImpE.  The derivation is checked first, by
    `check_derivation` in the theory's system; a rejected one raises
    FormulaError with its message, which names the line."""
    v = check_derivation(d, f"H-{theory.name}")
    if not v:
        raise FormulaError(v.message)
    for name in dict.fromkeys(just[1] for _, just in d.lines if just[0] == "axiom"):
        schema_proof(name, theory)
    proofs: list[ProofTree] = []
    for f, just in d.lines:
        if just[0] == "axiom":
            proofs.append(ProofTree(Sequent((), f), "Lem", inst=(SCHEMAS[just[1]],)))
        else:
            proofs.append(imp_e(proofs[just[1]], proofs[just[2]]))
    return proofs[-1]


# Derivation file format: numbered lines
#   n. <formula> | axiom SCHEMA {X=f; Y=g}
#   n. <formula> | mp i j


def format_derivation(d: HilbertDerivation) -> str:
    out = []
    for n, (f, just) in enumerate(d.lines, start=1):
        if just[0] == "axiom":
            _, name, subst = just
            s = "; ".join(
                f"{k}={format_formula(v)}" for k, v in sorted(subst.items())
            )
            out.append(f"{n}. {format_formula(f)} | axiom {name} {{{s}}}")
        else:
            out.append(f"{n}. {format_formula(f)} | mp {just[1] + 1} {just[2] + 1}")
    return "\n".join(out) + "\n"


def parse_derivation(text: str) -> HilbertDerivation:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            number, parsed = _parse_derivation_line(line)
        except ValueError:  # a split with too few parts, or a bad number
            raise FormulaError(f"malformed derivation line {line!r}") from None
        except ParseError as e:  # the formula or a substitution value
            raise FormulaError(f"{e}: {line!r}") from None
        if number != len(lines) + 1:
            raise FormulaError(
                f"derivation line numbered {number} at position {len(lines) + 1}: {line!r}"
            )
        lines.append(parsed)
    if not lines:
        raise FormulaError("empty derivation")
    return HilbertDerivation(tuple(lines))


def _parse_derivation_line(line: str):
    """The line's number and its (formula, justification)."""
    numbered, rest = line.split(".", 1)
    number = int(numbered)
    body, just = rest.rsplit("|", 1)
    f = parse_formula(body.strip())
    just = just.strip()
    if just.startswith("axiom"):
        _, name, braces = just.split(" ", 2)
        braces = braces.strip()
        if not (braces.startswith("{") and braces.endswith("}")):
            raise FormulaError(f"bad substitution in {line!r}")
        subst = {}
        inner = braces[1:-1].strip()
        if inner:
            for item in inner.split(";"):
                k, v = item.split("=", 1)
                subst[k.strip()] = parse_formula(v.strip())
        return number, (f, ("axiom", name, subst))
    if just.startswith("mp"):
        _, i, j = just.split()
        return number, (f, ("mp", int(i) - 1, int(j) - 1))
    raise FormulaError(f"bad justification in {line!r}")
