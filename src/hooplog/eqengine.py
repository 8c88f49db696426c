"""Checker for equational chain proofs over the formula order.

A chain proof claims `lhs >= rhs` or `lhs ~= rhs` in a theory and walks from
`lhs` to `rhs` one step at a time.  Steps rewrite with a registered or
script-local lemma at an explicit position, unfold or fold a derived
connective, insert or delete a provable conjunct or antecedent, or discharge
the whole step with bounded sequent search.  All comparisons are performed
modulo associativity and commutativity of * with unit 0.

Rewriting with an inequational lemma is polarity-aware: using lhs >= rhs
left-to-right at a positive occurrence weakens the whole formula (old >= new)
and at a negative occurrence strengthens it; occurrences under the left
operand of a derived connective have no determinate sign and are rejected.
A lemma registered in one theory is citable exactly in the theories above it
in the strength lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .syntax import (
    DEFINITIONS,
    Formula,
    FormulaError,
    Imp,
    MIXED,
    Neg,
    POSITIVE,
    ParseError,
    Tensor,
    Var,
    ZERO,
    core_neg,
    expand_derived,
    expand_one_level,
    format_formula,
    formula_key,
    is_zero,
    parse_formula,
    replace_at,
    signed_polarity,
    substitute,
    subterm_at,
    variables,
)
from .sequent import ProofTree, Sequent, bounded_prove, check_proof
from .theories import TheoryId, theory_by_name

GEQ = "geq"
EQUIV = "equiv"
LEQ = "leq"


class EqError(Exception):
    pass


class RewriteError(EqError):
    pass


# AC normalisation of * with unit 0


def _spine(f: Formula) -> list[Formula]:
    if isinstance(f, Tensor):
        return _spine(f.left) + _spine(f.right)
    return [f]


_ZERO_CORE = expand_derived(ZERO)


def _build_spine(parts: list[Formula]) -> Formula:
    if not parts:
        return _ZERO_CORE
    parts = sorted(parts, key=formula_key)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Tensor(p, out)
    return out


def ac_normalize(f: Formula) -> Formula:
    """Flatten * spines, drop 0 factors, sort; recursive and idempotent.

    A^ and 0 are notation, not connectives: they normalise to A -o 1 and
    1 -o 1, and a factor 1 -o 1 in a * spine is the unit and disappears.
    The result is cached in the node's `_ac` slot; a normal form holds
    True there rather than itself, so no node refers to itself.
    """
    nf = f._ac
    if nf is None:
        nf = _ac_normalize(f)
        f._ac = True if nf is f else nf
        if nf._ac is None:
            nf._ac = True
        return nf
    return f if nf is True else nf


def _ac_normalize(f: Formula) -> Formula:
    if isinstance(f, Var) or not f.children():
        return _ZERO_CORE if is_zero(f) else f
    if isinstance(f, Tensor):
        parts = []
        for g in _spine(f):
            h = ac_normalize(g)
            if h is _ZERO_CORE:
                continue
            parts.extend(_spine(h))
        return _build_spine(parts)
    if isinstance(f, Neg):
        return core_neg(ac_normalize(f.body))
    return type(f)(ac_normalize(f.left), ac_normalize(f.right))


def ac_eq(a: Formula, b: Formula) -> bool:
    return a == b or ac_normalize(a) == ac_normalize(b)


# First-order AC matching; every variable of the pattern is a metavariable.

Subst = dict[str, Formula]


def ac_match(
    pattern: Formula,
    subject: Formula,
    metavars: frozenset[str] | set[str] | None = None,
):
    """Yield substitutions sigma with pattern[sigma] AC-equal to subject.

    Every pattern variable is a metavariable unless `metavars` restricts
    which names may bind; other variables match only themselves."""
    yield from _match(ac_normalize(pattern), ac_normalize(subject), {}, metavars)


def _match(p: Formula, s: Formula, sigma: Subst, mv: set[str] | None):
    if isinstance(p, Var) and (mv is None or p.name in mv):
        bound = sigma.get(p.name)
        if bound is not None:
            if bound == s:
                yield sigma
        else:
            out = dict(sigma)
            out[p.name] = s
            yield out
        return
    if isinstance(p, Tensor):
        if isinstance(s, Tensor):
            yield from _match_spines(_spine(p), _spine(s), sigma, mv)
        return
    if type(p) is not type(s):
        return
    if not p.children():
        if p == s:
            yield sigma
        return
    for mid in _match(p.left, s.left, sigma, mv):
        yield from _match(p.right, s.right, mid, mv)


def _match_spines(pparts: list[Formula], sparts: list[Formula], sigma: Subst, mv):
    def is_mv(q):
        return isinstance(q, Var) and (mv is None or q.name in mv)

    compounds = [q for q in pparts if not is_mv(q)]
    pvars = [q for q in pparts if is_mv(q)]

    def match_compounds(i: int, remaining: list[Formula], sg: Subst):
        if i == len(compounds):
            yield from match_vars(0, remaining, sg)
            return
        tried: set[Formula] = set()
        for k, cand in enumerate(remaining):
            if cand in tried:
                continue
            tried.add(cand)
            rest = remaining[:k] + remaining[k + 1 :]
            for sg2 in _match(compounds[i], cand, sg, mv):
                yield from match_compounds(i + 1, rest, sg2)

    def match_vars(i: int, remaining: list[Formula], sg: Subst):
        if i == len(pvars):
            if not remaining:
                yield sg
            return
        v = pvars[i]
        bound = sg.get(v.name)
        if bound is not None:
            need = _spine(ac_normalize(bound))
            rest = list(remaining)
            for item in need:
                if item in rest:
                    rest.remove(item)
                else:
                    return
            yield from match_vars(i + 1, rest, sg)
            return
        last = i == len(pvars) - 1
        if last:
            if not remaining:
                return
            out = dict(sg)
            out[v.name] = _build_spine(list(remaining))
            yield out
            return
        n = len(remaining)
        # assign a nonempty subset to v, dedup by subset mask
        for mask in range(1, 1 << n):
            part = [remaining[k] for k in range(n) if mask >> k & 1]
            rest = [remaining[k] for k in range(n) if not mask >> k & 1]
            out = dict(sg)
            out[v.name] = _build_spine(part)
            yield from match_vars(i + 1, rest, out)

    yield from match_compounds(0, list(sparts), sigma)


# Lemma entries and the registry


@dataclass(frozen=True)
class LemmaEntry:
    """A citable claim `lhs >= rhs` or `lhs ~= rhs` in a theory.  The forms
    that rewrite steps (`fresh`) and provability citations
    (`provable_patterns`) match against are built once, on first use."""

    id: str
    lhs: Formula
    rhs: Formula
    relation: str  # GEQ or EQUIV
    theory: TheoryId
    provenance: str = ""

    def sides(self, reverse: bool) -> tuple[Formula, Formula]:
        return (self.rhs, self.lhs) if reverse else (self.lhs, self.rhs)

    @cached_property
    def fresh(self) -> tuple[Formula, Formula, frozenset[str]]:
        """lhs and rhs with the metavariables renamed apart from any script
        variable (`?` prefixed), and the renamed names."""
        names = variables(self.lhs) | variables(self.rhs)
        ren = {v: Var("?" + v) for v in names}
        return (
            substitute(self.lhs, ren),
            substitute(self.rhs, ren),
            frozenset("?" + v for v in names),
        )

    @cached_property
    def bound_targets(self) -> tuple[bool, bool]:
        """Per direction, forward then reverse: whether every metavariable
        of the target side also occurs on the source side, so that a match
        of the source leaves none in the rewritten formula."""
        lhs, rhs = variables(self.lhs), variables(self.rhs)
        return rhs <= lhs, lhs <= rhs

    @cached_property
    def provable_patterns(self) -> tuple[Formula, ...]:
        """The provable forms of the lemma, derived connectives expanded:
        its implication forms, curried when a side is a * spine, and its
        other side when one side is the constant 0."""
        pats = [Imp(self.lhs, self.rhs)]
        pats.extend(_curried_forms(self.lhs, self.rhs))
        if self.relation == EQUIV:
            pats.append(Imp(self.rhs, self.lhs))
            pats.extend(_curried_forms(self.rhs, self.lhs))
            if is_zero(self.rhs):
                pats.append(self.lhs)
        if is_zero(self.lhs):
            pats.append(self.rhs)
        return tuple(expand_derived(p) for p in pats)

    @cached_property
    def redexes(self) -> dict:
        """(reverse, node) -> the node's first kit redex, kept by `translate`."""
        return {}


class LemmaRegistry:
    """Append-only store; registration demands checked evidence."""

    def __init__(self):
        self.entries: dict[str, LemmaEntry] = {}
        self.evidence: dict[str, object] = {}

    def get(self, lemma_id: str) -> LemmaEntry:
        try:
            return self.entries[lemma_id]
        except KeyError:
            raise EqError(f"unknown lemma {lemma_id!r}")

    def __contains__(self, lemma_id: str) -> bool:
        return lemma_id in self.entries

    def register(self, entry: LemmaEntry, proof) -> None:
        if entry.id in self.entries:
            raise EqError(f"duplicate lemma id {entry.id!r}")
        v = self.validate(entry, proof)
        if not v[0]:
            raise EqError(f"registration of {entry.id!r} rejected: {v[1]}")
        self.entries[entry.id] = entry
        self.evidence[entry.id] = proof

    def validate(self, entry: LemmaEntry, proof):
        """(ok, message) for the evidence of entry: a proof tree or a script,
        or a (forward, backward) pair of them, one per direction."""
        if proof is None:
            return False, "unproved registration"
        if isinstance(proof, tuple) and len(proof) == 2:
            items = ((proof[0], False), (proof[1], True))
        elif isinstance(proof, ProofTree) and entry.relation == EQUIV:
            return False, "an equivalence needs proofs in both directions"
        else:
            items = ((proof, False),)
        # one script for an equivalence must prove it both ways
        need_equiv = len(items) == 1 and entry.relation == EQUIV
        for item, reverse in items:
            if isinstance(item, ProofTree):
                v = self._validate_tree(entry, item, reverse)
            elif isinstance(item, EqScript):
                v = self._validate_script(entry, item, need_equiv, reverse)
            else:
                v = (False, f"unrecognised evidence {item!r}")
            if not v[0]:
                return v
        return True, ""

    def _validate_tree(self, entry: LemmaEntry, tree: ProofTree, reverse: bool):
        lhs, rhs = entry.sides(reverse)
        want_l = expand_derived(lhs)
        want_r = expand_derived(rhs)
        concl = tree.conclusion
        ok_shape = (
            concl.goal == want_r
            and concl.context == Sequent((want_l,), want_r).context
        )
        if not ok_shape:
            if is_zero(lhs) and concl == Sequent((), want_r):
                ok_shape = True  # provability form: |- rhs establishes 0 >= rhs
        if not ok_shape:
            return False, "proof tree conclusion does not match the claim"
        v = check_proof(tree, entry.theory)
        if not v:
            return False, f"proof tree rejected: {v.message}"
        return True, ""

    def _validate_script(self, entry, script: "EqScript", need_equiv: bool, reverse: bool):
        lhs, rhs = entry.sides(reverse)
        if script.assumes:
            return False, "cannot register a lemma from a hypothetical script"
        if not (ac_eq(script.claim_lhs, lhs) and ac_eq(script.claim_rhs, rhs)):
            return False, "script claim differs from the lemma statement"
        if need_equiv and script.claim_rel != EQUIV:
            return False, "lemma claims an equivalence, script proves only >="
        if not script.theory.leq(entry.theory):
            return False, "script theory is not below the lemma theory"
        rep = check_script(script, self)
        if not rep.ok:
            return False, f"script {script.id} rejected at step {rep.step}: {rep.message}"
        return True, ""


# Scripts


@dataclass(frozen=True)
class EqStep:
    kind: str  # rewrite | unfold-or-fold 'def' | ins | del | easy
    relation: str  # GEQ or EQUIV as claimed in the script
    result: Formula
    lemma: str | None = None
    reverse: bool = False
    pos: tuple[int, ...] = ()
    conn: str | None = None
    formula: Formula | None = None
    just: str | None = None  # for ins/del: lemma id or 'easy'
    depth: int | None = None


@dataclass(frozen=True)
class EqScript:
    id: str
    theory: TheoryId
    claim_lhs: Formula
    claim_rel: str
    claim_rhs: Formula
    start: Formula
    steps: tuple[EqStep, ...]
    assumes: tuple[LemmaEntry, ...] = ()


@dataclass
class ScriptReport:
    ok: bool
    message: str = ""
    step: int = -1

    def __bool__(self):
        return self.ok


def _compose(rel_a: str, rel_b: str) -> str:
    if rel_a == EQUIV:
        return rel_b
    if rel_b == EQUIV:
        return rel_a
    return GEQ if rel_a == rel_b == GEQ else LEQ


def check_script(
    script: EqScript, registry: LemmaRegistry, easy_depth: int = 8
) -> ScriptReport:
    """Accept iff each step follows from its predecessor and the composed
    relation refines the claim."""
    local = {e.id: e for e in script.assumes}
    if not ac_eq(script.start, script.claim_lhs):
        return ScriptReport(False, "start formula differs from the claim's left side")
    cur = script.start
    composed = EQUIV
    for i, step in enumerate(script.steps):
        try:
            rel = _check_step(cur, step, script, local, registry, easy_depth)
        except EqError as e:
            return ScriptReport(False, str(e), i)
        if step.relation == EQUIV and rel != EQUIV:
            return ScriptReport(
                False, f"step claims ~= but only {rel} was established", i
            )
        if rel == LEQ:
            return ScriptReport(False, "rewrite runs against the chain direction", i)
        composed = _compose(composed, step.relation)
        cur = step.result
    if not ac_eq(cur, script.claim_rhs):
        return ScriptReport(False, "chain does not end at the claim's right side")
    if script.claim_rel == EQUIV and composed != EQUIV:
        return ScriptReport(False, "claim is ~= but the chain only proves >=")
    return ScriptReport(True)


def _resolve_lemma(name, script, local, registry) -> LemmaEntry:
    if name in local:
        return local[name]
    entry = registry.get(name)
    if not entry.theory.leq(script.theory):
        raise EqError(
            f"lemma {name!r} lives in {entry.theory}, above the script theory {script.theory}"
        )
    return entry


def _check_step(cur, step, script, local, registry, easy_depth) -> str:
    if step.kind == "rewrite":
        entry = _resolve_lemma(step.lemma, script, local, registry)
        return _check_rewrite(cur, step, entry)
    if step.kind == "def":
        return _check_def(cur, step)
    if step.kind in ("ins", "del"):
        _check_provable(step, script, local, registry, easy_depth)
        return _check_insdel(cur, step)
    if step.kind == "easy":
        return _check_easy(cur, step, script, easy_depth)
    raise EqError(f"unknown step kind {step.kind!r}")


def _check_rewrite(cur: Formula, step: EqStep, entry: LemmaEntry) -> str:
    try:
        sub = subterm_at(cur, step.pos)
    except FormulaError:
        raise RewriteError(f"position {step.pos} does not exist")
    lhs, rhs, fresh = entry.fresh
    src, tgt = (rhs, lhs) if step.reverse else (lhs, rhs)
    bound = entry.bound_targets[step.reverse]
    for sigma in ac_match(src, sub, metavars=fresh):
        shape = replace_at(cur, step.pos, substitute(tgt, sigma))
        # with every metavariable bound, the rewritten formula is ground: it
        # is the stated result iff their AC normal forms, canonical and
        # interned, are one node.  Metavariables occurring only on the
        # target side are solved by matching it against the stated result.
        if bound:
            ok = ac_eq(shape, step.result)
        else:
            ok = next(ac_match(shape, step.result, metavars=fresh), None) is not None
        if ok:
            return _rewrite_relation(cur, step, entry)
    # implication-form fallback: a provable instance collapses to 0
    if not step.reverse and _matches_provable(entry, sub):
        out = replace_at(cur, step.pos, ZERO)
        if ac_eq(out, step.result):
            return EQUIV
    raise RewriteError(
        f"lemma {entry.id!r} does not rewrite {format_formula(sub)} "
        f"to the stated result at {step.pos}"
    )


def _rewrite_relation(cur: Formula, step: EqStep, entry: LemmaEntry) -> str:
    if entry.relation == EQUIV:
        return EQUIV
    pol = signed_polarity(cur, step.pos)
    if pol == MIXED:
        raise RewriteError(
            "inequational rewriting under a derived connective's left operand"
        )
    forwards = not step.reverse
    if (pol == POSITIVE) == forwards:
        return GEQ
    return LEQ


def _curried_forms(lhs: Formula, rhs: Formula):
    """Curried implication forms x1 -o ... -o xk -o rhs of a * premise."""
    parts = _spine(ac_normalize(lhs))
    if len(parts) < 2 or len(parts) > 4:
        return []
    out = []
    for perm in permutations(parts):
        f = rhs
        for p in reversed(perm):
            f = Imp(p, f)
        out.append(f)
    return out


def _matches_provable(entry: LemmaEntry, g: Formula) -> bool:
    """True when g is, up to definitions and AC, an instance of a provable
    form of the lemma: its implication form, or its other side when one side
    is the constant 0."""
    target = expand_derived(g)
    for pat in entry.provable_patterns:
        for _sigma in ac_match(pat, target):
            return True
    return False


def _check_def(cur: Formula, step: EqStep) -> str:
    if step.conn not in DEFINITIONS:
        raise EqError(f"unknown connective {step.conn!r}")
    cls = DEFINITIONS[step.conn][0]
    try:
        sub = subterm_at(cur, step.pos)
    except FormulaError:
        raise EqError(f"position {step.pos} does not exist")
    if type(sub) is cls:
        out = replace_at(cur, step.pos, expand_one_level(sub))
        if ac_eq(out, step.result):
            return EQUIV
        raise EqError(f"unfolding {step.conn} does not give the stated result")
    # fold: the result carries the derived node at this position
    try:
        res_sub = subterm_at(step.result, step.pos)
    except FormulaError:
        raise EqError(f"position {step.pos} does not exist in the result")
    if type(res_sub) is not cls:
        raise EqError(f"{step.conn} occurs at {step.pos} in neither side")
    if not ac_eq(expand_one_level(res_sub), sub):
        raise EqError(f"folding {step.conn} does not match the current subterm")
    if not ac_eq(replace_at(cur, step.pos, res_sub), step.result):
        raise EqError("fold result differs outside the stated position")
    return EQUIV


def _check_provable(step, script, local, registry, easy_depth) -> None:
    g = step.formula
    if step.just == "easy":
        depth = step.depth or easy_depth
        core = expand_derived(g)
        if not _discharged(Sequent((), core), script.theory, depth):
            raise EqError(
                f"could not discharge |- {format_formula(g)} within depth {depth}"
            )
        return
    entry = _resolve_lemma(step.just, script, local, registry)
    if not _matches_provable(entry, g):
        raise EqError(
            f"lemma {entry.id!r} does not justify provability of {format_formula(g)}"
        )


def _check_insdel(cur: Formula, step: EqStep) -> str:
    g = step.formula
    if step.kind == "ins":
        small, big = cur, step.result
    else:
        small, big = step.result, cur
    try:
        sub_small = subterm_at(small, step.pos)
        sub_big = subterm_at(big, step.pos)
    except FormulaError:
        raise EqError(f"position {step.pos} does not exist")
    conjunct = ac_eq(sub_big, Tensor(g, sub_small))
    antecedent = isinstance(sub_big, Imp) and ac_eq(sub_big.left, g) and ac_eq(
        sub_big.right, sub_small
    )
    if not (conjunct or antecedent):
        raise EqError(
            f"{step.kind} of {format_formula(g)} does not connect the two sides"
        )
    if not ac_eq(replace_at(small, step.pos, sub_big), big):
        raise EqError(f"{step.kind} changes the formula outside {step.pos}")
    return EQUIV


def _check_easy(cur: Formula, step: EqStep, script: EqScript, easy_depth) -> str:
    depth = step.depth or easy_depth
    a = expand_derived(cur)
    b = expand_derived(step.result)
    if not _discharged(Sequent((a,), b), script.theory, depth):
        raise EqError(
            f"easy step not discharged: {format_formula(cur)} |- "
            f"{format_formula(step.result)} within depth {depth}"
        )
    if step.relation == EQUIV:
        if not _discharged(Sequent((b,), a), script.theory, depth):
            raise EqError("easy step claims ~= but the converse was not discharged")
        return EQUIV
    return GEQ


def _discharged(s: Sequent, theory: TheoryId, depth: int) -> bool:
    """Whether the bounded search proves s within depth.  Its proof must
    pass the kernel, `check_proof`, and conclude s itself; one that does not
    is an EqError."""
    tree = bounded_prove(s, theory, depth)
    if tree is None:
        return False
    v = check_proof(tree, theory)
    if not v or tree.conclusion != s:
        why = v.message if not v else f"it concludes {tree.conclusion!r}"
        raise EqError(f"the search's proof of {s!r} is rejected: {why}")
    return True


def apply_rewrite(
    f: Formula,
    lemma: LemmaEntry,
    direction: str,
    pos: tuple[int, ...],
    sigma: Subst,
    script_theory: TheoryId | None = None,
) -> tuple[Formula, str]:
    """Rewrite with an explicit substitution; returns the new formula and the
    induced whole-formula relation (GEQ means old >= new)."""
    if script_theory is not None and not lemma.theory.leq(script_theory):
        raise RewriteError(f"lemma {lemma.id!r} exceeds the theory {script_theory}")
    reverse = direction == "rl"
    src, tgt = lemma.sides(reverse)
    sub = subterm_at(f, pos)
    if not ac_eq(substitute(src, sigma), sub):
        raise RewriteError("substituted pattern does not match the subterm")
    out = replace_at(f, pos, substitute(tgt, sigma))
    if lemma.relation == EQUIV:
        return out, EQUIV
    pol = signed_polarity(f, pos)
    if pol == MIXED:
        raise RewriteError("no determinate polarity at this position")
    rel = GEQ if (pol == POSITIVE) != reverse else LEQ
    return out, rel


# Script file format:
#   lemma <id> theory <T> claim <formula> <~=|>=> <formula>
#   assume <id> <formula> <~=|>=> <formula>        (script-local hypotheses)
#   start <formula>
#   =  <formula> by <justification>
#   >= <formula> by <justification>
# with justification one of:
#   <lemma-id> at <pos> [rev] | def <conn> at <pos>
#   | ins <formula> at <pos> by <just> | del <formula> at <pos> by <just>
#   | easy <depth>
# Positions are dot-joined child indices, `root` for the empty path.


def parse_position(text: str, line: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("root", "-", ""):
        return ()
    try:
        return tuple(int(t) for t in text.split("."))
    except ValueError:
        raise EqError(f"position {text!r} is not dot-joined integers: {line!r}") from None


def format_position(pos: tuple[int, ...]) -> str:
    return ".".join(str(i) for i in pos) if pos else "root"


def _formula(text: str, line: str) -> Formula:
    """parse_formula, with a parse error naming the script line."""
    try:
        return parse_formula(text)
    except ParseError as e:
        raise EqError(f"{e}: {line!r}") from None


def _split_claim(text: str, line: str):
    """The two sides and the relation of a claim; EqError naming the line
    if there is no relation or a side does not parse."""
    for sep, rel in ((" ~= ", EQUIV), (" >= ", GEQ)):
        if sep in text:
            l, r = text.split(sep, 1)
            return _formula(l, line), rel, _formula(r, line)
    raise EqError(f"claim needs '~=' or '>=': {line!r}")


def parse_script(text: str) -> EqScript:
    sid = theory = claim = start = None
    assumes: list[LemmaEntry] = []
    steps: list[EqStep] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("lemma "):
            head, claim_text = _cut(line, " claim ", line)
            parts = head.split()
            if "theory" not in parts[1:-1]:
                raise EqError(f"lemma line has no 'theory <name>': {line!r}")
            if parts.index("theory") == 1:
                raise EqError(f"lemma line has no id before 'theory': {line!r}")
            sid, theory = parts[1], theory_by_name(parts[parts.index("theory") + 1])
            claim = _split_claim(claim_text, line)
        elif line.startswith("assume "):
            if theory is None:
                raise EqError("assume lines must follow the lemma header")
            name, _, rest = line[len("assume ") :].partition(" ")
            if not rest:
                raise EqError(f"assume line has no claim after its id: {line!r}")
            l, rel, r = _split_claim(rest, line)
            assumes.append(LemmaEntry(name, l, r, rel, theory, "local hypothesis"))
        elif line.startswith("start "):
            start = _formula(line[len("start ") :], line)
        elif line.startswith(">= ") or line.startswith("= "):
            rel = GEQ if line.startswith(">= ") else EQUIV
            body = line[3:] if line.startswith(">= ") else line[2:]
            if " by " not in body:
                raise EqError(f"step needs a justification: {line!r}")
            ftext, just = body.split(" by ", 1)
            steps.append(_parse_step(rel, _formula(ftext, line), just.strip(), line))
        else:
            raise EqError(f"unparsable script line: {line!r}")
    if sid is None or claim is None or start is None:
        raise EqError("script needs lemma, claim and start lines")
    return EqScript(sid, theory, claim[0], claim[1], claim[2], start, tuple(steps), tuple(assumes))


def _cut(text: str, sep: str, line: str) -> tuple[str, str]:
    """text split at its last sep; EqError naming the line if there is none."""
    head, found, tail = text.rpartition(sep)
    if not found:
        raise EqError(f"script line has no {sep!r}: {line!r}")
    return head, tail


def _easy_depth(text: str, line: str) -> int | None:
    depth = text.split()[1:2]
    try:
        return int(depth[0]) if depth else None
    except ValueError:
        raise EqError(f"easy depth {depth[0]!r} is not an integer: {line!r}") from None


def _parse_step(rel: str, result: Formula, just: str, line: str) -> EqStep:
    if just.startswith("easy"):
        return EqStep("easy", rel, result, depth=_easy_depth(just, line))
    if just.startswith("def "):
        conn, pos = _cut(just[len("def ") :], " at ", line)
        pos = parse_position(pos, line)
        return EqStep("def", rel, result, conn=conn.strip(), pos=pos)
    if just.startswith(("ins ", "del ")):
        kind = just[:3]
        body, inner = _cut(just[4:], " by ", line)
        ftext, pos = _cut(body, " at ", line)
        inner = inner.strip()
        depth = None
        if inner.startswith("easy"):
            depth = _easy_depth(inner, line)
            inner = "easy"
        return EqStep(
            kind,
            rel,
            result,
            pos=parse_position(pos, line),
            formula=_formula(ftext, line),
            just=inner,
            depth=depth,
        )
    reverse = False
    if just.endswith(" rev"):
        reverse = True
        just = just[: -len(" rev")]
    name, pos = _cut(just, " at ", line)
    return EqStep(
        "rewrite",
        rel,
        result,
        lemma=name.strip(),
        reverse=reverse,
        pos=parse_position(pos, line),
    )


def format_script(s: EqScript) -> str:
    rel = {EQUIV: "~=", GEQ: ">="}
    lines = [
        f"lemma {s.id} theory {s.theory.name} claim "
        f"{format_formula(s.claim_lhs)} {rel[s.claim_rel]} {format_formula(s.claim_rhs)}"
    ]
    for a in s.assumes:
        lines.append(
            f"assume {a.id} {format_formula(a.lhs)} {rel[a.relation]} {format_formula(a.rhs)}"
        )
    lines.append(f"start {format_formula(s.start)}")
    step_rel = {EQUIV: "=", GEQ: ">="}
    for st in s.steps:
        lines.append(f"{step_rel[st.relation]} {format_formula(st.result)} by {_fmt_just(st)}")
    return "\n".join(lines) + "\n"


def _fmt_just(st: EqStep) -> str:
    if st.kind == "easy":
        return f"easy {st.depth}" if st.depth else "easy"
    if st.kind == "def":
        return f"def {st.conn} at {format_position(st.pos)}"
    if st.kind in ("ins", "del"):
        inner = st.just if st.just != "easy" else (
            f"easy {st.depth}" if st.depth else "easy"
        )
        return (
            f"{st.kind} {format_formula(st.formula)} at {format_position(st.pos)} by {inner}"
        )
    rev = " rev" if st.reverse else ""
    return f"{st.lemma} at {format_position(st.pos)}{rev}"
