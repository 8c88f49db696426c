"""The four double-negation translations and the DNS verification harness.

A translation is a total structural map on core formulas; every translation
sends 1 to 1.  The harness checks, per input formula A:

  DNS1  theory+DNE proves A and the translation of A interderivable;
  DNS2  the translation of each supplied theorem is provable in the theory;
  DNS3  the translation of A is stable under double negation in the theory.

Obligations are discharged by rewriting with a small registered lemma kit
(oriented, applied to a fixed point, each lemma's redexes memoised per
interned subterm), citing a registered provable schema, or bounded sequent
search; a discharged obligation carries a generated chain script that
rechecks, and a failed DNS2 obligation carries a finite countermodel.
Whatever remains is reported inconclusive, never pass/fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .syntax import (
    TRANSLATIONS,
    Formula,
    Imp,
    ONE,
    Tensor,
    Var,
    ZERO,
    core_dneg,
    core_neg,
    expand_derived,
    format_formula,
    replace_at,
    substitute,
)
from .sequent import Sequent, bounded_prove
from .theories import TheoryId
from .algebra import FiniteAlgebra, countermodel_fault, find_countermodel
from .eqengine import (
    EQUIV,
    EqScript,
    EqStep,
    LemmaEntry,
    LemmaRegistry,
    ac_eq,
    ac_match,
    ac_normalize,
    check_script,
    _matches_provable,
)


def translate(scheme: str, f: Formula) -> Formula:
    """Apply one of the four translations to the core form of f."""
    f = expand_derived(f)
    if scheme == "kolmogorov":
        return _kolmogorov(f)
    if scheme == "goedel":
        return _goedel(f)
    if scheme == "gentzen":
        return _gentzen(f)
    if scheme == "glivenko":
        return ONE if f == ONE else core_dneg(f)
    raise ValueError(f"unknown translation {scheme!r}")


def _kolmogorov(f: Formula) -> Formula:
    if isinstance(f, Var):
        return core_dneg(f)
    if f == ONE:
        return ONE
    if isinstance(f, Imp):
        return core_dneg(Imp(_kolmogorov(f.left), _kolmogorov(f.right)))
    return core_dneg(Tensor(_kolmogorov(f.left), _kolmogorov(f.right)))


def _goedel(f: Formula) -> Formula:
    if isinstance(f, Var) or f == ONE:
        return f
    if isinstance(f, Imp):
        return core_neg(Tensor(_goedel(f.left), core_neg(_goedel(f.right))))
    return Tensor(_goedel(f.left), _goedel(f.right))


def _gentzen(f: Formula) -> Formula:
    if isinstance(f, Var):
        return core_dneg(f)
    if f == ONE:
        return ONE
    return type(f)(_gentzen(f.left), _gentzen(f.right))


# Oriented rewriting to a fixed point, producing checkable script steps.

_KIT_ALWAYS = (
    ("tripleneg", False),
    ("stab-imp-dd", False),
    ("stab-imp-neg", False),
    ("stab-imp-dd2", False),
    ("stab-imp-dd3", False),
)
_KIT_CLASSICAL = (("dne-equiv", False),)
_KIT_LUK_I = (("dn-hom-tensor", False), ("dn-hom-imp", False))
_KIT_LAST = (("curry", False),)

_MAX_REDUCE = 400


def _kit_for(theory: TheoryId, registry: LemmaRegistry) -> list[tuple[LemmaEntry, bool]]:
    names: list[tuple[str, bool]] = list(_KIT_ALWAYS)
    if theory.level == "classical":
        names += list(_KIT_CLASSICAL)
    if theory.base in ("lukasiewicz", "full") and theory.level != "minimal":
        names += list(_KIT_LUK_I)
    names += list(_KIT_LAST)
    out = []
    for name, rev in names:
        if name in registry:
            entry = registry.get(name)
            if entry.theory.leq(theory):
                out.append((entry, rev))
    return out


def reduce_with_kit(
    f: Formula, kit: list[tuple[LemmaEntry, bool]]
) -> list[tuple[Formula, EqStep | None]]:
    """Innermost-first oriented rewriting; returns the trace
    [(f, None), (f1, step1), ...] ending at the normal form."""
    trace: list[tuple[Formula, EqStep | None]] = [(f, None)]
    cur = f
    for _ in range(_MAX_REDUCE):
        nxt = _reduce_once(cur, kit)
        if nxt is None:
            return trace
        cur = nxt[0]
        trace.append(nxt)
    raise RuntimeError(
        f"rewriting {format_formula(f)} did not terminate within {_MAX_REDUCE} "
        f"steps; the last lemma applied was {trace[-1][1].lemma!r}"
    )


def _reduce_once(cur: Formula, kit):
    # kit order is priority order: a later lemma fires only when no earlier
    # one has a redex anywhere.  Each lemma's memo already holds every node
    # off the path to the last rewrite.  Formulas stay structural so recorded
    # positions replay in both directions.
    for entry, rev in kit:
        hit = _first_redex(entry, rev, cur)
        if hit is not None:
            pos, new = hit
            out = replace_at(cur, pos, new)
            return out, EqStep("rewrite", EQUIV, out, lemma=entry.id, reverse=rev, pos=pos)
    return None


def _first_redex(entry: LemmaEntry, rev: bool, node: Formula):
    """(position, new subterm) of the lemma's deepest, then leftmost, rewrite
    in node that changes the AC normal form, or None.  Memoised per interned
    node, so a step re-examines only the path to the last rewrite; AC
    normalisation cancels in context, so triviality is judged locally."""
    key = (rev, node)
    if key in entry.redexes:
        return entry.redexes[key]
    best = None
    for i, child in enumerate(node.children()):
        hit = _first_redex(entry, rev, child)
        # best's position counts its child index, so ties go left
        if hit is not None and (best is None or len(hit[0]) >= len(best[0])):
            best = ((i,) + hit[0], hit[1])
    if best is None:
        src, tgt = entry.sides(rev)
        for sigma in ac_match(src, node):
            new = substitute(tgt, sigma)
            if ac_normalize(new) is not ac_normalize(node):
                best = ((), new)
                break
    entry.redexes[key] = best
    return best


def equivalence_script(
    sid: str,
    lhs: Formula,
    rhs: Formula,
    theory: TheoryId,
    registry: LemmaRegistry,
    depth: int = 8,
) -> EqScript | None:
    """A checked script for lhs ~= rhs: reduce both sides with the kit and
    join the traces, falling back to bounded search for the last gap."""
    kit = _kit_for(theory, registry)
    ltrace = reduce_with_kit(lhs, kit)
    rtrace = reduce_with_kit(rhs, kit)
    steps: list[EqStep] = [s for _, s in ltrace[1:]]
    lnorm, rnorm = ltrace[-1][0], rtrace[-1][0]
    if not ac_eq(lnorm, rnorm):
        a, b = expand_derived(lnorm), expand_derived(rnorm)
        if (
            bounded_prove(Sequent((a,), b), theory, depth) is None
            or bounded_prove(Sequent((b,), a), theory, depth) is None
        ):
            return None
        steps.append(EqStep("easy", EQUIV, rnorm, depth=depth))
    # replay the right-hand reduction backwards
    for (prev, _), (_, step) in zip(reversed(rtrace[:-1]), reversed(rtrace[1:])):
        steps.append(
            EqStep(
                "rewrite",
                EQUIV,
                prev,
                lemma=step.lemma,
                reverse=not step.reverse,
                pos=step.pos,
            )
        )
    script = EqScript(sid, theory, lhs, EQUIV, rhs, lhs, tuple(steps))
    return script if check_script(script, registry, depth) else None


def provability_script(
    sid: str,
    goal: Formula,
    theory: TheoryId,
    registry: LemmaRegistry,
    depth: int = 8,
) -> EqScript | None:
    """A checked script for goal ~= 0, i.e. provability of goal."""
    kit = _kit_for(theory, registry)
    trace = reduce_with_kit(goal, kit)
    steps: list[EqStep] = [s for _, s in trace[1:]]
    final = trace[-1][0]
    if not ac_eq(final, ZERO):
        cite = _find_citation(final, theory, registry)
        if cite is not None:
            steps.append(EqStep("rewrite", EQUIV, ZERO, lemma=cite, pos=()))
        elif bounded_prove(Sequent((), expand_derived(final)), theory, depth):
            steps.append(EqStep("easy", EQUIV, ZERO, depth=depth))
        else:
            return None
    script = EqScript(sid, theory, goal, EQUIV, ZERO, goal, tuple(steps))
    return script if check_script(script, registry, depth) else None


def _find_citation(goal: Formula, theory: TheoryId, registry: LemmaRegistry) -> str | None:
    for name, entry in registry.entries.items():
        if not entry.theory.leq(theory):
            continue
        if _matches_provable(entry, goal):
            return name
    return None


# DNS harness


@dataclass
class DnsEntry:
    requirement: str  # DNS1 | DNS2 | DNS3
    formula: Formula
    status: str  # pass | fail | inconclusive
    evidence: str
    script: EqScript | None = None
    countermodel: tuple[FiniteAlgebra, dict] | None = None


@dataclass
class DnsReport:
    scheme: str
    theory: TheoryId
    entries: list[DnsEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def render(self) -> str:
        lines = [f"dns-check scheme={self.scheme} theory={self.theory.name}"]
        for e in self.entries:
            lines.append(
                f"  {e.requirement} {e.status:13s} {format_formula(e.formula)}"
                + (f"  [{e.evidence}]" if e.evidence else "")
            )
        lines.append(f"result: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def check_dns(
    scheme: str,
    theory: TheoryId,
    formulas: list[Formula],
    registry: LemmaRegistry,
    depth: int = 8,
    model_size: int = 6,
) -> DnsReport:
    """Verify the three translation requirements over the supplied formulas.

    The same list feeds all three: its members are the regression theorems
    of theory+DNE used for DNS2, and DNS1/DNS3 range over them as the
    formula sample."""
    if theory.level == "minimal":
        raise ValueError("a double negation translation needs at least EFQ")
    report = DnsReport(scheme, theory)
    classical = theory.classical()
    for f in formulas:
        t = translate(scheme, f)
        script = equivalence_script(
            f"dns1-{scheme}", t, expand_derived(f), classical, registry, depth
        )
        entry = _scripted("DNS1", f, script, "interderivable in " + classical.name)
        if entry.status != "pass":
            entry = _refute_or_keep(
                entry, [Sequent((t,), expand_derived(f)), Sequent((expand_derived(f),), t)],
                classical, model_size,
            )
        report.entries.append(entry)
    for f in formulas:
        t = translate(scheme, f)
        script = provability_script(f"dns2-{scheme}", t, theory, registry, depth)
        if script is not None:
            entry = DnsEntry("DNS2", f, "pass", f"proved in {theory.name}", script)
        else:
            entry = _refute_or_keep(
                DnsEntry("DNS2", f, "inconclusive", "budget exhausted"),
                [Sequent((), t)], theory, model_size,
            )
        report.entries.append(entry)
    for f in formulas:
        t = translate(scheme, f)
        script = equivalence_script(
            f"dns3-{scheme}", core_dneg(t), t, theory, registry, depth
        )
        entry = _scripted("DNS3", f, script, "stable in " + theory.name)
        if entry.status != "pass":
            entry = _refute_or_keep(entry, [Sequent((core_dneg(t),), t)], theory, model_size)
        report.entries.append(entry)
    return report


def _scripted(req: str, f: Formula, script: EqScript | None, how: str) -> DnsEntry:
    if script is not None:
        return DnsEntry(req, f, "pass", how, script)
    return DnsEntry(req, f, "inconclusive", "no script within budget")


def _refute_or_keep(entry: DnsEntry, sequents, theory, model_size) -> DnsEntry:
    for s in sequents:
        got = find_countermodel(s, theory, model_size)
        if got is not None:
            alg, v = got
            why = countermodel_fault(s, theory, alg, v)
            if why:  # entry is not a pass, so it stays as it is, with this evidence
                return replace(entry, evidence=f"the countermodel of {s!r} is rejected: {why}")
            return DnsEntry(
                entry.requirement,
                entry.formula,
                "fail",
                f"countermodel of size {alg.size}",
                countermodel=(alg, v),
            )
    return entry
