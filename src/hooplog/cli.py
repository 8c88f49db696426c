"""Command-line front end.

Every subcommand is non-interactive and exits 0 on success, 1 when the
checked object is rejected or a search refutes/exhausts, and 2 on usage or
input errors.  Budgets are explicit flags: proof depth defaults to 8 and
model size to 6, and a size, depth or budget below 1 is a usage error.

A command imports `hilbert`, `eqengine`, `translate` and `corpus` only when
it uses them, so that `parse`, `prove` and `models` load no more than
`syntax`, `theories`, `sequent` and `algebra`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .syntax import (
    TRANSLATIONS,
    FormulaError,
    Formula,
    Var,
    expand_derived,
    format_formula,
    parse_formula,
)
from .theories import theory_by_name
from .sequent import (
    Sequent,
    bounded_prove,
    check_proof,
    format_proof,
    parse_proof,
    parse_sequent,
)
from .algebra import (
    check_class,
    countermodel_fault,
    enumerate_classified,
    find_countermodel,
    format_algebra,
    parse_algebra,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormulaError, _eq_error(), ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _eq_error() -> type:
    """`eqengine.EqError`, imported only once a command has raised."""
    from .eqengine import EqError

    return EqError


def _at_least_one(text: str) -> int:
    """argparse type of the size, depth, budget and k arguments."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hooplog")
    sub = p.add_subparsers(required=True)

    q = sub.add_parser("parse", help="parse a formula and print its tree")
    q.add_argument("formula")
    q.set_defaults(func=_cmd_parse)

    q = sub.add_parser("check", help="check a proof, derivation or chain script")
    q.add_argument("file")
    q.add_argument("--kind", choices=("proof", "derivation", "script"), default=None)
    q.add_argument("--theory", default="ALm")
    q.add_argument("--depth", type=_at_least_one, default=8)
    q.set_defaults(func=_cmd_check)

    q = sub.add_parser("prove", help="bounded backward search for a sequent")
    q.add_argument("sequent")
    q.add_argument("--theory", default="ALm")
    q.add_argument("--depth", type=_at_least_one, default=8)
    q.set_defaults(func=_cmd_prove)

    q = sub.add_parser("models", help="finite algebra tools")
    msub = q.add_subparsers(required=True)
    f = msub.add_parser("find", help="search for a countermodel")
    f.add_argument("--theory", default="ALm")
    f.add_argument("--max-size", type=_at_least_one, default=6)
    f.add_argument("--falsify", required=True, metavar="SEQUENT")
    f.set_defaults(func=_cmd_models_find)
    e = msub.add_parser("enum", help="enumerate algebras up to isomorphism")
    e.add_argument("--max-size", type=_at_least_one, default=4)
    e.add_argument("--require", default="pocrim")
    e.add_argument("--forbid", default="")
    e.set_defaults(func=_cmd_models_enum)
    c = msub.add_parser("classify", help="report the class flags of an algebra file")
    c.add_argument("file")
    c.set_defaults(func=_cmd_models_classify)

    q = sub.add_parser("translate", help="apply a double negation translation")
    q.add_argument("formula")
    q.add_argument("--scheme", choices=TRANSLATIONS, required=True)
    q.set_defaults(func=_cmd_translate)

    q = sub.add_parser("dns-check", help="verify the three translation requirements")
    q.add_argument("--scheme", choices=TRANSLATIONS, required=True)
    q.add_argument("--theory", default="ALi")
    q.add_argument("--budget", type=_at_least_one, default=8)
    q.add_argument("--max-size", type=_at_least_one, default=6)
    q.set_defaults(func=_cmd_dns)

    q = sub.add_parser("corpus", help="the result catalogue")
    csub = q.add_subparsers(required=True)
    r = csub.add_parser("run", help="re-verify every catalogued entry")
    r.add_argument("--filter", default=None)
    r.add_argument("--timing", action="store_true", help="include wall-clock times")
    r.set_defaults(func=_cmd_corpus_run)
    g = csub.add_parser("gen-k", help="emit the k-copies entry and its script")
    g.add_argument("k", type=_at_least_one)
    g.set_defaults(func=_cmd_gen_k)
    s = csub.add_parser("show", help="print a catalogued entry and its evidence")
    s.add_argument("id")
    s.set_defaults(func=_cmd_corpus_show)
    return p


def _cmd_parse(args) -> int:
    f = parse_formula(args.formula)
    print(format_formula(f))
    _print_tree(f, 0)
    return 0


def _print_tree(f: Formula, indent: int) -> None:
    if not f.children():
        label = "Var" if isinstance(f, Var) else "Const"
        print("  " * indent + f"{label} {format_formula(f)}")
        return
    print("  " * indent + type(f).__name__)
    for c in f.children():
        _print_tree(c, indent + 1)


def _cmd_check(args) -> int:
    text = Path(args.file).read_text()
    kind = args.kind or _sniff(text)
    theory = theory_by_name(args.theory)
    if kind == "proof":
        tree = parse_proof(text)
        v = check_proof(tree, theory)
        print(f"proof of {tree.conclusion!r} in {theory}: "
              + ("accepted" if v else f"rejected: {v.message}"))
        return 0 if v else 1
    if kind == "derivation":
        from .hilbert import check_derivation, parse_derivation

        d = parse_derivation(text)
        v = check_derivation(d, f"H-{theory.name}")
        print(f"derivation of {format_formula(d.final)} in H-{theory.name}: "
              + ("accepted" if v else f"rejected: {v.message}"))
        return 0 if v else 1
    from .corpus import Corpus
    from .eqengine import check_script, parse_script

    script = parse_script(text)
    corpus = Corpus()
    corpus.run()
    rep = check_script(script, corpus.registry, args.depth)
    print(f"script {script.id} in {script.theory}: "
          + ("accepted" if rep.ok else f"rejected at step {rep.step}: {rep.message}"))
    return 0 if rep.ok else 1


def _sniff(text: str) -> str:
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("lemma "):
            return "script"
        if line.split(".", 1)[0].isdigit():
            return "derivation"
        return "proof"
    raise FormulaError("empty input file")


def _cmd_prove(args) -> int:
    s = parse_sequent(args.sequent)
    theory = theory_by_name(args.theory)
    core = Sequent([expand_derived(f) for f in s.context], expand_derived(s.goal))
    tree = bounded_prove(core, theory, args.depth)
    if tree is None:
        print(f"not found within depth {args.depth} (this is not a refutation)")
        return 1
    v = check_proof(tree, theory)
    if not v or tree.conclusion != core:
        why = v.message if not v else f"it concludes {tree.conclusion!r}"
        print(f"the search's proof of {s!r} is rejected: {why}")
        return 1
    sys.stdout.write(format_proof(tree))
    return 0


def _cmd_models_find(args) -> int:
    s = parse_sequent(args.falsify)
    theory = theory_by_name(args.theory)
    got = find_countermodel(s, theory, args.max_size)
    if got is None:
        print(f"not refuted in the {theory} class up to size {args.max_size}")
        return 1
    alg, v = got
    why = countermodel_fault(s, theory, alg, v)
    if why:
        print(f"the countermodel of {s!r} is rejected: {why}")
        return 1
    print(f"sequent: {s!r}")
    print("assign: " + ", ".join(f"{k}={x}" for k, x in sorted(v.items())))
    sys.stdout.write(format_algebra(alg))
    return 0


def _cmd_models_enum(args) -> int:
    required = frozenset(x for x in args.require.split(",") if x)
    forbidden = frozenset(x for x in args.forbid.split(",") if x)
    count = 0
    for alg, flags in enumerate_classified(args.max_size, required, forbidden):
        count += 1
        print(f"# algebra {count}: flags " + ",".join(sorted(flags)))
        sys.stdout.write(format_algebra(alg))
    print(f"# {count} algebras")
    return 0


def _cmd_models_classify(args) -> int:
    alg = parse_algebra(Path(args.file).read_text())
    rep = check_class(alg)
    if rep.failure:
        print(f"not a pocrim: {rep.failure}")
        return 1
    print(",".join(sorted(rep.flags)))
    return 0


def _cmd_translate(args) -> int:
    from .translate import translate

    f = parse_formula(args.formula)
    print(format_formula(translate(args.scheme, f)))
    return 0


def _cmd_dns(args) -> int:
    from .corpus import Corpus
    from .corpus.builtins import regression_list
    from .translate import check_dns

    theory = theory_by_name(args.theory)
    corpus = Corpus()
    corpus.run()
    rep = check_dns(
        args.scheme,
        theory,
        regression_list(theory),
        corpus.registry,
        args.budget,
        args.max_size,
    )
    print(rep.render())
    return 0 if rep.ok else 1


def _cmd_corpus_run(args) -> int:
    from .corpus import load_index, run_corpus

    if args.filter is not None and not any(args.filter in e.id for e in load_index()):
        print(f"error: no corpus entry id contains {args.filter!r}", file=sys.stderr)
        return 2
    rep = run_corpus(args.filter)
    print(rep.render(timing=args.timing))
    return 0 if rep.ok else 1


def _cmd_corpus_show(args) -> int:
    from .corpus import _data_text, load_index

    for entry in load_index():
        if entry.id == args.id:
            print(f"id:        {entry.id}")
            print(f"tier:      {entry.tier}{'  (core)' if entry.core else ''}")
            print(f"theory:    {entry.theory.name}")
            print(f"statement: {entry.statement}")
            print(f"evidence:  {' '.join(entry.evidence)}")
            for tok in entry.evidence[1:]:
                if tok.endswith(".eq") or tok.endswith(".model"):
                    print(f"--- {tok} ---")
                    sys.stdout.write(_data_text(tok))
            return 0
    print(f"error: no entry named {args.id!r}", file=sys.stderr)
    return 2


def _cmd_gen_k(args) -> int:
    from .corpus import Corpus, generate_k_contradiction
    from .eqengine import format_script

    corpus = Corpus()
    corpus.run()
    seq, script, rep = generate_k_contradiction(args.k, corpus.registry)
    print(f"# sequent: {seq!r}")
    sys.stdout.write(format_script(script))
    print(f"# {'checks' if rep.ok else 'REJECTED: ' + rep.message}")
    return 0 if rep.ok else 1
