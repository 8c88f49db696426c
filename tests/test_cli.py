import pytest

from hooplog.cli import main


def test_parse_exit_codes(capsys):
    assert main(["parse", "A -o B"]) == 0
    out = capsys.readouterr().out
    assert "A -o B" in out and "Imp" in out
    assert main(["parse", "a -o"]) == 2


def test_prove_found_and_not_found(capsys):
    assert main(["prove", "A, A -o B |- B", "--theory", "ALm", "--depth", "4"]) == 0
    assert "ImpE" in capsys.readouterr().out
    assert main(["prove", "|- A -o A * A", "--theory", "ALm", "--depth", "6"]) == 1


def test_models_find(capsys):
    rc = main(
        ["models", "find", "--theory", "LLc", "--max-size", "10", "--falsify", "A |- A * A"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "size 3" in out and "assign: A=1" in out
    rc = main(
        ["models", "find", "--theory", "ALm", "--max-size", "3", "--falsify", "A |- A"]
    )
    assert rc == 1


def test_models_enum_deterministic(capsys):
    assert main(["models", "enum", "--max-size", "3", "--require", "hoop"]) == 0
    first = capsys.readouterr().out
    assert main(["models", "enum", "--max-size", "3", "--require", "hoop"]) == 0
    assert capsys.readouterr().out == first


def test_translate(capsys):
    assert main(["translate", "--scheme", "glivenko", "P"]) == 0
    assert capsys.readouterr().out.strip() == "(P -o 1) -o 1"


def test_check_proof_file(tmp_path, capsys):
    from hooplog.sequent import bounded_prove, format_proof, parse_sequent
    from hooplog.theories import ALm

    p = bounded_prove(parse_sequent("A * (A -o B) |- B"), ALm, 6)
    f = tmp_path / "mp.proof"
    f.write_text(format_proof(p))
    assert main(["check", str(f), "--theory", "ALm"]) == 0
    assert main(["check", str(f), "--theory", "ALm", "--kind", "proof"]) == 0


def test_check_derivation_file(tmp_path):
    from hooplog.hilbert import format_derivation, sequent_to_hilbert
    from hooplog.sequent import bounded_prove, parse_sequent
    from hooplog.theories import ALm

    p = bounded_prove(parse_sequent("A |- A"), ALm, 3)
    der, _ = sequent_to_hilbert(p, ALm)
    f = tmp_path / "id.hilbert"
    f.write_text(format_derivation(der))
    assert main(["check", str(f), "--theory", "ALm"]) == 0


def test_corpus_run_filter(capsys):
    assert main(["corpus", "run", "--filter", "axiom-l"]) == 0
    out = capsys.readouterr().out
    assert "axiom-l" in out and "1/1" in out


def test_corpus_show(capsys):
    assert main(["corpus", "show", "axiom-l"]) == 0
    out = capsys.readouterr().out
    assert "scripts axiom-l-fwd.eq" in out and "start (B -o A) -o A -o B" in out
    assert main(["corpus", "show", "no-such-entry"]) == 2


def test_models_find_default_budget_finishes(capsys):
    assert main(["models", "find", "--theory", "ALm", "--falsify", "A |- A"]) == 1
    assert "up to size 6" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--require", "--forbid"])
def test_models_enum_rejects_unknown_flags(capsys, flag):
    assert main(["models", "enum", "--max-size", "3", flag, "hoopz"]) == 2
    captured = capsys.readouterr()
    assert "hoopz" in captured.err and "FLAGS" in captured.err
    assert captured.out == ""


def test_models_classify_out_of_range_entry(tmp_path, capsys):
    f = tmp_path / "bad.model"
    f.write_text("size 2\nadd:\n0 1\n1 5\nres:\n0 0\n1 0\n")
    assert main(["models", "classify", str(f)]) == 2
    assert "add row 1" in capsys.readouterr().err


def test_check_malformed_script_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.eq"
    f.write_text("lemma bad theory ALm claim A ~= A\nstart A\nthis is not a step\n")
    assert main(["check", str(f), "--kind", "script"]) == 2
    captured = capsys.readouterr()
    assert "error: unparsable script line: 'this is not a step'" in captured.err
    assert captured.out == ""


def test_check_derivation_without_substitution_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.hilbert"
    f.write_text("1. A -o A | axiom I\n")
    assert main(["check", str(f), "--theory", "ALm"]) == 2
    err = capsys.readouterr().err
    assert "malformed derivation line '1. A -o A | axiom I'" in err


_HEADER = "lemma bad theory ALm claim A ~= A"


@pytest.mark.parametrize(
    "bad_line, lines, message",
    [
        ("lemma bad theory ALm A ~= A", [], "no ' claim '"),
        ("lemma bad claim A ~= A", [], "no 'theory <name>'"),
        ("lemma theory ALm claim A ~= A", [], "no id before 'theory'"),
        ("= A by axiom-l", [_HEADER, "start A"], "no ' at '"),
        ("= A by def /\\", [_HEADER, "start A"], "no ' at '"),
        ("= A by ins 0 by easy", [_HEADER, "start A"], "no ' at '"),
        ("= A by del 0 by easy", [_HEADER, "start A"], "no ' at '"),
        ("= A by easy deep", [_HEADER, "start A"], "'deep' is not an integer"),
        ("assume foo", [_HEADER], "no claim after its id"),
        ("= A by axiom-l at x.1", [_HEADER, "start A"], "'x.1' is not dot-joined integers"),
    ],
    ids=[
        "no-claim", "no-theory", "no-id", "rewrite", "def", "ins", "del", "easy-depth",
        "assume", "position",
    ],
)
def test_check_script_names_the_bad_line(tmp_path, capsys, bad_line, lines, message):
    f = tmp_path / "bad.eq"
    f.write_text("\n".join(lines + [bad_line]) + "\n")
    assert main(["check", str(f), "--kind", "script"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and repr(bad_line) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
