import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chevalley import cli
from chevalley.chevgroup import adjoint_rep, classical_rep, enumerate_group
from chevalley.cli import Suite, _commutator_check, _render, main, parse_element, parse_group, run_suite
from chevalley.rings import GF


def test_parse_group():
    assert parse_group("SL3").sys.type_label == "A"
    assert parse_group("Sp4").sys.type_label == "C"
    assert parse_group("SO7").sys.type_label == "B"
    assert parse_group("O8").sys.type_label == "D"
    assert parse_group("G2adj").form == "adjoint"
    for bad in ("SL2", "Sp3", "SO8", "O7", "XYZ"):
        with pytest.raises(ValueError):
            parse_group(bad)


def test_parse_element():
    rep = parse_group("SL3")
    ring = GF(5)
    assert (parse_element(rep, ring, "x(0,3)") == rep.x(ring, 0, ring.dtype(3))).all()
    assert (parse_element(rep, ring, "h(1,2)") == rep.h(ring, 1, ring.dtype(2))).all()
    with pytest.raises(ValueError):
        parse_element(rep, ring, "y(0,1)")


def test_roots_command(capsys):
    assert main(["roots", "--type", "A", "--rank", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6


def test_enumerate_command(capsys):
    assert main(["--format", "json", "enumerate", "--group", "SL3", "--field", "2"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "exploratory" and check["data"]["order"] == 168
    # the command reads the BFS; the group built from its cells carries the
    # same word lengths
    assert check["data"]["max_word_length"] == int(enumerate_group(parse_group("SL3"), GF(2)).dist.max())


def test_check_commutators_command(capsys):
    assert main(["--format", "json", "check-commutators",
                 "--type", "A", "--rank", "2", "--field", "3"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["failures"] == 0


def test_check_dc_command(capsys):
    assert main(["--format", "json", "check-dc",
                 "--group", "SL3", "--field", "2"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "pass" and check["data"]["order"] == 168


def test_roots_past_the_budget_are_refused_at_once(capsys):
    # A80 has 6 480 roots: each (N, N) int64 array would take 336 MB
    t0 = time.perf_counter()
    assert main(["roots", "--type", "A", "--rank", "80"]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("chevalley: error: root system A80: ") and "exceeds the budget" in line


@pytest.mark.parametrize("argv", [
    ["roots", "--type", "g", "--rank", "2"],
    ["check-commutators", "--type", "g", "--rank", "2", "--field", "2"],  # the adjoint branch
    ["check-commutators", "--type", "a", "--rank", "2", "--field", "2"],
    ["check-witness", "--type", "a", "--rank", "2", "--field", "3"],  # --set auto
], ids=["roots", "check-commutators-G", "check-commutators-A", "check-witness"])
def test_type_reads_alike_in_either_case(capsys, argv):
    outs = []
    for a in (argv, [a.upper() if a.islower() and len(a) == 1 else a for a in argv]):
        assert main(["--format", "json"] + a) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_check_witness_command(capsys):
    assert main(["check-witness", "--type", "C", "--rank", "2",
                 "--field", "3", "--set", "X1"]) == 0
    assert "PASS" in capsys.readouterr().out


def _formula_data(capsys):
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "exploratory"
    return check["data"]


def test_eval_formula_sentence(capsys):
    assert main(["--format", "json", "eval-formula", "--group", "SL3", "--field", "2",
                 "--formula", "A g. g*g^-1=1"]) == 0
    assert _formula_data(capsys)["value"] is True


def test_eval_formula_with_free_variable_and_params(capsys):
    assert main(["--format", "json", "eval-formula", "--group", "SL3", "--field", "2",
                 "--formula", "E h. (x=h*@1*h^-1 & !x=1)", "--params", "x(0,1)"]) == 0
    body = _formula_data(capsys)
    assert body["free"] == ["x"] and body["extension_size"] > 0


def test_check_adelic_single_prime(capsys):
    assert main(["--format", "json", "check-adelic",
                 "--primes", "7", "--mode", "SL2"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["failures"] == 0
    # a thin alias of the adelic suite: flags become the suite config
    assert body["suite"] == "adelic"
    assert body["config"] == {"primes": [7], "modes": ["SL2"]}
    (check,) = body["checks"]
    assert check["data"]["P"] is True and list(check["data"]["theta"]) == ["SL2"]


def test_run_suite_roots_json_is_deterministic():
    a = run_suite("roots", {}, 0)
    b = run_suite("roots", {}, 0)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["failures"] == 0


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_false_sentence_reports_false(capsys):
    assert main(["--format", "json", "eval-formula", "--group", "SL3", "--field", "2",
                 "--formula", "A g. A h. g*h=h*g"]) == 0
    assert _formula_data(capsys)["value"] is False


@pytest.mark.parametrize("argv", [
    ["check-commutators", "--type", "A", "--rank", "2", "--field", "2"],
    ["check-dc", "--group", "SL3", "--field", "2"],
    ["check-witness", "--type", "C", "--rank", "2", "--field", "3", "--set", "X1"],
    ["enumerate", "--group", "SL3", "--field", "2"],
    ["eval-formula", "--group", "SL3", "--field", "2", "--formula", "A g. g*g^-1=1"],
    ["run", "--suite", "roots"],
], ids=lambda argv: argv[0])
def test_every_report_honours_format_and_out(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--format", "json", "--out", str(out)] + argv) == 0
    assert capsys.readouterr().out == ""
    body = json.loads(out.read_text())
    assert {"suite", "checks", "failures"} <= set(body) and body["checks"]


def test_run_prints_the_rendered_suite_report(capsys):
    assert main(["--format", "json", "run", "--suite", "roots"]) == 0
    assert capsys.readouterr().out == _render(run_suite("roots", {}, 0), "json") + "\n"


@pytest.mark.parametrize("argv, message", [
    (["check-adelic", "--primes", "7,11,13,17"], "exceeds the budget"),
    (["eval-formula", "--group", "SL3", "--field", "2", "--formula", "A g. g*=1"], "offset"),
    (["enumerate", "--group", "XY3", "--field", "2"], "bad group spec"),
    (["check-witness", "--type", "G", "--rank", "2", "--field", "3"], "supports types A, B, C, D"),
    (["check-witness", "--type", "E", "--rank", "6", "--field", "3"], "got 'E'"),
    (["check-witness", "--type", "F", "--rank", "4", "--field", "3"], "got 'F'"),
    (["check-witness", "--type", "A", "--rank", "2", "--field", "3", "--set", "X1"], "is for type C"),
    (["check-adelic", "--primes="], "at least one prime"),
    (["check-adelic", "--primes=,"], "at least one prime"),
    (["check-dc", "--group", "SL3", "--field", "2", "--root", "short"], "no short root"),
    (["eval-formula", "--group", "SL3", "--field", "2", "--formula", "x=@1", "--params", "x(99,1)"],
     "root index 99 out of range"),
    (["eval-formula", "--group", "SL3", "--field", "2", "--formula", "x=@1", "--params", "h(0,0)"],
     "needs a unit"),
    (["eval-formula", "--group", "SL3", "--field", "2", "--formula", "(" * 3000 + "x=1" + ")" * 3000],
     "nested too deeply"),
    (["eval-formula", "--group", "SL3", "--field", "2", "--formula", "!" * 3000 + "x=1"], "nested too deeply"),
    (["eval-formula", "--group", "SL3", "--field", "2", "--formula", "*".join(["x"] * 3000) + "=1"],
     "nested too deeply"),
    (["eval-formula", "--group", "SL3", "--field", "2", "--formula", "x=@0", "--params", "x(0,1)"],
     "numbered from @1"),
    (["enumerate", "--group", "XYZ", "--field", "2"], "bad group spec"),
    (["check-dc", "--group", "XYZ", "--field", "2"], "bad group spec"),
    (["eval-formula", "--group", "XYZ", "--field", "2", "--formula", "x=1"], "bad group spec"),
], ids=["over-budget", "malformed-formula", "unknown-group", "auto-set-G", "auto-set-E", "auto-set-F",
        "set-for-another-type", "no-primes", "no-primes-comma", "no-short-root", "root-out-of-range", "h-of-non-unit",
        "deep-parentheses", "deep-negation", "long-product", "param-zero",
        "group-XYZ-enumerate", "group-XYZ-check-dc", "group-XYZ-eval-formula"])
def test_refused_input_exits_2_with_one_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("chevalley: error: ") and message in line


def test_no_check_definability_subcommand(capsys):
    # the definability suite runs through `run --suite definability` only
    with pytest.raises(SystemExit) as exc:
        main(["check-definability", "--group", "XYZ", "--field", "99"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [None, 7], ids=["one-block", "blocks-of-7"])
def test_commutator_check_fails_on_a_corrupted_template(rows, monkeypatch):
    # one more in one coefficient of the pair (0, 1) moves that factor's value
    # by r^ea t^eb, so the word is wrong exactly where r and t are nonzero:
    # (5 - 1)^2 of the 25 pairs over F5, however the pairs are blocked
    template = cli.commutator_template
    if rows:
        monkeypatch.setattr(cli.gfmat, "block_rows", lambda ring, d, per_row: rows)

    def corrupted(sc, a, b):
        out = template(sc, a, b)
        if (a, b) == (0, 1):
            g, ea, eb, c = out[0]
            out = ((g, ea, eb, c + 1),) + out[1:]
        return out

    for patched, want in ((False, 0), (True, 16)):
        if patched:
            monkeypatch.setattr(cli, "commutator_template", corrupted)
        for rep in (classical_rep("A", 2), adjoint_rep("G", 2)):
            s = Suite("commutators", {}, 0)
            _commutator_check(s, rep, GF(5))
            (check,) = s.report["checks"]
            assert check["data"]["mismatches"] == want
            n = len(rep.sys.roots)
            assert check["data"]["checked"] == 25 * n * (n - 2)  # every (r, t) of every ordered pair
            assert check["status"] == ("fail" if want else "pass")


def test_dc_suite_is_the_same_under_python_O():
    # python -O strips assert statements: the dc suite's invariants raise
    # instead, so its report reads the same with and without -O
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = [subprocess.run([sys.executable, *flags, "-m", "chevalley.cli", "--format", "json", "--seed", "0",
                            "run", "--suite", "dc"], capture_output=True, env=env, check=True).stdout
            for flags in ([], ["-O"])]
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["failures"] == 0 and len(report["checks"]) == 17
    # nor does any module of the package assert, or raise AssertionError
    modules = sorted((Path(src) / "chevalley").glob("*.py"))
    assert "rootsys.py" in [m.name for m in modules]
    for module in modules:
        tree = ast.parse(module.read_text())
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)
                    or isinstance(n, ast.Name) and n.id == "AssertionError"], module.name


def test_check_dc_json_is_the_same_under_any_hash_seed():
    # MatSet deduplicates through an unstable sort; the report may depend on
    # neither the hash seed nor the order such a sort leaves equal keys in
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "chevalley.cli", "--format", "json", "check-dc",
                               "--group", "SL3", "--field", "3"], capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    (check,) = json.loads(outs[0])["checks"]
    assert check["status"] == "pass" and check["data"]["order"] == 5616
