import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hypermono import cli, distgraph, exponents, growth, levelt
from hypermono.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_ok(capsys):
    code, d = run_json(capsys, ["classify", "--alpha", "1/3,1/2,2/3",
                                "--beta", "0,1/4,3/4"])
    assert code == 0
    assert d["hyperbolic"] is True
    assert d["alpha"] == ["1/3", "1/2", "2/3"]
    assert d["families"] == ["M1(1,3)"]


def test_classify_disjointness_error(capsys):
    code, d = run_json(capsys, ["classify", "--alpha", "0", "--beta", "0"])
    assert code == 2
    assert "error" in d


def test_classify_malformed_rational(capsys):
    code, d = run_json(capsys, ["classify", "--alpha", "x", "--beta", "0"])
    assert code == 2


def test_family_and_build(capsys):
    code, d = run_json(capsys, ["family", "--name", "N1", "--j", "1",
                                "--k", "5", "--n", "5"])
    assert code == 0 and d["hyperbolic"] is True
    code, d = run_json(capsys, ["build", "--name", "M1", "--n", "5"])
    assert code == 0
    assert d["v"] == ["3", "-2", "2", "-1", "2"]
    assert all(isinstance(x, str) for row in d["A"] for x in row)


def test_family_invalid_params(capsys):
    code, d = run_json(capsys, ["family", "--name", "N1", "--j", "1",
                                "--k", "3", "--n", "5"])
    assert code == 2 and "error" in d


def test_gram_report(capsys):
    code, d = run_json(capsys, ["gram", "--name", "N1", "--j", "1",
                                "--k", "7", "--n", "7"])
    assert code == 0
    assert d["gram"][0][:3] == ["-2", "-3", "-4"]
    assert d["parity"] == "EvenType"
    assert d["gate"]["verdict"] == "InfiniteIndexCertified"


def test_gram_reports_a_lattice_without_a_gate(capsys):
    # a finite group: its lattice is definite, so the quotient gate, which
    # needs a hyperbolic one, does not apply
    code, d = run_json(capsys, ["gram", "--alpha", "0,1/3,2/3",
                                "--beta", "1/2,1/4,3/4"])
    assert code == 0
    assert d["gram"] == [["-2", "-1", "-1"], ["-1", "-2", "-1"],
                         ["-1", "-1", "-2"]]
    assert d["signature"] == [0, 3]
    assert d["gate"] is None


def test_gram_rejects_failed_form_check(capsys, monkeypatch):
    build = levelt.build

    def tampered_build(pair):
        m = build(pair)
        return replace(m, v=(m.v[0] + 1,) + m.v[1:])

    monkeypatch.setattr(levelt, "build", tampered_build)
    code, d = run_json(capsys, ["gram", "--name", "N1", "--j", "1",
                                "--k", "7", "--n", "7"])
    assert code == 2
    assert d["error"].startswith("invariant form check failed")


def test_certify_report(capsys):
    code, d = run_json(capsys, ["certify", "--name", "M2", "--j", "5",
                                "--n", "7"])
    assert code == 0
    assert d["status"] == "ThinCertified"
    assert len(d["path"]) >= 2
    assert len(d["factorization"]) == len(d["path"]) - 1


def test_certify_budget_exit_code(capsys):
    # M1(3, 5) has a path of length 2; its one target search expands 2
    # vertices, so a budget of 1 runs out
    argv = ["certify", "--name", "M1", "--j", "3", "--n", "5", "--budget"]
    code, d = run_json(capsys, argv + ["1"])
    assert code == 3
    assert d["status"] == "NoPathFound"
    assert d["detail"] == "node budget exhausted before the depth limit"
    code, d = run_json(capsys, argv + ["2"])
    assert code == 0 and d["status"] == "ThinCertified"


@pytest.mark.parametrize("depth, budget", [(5, 5),
                                           (10**9, distgraph.NODE_BUDGET)])
def test_certify_proof_needs_no_budget(capsys, depth, budget):
    # M2(1, 5) is proved to have no path at any depth (orbit mod 2), so no
    # search runs: a small budget is not exhausted and a huge depth costs
    # nothing
    code, d = run_json(capsys, ["certify", "--name", "M2", "--j", "1",
                                "--n", "5", "--max-depth", str(depth),
                                "--budget", str(budget)])
    assert code == 0
    assert d["status"] == "NoPathFound"
    assert d["detail"] == f"no path within depth {depth}"
    m = levelt.build(exponents.make_family(
        exponents.FamilyId("M2", 1, None, 5)))
    rep = distgraph.certify(m, max_depth=depth, node_budget=budget)
    assert rep.no_path_proof == "mod2" and not rep.budget_exhausted


def test_certify_budget_report_goes_to_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["--output", str(out), "certify", "--name", "M1", "--j", "3",
                "--n", "5", "--budget", "1"])
    stdout = capsys.readouterr().out
    assert code == 3
    assert out.read_text() == stdout
    assert json.loads(stdout)["status"] == "NoPathFound"


def test_python_m_hypermono_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hypermono", "classify", "--alpha", "1/2",
         "--beta", "0"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["alpha"] == ["1/2"]


@pytest.mark.parametrize("argv, message", [
    (["build", "--alpha", "1/5,1/2", "--beta", "0,1/4"],
     "pair is not cyclotomic; Levelt generators are not integral"),
    (["gram", "--alpha", "0,1/3,2/3", "--beta", "0,1/4,3/4"],
     "alpha and beta share an exponent; H(alpha,beta) undefined"),
    (["certify", "--alpha", "1/2", "--beta", "0"],
     "certificate applies to hyperbolic groups only"),
    (["build", "--alpha", "1/3,1/2", "--beta", "0,1/4,3/4"],
     "alpha and beta must have the same length"),
    # classify reports a shared exponent in levelt.build's words
    (["classify", "--alpha", "0", "--beta", "0"],
     "alpha and beta share an exponent; H(alpha,beta) undefined"),
    (["classify", "--alpha", "0,1/3,2/3", "--beta", "0,1/4,3/4"],
     "alpha and beta share an exponent; H(alpha,beta) undefined"),
    # the family id is named once
    (["family", "--name", "N1", "--j", "1", "--k", "3", "--n", "5"],
     "invalid family parameters N1(1,3,5): k must divide 5"),
])
def test_invalid_pair_reports_library_message(capsys, argv, message):
    code, d = run_json(capsys, argv)
    assert code == 2
    assert d == {"error": message}


def test_certify_classifies_twice(capsys, monkeypatch):
    # once in make_family's checks, once in distgraph.certify's guard
    calls = []
    original = exponents.classify

    def counted(pair):
        calls.append(pair)
        return original(pair)

    for mod in (exponents, cli, distgraph, levelt):
        if getattr(mod, "classify", None) is original:
            monkeypatch.setattr(mod, "classify", counted)
    code, _ = run_json(capsys, ["certify", "--name", "N2", "--j", "5",
                                "--k", "5", "--n", "11"])
    assert code == 0
    assert len(calls) == 2


@pytest.mark.parametrize("flag", ["--max-depth", "--budget"])
def test_certify_rejects_nonpositive_limits(capsys, flag):
    code, d = run_json(capsys, ["certify", "--name", "M2", "--j", "1",
                                "--n", "5", flag, "0"])
    assert code == 2
    assert d["error"] == "max_depth and node_budget must be positive"


def test_certify_rejects_the_opposite_signature(capsys, monkeypatch):
    # the one-sheet search needs signature (n-1, 1); a form of signature
    # (1, n-1) is invalid input
    original = distgraph.invariant_form

    def flipped(m):
        lat = original(m)
        return lat.from_gram([[-x for x in row] for row in lat.gram])

    monkeypatch.setattr(distgraph, "invariant_form", flipped)
    code, d = run_json(capsys, ["certify", "--name", "N1", "--j", "1",
                                "--k", "5", "--n", "5"])
    assert code == 2
    assert d == {"error": "certificate search needs signature (4, 1), "
                          "got (1, 4)"}


def test_landau_report(capsys):
    code, d = run_json(capsys, ["landau", "--name", "M2", "--j", "3",
                                "--n", "5"])
    assert code == 0 and d["integral"] is True
    code, d = run_json(capsys, ["landau", "--name", "M1", "--n", "5"])
    assert code == 0 and d["integral"] is False


def test_appendix_report(capsys):
    code, d = run_json(capsys, ["appendix", "--example", "5", "--depth", "8"])
    assert code == 0
    assert all(c["passed"] for c in d["checks"])
    assert d["dirichlet"]["bounded"] is True


def test_appendix_rejects_negative_depth(capsys):
    # a negative depth used to report the clipping square as a region
    code, d = run_json(capsys, ["appendix", "--example", "5", "--depth", "-3"])
    assert code == 2
    assert d["error"] == "word depth must be at least 0"


def test_output_flag(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["--output", str(out), "build", "--name", "M1", "--n", "5"])
    capsys.readouterr()
    assert code == 0
    d = json.loads(out.read_text())
    assert d["v"] == ["3", "-2", "2", "-1", "2"]


@pytest.mark.parametrize("where", ["missing/dir/report.json", "."])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    # a path under a missing directory, and a path that is a directory
    out = tmp_path / where
    code, d = run_json(capsys, ["--output", str(out), "build", "--name", "M1",
                                "--n", "5"])
    assert code == 2
    assert set(d) == {"error"} and str(out) in d["error"]


def test_run_looks_commands_up_at_call_time(monkeypatch, capsys):
    calls = []

    def fake_gram(args):
        calls.append(args.name)
        return "patched\n", 0

    monkeypatch.setattr(cli, "cmd_gram", fake_gram)
    assert run(["gram", "--name", "M1", "--n", "5"]) == 0
    assert calls == ["M1"]
    assert capsys.readouterr().out == "patched\n"


def test_growth_csv(capsys):
    code = run(["growth", "--name", "M1", "--n", "3", "--tmin", "10",
                "--tmax", "300", "--points", "6", "--word-limit", "8"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T,count,log10T,log10N"
    meta = json.loads(lines[-1])
    assert "slope" in meta
    assert len(lines) >= 6


@pytest.mark.parametrize("margin", ["0", "-4"])
@pytest.mark.parametrize("limit", [["--word-limit", "6"], []])
def test_growth_rejects_bad_margin(capsys, margin, limit):
    code, d = run_json(capsys, ["growth", "--name", "M1", "--n", "3",
                                "--tmin", "10", "--tmax", "1000",
                                "--points", "6", "--margin", margin] + limit)
    assert code == 2
    assert d == {"error": "margin must be at least 1"}


def test_growth_rejects_bad_grid(capsys):
    code, d = run_json(capsys, ["growth", "--name", "M1", "--n", "3",
                                "--tmin", "10", "--tmax", "1000",
                                "--points", "1"])
    assert code == 2
    assert "at least 2 points" in d["error"]


def test_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["certify", "--name", "M1", "--j", "1",
                              "--n", "5"])
    assert args.max_depth == distgraph.MAX_DEPTH
    assert args.budget == distgraph.NODE_BUDGET
    args = parser.parse_args(["growth", "--name", "M1", "--n", "3"])
    assert args.margin == growth.MARGIN
