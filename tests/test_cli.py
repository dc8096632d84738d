import json
import warnings
from pathlib import Path

import pytest

from polyteam import cli

FIXTURES = Path(__file__).parent / "fixtures"
HOSPITAL = FIXTURES / "hospital"
EXCHANGE = FIXTURES / "exchange"
WORKFORCE = FIXTURES / "workforce"


def check(capsys, formula, teams, structure=None):
    argv = ["check", "--json", "--formula", str(formula)]
    if structure is not None:
        argv += ["--structure", str(structure)]
    for sort, path in teams:
        argv += ["--team", f"{sort}={path}"]
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    return payload["verdict"], code


@pytest.mark.parametrize("formula,test,results,verdict", [
    ("phi0.ptf", "test.csv", "results.csv", "true"),
    ("phi1.ptf", "test.csv", "results.csv", "true"),
    ("phi0.ptf", "test.csv", "results_mutated.csv", "true"),
    ("phi1.ptf", "test.csv", "results_mutated.csv", "false"),
    ("phi0.ptf", "test_missing.csv", "results.csv", "false"),
])
def test_hospital_verdicts(capsys, formula, test, results, verdict):
    teams = [("Case", HOSPITAL / "case.csv"), ("Test", HOSPITAL / test),
             ("Results", HOSPITAL / results)]
    got = check(capsys, HOSPITAL / formula, teams, HOSPITAL / "structure.json")
    assert got == (verdict, 0 if verdict == "true" else 1)


@pytest.mark.parametrize("employees,verdict", [
    ("employees_seed.csv", "true"),
    ("employees_empty.csv", "false"),
])
def test_exchange_verdicts(capsys, employees, verdict):
    teams = [("P", EXCHANGE / "projects.csv"), ("E", EXCHANGE / employees)]
    got = check(capsys, EXCHANGE / "solution_exists.ptf", teams)
    assert got == (verdict, 0 if verdict == "true" else 1)


@pytest.mark.parametrize("employees,verdict", [
    ("employees.csv", "true"),
    ("employees_empty.csv", "false"),
])
def test_workforce_verdicts(capsys, employees, verdict):
    teams = [("P", WORKFORCE / "projects.csv"), ("T", WORKFORCE / "teams.csv"),
             ("E", WORKFORCE / employees)]
    got = check(capsys, WORKFORCE / "join_atom.ptf", teams)
    assert got == (verdict, 0 if verdict == "true" else 1)


@pytest.mark.parametrize("atoms,verdict,code", [
    ("transitivity.pdep", "implied", 0),
    ("not_implied.pdep", "not-implied", 1),
])
def test_implies_verdicts(capsys, atoms, verdict, code):
    assert cli.main(["implies", "--atoms", str(FIXTURES / "implication" / atoms)]) == code
    assert capsys.readouterr().out.strip() == verdict


@pytest.mark.parametrize("atoms,implied,stats", [
    ("transitivity.pdep", True, {"premises": 2, "premises_kept": 2,
                                 "premises_discarded": 0, "firings": 2}),
    ("not_implied.pdep", False, {"premises": 1, "premises_kept": 1,
                                 "premises_discarded": 0, "firings": 0}),
])
def test_implies_json_reports_stats(capsys, atoms, implied, stats):
    cli.main(["implies", "--json", "--atoms", str(FIXTURES / "implication" / atoms)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["implied"] is implied
    assert set(payload["stats"]) == set(stats) | {"pair_checks"}
    assert {k: payload["stats"][k] for k in stats} == stats


@pytest.mark.parametrize("rule,formula,err", [
    ("e4", r"pinc(P.x | Q.u) /\ pinc(Q.v | P.y)", "warning: e4 is an equivalence only "
     "where the team of each inclusion's right-hand sort is nonempty\n"),
    ("e6", r"pexc(P.x | Q.u) /\ pexc(Q.v | P.y)", "warning: e6 is an equivalence only "
     "where the team of each exclusion's left-hand sort is nonempty\n"),
    ("e4", "pinc(P.x | P.y)", ""),
    ("e6", "pexc(P.x | P.y)", ""),
    ("e1", "pdep(P.x ; P.y | Q.u ; Q.v)", ""),
])
def test_rewrite_reports_empty_team_warning_on_stderr(capsys, tmp_path, rule, formula, err):
    path = tmp_path / "atoms.ptf"
    path.write_text(formula, encoding="utf-8")
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        code = cli.main(["rewrite", "--formula", str(path), "--rule", rule])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip()
    assert captured.err == err
    assert leaked == []


@pytest.mark.parametrize("rule", ["elim-or", "decompose"])
def test_rewrite_reports_cardinality_warning_on_stderr(capsys, tmp_path, rule):
    formula = tmp_path / "split.ptf"
    formula.write_text(r"P.x = P.y \/ Q.u = Q.v", encoding="utf-8")
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        code = cli.main(["rewrite", "--formula", str(formula), "--rule", rule])
    err = capsys.readouterr().err
    assert code == 0
    assert err == "warning: the split encoding needs at least two domain elements\n"
    assert leaked == []


def test_usage_errors_exit_4(capsys):
    assert cli.main(["check"]) == 4
    assert cli.main(["rewrite", "--formula", "f.ptf", "--rule", "e7"]) == 4
    assert "usage error" in capsys.readouterr().err


def test_malformed_inputs_exit_3(capsys, tmp_path):
    table = tmp_path / "P.csv"
    table.write_text("x,y\n0,1\n2\n", encoding="utf-8")
    structure = tmp_path / "structure.json"
    structure.write_text('{"domain": [0, 1', encoding="utf-8")
    formula = tmp_path / "phi.ptf"
    formula.write_text("P.x = P.y", encoding="utf-8")
    assert cli.main(["check", "--formula", str(formula), "--team", str(table)]) == 3
    assert f"{table}:3: expected 2 cells, got 1" in capsys.readouterr().err
    assert cli.main(["check", "--formula", str(formula),
                     "--structure", str(structure)]) == 3
    assert str(structure) in capsys.readouterr().err
