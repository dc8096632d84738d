import json
from pathlib import Path

import pytest

from polyteam import cli

FIXTURES = Path(__file__).parent / "fixtures"
HOSPITAL = FIXTURES / "hospital"
EXCHANGE = FIXTURES / "exchange"


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
