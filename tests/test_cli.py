import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import polyteam
from polyteam import cli
from polyteam.syntax import And, PolyDep, PolyInd, parse

FIXTURES = Path(__file__).parent / "fixtures"
HOSPITAL = FIXTURES / "hospital"
EXCHANGE = FIXTURES / "exchange"
WORKFORCE = FIXTURES / "workforce"


def check_golden(capsys, formula, teams, structure=None):
    """Verdict, exit code and nodes_visited, which pins the evaluator's work."""
    argv = ["check", "--json", "--formula", str(formula)]
    if structure is not None:
        argv += ["--structure", str(structure)]
    for sort, path in teams:
        argv += ["--team", f"{sort}={path}"]
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    return payload["verdict"], code, payload["stats"]["nodes_visited"]


def check(capsys, formula, teams, structure=None):
    return check_golden(capsys, formula, teams, structure)[:2]


HOSPITAL_NODES = {
    ("phi0.ptf", "test.csv", "results.csv"): 31,
    ("phi1.ptf", "test.csv", "results.csv"): 28,
    ("phi0.ptf", "test.csv", "results_mutated.csv"): 31,
    ("phi1.ptf", "test.csv", "results_mutated.csv"): 28,
    ("phi0.ptf", "test_missing.csv", "results.csv"): 21,
}
EXCHANGE_NODES = {"employees_seed.csv": 16, "employees_empty.csv": 7}


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
    got = check_golden(capsys, HOSPITAL / formula, teams, HOSPITAL / "structure.json")
    assert got == (verdict, 0 if verdict == "true" else 1,
                   HOSPITAL_NODES[formula, test, results])


@pytest.mark.parametrize("employees,verdict", [
    ("employees_seed.csv", "true"),
    ("employees_empty.csv", "false"),
])
def test_exchange_verdicts(capsys, employees, verdict):
    teams = [("P", EXCHANGE / "projects.csv"), ("E", EXCHANGE / employees)]
    got = check_golden(capsys, EXCHANGE / "solution_exists.ptf", teams)
    assert got == (verdict, 0 if verdict == "true" else 1, EXCHANGE_NODES[employees])


@pytest.mark.parametrize("employees,verdict", [
    ("employees.csv", "true"),
    ("employees_empty.csv", "false"),
])
def test_workforce_verdicts(capsys, employees, verdict):
    teams = [("P", WORKFORCE / "projects.csv"), ("T", WORKFORCE / "teams.csv"),
             ("E", WORKFORCE / employees)]
    got = check_golden(capsys, WORKFORCE / "join_atom.ptf", teams)
    assert got == (verdict, 0 if verdict == "true" else 1, 1)


def test_repeated_main_calls_pin_fixture_work(capsys):
    # main reuses one parser; every call does the work of a first call
    for _ in range(3):
        for (formula, test, results), nodes in HOSPITAL_NODES.items():
            teams = [("Case", HOSPITAL / "case.csv"), ("Test", HOSPITAL / test),
                     ("Results", HOSPITAL / results)]
            got = check_golden(capsys, HOSPITAL / formula, teams, HOSPITAL / "structure.json")
            assert got[2] == nodes
        for employees, nodes in EXCHANGE_NODES.items():
            teams = [("P", EXCHANGE / "projects.csv"), ("E", EXCHANGE / employees)]
            assert check_golden(capsys, EXCHANGE / "solution_exists.ptf", teams)[2] == nodes


def test_reused_parser_answers_as_a_first_call(capsys):
    """Two tables, a usage error, then one table: no option carries over.

    Each command line's first call is its own fresh process.  Left over from
    the two-table call, E would be the empty table and the verdict false.
    """
    check_exchange = ["check", "--json", "--formula", str(EXCHANGE / "solution_exists.ptf"),
                      "--team", f"P={EXCHANGE / 'projects.csv'}"]
    argvs = [check_exchange + ["--team", f"E={EXCHANGE / 'employees_empty.csv'}"],
             ["check", "--json"],
             check_exchange]
    src = str(Path(polyteam.__file__).parent.parent)
    first = [subprocess.run([sys.executable, "-m", "polyteam", *argv], capture_output=True,
                            text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
             for argv in argvs]
    assert [run.returncode for run in first] == [1, 4, 0]
    assert "no table for sort 'E'" in first[2].stderr
    for _ in range(2):
        for argv, run in zip(argvs, first):
            code = cli.main(list(argv))
            assert (code, *capsys.readouterr()) == (run.returncode, run.stdout, run.stderr)


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


def test_decompose_error_does_not_depend_on_the_hash_seed():
    argv = [sys.executable, "-m", "polyteam", "rewrite", "--rule", "decompose",
            "--formula", str(WORKFORCE / "join_atom.ptf")]
    src = str(Path(polyteam.__file__).parent.parent)
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
            for seed in ("1", "3")]
    assert [r.returncode for r in runs] == [3, 3]
    assert runs[0].stderr == runs[1].stderr == \
        "error: cross-sort atom blocks the decomposition: ['E', 'P', 'T']\n"


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


@pytest.mark.parametrize("structure", [
    '[1]', '{"relations": []}', '{"relations": {"R": 5}}', '{"domain": 5}',
    '{"domain": [[1]]}', '{"domain": {"a": 1}}', '{"relations": {"R": [1]}}',
    '{"relations": {"R": [[{}]]}}',
])
def test_malformed_structure_shapes_exit_3(capsys, tmp_path, structure):
    path = tmp_path / "structure.json"
    path.write_text(structure, encoding="utf-8")
    formula = tmp_path / "phi.ptf"
    formula.write_text("P.x = P.y", encoding="utf-8")
    assert cli.main(["check", "--formula", str(formula), "--structure", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "lists" in err


# ---------------------------------------------------------------------------
# Depth and scale: a resource limit exits 2 and never reads as a verdict

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def p_team(tmp_path):
    return write(tmp_path, "P.csv", "x,y\n0,1\n1,1\n")


def test_deep_exists_chain_exits_2_with_depth_limit(capsys, tmp_path, p_team):
    formula = write(tmp_path, "deep.ptf",
                    "".join(f"E P.z{k} . " for k in range(1500)) + "P.x = P.x")
    assert check(capsys, formula, [("P", p_team)]) == ("resource_exhausted", 2)
    code = cli.main(["check", "--json", "--formula", str(formula), "--team", f"P={p_team}"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"verdict": "resource_exhausted", "limit": "depth",
                                        "stats": {"nodes_visited": 0}}
    assert captured.err == "error: the input exceeds the depth limit\n"


def exists_chain_text(k):
    return ("".join(f"E P.z{i} . " for i in range(1, k + 1))
            + r"(P.z1 = P.z1 /\ P.z2 = P.z2)")


def test_150_deep_exists_chain_answers_with_pinned_work(capsys, tmp_path, p_team):
    formula = write(tmp_path, "chain.ptf", exists_chain_text(150))
    assert check_golden(capsys, formula, [("P", p_team)]) == ("true", 0, 457)


def test_exists_chain_work_grows_linearly(capsys, tmp_path, p_team):
    # each level probes the empty team once and keeps the answer, which every
    # one-row call of that level reuses; re-probing made the work quadratic
    nodes = []
    for k in (50, 100, 150):
        formula = write(tmp_path, f"chain{k}.ptf", exists_chain_text(k))
        verdict, code, visited = check_golden(capsys, formula, [("P", p_team)])
        assert (verdict, code) == ("true", 0)
        nodes.append(visited)
    assert nodes[1] - nodes[0] == nodes[2] - nodes[1] > 0


def test_deep_parentheses_exit_2_with_depth_limit(capsys, tmp_path):
    formula = write(tmp_path, "parens.ptf", "(" * 1500 + "P.x = P.y" + ")" * 1500)
    assert cli.main(["rewrite", "--rule", "e1", "--formula", str(formula)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the input exceeds the depth limit\n"


def test_memory_error_exits_2_with_memory_limit(capsys, monkeypatch, tmp_path, p_team):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "eval_formula", exhausted)
    formula = write(tmp_path, "phi.ptf", "P.x = P.y")
    code = cli.main(["check", "--json", "--formula", str(formula), "--team", f"P={p_team}"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["limit"] == "memory"
    assert captured.err == "error: the input exceeds the memory limit\n"


def test_flat_conjunction_of_ten_thousand_literals(capsys, tmp_path, p_team):
    formula = write(tmp_path, "and.ptf", r" /\ ".join(["P.y = P.y"] * 10_000))
    assert check(capsys, formula, [("P", p_team)]) == ("true", 0)


def test_flat_disjunction_of_three_thousand_literals(capsys, tmp_path, p_team):
    # the row x=0, y=1 needs the last disjunct
    formula = write(tmp_path, "or.ptf", " \\/ ".join(["P.x = P.y"] * 2999 + ["P.x != P.y"]))
    assert check(capsys, formula, [("P", p_team)]) == ("true", 0)


@pytest.mark.parametrize("rule", ["e1", "elim-or"])
def test_rewrite_flat_conjunction_of_1200_pdep_atoms(capsys, tmp_path, rule):
    atoms = [f"pdep(P.x{k % 7} ; P.y | Q.u{k % 5} ; Q.v)" for k in range(1200)]
    formula = write(tmp_path, "deep.ptf", "\n/\\ ".join(atoms))
    assert cli.main(["rewrite", "--rule", rule, "--formula", str(formula)]) == 0
    out = parse(capsys.readouterr().out)
    assert isinstance(out, And) and len(out.parts) == 1200
    kind = PolyInd if rule == "e1" else PolyDep
    assert all(isinstance(p.atom, kind) for p in out.parts)


# ---------------------------------------------------------------------------
# The CSV loader builds teams from value tuples in the header's column order

def test_loader_maps_unsorted_header_columns_to_their_variables(tmp_path):
    table = write(tmp_path, "T.csv", "team,employee\nt1,e1\nt2,e2\n")
    team = cli.load_team_csv(table, "T")
    employee, team_var = team.domain
    assert (employee.name, team_var.name) == ("employee", "team")
    assert [dict((v.name, s[v]) for v in s) for s in team.ordered_rows()] == \
        [{"team": "t1", "employee": "e1"}, {"team": "t2", "employee": "e2"}]
    assert team.relation((team_var,)) == {("t1",), ("t2",)}


def test_loader_collapses_duplicates_and_skips_blank_lines(tmp_path):
    table = write(tmp_path, "T.csv", "team,employee\n\nt1, e1\nt1,e1\n\n t2 ,e2\n")
    team = cli.load_team_csv(table, "T")
    assert len(team) == 2
    assert {tuple(s.values()) for s in team.rows} == {("e1", "t1"), ("e2", "t2")}


def test_ragged_row_in_an_unsorted_table_exits_3(capsys, tmp_path):
    table = write(tmp_path, "T.csv", "team,employee\nt1,e1\nt2\n")
    formula = write(tmp_path, "phi.ptf", "T.team = T.team")
    assert cli.main(["check", "--formula", str(formula), "--team", str(table)]) == 3
    assert f"{table}:3: expected 2 cells, got 1" in capsys.readouterr().err


def reversed_columns(source, target):
    lines = source.read_text(encoding="utf-8").splitlines()
    target.write_text("".join(",".join(reversed(line.split(","))) + "\n" for line in lines),
                      encoding="utf-8")
    return target


@pytest.mark.parametrize("employees", ["employees.csv", "employees_empty.csv"])
def test_workforce_verdict_does_not_depend_on_column_order(capsys, tmp_path, employees):
    names = [("P", "projects.csv"), ("T", "teams.csv"), ("E", employees)]
    argv = ["check", "--json", "--formula", str(WORKFORCE / "join_atom.ptf")]
    original = argv + [a for sort, name in names for a in ("--team", f"{sort}={WORKFORCE / name}")]
    reordered = argv + [a for sort, name in names for a in (
        "--team", f"{sort}={reversed_columns(WORKFORCE / name, tmp_path / name)}")]
    code = cli.main(original)
    expected = capsys.readouterr().out
    assert (tmp_path / employees).read_text().startswith("project,team,employee")
    assert cli.main(reordered) == code
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# Atoms files: parse errors name the file, its line and the raw column

@pytest.mark.parametrize("line,message", [
    ("  pdep(P.x ; P.y | Q.y ; $)", "3:26: unexpected character '$'"),
    ("\t  pdep(P.x ; P.y | Q.u Q.v)", "3:25: expected SEMI, found 'Q'"),
])
def test_atoms_file_parse_errors_point_into_the_file(capsys, tmp_path, line, message):
    atoms = write(tmp_path, "bad.pdep", f"# premises\npdep(P.x ; P.y | Q.u ; Q.v)\n{line}\n")
    assert cli.main(["implies", "--atoms", str(atoms)]) == 3
    assert capsys.readouterr().err == f"error: {atoms}:{message}\n"


# ---------------------------------------------------------------------------
# Bounded equivalence: the evaluator-backed sweep prints what the naive one does

EQUIV_PAIRS = {
    "e2": ("pdep(P.x ; P.y | Q.u ; Q.v)",
           r"A P.a . (P.y = P.a \/_{P} pexc(P.x, P.a | Q.u, Q.v))"),
    "elim-or": (
        r"pexc(P.x | Q.u) \/ Q.u = Q.v",
        r"E P.a . E P.b . E Q.c . E Q.d . ("
        r"(P.a = P.b \/_{P} (P.a != P.b /\ (Q.c = Q.d \/_{Q}"
        r" (Q.c != Q.d /\ pexc(P.x | Q.u)))))"
        r" /\ (P.a != P.b \/_{P} (P.a = P.b /\ (Q.c != Q.d \/_{Q}"
        r" (Q.c = Q.d /\ Q.u = Q.v)))))"),
    # empty teams separate these two, so a witness is printed
    "e4": ("pinc(P.x | Q.u)", r"A Q.a . (pexc(P.x | Q.a) \/_{Q} pinc(Q.a | Q.u))"),
}


@pytest.mark.parametrize("pair", sorted(EQUIV_PAIRS))
def test_evaluator_backed_equiv_prints_what_the_naive_one_does(capsys, tmp_path, pair):
    left, right = EQUIV_PAIRS[pair]
    argv = ["oracle", "equiv", "--json", "--values", "0,1", "--max-rows", "2",
            "--min-rows", "0", "--left", str(write(tmp_path, "left.ptf", left)),
            "--right", str(write(tmp_path, "right.ptf", right))]
    naive = cli.main(argv), capsys.readouterr().out
    backed = cli.main(argv + ["--use-evaluator"]), capsys.readouterr().out
    assert backed == naive
    assert naive[0] == (1 if pair == "e4" else 0)


# ---------------------------------------------------------------------------
# A UTF-8 byte-order mark in front of an input file, as spreadsheet "CSV
# UTF-8" exports write, changes nothing

ATOM_FILES = {
    "inc.ed": "forall x . R1(x) -> R2(x)\n",
    "inc.ptf": "atom inc((P.x)(Q.u))\n",
    "P.csv": "x,y\na,b\n",
    "Q.csv": "u,v\na,a\nb,a\n",
}
BOM_RUNS = {
    "check": ({name: HOSPITAL / name for name in (
        "phi1.ptf", "structure.json", "case.csv", "test.csv", "results_mutated.csv")},
        lambda d: ["check", "--json", "--formula", str(d / "phi1.ptf"),
                   "--structure", str(d / "structure.json"),
                   "--team", f"Case={d / 'case.csv'}", "--team", f"Test={d / 'test.csv'}",
                   "--team", f"Results={d / 'results_mutated.csv'}"]),
    "check-atom": (ATOM_FILES, lambda d: [
        "check", "--json", "--formula", str(d / "inc.ptf"), "--atom", f"inc={d / 'inc.ed'}",
        "--team", str(d / "P.csv"), "--team", str(d / "Q.csv")]),
    "implies": ({"transitivity.pdep": FIXTURES / "implication" / "transitivity.pdep"},
                lambda d: ["implies", "--json", "--atoms", str(d / "transitivity.pdep")]),
    "rewrite": ({"phi0.ptf": HOSPITAL / "phi0.ptf"},
                lambda d: ["rewrite", "--rule", "e1", "--formula", str(d / "phi0.ptf")]),
}


@pytest.mark.parametrize("run", sorted(BOM_RUNS))
def test_byte_order_mark_changes_no_output(capsys, tmp_path, run):
    files, argv = BOM_RUNS[run]
    results = []
    for mark in (b"", b"\xef\xbb\xbf"):
        folder = tmp_path / ("bom" if mark else "plain")
        folder.mkdir()
        for name, source in files.items():
            text = source if isinstance(source, str) else source.read_text(encoding="utf-8")
            (folder / name).write_bytes(mark + text.encode("utf-8"))
        code = cli.main(argv(folder))
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)
