"""Seeded input generators for the benchmark's scenario families.

Each generator takes a ``random.Random`` and returns the text of every file
it makes, keyed by file name, so the same seed gives byte-identical inputs.
The answer each input must get (verdict, implied or not, equivalent or not)
is fixed by construction, as each docstring says; ``workloads`` attaches it
to the queries.
"""

from __future__ import annotations

import csv
import io
import json
import random


def csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Hospital: a diagnosis may be confirmed positive only when two suitable
# tests were positive (phi0), and negative only when none was (phi1).

PHI0 = """\
E Case.p . ( Positive(Case.p) /\\ (
    Case.confirmation != Case.p
    \\/_{Case}
    E Case.x1 . E Case.x2 . (
        Case.x1 != Case.x2
        /\\ pinc(Case.diagnosis_id, Case.x1 | Test.diagnosis_id, Test.test_id)
        /\\ pinc(Case.patient_id, Case.x1, Case.p | Results.patient_id, Results.test_id, Results.result)
        /\\ pinc(Case.diagnosis_id, Case.x2 | Test.diagnosis_id, Test.test_id)
        /\\ pinc(Case.patient_id, Case.x2, Case.p | Results.patient_id, Results.test_id, Results.result)
    )
))
"""

PHI1 = """\
E Case.n . ( Negative(Case.n) /\\ E Case.p . ( Positive(Case.p) /\\ (
    Case.confirmation != Case.n
    \\/_{Case}
    A Case.x . (
        pexc(Case.diagnosis_id, Case.x | Test.diagnosis_id, Test.test_id)
        \\/_{Case}
        pexc(Case.patient_id, Case.x, Case.p | Results.patient_id, Results.test_id, Results.result)
    )
)))
"""

HOSPITAL_STRUCTURE = json.dumps(
    {"relations": {"Positive": [["positive"]], "Negative": [["negative"]]}})


def hospital(rng, patients: int) -> dict:
    """Cases, tests and results for an even number of patients, one case each.

    There are ``patients / 2`` diagnoses, each with exactly two suitable
    tests and each held by one positively and one negatively confirmed case;
    the seed decides which patient holds which.  A positive case has both
    tests positive and a negative case has both negative, so phi0 and phi1
    hold.  ``test_missing.csv`` drops one test of the last positive case's
    diagnosis (phi0 fails); ``results_mutated.csv`` turns one result of the
    last negative case positive (phi1 fails).  Evaluation visits cases in
    case-id order, so the failing case is the last one searched.  Every
    patient also has one result for a test of another diagnosis, which
    neither formula may use.
    """
    if patients < 4 or patients % 2:
        raise ValueError("need an even number of patients, at least four")
    width = len(str(patients))
    diagnoses = [f"d{k:0{width}}" for k in range(patients // 2)]
    tests = {d: (f"t{2 * k:0{width + 1}}", f"t{2 * k + 1:0{width + 1}}")
             for k, d in enumerate(diagnoses)}
    holders = [(d, c) for d in diagnoses for c in ("positive", "negative")]
    rng.shuffle(holders)
    cases, results = [], []
    for k, (diagnosis, confirmation) in enumerate(holders):
        patient = f"p{k:0{width}}"
        cases.append((f"c{k:0{width}}", patient, diagnosis, confirmation))
        for test in tests[diagnosis]:
            results.append((patient, test, confirmation))
        other = rng.choice([d for d in diagnoses if d != diagnosis])
        results.append((patient, rng.choice(tests[other]), rng.choice(("positive", "negative"))))
    test_rows = [(d, t) for d in diagnoses for t in tests[d]]
    last_positive = max(c for c in cases if c[3] == "positive")
    last_negative = max(c for c in cases if c[3] == "negative")
    dropped = rng.choice(tests[last_positive[2]])
    flip = (last_negative[1], rng.choice(tests[last_negative[2]]), "negative")
    mutated = [(p, t, "positive") if (p, t, r) == flip else (p, t, r)
               for p, t, r in results]
    for rows in (cases, test_rows, results, mutated):
        rng.shuffle(rows)
    return {
        "case.csv": csv_text(("case_id", "patient_id", "diagnosis_id", "confirmation"), cases),
        "test.csv": csv_text(("diagnosis_id", "test_id"), test_rows),
        "test_missing.csv": csv_text(("diagnosis_id", "test_id"),
                                     [r for r in test_rows if r[1] != dropped]),
        "results.csv": csv_text(("patient_id", "test_id", "result"), results),
        "results_mutated.csv": csv_text(("patient_id", "test_id", "result"), mutated),
        "structure.json": HOSPITAL_STRUCTURE,
        "phi0.ptf": PHI0,
        "phi1.ptf": PHI1,
    }


# ---------------------------------------------------------------------------
# Data exchange: does a target Employees instance exist that keeps every
# (employee, project) fact and uses name as a key?

EXCHANGE = """\
E E.x1 . E E.x2 . E E.x3 . (
    ( pinc(P.employee, P.name | E.x1, E.x2)
      \\/_{P}
      pinc(P.employee, P.name | E.x1, E.x3) )
    /\\ pdep(E.x1 ; E.x2, E.x3 | E.x1 ; E.x2, E.x3)
)
"""


def exchange(rng) -> dict:
    """One project, one employee, one position: a domain of three values.

    The seed table admits a solution; the empty one does not.
    """
    employee = f"e{rng.randrange(100)}"
    project = f"p{rng.randrange(100)}"
    position = rng.choice(("dev", "ops", "qa"))
    return {
        "projects.csv": csv_text(("name", "employee", "employee_position"),
                                 [(project, employee, position)]),
        "employees_seed.csv": csv_text(("name", "project_1", "project_2"),
                                       [(employee, project, project)]),
        "employees_empty.csv": csv_text(("name", "project_1", "project_2"), []),
        "exchange.ptf": EXCHANGE,
    }


# ---------------------------------------------------------------------------
# Workforce: one flat conjunction of the four built-in atoms over large tables.

WORKFORCE = """\
pdep(P.project ; P.team | E.project ; E.team)
/\\ pinc(E.employee | T.employee)
/\\ pexc(P.project | A.project)
/\\ pind((P.team),(T.team)/(E.team) ; (P.project)/(E.project) ; (T.employee)/(E.employee))
"""


def workforce(rng, teams: int, members: int, projects: int) -> dict:
    """Teams, their projects, archived projects and the employee join.

    ``employees.csv`` is exactly the natural join of projects and team
    members, so every atom holds.  ``employees_missing.csv`` lacks one row of
    the join, so only the final ``pind`` conjunct fails.
    """
    ids = rng.sample(range(10 ** 6), teams * (members + 2 * projects + 1))
    pool = iter(ids)
    team_rows, project_rows, archived_rows, employees = [], [], [], []
    for _ in range(teams):
        team = f"t{next(pool)}"
        staff = [f"e{next(pool)}" for _ in range(members)]
        owned = [f"p{next(pool)}" for _ in range(projects)]
        archived_rows.extend((f"p{next(pool)}",) for _ in range(projects))
        team_rows.extend((team, e) for e in staff)
        project_rows.extend((p, team) for p in owned)
        employees.extend((e, team, p) for e in staff for p in owned)
    rng.shuffle(team_rows)
    rng.shuffle(project_rows)
    rng.shuffle(employees)
    missing = employees[:]
    del missing[rng.randrange(len(missing))]
    header = ("employee", "team", "project")
    return {
        "teams.csv": csv_text(("team", "employee"), team_rows),
        "projects.csv": csv_text(("project", "team"), project_rows),
        "archived.csv": csv_text(("project",), archived_rows),
        "employees.csv": csv_text(header, employees),
        "employees_missing.csv": csv_text(header, missing),
        "workforce.ptf": WORKFORCE,
    }


# ---------------------------------------------------------------------------
# Equivalence pairs: an atom or formula against the text of a rewritten form,
# written out here so that later changes to the rewriter leave them alone.
# Braced names are placeholders for sorts and variables.

ORACLE_PAIRS = (
    ("e1", True,
     "pdep({P}.{x} ; {P}.{y} | {Q}.{u} ; {Q}.{v})",
     "pind(({P}.{x}),({Q}.{u})/({P}.{x}) ; ({P}.{y})/({P}.{y}) ; ({Q}.{v})/({P}.{y}))"),
    ("e1-conj", True,
     "pdep({P}.{x} ; {P}.{y} | {Q}.{u} ; {Q}.{v}) /\\ pinc({P}.{x} | {Q}.{v})",
     "pind(({P}.{x}),({Q}.{u})/({P}.{x}) ; ({P}.{y})/({P}.{y}) ; ({Q}.{v})/({P}.{y}))"
     " /\\ pinc({P}.{x} | {Q}.{v})"),
    ("e2", True,
     "pdep({P}.{x} ; {P}.{y} | {Q}.{u} ; {Q}.{v})",
     "A {P}.{a} . ({P}.{y} = {P}.{a} \\/_{{{P}}} pexc({P}.{x}, {P}.{a} | {Q}.{u}, {Q}.{v}))"),
    ("e5", True,
     "pexc({P}.{x} | {Q}.{u})",
     "E {P}.{a} . E {P}.{b} . E {Q}.{c} . E {Q}.{d} . ("
     "pdep({P}.{x} ; {P}.{a}, {P}.{b} | {Q}.{u} ; {Q}.{c}, {Q}.{d})"
     " /\\ {P}.{a} = {P}.{b} /\\ {Q}.{c} != {Q}.{d})"),
    ("elim-or", True,
     "pexc({P}.{x} | {Q}.{u}) \\/ {Q}.{u} = {Q}.{v}",
     "E {P}.{a} . E {P}.{b} . E {Q}.{c} . E {Q}.{d} . ("
     "({P}.{a} = {P}.{b} \\/_{{{P}}} ({P}.{a} != {P}.{b} /\\ ({Q}.{c} = {Q}.{d} \\/_{{{Q}}}"
     " ({Q}.{c} != {Q}.{d} /\\ pexc({P}.{x} | {Q}.{u})))))"
     " /\\ ({P}.{a} != {P}.{b} \\/_{{{P}}} ({P}.{a} = {P}.{b} /\\ ({Q}.{c} != {Q}.{d} \\/_{{{Q}}}"
     " ({Q}.{c} = {Q}.{d} /\\ {Q}.{u} = {Q}.{v})))))"),
    # empty teams separate these two, whatever the rewriter does today
    ("e4", False,
     "pinc({P}.{x} | {Q}.{u})",
     "A {Q}.{a} . (pexc({P}.{x} | {Q}.{a}) \\/_{{{Q}}} pinc({Q}.{a} | {Q}.{u}))"),
)


def oracle_pairs(rng) -> dict:
    """Each pair of ``ORACLE_PAIRS`` as ``<name>.left.ptf``/``<name>.right.ptf``.

    The seed renames the two sorts and the variables.  The renaming keeps
    their order, because the oracle enumerates teams in variable order and
    the cost of a pair grows steeply with its shape, which stays fixed.
    """
    tag = rng.randrange(10, 100)
    names = {"P": f"P{tag}", "Q": f"Q{tag}"}
    names.update({v: f"{v}{tag}" for v in "xyuvabcd"})
    files = {}
    for name, _, left, right in ORACLE_PAIRS:
        files[f"{name}.left.ptf"] = left.format(**names) + "\n"
        files[f"{name}.right.ptf"] = right.format(**names) + "\n"
    return files


# ---------------------------------------------------------------------------
# Implication chains: premises x_k -> x_{k+1}, conclusion x_0 -> x_n.

def _pdep(left_sort, x, y, right_sort, u, v) -> str:
    return f"pdep({left_sort}.{x} ; {left_sort}.{y} | {right_sort}.{u} ; {right_sort}.{v})"


def implication_chain(rng, length: int, cross_sort: bool, broken: bool) -> str:
    """A shuffled transitivity chain; ``broken`` removes its middle link.

    Cross-sort links relate P.a_k -> P.a_{k+1} to Q.b_k -> Q.b_{k+1}; the
    seed writes about half of them with Q on the left, so deciding them
    needs the symmetry rule.  Same-sort links are S.a_k -> S.a_{k+1}.  The
    cost of saturation depends strongly on the order of the links, so the
    order is one fixed shuffle per length and the seed renames the variables.
    """
    tag = rng.randrange(10, 100)
    a = [f"a{k}x{tag}" for k in range(length + 1)]
    b = [f"b{k}x{tag}" for k in range(length + 1)]
    links = []
    for k in range(length):
        if not cross_sort:
            links.append(_pdep("S", a[k], a[k + 1], "S", a[k], a[k + 1]))
        elif rng.random() < 0.5:
            links.append(_pdep("Q", b[k], b[k + 1], "P", a[k], a[k + 1]))
        else:
            links.append(_pdep("P", a[k], a[k + 1], "Q", b[k], b[k + 1]))
    order = list(range(length))
    random.Random(length).shuffle(order)
    links = [links[k] for k in order if not (broken and k == length // 2)]
    if cross_sort:
        conclusion = _pdep("P", a[0], a[length], "Q", b[0], b[length])
    else:
        conclusion = _pdep("S", a[0], a[length], "S", a[0], a[length])
    return "\n".join(links + [conclusion]) + "\n"


# ---------------------------------------------------------------------------
# Rewrite inputs: long flat conjunctions of atoms over sorts P, Q and R.

_SORTS = ("P", "Q", "R")


def _var(rng, sort) -> str:
    return f"{sort}.v{rng.randrange(6)}"


def _distinct(rng, sort, count):
    return [f"{sort}.v{k}" for k in rng.sample(range(6), count)]


def _cross_atom(rng) -> str:
    """A random atom whose sides sit at two different sorts."""
    i, j = rng.sample(_SORTS, 2)
    kind = rng.choice(("pdep", "pinc", "pexc", "pind"))
    if kind == "pdep":
        x, y = _distinct(rng, i, 2)
        u, v = _distinct(rng, j, 2)
        return f"pdep({x} ; {y} | {u} ; {v})"
    if kind in ("pinc", "pexc"):
        return f"{kind}({_var(rng, i)} | {_var(rng, j)})"
    k = rng.choice(_SORTS)
    x, y = _distinct(rng, i, 2)
    a, b = _distinct(rng, j, 2)
    u, v, w = _distinct(rng, k, 3)
    return f"pind(({x}),({a})/({u}) ; ({y})/({v}) ; ({b})/({w}))"


def _local_atom(rng) -> str:
    """A random atom with every variable at one sort."""
    s = rng.choice(_SORTS)
    kind = rng.choice(("pdep", "pinc", "pexc", "eq"))
    if kind == "pdep":
        x, y = _distinct(rng, s, 2)
        return f"pdep({x} ; {y} | {x} ; {y})"
    if kind == "eq":
        x, y = _distinct(rng, s, 2)
        return f"{x} != {y}"
    x, y = _distinct(rng, s, 2)
    return f"{kind}({x} | {y})"


def rewrite_formula(rng, atoms: int, single_sorted: bool = False,
                    disjunctions: bool = False, block: int = 0) -> str:
    """A conjunction of ``atoms`` atoms, one conjunct per line.

    Every atom kind occurs.  With ``disjunctions`` every fourth conjunct is
    a global disjunction of two atoms and every fourth a two-sort local one.
    ``single_sorted`` keeps each atom at one sort, as sort-wise decomposition
    needs.  With ``block`` the conjuncts are grouped in parentheses, that
    many to a group, which keeps the formula tree shallow; without it the
    conjunction is one flat chain, as deep as it is long.
    """
    make = _local_atom if single_sorted else _cross_atom
    parts = []
    while len(parts) < atoms:
        slot = len(parts) % 4
        if disjunctions and slot == 1:
            parts.append(f"({make(rng)} \\/ {make(rng)})")
        elif disjunctions and slot == 3:
            s1, s2 = sorted(rng.sample(_SORTS, 2))
            parts.append(f"({make(rng)} \\/_{{{s1},{s2}}} {make(rng)})")
        else:
            parts.append(make(rng))
    if block:
        parts = ["(" + "\n /\\ ".join(parts[k:k + block]) + ")"
                 for k in range(0, len(parts), block)]
    return "\n/\\ ".join(parts) + "\n"
