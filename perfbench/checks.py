"""Answer gate and output checks for benchmark queries.

``classify`` reads each answer from the command's ``--json`` output, never
from the exit code alone, and sorts it into ``ok``, ``failed`` or ``wrong``.
A query fails when it raises, exits with an input or usage error (3 or 4),
or reports ``resource_exhausted``; it is wrong when it gives a definite
answer other than the one its generator built in.

``output_problems`` runs the slower checks outside the timed region: every
not-implied counterexample is checked with the independent naive oracle, and
every rewrite output must parse, be well sorted and have the property its
rule promises.
"""

from __future__ import annotations

import json

from polyteam.cli import load_atoms_file
from polyteam.errors import ParseError
from polyteam.model import Assignment, Polyteam, Team, Variable
from polyteam.oracle import naive_polydep
from polyteam.syntax import (
    FRESH_PREFIX, AtomF, OrGlobal, OrLocal, PolyDep, PolyExc, PolyInc, PolyInd,
    atom_variables, check_well_sorted, format_formula, mentioned_sorts, parse,
    walk,
)

OK, FAILED, WRONG = "ok", "failed", "wrong"
FAILED_EXIT_CODES = (3, 4)
ANSWER_KEYS = {"implies": "implied", "equiv": "equivalent"}

# the parser rejects the rewriter's reserved fresh-name prefix, so outputs
# are checked with fresh names moved to a prefix no generated input uses
RENAMED_PREFIX = "fresh_"

REWRITTEN_KIND = {"e1": PolyDep, "e2": PolyDep, "e3": PolyInc, "e4": PolyInc,
                  "e5": PolyExc, "e6": PolyExc, "e8": PolyInd}


def _answer(query, payload):
    if query.kind == "check":
        return {"true": True, "false": False}.get(payload.get("verdict"))
    return payload.get(ANSWER_KEYS[query.kind])


def classify(query, code, stdout: str, error) -> str:
    """``ok``, ``failed`` or ``wrong`` for one run of ``query``."""
    if error is not None or code in FAILED_EXIT_CODES:
        return FAILED
    if query.kind == "rewrite":
        return OK if code == 0 and stdout.strip() else WRONG
    try:
        payload = json.loads(stdout)
    except ValueError:
        return WRONG
    if not isinstance(payload, dict):
        return WRONG
    if query.kind == "check" and payload.get("verdict") == "resource_exhausted":
        return FAILED
    answer = _answer(query, payload)
    if answer is not query.expect or code != (0 if answer else 1):
        return WRONG
    return OK


# ---------------------------------------------------------------------------
# Output checks

def _polyteam(teams_json: dict) -> Polyteam:
    teams = []
    for sort, team in teams_json.items():
        variables = [Variable(sort, name) for name in team["domain"]]
        rows = [Assignment(zip(variables, row)) for row in team["rows"]]
        teams.append(Team(sort, variables, rows))
    return Polyteam(teams)


def counterexample_problems(query, payload) -> list:
    """A not-implied answer's counterexample must refute the implication."""
    premises, conclusion = load_atoms_file(query.option("--atoms"))
    pt = _polyteam(payload["counterexample"]["teams"])
    problems = [f"counterexample violates premise {format_formula(AtomF(a))}"
                for a in premises if not naive_polydep(pt, a)]
    if naive_polydep(pt, conclusion):
        problems.append("counterexample satisfies the conclusion")
    return problems


def _parse_output(text: str):
    return parse(text.replace("." + FRESH_PREFIX, "." + RENAMED_PREFIX))


def _is_fresh(var) -> bool:
    return var.name.startswith(RENAMED_PREFIX)


def rewrite_problems(rule: str, stdout: str) -> list:
    """Property checks that hold for any correct implementation of ``rule``."""
    if rule == "decompose":
        parts = []
        for line in stdout.splitlines():
            sort, _, text = line.partition(": ")
            parts.append((sort, text))
    else:
        parts = [(None, stdout)]
    problems = []
    for sort, text in parts:
        try:
            phi = _parse_output(text)
        except ParseError as err:
            problems.append(f"output does not parse: {err}")
            continue
        problems += check_well_sorted(phi)
        nodes = list(walk(phi))
        if rule in REWRITTEN_KIND:
            kind = REWRITTEN_KIND[rule]
            if any(isinstance(n, AtomF) and isinstance(n.atom, kind)
                   and not any(map(_is_fresh, atom_variables(n.atom)))
                   for n in nodes):
                problems.append(f"an input {kind.__name__} atom survived {rule}")
        elif rule == "elim-or":
            if any(isinstance(n, OrGlobal) or (isinstance(n, OrLocal) and len(n.sorts) != 1)
                   for n in nodes):
                problems.append("a global or multi-sort disjunction survived elim-or")
        elif rule == "decompose" and not mentioned_sorts(phi) <= {sort}:
            problems.append(f"the {sort} part mentions other sorts")
    return problems


def output_problems(query, stdout: str) -> list:
    """Problems found by the slow checks of one answered query."""
    if query.kind == "rewrite":
        return rewrite_problems(query.rule, stdout)
    if query.kind == "implies":
        payload = json.loads(stdout)
        if not payload["implied"]:
            return counterexample_problems(query, payload)
    return []
