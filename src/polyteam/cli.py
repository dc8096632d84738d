"""Command-line front end: check / implies / rewrite / oracle.

Data comes in as CSV tables (one per sort; the header row names the
variables) plus an optional JSON structure file::

    {"domain": ["a", "b"], "relations": {"R": [["a", "b"]]}}

Every input file is read as UTF-8; one leading byte-order mark, as
spreadsheet "CSV UTF-8" exports write, is dropped.

The working domain is the union of the declared domain, all relation values,
and all table values.  Exit codes: 0 for true/implied/equivalent, 1 for the
negative verdict, 2 when a resource cap tripped or the input nests too deep
or needs too much memory (limit ``depth`` or ``memory``), 3 for input
errors, 4 for usage errors.  Verdicts go to stdout (JSON with ``--json``);
notices and errors go to stderr.

``main`` may be called many times in one process, as the benchmark and the
tests do.  It builds its argument parser once, on the first call, and every
later call parses its command line as a first call would.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import warnings
from functools import lru_cache
from pathlib import Path

from .atoms import AtomRegistry, compile_embedded_dependency, parse_embedded_dependency
from .errors import ParseError, PolyteamError
from .evaluator import EXHAUSTED, TRUE, EvalConfig, eval_formula
from .implication import decide, replay_trace
from .model import Polyteam, Structure, Team, Variable
from .oracle import equivalent, find_semantic_counterexample
from .oracle.checks import evaluator_backed
from .rewrite import (
    RULE_NAMES, FreshNameSource, decompose_by_sort,
    eliminate_global_disjunction, rewrite_formula,
)
from .syntax import AtomF, PolyDep, format_formula, mentioned_sorts, parse


# UTF-8 that drops one leading byte-order mark; see the module docstring
INPUT_ENCODING = "utf-8-sig"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Input loading

def load_team_csv(path, sort) -> Team:
    """A CSV table as a team: header names the variables, rows the values."""
    with open(path, newline="", encoding=INPUT_ENCODING) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or any(not h for h in header):
            raise ParseError(f"{path}: empty or blank header")
        variables = tuple(Variable(sort, name) for name in header)
        if len(set(variables)) != len(variables):
            raise ParseError(f"{path}: duplicate column names")
        rows = set()
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, "
                                 f"got {len(cells)}")
            rows.add(tuple(map(str.strip, cells)))
        return Team.from_tuples(sort, variables, rows)


def load_structure_json(path) -> dict:
    with open(path, encoding=INPUT_ENCODING) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}: {err}") from None
    relations = data.get("relations", {}) if isinstance(data, dict) else None
    if not isinstance(relations, dict) or \
            not all(isinstance(ts, list) for ts in relations.values()):
        raise ParseError(f"{path}: expected an object whose \"relations\" map names to lists")
    for xs in [data.get("domain", [])] + [t for ts in relations.values() for t in ts]:
        if not isinstance(xs, list) or any(isinstance(v, (list, dict)) for v in xs):
            raise ParseError(f"{path}: the domain and relation tuples must be lists of values")
    return data


def assemble_structure(spec: dict, teams) -> Structure:
    values = set(spec.get("domain", ()))
    relations = {}
    for name, tuples in spec.get("relations", {}).items():
        relations[name] = [tuple(t) for t in tuples]
        for t in relations[name]:
            values.update(t)
    for team in teams:
        values.update(itertools.chain.from_iterable(team.tuples))
    if not values:
        raise ParseError("empty domain: declare a domain, relations, or rows")
    return Structure(values, relations)


def parse_team_argument(arg: str):
    if "=" in arg:
        sort, _, path = arg.partition("=")
        return sort, path
    return Path(arg).stem, arg


def load_registry(atom_args) -> AtomRegistry:
    quantifiers = []
    for arg in atom_args or ():
        name, _, path = arg.partition("=")
        if not path:
            raise UsageError(f"--atom needs NAME=FILE, got {arg!r}")
        text = Path(path).read_text(encoding=INPUT_ENCODING)
        ed = parse_embedded_dependency(text)
        quantifiers.append(compile_embedded_dependency(ed, name=name))
    return AtomRegistry(quantifiers)


def load_atoms_file(path):
    """Premise atoms, one per line; the final line is the conclusion."""
    lines = []
    for lineno, raw in enumerate(Path(path).read_text(encoding=INPUT_ENCODING).splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            phi = parse(stripped)
        except ParseError as err:
            # a stripped line holds no newline: shift the column past its indent
            col = err.col + len(raw) - len(raw.lstrip())
            raise ParseError(f"{path}:{lineno}:{col}: {err.reason}") from None
        if not isinstance(phi, AtomF) or not isinstance(phi.atom, PolyDep):
            raise ParseError(f"{path}:{lineno}: expected one pdep atom per line")
        lines.append(phi.atom)
    if not lines:
        raise ParseError(f"{path}: no atoms found")
    return lines[:-1], lines[-1]


# ---------------------------------------------------------------------------
# Serialization

def _team_json(team: Team) -> dict:
    return {
        "domain": [v.name for v in team.domain],
        "rows": [list(row) for row in team.ordered_tuples()],
    }


def _emit(payload, as_json: bool, plain: str):
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(plain)


# ---------------------------------------------------------------------------
# Commands

def run_check(args) -> int:
    registry = load_registry(args.atom)
    teams = []
    for spec in args.team or ():
        sort, path = parse_team_argument(spec)
        teams.append(load_team_csv(path, sort))
    structure_spec = load_structure_json(args.structure) if args.structure else {}
    structure = assemble_structure(structure_spec, teams)
    phi = parse(Path(args.formula).read_text(encoding=INPUT_ENCODING), registry)
    provided = {t.sort for t in teams}
    for sort in sorted(mentioned_sorts(phi) - provided):
        print(f"notice: no table for sort {sort!r}; "
              "using the singleton empty assignment", file=sys.stderr)
    config = EvalConfig(
        max_expanded_team_rows=args.max_rows,
        max_split_assignments=args.max_split,
        timeout=args.timeout_ms / 1000.0 if args.timeout_ms else None,
    )
    outcome = eval_formula(structure, Polyteam(teams), phi, config, registry)
    payload = {
        "verdict": outcome.verdict,
        "limit": outcome.limit,
        "stats": {"nodes_visited": outcome.nodes_visited},
    }
    _emit(payload, args.json, outcome.verdict)
    if outcome.verdict == EXHAUSTED:
        return 2
    return 0 if outcome.verdict == TRUE else 1


def run_implies(args) -> int:
    premises, conclusion = load_atoms_file(args.atoms)
    verdict = decide(premises, conclusion)
    if verdict.implied:
        payload = {
            "implied": True,
            "stats": dict(verdict.stats),
            "trace": [{
                "atom": format_formula(AtomF(record.atom)),
                "merges": [[str(a), str(b)] for a, b in record.merges],
            } for record in verdict.trace],
        }
        if args.replay:
            derivation = replay_trace(premises, conclusion, verdict)
            payload["derivation"] = [{
                "rule": step.rule,
                "conclusion": format_formula(AtomF(step.conclusion)),
            } for step in derivation.steps]
        _emit(payload, args.json, "implied")
        return 0
    ce = verdict.counterexample
    payload = {
        "implied": False,
        "stats": dict(verdict.stats),
        "counterexample": {
            "classes": {str(v): value for v, value in sorted(ce.classes.items())},
            "teams": {sort: _team_json(ce.polyteam.team(sort))
                      for sort in ce.polyteam.sorts()},
        },
    }
    _emit(payload, args.json, "not-implied")
    return 1


def run_rewrite(args) -> int:
    phi = parse(Path(args.formula).read_text(encoding=INPUT_ENCODING))
    fresh = FreshNameSource.for_formula(phi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.rule in RULE_NAMES:
            result = rewrite_formula(phi, args.rule, fresh)
        else:
            result = eliminate_global_disjunction(phi, fresh)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.rule == "decompose":
        for sort, part in decompose_by_sort(result).items():
            print(f"{sort}: {format_formula(part)}")
    else:
        print(format_formula(result))
    return 0


def run_oracle(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if args.oracle_command == "equiv":
        left = parse(Path(args.left).read_text(encoding=INPUT_ENCODING))
        right = parse(Path(args.right).read_text(encoding=INPUT_ENCODING))
        evaluate = evaluator_backed() if args.use_evaluator else None
        ok, witness = equivalent(left, right, values=values, max_rows=args.max_rows,
                                 min_rows=args.min_rows, evaluate=evaluate)
        payload = {"equivalent": ok, "witness": None}
        if witness is not None:
            structure, pt, lv, rv = witness
            payload["witness"] = {
                "relations": {n: sorted(map(list, rel))
                              for n, rel in structure.relations.items()},
                "teams": {s: _team_json(pt.team(s)) for s in pt.sorts()},
                "left": lv,
                "right": rv,
            }
        _emit(payload, args.json, "equivalent" if ok else "not-equivalent")
        return 0 if ok else 1
    premises, conclusion = load_atoms_file(args.atoms)
    witness = find_semantic_counterexample(premises, conclusion, values=values,
                                           max_rows=args.max_rows, method=args.method)
    payload = {"implies": witness is None, "counterexample": None}
    if witness is not None:
        payload["counterexample"] = {s: _team_json(witness.team(s))
                                     for s in witness.sorts()}
    _emit(payload, args.json, "implies" if witness is None else "not-implies")
    return 0 if witness is None else 1


# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def command_parser() -> _Parser:
    """The argument parser, built on the first ``main`` call and reused by later ones.

    ``parse_args`` gives a fresh namespace each call, so no option, not even
    a repeatable one, carries over from an earlier command line.
    """
    parser = _Parser(prog="polyteam",
                     description="Model checking and dependency reasoning "
                                 "over families of relational tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate a formula against tables")
    check.add_argument("--structure", help="JSON structure file")
    check.add_argument("--team", action="append", metavar="SORT=FILE",
                       help="CSV table for a sort (repeatable); bare FILE "
                            "uses the file stem as the sort")
    check.add_argument("--formula", required=True)
    check.add_argument("--atom", action="append", metavar="NAME=FILE",
                       help="register a generalized atom from an embedded-"
                            "dependency file (repeatable)")
    check.add_argument("--max-rows", type=int, default=100_000,
                       help="cap on expanded team rows")
    check.add_argument("--max-split", type=int, default=14,
                       help="cap on rows per enumerated disjunction split")
    check.add_argument("--timeout-ms", type=int, default=60_000,
                       help="time limit in milliseconds; 0 turns it off")
    check.add_argument("--json", action="store_true")
    check.set_defaults(handler=run_check)

    implies = sub.add_parser("implies",
                             help="decide implication for pdep atoms; the "
                                  "last atom in the file is the conclusion")
    implies.add_argument("--atoms", required=True)
    implies.add_argument("--replay", action="store_true",
                         help="include a checked rule derivation")
    implies.add_argument("--json", action="store_true")
    implies.set_defaults(handler=run_implies)

    rewrite = sub.add_parser("rewrite", help="apply a formula transformation")
    rewrite.add_argument("--formula", required=True)
    rewrite.add_argument("--rule", required=True,
                         choices=list(RULE_NAMES) + ["elim-or", "decompose"])
    rewrite.set_defaults(handler=run_rewrite)

    oracle = sub.add_parser("oracle", help="brute-force ground-truth checks")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    equiv = osub.add_parser("equiv", help="bounded formula equivalence")
    equiv.add_argument("--left", required=True)
    equiv.add_argument("--right", required=True)
    equiv.add_argument("--values", default="0,1", help="comma-separated domain")
    equiv.add_argument("--max-rows", type=int, default=2)
    equiv.add_argument("--min-rows", type=int, default=0)
    equiv.add_argument("--use-evaluator", action="store_true",
                       help="drive the main evaluator instead of the naive one")
    equiv.add_argument("--json", action="store_true")
    equiv.set_defaults(handler=run_oracle)
    simplies = osub.add_parser("implies", help="bounded semantic implication")
    simplies.add_argument("--atoms", required=True)
    simplies.add_argument("--values", default="0,1,2")
    simplies.add_argument("--max-rows", type=int, default=2)
    simplies.add_argument("--method", choices=("auto", "reduced", "exhaustive"),
                          default="auto")
    simplies.add_argument("--json", action="store_true")
    simplies.set_defaults(handler=run_oracle)

    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = command_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 4
    except (PolyteamError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as err:
        # a resource limit, like a tripped cap: never a verdict
        limit = "depth" if isinstance(err, RecursionError) else "memory"
        print(f"error: the input exceeds the {limit} limit", file=sys.stderr)
        if args is not None and args.command == "check" and args.json:
            _emit({"verdict": EXHAUSTED, "limit": limit, "stats": {"nodes_visited": 0}},
                  True, "")
        return 2


if __name__ == "__main__":
    sys.exit(main())
