"""Deterministic exhaustive enumeration of assignments, teams, and polyteams."""

from __future__ import annotations

import itertools
from typing import Mapping

from ..model import Assignment, Polyteam, Structure, Team, value_key


def enumerate_assignments(variables, values):
    """Every assignment of the variable tuple into the value set, in order."""
    variables = tuple(sorted(set(variables)))
    values = tuple(sorted(set(values), key=value_key))
    for combo in itertools.product(values, repeat=len(variables)):
        yield Assignment(zip(variables, combo))


def enumerate_teams(sort, variables, values, max_rows, min_rows=0):
    """Every team over the domain with min_rows..max_rows rows, each once."""
    rows = tuple(enumerate_assignments(variables, values))
    for size in range(min_rows, min(max_rows, len(rows)) + 1):
        for chosen in itertools.combinations(rows, size):
            yield Team(sort, variables, chosen)


def enumerate_polyteams(domains: Mapping, values, max_rows, min_rows=0):
    """Product of per-sort team enumerations; ``domains`` maps sort -> variables."""
    sorts = sorted(domains)
    per_sort = [tuple(enumerate_teams(s, tuple(domains[s]), values, max_rows, min_rows))
                for s in sorts]
    for combo in itertools.product(*per_sort):
        yield Polyteam(combo)


def enumerate_structures(relation_arities: Mapping, values):
    """Every structure over the values with all interpretations of the relations."""
    values = tuple(sorted(set(values), key=value_key))
    names = sorted(relation_arities)
    spaces = []
    for name in names:
        tuples = tuple(itertools.product(values, repeat=relation_arities[name]))
        interps = []
        for size in range(len(tuples) + 1):
            interps.extend(itertools.combinations(tuples, size))
        spaces.append(interps)
    for combo in itertools.product(*spaces):
        yield Structure(values, dict(zip(names, combo)))
