"""Independent brute-force machinery used as ground truth in tests.

Nothing in this subpackage imports the optimized checkers in
``polyteam.atoms`` or the strategy-driven ``polyteam.evaluator``; atom
satisfaction and formula evaluation here follow the defining quantifier
nests literally.  The callback that drives ``equivalent`` with the
evaluator instead, ``evaluator_backed``, lives in ``polyteam.evaluator``.
"""

from .naive import (
    naive_atom,
    naive_eval,
    naive_polydep,
    naive_polyexc,
    naive_polyinc,
    naive_polyind,
    tarski,
)
from .enumeration import (
    enumerate_assignments,
    enumerate_polyteams,
    enumerate_structures,
    enumerate_teams,
)
from .checks import equivalent, find_semantic_counterexample, semantic_implies

__all__ = [
    "enumerate_assignments",
    "enumerate_polyteams",
    "enumerate_structures",
    "enumerate_teams",
    "equivalent",
    "find_semantic_counterexample",
    "naive_atom",
    "naive_eval",
    "naive_polydep",
    "naive_polyexc",
    "naive_polyinc",
    "naive_polyind",
    "semantic_implies",
    "tarski",
]
