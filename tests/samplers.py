"""Shared test vocabulary: sorts P and Q, their variables, and seeded samplers.

Kept out of ``conftest.py`` so that test modules can import it by a name no
other test directory uses.
"""

import itertools

from polyteam.model import Assignment, Polyteam, Structure, Team, Variable
from polyteam.syntax import (
    And, AtomF, Eq, Exists, Forall, Neq, NegRel, OrGlobal, OrLocal, PolyDep,
    PolyExc, PolyInc, PolyInd, Rel, Truth,
)

P, Q = "P", "Q"
PX, PY = Variable(P, "x"), Variable(P, "y")
QU, QV = Variable(Q, "u"), Variable(Q, "v")


def assignments(variables, values):
    return [Assignment(zip(variables, combo))
            for combo in itertools.product(values, repeat=len(variables))]


def random_team(rng, sort, variables, values, max_rows=2, min_rows=0):
    pool = assignments(variables, values)
    size = rng.randint(min_rows, min(max_rows, len(pool)))
    return Team(sort, variables, rng.sample(pool, size))


def random_polyteam(rng, domains, values, max_rows=2, min_rows=0):
    return Polyteam([random_team(rng, sort, vars_, values, max_rows, min_rows)
                     for sort, vars_ in domains.items()])


class FormulaSampler:
    """Seeded random formulas over sorts P (vars x, y) and Q (vars u, v)."""

    LEAVES = {
        "eq": lambda: Eq(PX, PY),
        "neq": lambda: Neq(QU, QV),
        "rel": lambda: Rel("R", (PX,)),
        "negrel": lambda: NegRel("R", (PX,)),
        "pdep": lambda: AtomF(PolyDep(P, (PX,), (PY,), Q, (QU,), (QV,))),
        "pinc": lambda: AtomF(PolyInc(P, (PX,), Q, (QV,))),
        "pexc": lambda: AtomF(PolyExc(P, (PY,), Q, (QU,))),
        "dep_uni": lambda: AtomF(PolyDep(P, (PX,), (PY,), P, (PX,), (PY,))),
        "inc_uni": lambda: AtomF(PolyInc(Q, (QU,), Q, (QV,))),
        "exc_uni": lambda: AtomF(PolyExc(P, (PX,), P, (PY,))),
    }

    def __init__(self, leaves, connectives=("and", "or", "orlocal", "exists", "forall"),
                 variables=(PX, PY, QU, QV)):
        self.leaves = tuple(leaves)
        self.connectives = tuple(connectives)
        self.variables = tuple(variables)

    def formula(self, rng, depth):
        if depth == 0:
            return self.LEAVES[rng.choice(self.leaves)]()
        kind = rng.choice(self.connectives)
        if kind == "and":
            return And(self.formula(rng, depth - 1), self.formula(rng, depth - 1))
        if kind == "or":
            return OrGlobal(self.formula(rng, depth - 1), self.formula(rng, depth - 1))
        if kind == "orlocal":
            sorts = frozenset(rng.sample((P, Q), rng.randint(1, 2)))
            return OrLocal(sorts, self.formula(rng, depth - 1), self.formula(rng, depth - 1))
        var = rng.choice(self.variables)
        body = self.formula(rng, depth - 1)
        return Exists(var, body) if kind == "exists" else Forall(var, body)
