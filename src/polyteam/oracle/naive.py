"""Literal transcriptions of the satisfaction definitions.

Plain nested loops and full search, no indexing, no memoization, no fast
paths.  Usable only at desk scale; that is the point.
"""

from __future__ import annotations

import itertools

from ..errors import RegistryError
from ..model import Polyteam, Structure, Team
from ..syntax import (
    And, AtomF, Eq, Exists, Forall, GeneralizedAtom, Neq, NegRel, OrGlobal,
    OrLocal, PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth, mentioned_sorts,
)


def naive_polydep(pt: Polyteam, atom: PolyDep) -> bool:
    xi, xj = pt.team(atom.sort_i), pt.team(atom.sort_j)
    for s in xi.rows:
        for s2 in xj.rows:
            if s.values_of(atom.x) == s2.values_of(atom.u) and \
               s.values_of(atom.y) != s2.values_of(atom.v):
                return False
    return True


def naive_polyinc(pt: Polyteam, atom: PolyInc) -> bool:
    xi, xj = pt.team(atom.sort_i), pt.team(atom.sort_j)
    for s in xi.rows:
        if not any(s.values_of(atom.x) == s2.values_of(atom.y) for s2 in xj.rows):
            return False
    return True


def naive_polyexc(pt: Polyteam, atom: PolyExc) -> bool:
    xi, xj = pt.team(atom.sort_i), pt.team(atom.sort_j)
    for s in xi.rows:
        for s2 in xj.rows:
            if s.values_of(atom.x) == s2.values_of(atom.y):
                return False
    return True


def naive_polyind(pt: Polyteam, atom: PolyInd) -> bool:
    xi, xj, xk = pt.team(atom.sort_i), pt.team(atom.sort_j), pt.team(atom.sort_k)
    for s in xi.rows:
        for s2 in xj.rows:
            if s.values_of(atom.x) != s2.values_of(atom.a):
                continue
            if not any(s3.values_of(atom.u) + s3.values_of(atom.v)
                       == s.values_of(atom.x) + s.values_of(atom.y)
                       and s3.values_of(atom.w) == s2.values_of(atom.b)
                       for s3 in xk.rows):
                return False
    return True


def naive_atom(structure: Structure, pt: Polyteam, atom, registry=None) -> bool:
    if isinstance(atom, PolyDep):
        return naive_polydep(pt, atom)
    if isinstance(atom, PolyInc):
        return naive_polyinc(pt, atom)
    if isinstance(atom, PolyExc):
        return naive_polyexc(pt, atom)
    if isinstance(atom, PolyInd):
        return naive_polyind(pt, atom)
    if isinstance(atom, GeneralizedAtom):
        if registry is None:
            raise RegistryError(f"no registry for generalized atom {atom.name!r}")
        if atom.name not in registry:
            raise RegistryError(f"unknown generalized atom {atom.name!r}")
        q = registry[atom.name]
        arities = tuple(len(t) for t in atom.args)
        if arities != tuple(q.type):
            raise RegistryError(f"atom {atom.name}: arities {arities} do not match "
                                f"type {tuple(q.type)}")
        rels = tuple(pt.team(t[0].sort).relation(t) for t in atom.args)
        return bool(q.evaluator(structure.domain, rels))
    raise TypeError(f"unknown atom instance: {atom!r}")


def _nonempty_subsets(values):
    values = tuple(values)
    out = []
    for size in range(1, len(values) + 1):
        out.extend(itertools.combinations(values, size))
    return out


def _covers(team: Team):
    """All lax covers (Y, Z) of the team: each row goes left, right, or both."""
    rows = team.ordered_rows()
    for routing in itertools.product((0, 1, 2), repeat=len(rows)):
        left = [r for r, way in zip(rows, routing) if way in (0, 2)]
        right = [r for r, way in zip(rows, routing) if way in (1, 2)]
        yield (Team(team.sort, team.domain, left), Team(team.sort, team.domain, right))


def naive_eval(structure: Structure, pt: Polyteam, phi, registry=None) -> bool:
    """Compositional lax-semantics evaluation by exhaustive search."""
    if isinstance(phi, Truth):
        return True
    if isinstance(phi, Eq):
        return all(s[phi.left] == s[phi.right] for s in pt.team(phi.left.sort).rows)
    if isinstance(phi, Neq):
        return all(s[phi.left] != s[phi.right] for s in pt.team(phi.left.sort).rows)
    if isinstance(phi, Rel):
        rel = structure.relation(phi.name)
        return all(s.values_of(phi.args) in rel for s in pt.team(phi.args[0].sort).rows)
    if isinstance(phi, NegRel):
        rel = structure.relation(phi.name)
        return all(s.values_of(phi.args) not in rel for s in pt.team(phi.args[0].sort).rows)
    if isinstance(phi, And):
        return all(naive_eval(structure, pt, p, registry) for p in phi.parts)
    if isinstance(phi, (OrGlobal, OrLocal)):
        # the binary definition, nested to the right: parts[0] against the rest
        left, rest = phi.parts[0], phi.parts[1:]
        if isinstance(phi, OrGlobal):
            split = sorted(mentioned_sorts(phi))
            right = rest[0] if len(rest) == 1 else OrGlobal(*rest)
        else:
            split = sorted(phi.sorts)
            right = rest[0] if len(rest) == 1 else OrLocal(phi.sorts, *rest)

        # one lax cover per split sort, every combination
        for covers in itertools.product(*(_covers(pt.team(sort)) for sort in split)):
            left_pt = right_pt = pt
            for y, z in covers:
                left_pt, right_pt = left_pt.with_team(y), right_pt.with_team(z)
            if naive_eval(structure, left_pt, left, registry) and \
                    naive_eval(structure, right_pt, right, registry):
                return True
        return False
    if isinstance(phi, Forall):
        team = pt.team(phi.var.sort).expanded_all(phi.var, structure.domain)
        return naive_eval(structure, pt.with_team(team), phi.body, registry)
    if isinstance(phi, Exists):
        team = pt.team(phi.var.sort)
        rows = team.ordered_rows()
        if not rows:
            empty = Team(team.sort, set(team.domain) | {phi.var}, ())
            return naive_eval(structure, pt.with_team(empty), phi.body, registry)
        choices = _nonempty_subsets(structure.domain)
        for combo in itertools.product(choices, repeat=len(rows)):
            new_rows = [row.extended(phi.var, a)
                        for row, vals in zip(rows, combo) for a in vals]
            team2 = Team(team.sort, set(team.domain) | {phi.var}, new_rows)
            if naive_eval(structure, pt.with_team(team2), phi.body, registry):
                return True
        return False
    if isinstance(phi, AtomF):
        return naive_atom(structure, pt, phi.atom, registry)
    raise TypeError(f"not a formula node: {phi!r}")


def tarski(structure: Structure, assignment, phi) -> bool:
    """Ordinary single-assignment first-order satisfaction (flat formulas)."""
    if isinstance(phi, Truth):
        return True
    if isinstance(phi, Eq):
        return assignment[phi.left] == assignment[phi.right]
    if isinstance(phi, Neq):
        return assignment[phi.left] != assignment[phi.right]
    if isinstance(phi, Rel):
        return assignment.values_of(phi.args) in structure.relation(phi.name)
    if isinstance(phi, NegRel):
        return assignment.values_of(phi.args) not in structure.relation(phi.name)
    if isinstance(phi, And):
        return all(tarski(structure, assignment, p) for p in phi.parts)
    if isinstance(phi, OrGlobal):
        return any(tarski(structure, assignment, p) for p in phi.parts)
    if isinstance(phi, Exists):
        return any(tarski(structure, assignment.extended(phi.var, a), phi.body)
                   for a in structure.domain)
    if isinstance(phi, Forall):
        return all(tarski(structure, assignment.extended(phi.var, a), phi.body)
                   for a in structure.domain)
    raise TypeError(f"not a flat first-order formula node: {phi!r}")
