"""Bounded semantic implication and formula equivalence checking."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..errors import SortedDomainError
from ..model import Polyteam, Structure, Team, value_key
from ..syntax import (
    PolyDep, Formula, Rel, NegRel, atom_variables, free_variables,
    mentioned_sorts, walk,
)
from .enumeration import enumerate_assignments, enumerate_polyteams
from .naive import naive_atom, naive_eval, naive_polydep


def _atom_domains(atoms):
    domains = {}
    for atom in atoms:
        for v in atom_variables(atom):
            domains.setdefault(v.sort, set()).add(v)
    return {s: tuple(sorted(vs)) for s, vs in domains.items()}


def _sigma_holds(pt: Polyteam, premises) -> bool:
    return all(naive_polydep(pt, a) for a in premises)


def _violates(pt: Polyteam, atom: PolyDep) -> bool:
    return not naive_polydep(pt, atom)


def _reduced_counterexample(premises, conclusion, values):
    """Minimal-shape counterexample search for poly-dependence atom sets.

    Any counterexample shrinks, by downward closure of the atoms, to either a
    pair of singleton teams (cross-sort conclusion) or one two-row team with
    every other team empty (same-sort conclusion), so searching those shapes
    is exhaustive for row bounds >= 2.
    """
    domains = _atom_domains(list(premises) + [conclusion])
    other_sorts = [s for s in domains
                   if s not in (conclusion.sort_i, conclusion.sort_j)]

    def empties():
        return [Team(s, domains[s], ()) for s in other_sorts]

    vars_i = domains.get(conclusion.sort_i, ())
    if conclusion.sort_i == conclusion.sort_j:
        rows = tuple(enumerate_assignments(vars_i, values))
        for s, t in itertools.combinations(rows, 2):
            if s.values_of(conclusion.x) != t.values_of(conclusion.x):
                continue
            if s.values_of(conclusion.y) == t.values_of(conclusion.y):
                continue
            pt = Polyteam([Team(conclusion.sort_i, vars_i, (s, t))] + empties())
            if _sigma_holds(pt, premises):
                return pt
        return None
    vars_j = domains.get(conclusion.sort_j, ())
    for s in enumerate_assignments(vars_i, values):
        for t in enumerate_assignments(vars_j, values):
            if s.values_of(conclusion.x) != t.values_of(conclusion.u):
                continue
            if s.values_of(conclusion.y) == t.values_of(conclusion.v):
                continue
            pt = Polyteam([Team(conclusion.sort_i, vars_i, (s,)),
                           Team(conclusion.sort_j, vars_j, (t,))] + empties())
            if _sigma_holds(pt, premises):
                return pt
    return None


def _exhaustive_counterexample(premises, conclusion, values, max_rows):
    domains = _atom_domains(list(premises) + [conclusion])
    for pt in enumerate_polyteams(domains, values, max_rows):
        if _violates(pt, conclusion) and _sigma_holds(pt, premises):
            return pt
    return None


def find_semantic_counterexample(premises, conclusion, values=(0, 1, 2),
                                 max_rows=2, method="auto") -> Optional[Polyteam]:
    """A bounded polyteam satisfying the premises and violating the conclusion."""
    premises = tuple(premises)
    all_pdep = all(isinstance(a, PolyDep) for a in premises + (conclusion,))
    if method == "reduced" or (method == "auto" and all_pdep and max_rows >= 2):
        if not all_pdep:
            raise SortedDomainError("reduced search only covers poly-dependence atoms")
        return _reduced_counterexample(premises, conclusion, values)
    return _exhaustive_counterexample(premises, conclusion, values, max_rows)


def semantic_implies(premises, conclusion, values=(0, 1, 2), max_rows=2,
                     method="auto") -> bool:
    """True iff no counterexample exists within the bounds.

    A sound refuter and a bounded confirmer: ``False`` is definitive, ``True``
    only rules out counterexamples up to the given domain and row bounds.
    """
    return find_semantic_counterexample(premises, conclusion, values, max_rows,
                                        method) is None


def _relation_signature(*formulas):
    signature = {}
    for phi in formulas:
        for node in walk(phi):
            if isinstance(node, (Rel, NegRel)):
                arity = len(node.args)
                if signature.setdefault(node.name, arity) != arity:
                    raise SortedDomainError(
                        f"relation {node.name!r} used with inconsistent arities")
    return signature


def _interpretations(signature, values):
    names = sorted(signature)
    spaces = []
    for name in names:
        tuples = tuple(itertools.product(values, repeat=signature[name]))
        interps = []
        for size in range(len(tuples) + 1):
            interps.extend(itertools.combinations(tuples, size))
        spaces.append(interps)
    for combo in itertools.product(*spaces):
        yield dict(zip(names, combo))


def evaluator_backed(config=None, registry=None):
    """An ``evaluate`` callback for ``equivalent`` driving the main evaluator.

    The naive default is the independent ground truth; this backend exists
    for equivalence sweeps whose search spaces the naive evaluator cannot
    finish (the evaluator itself is cross-validated against the naive one on
    random formulas elsewhere).  Evaluation sessions are cached per structure
    so the structural analysis of each formula carries across instances.
    """
    from ..evaluator import BulkEvaluator

    sessions = {}

    def evaluate(structure, pt, phi):
        key = id(structure)
        if key not in sessions:
            sessions[key] = BulkEvaluator(structure, config, registry)
        return sessions[key].holds(pt, phi)

    return evaluate


def equivalent(phi: Formula, psi: Formula, values=(0, 1), max_rows=2, min_rows=0,
               registry=None, evaluate=None):
    """Exhaustive bounded equivalence check; returns (bool, witness).

    Both formulas are evaluated over every structure interpreting their
    relation symbols over ``values`` and every polyteam with
    ``min_rows..max_rows`` rows per team over their free variables (mentioned
    sorts without free variables get zero-column teams, so emptiness is still
    exercised).  The witness, when present, is the separating
    ``(structure, polyteam, left verdict, right verdict)``.

    ``evaluate`` defaults to the naive evaluator; pass a callable
    ``(structure, polyteam, formula) -> bool`` to drive a faster engine.
    """
    if evaluate is None:
        def evaluate(structure, pt, formula):
            return naive_eval(structure, pt, formula, registry)
    domains = {}
    for sort in mentioned_sorts(phi) | mentioned_sorts(psi):
        domains[sort] = ()
    for formula in (phi, psi):
        for sort, vs in free_variables(formula).items():
            domains[sort] = tuple(sorted(set(domains.get(sort, ())) | vs))
    values = tuple(sorted(set(values), key=value_key))
    signature = _relation_signature(phi, psi)
    for relations in _interpretations(signature, values):
        structure = Structure(values, relations)
        for pt in enumerate_polyteams(domains, values, max_rows, min_rows):
            left = evaluate(structure, pt, phi)
            right = evaluate(structure, pt, psi)
            if left != right:
                return False, (structure, pt, left, right)
    return True, None
