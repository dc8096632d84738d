"""Satisfaction checkers for poly-atoms and the generalized-atom machinery.

The built-in checkers use hash-indexed joins on antecedent tuples; the
deliberately naive reference implementations live in ``polyteam.oracle``.
The checkers take the atom to be well-formed, which ``syntax`` decides:
``check_generalized`` raises ``RegistryError`` with the problem
``syntax.resolve_generalized`` finds.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from itertools import product
from typing import Iterable, Optional, Tuple

from .errors import ParseError, RegistryError
from .model import Polyteam, Record, Structure, value_sorted
from .syntax import GeneralizedAtom, PolyDep, PolyExc, PolyInc, PolyInd, resolve_generalized


# ---------------------------------------------------------------------------
# Built-in atom checkers

def check_polydep(structure: Structure, pt: Polyteam, atom: PolyDep) -> bool:
    index = {}
    for key in pt.team(atom.sort_j).relation(atom.u + atom.v):
        ante, cons = key[:len(atom.u)], key[len(atom.u):]
        index.setdefault(ante, set()).add(cons)
    for key in pt.team(atom.sort_i).relation(atom.x + atom.y):
        seen = index.get(key[:len(atom.x)])
        if seen is None:
            continue
        mine = key[len(atom.x):]
        if len(seen) > 1 or mine not in seen:
            return False
    return True


def check_polyinc(structure: Structure, pt: Polyteam, atom: PolyInc) -> bool:
    have = pt.team(atom.sort_j).relation(atom.y)
    return pt.team(atom.sort_i).relation(atom.x) <= have


def check_polyexc(structure: Structure, pt: Polyteam, atom: PolyExc) -> bool:
    left = pt.team(atom.sort_i).relation(atom.x)
    right = pt.team(atom.sort_j).relation(atom.y)
    return not (left & right)


def check_polyind(structure: Structure, pt: Polyteam, atom: PolyInd) -> bool:
    witnesses = pt.team(atom.sort_k).relation(atom.u + atom.v + atom.w)
    index = {}
    for key in pt.team(atom.sort_j).relation(atom.a + atom.b):
        index.setdefault(key[:len(atom.a)], set()).add(key[len(atom.a):])
    for head in pt.team(atom.sort_i).relation(atom.x + atom.y):
        bs = index.get(head[:len(atom.x)])
        if not bs:
            continue
        for b_val in bs:
            if head + b_val not in witnesses:
                return False
    return True


def check_generalized(structure: Structure, pt: Polyteam, atom: GeneralizedAtom,
                      registry: Optional["AtomRegistry"]) -> bool:
    q, problem = resolve_generalized(atom, registry)
    if problem:
        raise RegistryError(problem)
    relations = tuple(pt.team(tup[0].sort).relation(tup) for tup in atom.args)
    return bool(q.evaluator(structure.domain, relations))


def check_atom(structure: Structure, pt: Polyteam, atom, registry=None) -> bool:
    """Dispatch on the atom instance kind."""
    if isinstance(atom, PolyDep):
        return check_polydep(structure, pt, atom)
    if isinstance(atom, PolyInc):
        return check_polyinc(structure, pt, atom)
    if isinstance(atom, PolyExc):
        return check_polyexc(structure, pt, atom)
    if isinstance(atom, PolyInd):
        return check_polyind(structure, pt, atom)
    if isinstance(atom, GeneralizedAtom):
        return check_generalized(structure, pt, atom, registry)
    raise TypeError(f"unknown atom instance: {atom!r}")


# ---------------------------------------------------------------------------
# Generalized quantifiers

class GeneralizedQuantifier(Record):
    """An isomorphism-closed predicate over (domain, relations).

    ``type`` gives the arity of each relation, and ``evaluator(domain,
    relations)`` decides the predicate.  Isomorphism invariance is the
    registrant's obligation; it is spot-checked probabilistically by
    ``spot_check_isomorphism_invariance``, never enforced.
    """

    __slots__ = ("name", "type", "evaluator")


class AtomRegistry(Mapping):
    """Immutable name -> GeneralizedQuantifier lookup."""

    def __init__(self, quantifiers: Iterable[GeneralizedQuantifier] = ()):
        store = {}
        for q in quantifiers:
            if q.name in store:
                raise RegistryError(f"duplicate quantifier {q.name!r}")
            store[q.name] = q
        self._store = dict(sorted(store.items()))

    def __getitem__(self, name):
        return self._store[name]

    def __iter__(self):
        return iter(self._store)

    def __len__(self):
        return len(self._store)

    def extended(self, *quantifiers) -> "AtomRegistry":
        return AtomRegistry(list(self._store.values()) + list(quantifiers))


def spot_check_isomorphism_invariance(q: GeneralizedQuantifier, domain, relations,
                                      rng, rounds: int = 20) -> list:
    """Probe invariance under random domain bijections; returns violations."""
    domain = tuple(domain)
    baseline = bool(q.evaluator(domain, relations))
    violations = []
    for _ in range(rounds):
        image = list(domain)
        rng.shuffle(image)
        pi = dict(zip(domain, image))
        renamed = tuple(frozenset(tuple(pi[v] for v in t) for t in rel) for rel in relations)
        if bool(q.evaluator(tuple(value_sorted(image)), renamed)) != baseline:
            violations.append(pi)
    return violations


# ---------------------------------------------------------------------------
# Embedded dependencies

class EDRel(Record):
    __slots__ = ("name", "args")


class EDEq(Record):
    __slots__ = ("left", "right")


class EmbeddedDependency(Record):
    """forall x̄ (antecedent -> exists ȳ consequent), conjuncts of atoms/equalities.

    The variables are names; the conjuncts are ``EDRel``s and ``EDEq``s.
    """

    __slots__ = ("universal", "antecedent", "existential", "consequent")

    def relation_occurrences(self):
        for part in (self.antecedent, self.consequent):
            for a in part:
                if isinstance(a, EDRel):
                    yield a

    def relation_order(self) -> Tuple[Tuple[str, int], ...]:
        """Distinct relations with arities, antecedent-first occurrence order."""
        seen = {}
        for a in self.relation_occurrences():
            if a.name in seen:
                if seen[a.name] != len(a.args):
                    raise ParseError(f"relation {a.name!r} used with arities "
                                     f"{seen[a.name]} and {len(a.args)}")
            else:
                seen[a.name] = len(a.args)
        return tuple(seen.items())


_ED_SPLIT = re.compile(r"\s*->\s*")


def _parse_ed_conjunction(text, where):
    text = text.strip()
    if text == "true" or not text:
        return ()
    atoms = []
    for part in text.split("&"):
        part = part.strip()
        m = re.fullmatch(r"(\w+)\s*\(\s*([\w\s,]*)\s*\)", part)
        if m:
            args = tuple(a.strip() for a in m.group(2).split(",") if a.strip())
            if not args:
                raise ParseError(f"{where}: relation atom {m.group(1)!r} without arguments")
            atoms.append(EDRel(m.group(1), args))
            continue
        m = re.fullmatch(r"(\w+)\s*=\s*(\w+)", part)
        if m:
            atoms.append(EDEq(m.group(1), m.group(2)))
            continue
        raise ParseError(f"{where}: cannot parse conjunct {part!r}")
    return tuple(atoms)


def parse_embedded_dependency(text: str) -> EmbeddedDependency:
    """Parse ``forall x, y . phi -> exists z . psi`` (either side may be ``true``)."""
    text = text.strip()
    m = re.match(r"forall\s*([\w\s,]*?)\s*\.\s*(.*)$", text, re.DOTALL)
    if not m:
        raise ParseError("embedded dependency must start with 'forall <vars> .'")
    universal = tuple(v.strip() for v in m.group(1).split(",") if v.strip())
    rest = m.group(2)
    pieces = _ED_SPLIT.split(rest, maxsplit=1)
    if len(pieces) != 2:
        raise ParseError("embedded dependency needs an '->'")
    antecedent = _parse_ed_conjunction(pieces[0], "antecedent")
    tail = pieces[1].strip()
    existential = ()
    if tail.startswith("exists"):
        m = re.match(r"exists\s*([\w\s,]*?)\s*\.\s*(.*)$", tail, re.DOTALL)
        if not m:
            raise ParseError("malformed 'exists <vars> .' head")
        existential = tuple(v.strip() for v in m.group(1).split(",") if v.strip())
        tail = m.group(2)
    consequent = _parse_ed_conjunction(tail, "consequent")
    ed = EmbeddedDependency(universal, antecedent, existential, consequent)
    bound = set(universal) | set(existential)
    for a in ed.antecedent + ed.consequent:
        names = a.args if isinstance(a, EDRel) else (a.left, a.right)
        for v in names:
            if v not in bound:
                raise ParseError(f"variable {v!r} is not quantified")
    return ed


def _conjunction_holds(atoms, env, rels):
    for a in atoms:
        if isinstance(a, EDEq):
            if env[a.left] != env[a.right]:
                return False
        else:
            if tuple(env[v] for v in a.args) not in rels[a.name]:
                return False
    return True


def compile_embedded_dependency(ed: EmbeddedDependency, name: str = "ed",
                                widen_existentials: bool = False) -> GeneralizedQuantifier:
    """Compile a dependency into a quantifier checking the forall/exists sentence.

    Universal variables range over the full structure domain.  Existential
    witnesses range over the active domain (values in the extracted relations)
    plus one fresh probe value, which is complete here because consequents are
    positive conjunctions; ``widen_existentials`` searches the whole domain.
    """
    order = ed.relation_order()
    type_ = tuple(arity for _, arity in order)
    names = tuple(n for n, _ in order)

    def evaluator(domain, relations):
        rels = dict(zip(names, relations))
        if widen_existentials:
            witness_pool = list(domain)
        else:
            active = {v for rel in relations for t in rel for v in t}
            witness_pool = value_sorted(active)
            for v in domain:
                if v not in active:
                    witness_pool.append(v)
                    break
        env = {}
        for values in product(domain, repeat=len(ed.universal)):
            env.update(zip(ed.universal, values))
            if not _conjunction_holds(ed.antecedent, env, rels):
                continue
            for witness in product(witness_pool, repeat=len(ed.existential)):
                env.update(zip(ed.existential, witness))
                if _conjunction_holds(ed.consequent, env, rels):
                    break
            else:
                return False
        return True

    return GeneralizedQuantifier(name, type_, evaluator)


# ---------------------------------------------------------------------------
# Dependency classification

class DependencyClassification(Record):
    """Six syntactic flags, and ``instance_class``: "source_to_target",
    "target" or "neither" for an instantiated dependency, else None."""

    __slots__ = ("tuple_generating", "equality_generating", "full", "one_head",
                 "uni_relational", "separated", "instance_class")

    def __init__(self, tuple_generating, equality_generating, full, one_head,
                 uni_relational, separated, instance_class=None):
        super().__init__(tuple_generating, equality_generating, full, one_head,
                         uni_relational, separated, instance_class)


def classify(ed: EmbeddedDependency, instance_sorts=None, source=(), target=()) -> DependencyClassification:
    """Syntactic flags plus, when instantiated, the data-exchange orientation.

    ``instance_sorts`` maps relation name -> sort of the team whose tuple
    instantiates that relation slot of the compiled atom.
    """
    has_eq = any(isinstance(a, EDEq) for a in ed.antecedent + ed.consequent)
    consequent_rels = {a.name for a in ed.consequent if isinstance(a, EDRel)}
    antecedent_rels = {a.name for a in ed.antecedent if isinstance(a, EDRel)}
    all_rels = antecedent_rels | consequent_rels
    instance_class = None
    if instance_sorts is not None:
        source, target = set(source), set(target)
        ante_sorts = {instance_sorts[n] for n in antecedent_rels}
        cons_sorts = {instance_sorts[n] for n in consequent_rels}
        if ante_sorts <= source and cons_sorts <= target:
            instance_class = "source_to_target"
        elif (ante_sorts | cons_sorts) <= target:
            instance_class = "target"
        else:
            instance_class = "neither"
    return DependencyClassification(
        tuple_generating=not has_eq,
        equality_generating=bool(ed.consequent)
        and all(isinstance(a, EDEq) for a in ed.consequent),
        full=not ed.existential,
        one_head=len(ed.consequent) == 1,
        uni_relational=len(all_rels) == 1,
        separated=not (antecedent_rels & consequent_rels),
        instance_class=instance_class,
    )
