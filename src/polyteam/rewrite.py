"""Constructive formula transformations between the atom vocabularies.

The translation rules carry opaque identifiers e1..e6 and e8 (there is no
e7), matching the CLI's ``rewrite --rule`` names:

    e1  dependence          ->  independence
    e2  dependence          ->  all/exclusion split (per consequent position)
    e3  inclusion           ->  pure independence
    e4  inclusion           ->  all/exclusion + single-team inclusion
    e5  exclusion           ->  exists/dependence with an equality contrast
    e6  exclusion           ->  exists/inclusion + single-team exclusion
    e8  independence        ->  all/exists dependence + exclusion + inclusion

Two rules carry a side condition on empty teams, which the rewriting
functions signal with an EmptyTeamWarning when they rewrite a cross-sort
atom by one of them:

* e4 is an equivalence on polyteams whose team of the inclusion's right-hand
  sort j is nonempty.  With that team empty and the sort-i team not, the
  inclusion fails, but the rewrite holds, since its universal probe ranges
  over no rows.
* e6 is an equivalence on polyteams whose team of the exclusion's left-hand
  sort i is nonempty.  With that team empty and the sort-j team not, the
  exclusion holds, but the rewrite fails, since the existential mirror at
  sort i leaves no row to include the sort-j values.

A same-sort atom meets both conditions: when its one team is empty, both
sides hold.  No formula in e4's target fragment can drop its condition.
Say an atom needs rows at sort j when it is a pinc from another sort into
j, or a pind whose third group is at j and whose first two are elsewhere.

Lemma.  Let φ be built from literals, the four built-in atoms, ∧, both
disjunctions, ∃ and ∀, and let no atom of φ need rows at j.  Then X̄ ⊨ φ
implies X̄[∅/j] ⊨ φ, where X̄[∅/j] empties the sort-j team and keeps its
domain.

Proof.  Induction on φ.  Literals are flat, and an atom that mentions j
but needs no rows there quantifies universally over the sort-j rows, so
both hold on an empty sort-j team; other atoms do not read it.  At sort j,
lax ∃ and ∀ map the empty team to the empty team over the extended domain,
and at other sorts they leave the sort-j team alone, so emptying j
commutes with each quantifier step.  A disjunction splits the empty
sort-j team as ∅ ∪ ∅, or hands it to every part when it does not split j.

Consequence.  pinc(x̄@i | ȳ@j) with i ≠ j holds on one row at i and one
at j with equal values, and fails once j is emptied.  No atom of e4's
target fragment (∀, the disjunctions, pexc, same-sort pinc and literals)
needs rows at j, so no formula there equals the inclusion once empty teams
are allowed.  No such proof is known for e6 yet; both keep their warning.

``eliminate_global_disjunction`` removes every global disjunction (and every
multi-sort local disjunction) in favour of single-sort local disjunctions;
the output is equivalent on structures with at least two elements, which is
signalled with a CardinalityWarning.  ``decompose_by_sort`` splits a formula
whose atoms are all single-sorted into one ordinary team-semantics formula
per sort.
"""

from __future__ import annotations

import warnings
from typing import Optional

from .errors import RewriteError
from .model import Sort, Variable
from .syntax import (
    And, AtomF, Eq, Exists, Forall, Formula, Neq, NegRel, OrGlobal, OrLocal,
    PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth, all_variables, atom_sorts,
    atom_variables, conjoin, exists_chain, mentioned_sorts,
    FRESH_PREFIX,
)


class CardinalityWarning(UserWarning):
    """The rewritten formula is equivalent only on domains with >= 2 values."""


class EmptyTeamWarning(UserWarning):
    """The rewritten formula is equivalent only where certain teams are nonempty."""


# the side condition of each rule that needs one, as the warning states it
_EMPTY_TEAM_CONDITIONS = {
    "e4": "e4 is an equivalence only where the team of each inclusion's "
          "right-hand sort is nonempty",
    "e6": "e6 is an equivalence only where the team of each exclusion's "
          "left-hand sort is nonempty",
}


def _needs_empty_team_warning(atom, rule: str) -> bool:
    return rule in _EMPTY_TEAM_CONDITIONS and atom.sort_i != atom.sort_j


class FreshNameSource:
    """Generates variables never colliding with a reserved name set."""

    def __init__(self, taken=()):
        self.taken = {(v.sort, v.name) for v in taken}
        self.counter = 0

    @classmethod
    def for_formula(cls, phi: Formula) -> "FreshNameSource":
        return cls(all_variables(phi))

    def fresh(self, sort: Sort) -> Variable:
        while True:
            var = Variable(sort, f"{FRESH_PREFIX}{self.counter}")
            self.counter += 1
            if (var.sort, var.name) not in self.taken:
                self.taken.add((var.sort, var.name))
                return var

    def fresh_tuple(self, sort: Sort, count: int):
        return tuple(self.fresh(sort) for _ in range(count))


# ---------------------------------------------------------------------------
# Atom translations

def _e1(atom: PolyDep, fresh) -> Formula:
    return AtomF(PolyInd(atom.sort_i, atom.x, atom.y,
                         atom.sort_j, atom.u, atom.v,
                         atom.sort_i, atom.x, atom.y, atom.y))


def _e2(atom: PolyDep, fresh) -> Formula:
    conjuncts = []
    for yk, vk in zip(atom.y, atom.v):
        z = fresh.fresh(atom.sort_i)
        exclusion = AtomF(PolyExc(atom.sort_i, atom.x + (z,),
                                  atom.sort_j, atom.u + (vk,)))
        conjuncts.append(Forall(z, OrLocal(frozenset((atom.sort_i,)),
                                           Eq(yk, z), exclusion)))
    return conjoin(conjuncts)


def _e3(atom: PolyInc, fresh) -> Formula:
    # the conditioning group is empty; its sort defaults to the left sort so
    # that an empty right-hand team still falsifies the inclusion
    return AtomF(PolyInd(atom.sort_i, (), atom.x,
                         atom.sort_i, (), (),
                         atom.sort_j, (), atom.y, ()))


def _e4(atom: PolyInc, fresh) -> Formula:
    probe = fresh.fresh_tuple(atom.sort_j, len(atom.x))
    exclusion = AtomF(PolyExc(atom.sort_i, atom.x, atom.sort_j, probe))
    inclusion = AtomF(PolyInc(atom.sort_j, probe, atom.sort_j, atom.y))
    return exists_chain(probe, OrLocal(frozenset((atom.sort_j,)), exclusion, inclusion),
                        Forall)


def _e5(atom: PolyExc, fresh) -> Formula:
    if atom.sort_i == atom.sort_j:
        raise RewriteError("e5 needs a cross-sort exclusion atom: the dependence "
                           "atom it builds would be a same-sort shorthand")
    y = fresh.fresh(atom.sort_i)
    z = fresh.fresh(atom.sort_i)
    v = fresh.fresh(atom.sort_j)
    w = fresh.fresh(atom.sort_j)
    dep = AtomF(PolyDep(atom.sort_i, atom.x, (y, z), atom.sort_j, atom.y, (v, w)))
    return exists_chain((y, z, v, w), conjoin((dep, Eq(y, z), Neq(v, w))))


def _e6(atom: PolyExc, fresh) -> Formula:
    mirror = fresh.fresh_tuple(atom.sort_i, len(atom.y))
    inclusion = AtomF(PolyInc(atom.sort_j, atom.y, atom.sort_i, mirror))
    exclusion = AtomF(PolyExc(atom.sort_i, atom.x, atom.sort_i, mirror))
    return exists_chain(mirror, And(inclusion, exclusion))


def _e8(atom: PolyInd, fresh) -> Formula:
    i, j, k = atom.sort_i, atom.sort_j, atom.sort_k
    if i == j:
        raise RewriteError("e8 needs distinct first and second group sorts: the "
                           "dependence atom it builds would be a same-sort shorthand")
    pi = fresh.fresh_tuple(i, len(atom.x))
    qi = fresh.fresh_tuple(i, len(atom.y))
    ui, vi = fresh.fresh(i), fresh.fresh(i)
    pj = fresh.fresh_tuple(j, len(atom.a))
    qj = fresh.fresh_tuple(j, len(atom.y))
    rj = fresh.fresh_tuple(j, len(atom.b))
    uj, vj = fresh.fresh(j), fresh.fresh(j)
    transfer = AtomF(PolyDep(i, pi + qi, (ui, vi), j, pj + qj, (uj, vj)))
    # the local splits happen at the team the guessed tuples live in
    left_guard = OrLocal(frozenset((i,)), Eq(ui, vi),
                         And(Neq(ui, vi),
                             AtomF(PolyExc(i, atom.x + atom.y, i, pi + qi))))
    right_guard = OrLocal(frozenset((j,)), Neq(uj, vj),
                          OrLocal(frozenset((j,)),
                                  AtomF(PolyExc(j, atom.a + atom.b, j, pj + rj)),
                                  AtomF(PolyInc(j, pj + qj + rj,
                                                k, atom.u + atom.v + atom.w))))
    body = conjoin((transfer, left_guard, right_guard))
    inner = exists_chain(pj + qj + rj, exists_chain((uj, vj), body), Forall)
    return exists_chain(pi + qi, exists_chain((ui, vi), inner), Forall)


_ATOM_RULES = {
    "e1": (PolyDep, _e1),
    "e2": (PolyDep, _e2),
    "e3": (PolyInc, _e3),
    "e4": (PolyInc, _e4),
    "e5": (PolyExc, _e5),
    "e6": (PolyExc, _e6),
    "e8": (PolyInd, _e8),
}

RULE_NAMES = tuple(sorted(_ATOM_RULES))


def translate_atom(atom, rule: str, fresh: Optional[FreshNameSource] = None) -> Formula:
    """Rewrite one atom instance by the named rule into an equivalent formula.

    Warns with EmptyTeamWarning when the equivalence needs a nonempty team.
    """
    try:
        kind, impl = _ATOM_RULES[rule]
    except KeyError:
        raise RewriteError(f"unknown rule {rule!r}; choose from {RULE_NAMES}") from None
    if not isinstance(atom, kind):
        raise RewriteError(f"rule {rule} applies to {kind.__name__} atoms, "
                           f"not {type(atom).__name__}")
    if fresh is None:
        fresh = FreshNameSource(atom_variables(atom))
    result = impl(atom, fresh)
    if _needs_empty_team_warning(atom, rule):
        warnings.warn(_EMPTY_TEAM_CONDITIONS[rule], EmptyTeamWarning, stacklevel=2)
    return result


def rewrite_formula(phi: Formula, rule: str,
                    fresh: Optional[FreshNameSource] = None) -> Formula:
    """Apply an atom translation to every atom of the rule's kind.

    Warns once with EmptyTeamWarning when the equivalence of some rewritten
    atom needs a nonempty team.
    """
    kind, impl = _ATOM_RULES.get(rule, (None, None))
    if kind is None:
        raise RewriteError(f"unknown rule {rule!r}; choose from {RULE_NAMES}")
    fresh = fresh or FreshNameSource.for_formula(phi)
    state = {"conditional": False}
    result = _rewrite(phi, rule, kind, impl, fresh, state)
    if state["conditional"]:
        warnings.warn(_EMPTY_TEAM_CONDITIONS[rule], EmptyTeamWarning, stacklevel=2)
    return result


def _rewrite(f, rule, kind, impl, fresh, state):
    if isinstance(f, AtomF) and isinstance(f.atom, kind):
        if _needs_empty_team_warning(f.atom, rule):
            state["conditional"] = True
        return impl(f.atom, fresh)
    if isinstance(f, (And, OrGlobal)):
        return type(f)(*(_rewrite(p, rule, kind, impl, fresh, state) for p in f.parts))
    if isinstance(f, OrLocal):
        return OrLocal(f.sorts, *(_rewrite(p, rule, kind, impl, fresh, state) for p in f.parts))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, _rewrite(f.body, rule, kind, impl, fresh, state))
    return f


# ---------------------------------------------------------------------------
# Global-disjunction elimination

def eliminate_global_disjunction(phi: Formula,
                                 fresh: Optional[FreshNameSource] = None) -> Formula:
    """Replace every global and multi-sort local disjunction by single-sort ones.

    Globals first become local disjunctions over all mentioned sorts (exact,
    by locality), which are then unfolded into the fresh-variable split
    encoding; the unfolding is equivalent on structures with at least two
    elements (warned via CardinalityWarning).
    """
    eliminator = _Eliminator(frozenset(mentioned_sorts(phi)),
                             fresh or FreshNameSource.for_formula(phi))
    result = eliminator.go(phi)
    if eliminator.expanded:
        warnings.warn("the split encoding needs at least two domain elements",
                      CardinalityWarning, stacklevel=2)
    return result


class _Eliminator:
    """One elimination: the sorts a global disjunction splits, the source of
    fresh names, and whether some split was unfolded."""

    def __init__(self, scope, fresh: FreshNameSource):
        self.scope = scope
        self.fresh = fresh
        self.expanded = False

    def go(self, f):
        if isinstance(f, And):
            return And(*map(self.go, f.parts))
        if isinstance(f, (OrGlobal, OrLocal)):
            sorts = self.scope if isinstance(f, OrGlobal) else f.sorts
            if not sorts:
                return And(*map(self.go, f.parts))  # no teams are split at all
            if len(sorts) == 1:
                return OrLocal(sorts, *map(self.go, f.parts))
            # fold the parts pairwise, in the order a left-deep chain unfolds
            result = self.go(f.parts[0])
            for part in f.parts[1:]:
                result = self.expand_local(sorts, result, self.go(part))
            return result
        if isinstance(f, (Exists, Forall)):
            return type(f)(f.var, self.go(f.body))
        return f

    def expand_local(self, sorts, left, right):
        sorts = sorted(sorts)
        zs = {s: (self.fresh.fresh(s), self.fresh.fresh(s)) for s in sorts}
        body = And(_guard_chain(sorts, zs, 0, left), _guard_chain(sorts, zs, 1, right))
        bound = [z for s in sorts for z in zs[s]]
        self.expanded = True
        return exists_chain(bound, body)


def _guard_chain(sorts, zs, phase, core):
    # nested guard: at each sort, rows with equal (unequal) markers drop
    # out; the rest must satisfy the payload
    sort = sorts[0]
    z0, z1 = zs[sort]
    done = Eq(z0, z1) if phase == 0 else Neq(z0, z1)
    keep = Neq(z0, z1) if phase == 0 else Eq(z0, z1)
    inner = core if len(sorts) == 1 else _guard_chain(sorts[1:], zs, phase, core)
    return OrLocal(frozenset((sort,)), done, And(keep, inner))


# ---------------------------------------------------------------------------
# Sort-wise decomposition

def _atom_sort(atom):
    sorts = atom_sorts(atom)
    if len(sorts) != 1:
        raise RewriteError(f"cross-sort atom blocks the decomposition: {sorted(sorts)}")
    return next(iter(sorts))


def decompose_by_sort(phi: Formula) -> dict:
    """Split a single-sorted-atom formula into one formula per sort.

    The polyteam satisfies the input exactly when, for every sort, that
    sort's team alone satisfies the output formula.  Requires every atom to
    be single-sorted, every literal to be well sorted, and every
    disjunction to be a single-sort local one (run
    eliminate_global_disjunction first); the first node in preorder that
    breaks this raises the RewriteError.

    The output has a formula for each sort the input mentions.  That sort's
    formula keeps the literals and atoms at the sort, every quantifier of a
    variable of the sort, and as a plain disjunction every local disjunction
    that splits the sort.  A part that says nothing about the sort reads as
    ``true``, which is dropped from conjunctions; ``true`` remains only as a
    disjunct that says nothing about the sort it splits, and as the body of
    a quantifier whose body says nothing about its sort.
    """
    parts = _parts(phi)
    return {sort: parts[sort] for sort in sorted(parts)}


_TRUE = Truth()


def _parts(f) -> dict:
    """Each sort f mentions, mapped to f's part at that sort; each node is
    checked before its parts, so the first bad node in preorder raises."""
    if isinstance(f, AtomF):
        return {_atom_sort(f.atom): f}
    if isinstance(f, (Eq, Neq)):
        return _literal_parts(f, (f.left, f.right))
    if isinstance(f, And):
        return _joined([_parts(p) for p in f.parts], None)
    if isinstance(f, OrLocal):
        if len(f.sorts) != 1:
            raise RewriteError("multi-sort local disjunction present; "
                               "apply eliminate_global_disjunction first")
        return _joined([_parts(p) for p in f.parts], next(iter(f.sorts)))
    if isinstance(f, (Exists, Forall)):
        parts = _parts(f.body)
        sort = f.var.sort
        parts[sort] = type(f)(f.var, parts.get(sort, _TRUE))
        return parts
    if isinstance(f, (Rel, NegRel)):
        return _literal_parts(f, f.args)
    if isinstance(f, Truth):
        return {}
    if isinstance(f, OrGlobal):
        raise RewriteError("global disjunction present; "
                           "apply eliminate_global_disjunction first")
    raise TypeError(f"not a formula node: {f!r}")


def _literal_parts(f, variables):
    own = variables[0].sort
    for var in variables:
        if var.sort != own:
            raise RewriteError(f"ill-sorted literal blocks the decomposition: {f}")
    return {own: f}


def _joined(parts, split):
    """The parts of a conjunction, or of a disjunction that splits the sort
    ``split``: per sort, the parts' formulas there, conjoined, or at the
    split sort disjoined with ``true`` for a part that has none."""
    grouped = {}
    for part in parts:
        for sort, sub in part.items():
            grouped.setdefault(sort, []).append(sub)
    for sort, subs in grouped.items():
        if sort == split:
            grouped[sort] = OrGlobal(*(part.get(sort, _TRUE) for part in parts))
        else:
            grouped[sort] = subs[0] if len(subs) == 1 else And(*subs)
    return grouped
