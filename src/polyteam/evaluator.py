"""Compositional lax-semantics model checking of formulas over polyteams.

The evaluator is exact: every strategy below is a search-space reduction
justified by a structural property of the clause being evaluated, never an
approximation.  The properties used are

* locality (satisfaction depends only on the teams at mentioned sorts) -
  justifies restricting disjunction covers to mentioned sorts;
* row decomposition - a subformula whose truth over the team at sort t is a
  conjunction of per-row facts (literals, dependence/exclusion atoms with one
  side at t, flat first-order parts, ...) lets covers and value choices be
  decided row by row;
* inclusion guards - when ∃x B at sort t is decided row by row, a top-level
  conjunct pinc(x̄ | ȳ) of B (read past B's leading chain of sort-t
  existentials, up to any rebinding of x) with sort_i = t, sort_j ≠ t, x in
  x̄, and every other variable of x̄ in the team and unbound by the chain
  admits a row's value a only if s[a/x](x̄) ∈ rel(X_j, ȳ): lax ∃ keeps the
  one-row team nonempty and leaves X_j as it is.  Candidate values come
  from a hash join of the row against each guard's relation;
* downward closure at sort t - shrinking the sort-t team preserves truth,
  so existential value sets can be searched as single values per row and an
  opaque-but-downward-closed disjunct takes exactly the rows no row-wise
  disjunct accepts.

Anything not certified falls back to literal cover/choice enumeration, which
the configuration caps guard.  ``tests`` cross-validate every strategy
against the naive oracle evaluator.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import ResourceExhausted, SortedDomainError
from .model import Polyteam, Structure, Team, value_key
from .syntax import (
    And, AtomF, Eq, Exists, Forall, Formula, GeneralizedAtom, Neq, NegRel,
    OrGlobal, OrLocal, PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth,
    all_variables, atom_sorts, check_well_sorted, free_variables,
    mentioned_sorts,
)
from . import atoms as atom_checks

TRUE = "true"
FALSE = "false"
EXHAUSTED = "resource_exhausted"


@dataclass(frozen=True)
class EvalConfig:
    """Resource limits for the exponential search; all caps are positive."""

    max_expanded_team_rows: int = 100_000
    max_split_assignments: int = 14
    timeout: Optional[float] = 120.0

    def __post_init__(self):
        if self.max_expanded_team_rows <= 0 or self.max_split_assignments <= 0:
            raise ValueError("caps must be positive")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class EvalOutcome:
    verdict: str
    nodes_visited: int = 0
    limit: Optional[str] = None

    def as_bool(self) -> bool:
        if self.verdict == EXHAUSTED:
            raise RuntimeError(f"evaluation exhausted its {self.limit} limit")
        return self.verdict == TRUE


def enumerate_covers(team: Team, cap: Optional[int] = None):
    """All lax covers (Y, Z) with Y ∪ Z = team: 3^|team| pairs, each once."""
    rows = team.ordered_rows()
    if cap is not None and len(rows) > cap:
        raise ResourceExhausted("split")
    for routing in itertools.product((0, 1, 2), repeat=len(rows)):
        left = [r for r, way in zip(rows, routing) if way != 1]
        right = [r for r, way in zip(rows, routing) if way != 0]
        yield team.with_rows(left), team.with_rows(right)


def _flatten_or(node):
    """Parts of a maximal same-shape disjunction chain."""
    if isinstance(node, OrGlobal):
        parts = []
        for child in (node.left, node.right):
            if isinstance(child, OrGlobal):
                parts.extend(_flatten_or(child))
            else:
                parts.append(child)
        return parts
    parts = []
    for child in (node.left, node.right):
        if isinstance(child, OrLocal) and child.sorts == node.sorts:
            parts.extend(_flatten_or(child))
        else:
            parts.append(child)
    return parts


def _flatten_and(node):
    if isinstance(node, And):
        return _flatten_and(node.left) + _flatten_and(node.right)
    return [node]


class _Evaluator:
    def __init__(self, structure: Structure, config: EvalConfig, registry):
        self.structure = structure
        self.config = config
        self.registry = registry
        self.domain_set = frozenset(structure.domain)
        self.nodes = 0
        self.deadline = None
        if config.timeout is not None:
            self.deadline = time.monotonic() + config.timeout
        self._mentioned = {}
        self._rowwise = {}
        self._downward = {}
        self._guards = {}

    # -- cached structural queries ---------------------------------------

    def mentioned(self, node) -> frozenset:
        got = self._mentioned.get(id(node))
        if got is None:
            got = mentioned_sorts(node)
            self._mentioned[id(node)] = got
        return got

    def rowwise(self, node, t) -> bool:
        """Truth over the sort-t team is a conjunction of per-row facts."""
        key = (id(node), t)
        got = self._rowwise.get(key)
        if got is not None:
            return got
        if t not in self.mentioned(node):
            result = True
        elif isinstance(node, (Truth, Eq, Neq, Rel, NegRel)):
            result = True
        elif isinstance(node, AtomF):
            a = node.atom
            if isinstance(a, PolyDep):
                result = not (a.sort_i == t and a.sort_j == t)
            elif isinstance(a, PolyInc):
                result = a.sort_j != t
            elif isinstance(a, PolyExc):
                result = not (a.sort_i == t and a.sort_j == t)
            elif isinstance(a, PolyInd):
                result = a.sort_k != t and not (a.sort_i == t and a.sort_j == t)
            else:
                result = False
        elif isinstance(node, And):
            result = self.rowwise(node.left, t) and self.rowwise(node.right, t)
        elif isinstance(node, Forall):
            result = self.rowwise(node.body, t)
        elif isinstance(node, Exists):
            result = node.var.sort == t and self.rowwise(node.body, t)
        elif isinstance(node, (OrGlobal, OrLocal)):
            # a disjunction splitting only at t with all parts row-decomposable
            # is itself row-decomposable (each row picks its part); any other
            # split couples rows through the shared cover choice
            parts = _flatten_or(node)
            split = self.split_sorts(node, parts)
            result = split in ([], [t]) and all(self.rowwise(p, t) for p in parts)
        else:
            result = False
        self._rowwise[key] = result
        return result

    def downward_closed(self, node, t) -> bool:
        """Shrinking the sort-t team preserves satisfaction."""
        key = (id(node), t)
        got = self._downward.get(key)
        if got is not None:
            return got
        if t not in self.mentioned(node):
            result = True
        elif isinstance(node, (Truth, Eq, Neq, Rel, NegRel)):
            result = True
        elif isinstance(node, AtomF):
            a = node.atom
            if isinstance(a, (PolyDep, PolyExc)):
                result = True
            elif isinstance(a, PolyInc):
                result = a.sort_j != t
            elif isinstance(a, PolyInd):
                result = a.sort_k != t
            else:
                result = False
        elif isinstance(node, (And, OrGlobal, OrLocal)):
            result = self.downward_closed(node.left, t) and \
                self.downward_closed(node.right, t)
        elif isinstance(node, (Exists, Forall)):
            result = self.downward_closed(node.body, t)
        else:
            result = False
        self._downward[key] = result
        return result

    # -- bookkeeping ------------------------------------------------------

    def tick(self):
        self.nodes += 1
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise ResourceExhausted("timeout")

    # -- evaluation -------------------------------------------------------

    def eval(self, node, pt: Polyteam) -> bool:
        self.tick()
        if isinstance(node, Truth):
            return True
        if isinstance(node, (Eq, Neq, Rel, NegRel)):
            return self.eval_literal(node, pt)
        if isinstance(node, And):
            return self.eval(node.left, pt) and self.eval(node.right, pt)
        if isinstance(node, (OrGlobal, OrLocal)):
            return self.eval_or(node, pt)
        if isinstance(node, Forall):
            return self.eval_forall(node, pt)
        if isinstance(node, Exists):
            return self.eval_exists(node, pt)
        if isinstance(node, AtomF):
            return atom_checks.check_atom(self.structure, pt, node.atom, self.registry)
        raise TypeError(f"not a formula node: {node!r}")

    def eval_literal(self, node, pt: Polyteam) -> bool:
        if isinstance(node, (Eq, Neq)):
            team = pt.team(node.left.sort)
            want_equal = isinstance(node, Eq)
            return all((row[node.left] == row[node.right]) == want_equal
                       for row in team.rows)
        rel = self.structure.relation(node.name)
        team = pt.team(node.args[0].sort)
        inside = isinstance(node, Rel)
        return all((row.values_of(node.args) in rel) == inside for row in team.rows)

    # -- disjunction ------------------------------------------------------

    def split_sorts(self, node, parts):
        touched = frozenset().union(*(self.mentioned(p) for p in parts))
        if isinstance(node, OrLocal):
            return sorted(node.sorts & touched)
        return sorted(touched)

    def eval_or(self, node, pt: Polyteam) -> bool:
        parts = _flatten_or(node)
        split = self.split_sorts(node, parts)
        if not split:
            # no sort is actually split: every part must hold as-is
            return all(self.eval(p, pt) for p in parts)
        if len(split) == 1:
            return self.eval_or_single(node, parts, split[0], pt)
        return self.eval_or_fallback(node, split, pt)

    def eval_or_single(self, node, parts, t, pt: Polyteam) -> bool:
        team = pt.team(t)
        opaque = [p for p in parts if not self.rowwise(p, t)]
        if len(opaque) > 1:
            return self.eval_or_fallback(node, [t], pt)
        rowwise_parts = [p for p in parts if self.rowwise(p, t)]
        empty = pt.with_team(team.with_rows(()))
        if not all(self.eval(p, empty) for p in rowwise_parts):
            return False
        rows = team.ordered_rows()
        accepts = []
        for row in rows:
            single = pt.with_team(team.with_rows((row,)))
            accepts.append(any(self.eval(p, single) for p in rowwise_parts))
        if not opaque:
            return all(accepts)
        blocker = opaque[0]
        required = tuple(r for r, ok in zip(rows, accepts) if not ok)
        if self.downward_closed(blocker, t):
            # any workable opaque slice shrinks to exactly the required rows
            return self.eval(blocker, pt.with_team(team.with_rows(required)))
        optional = tuple(r for r, ok in zip(rows, accepts) if ok)
        if len(optional) > self.config.max_split_assignments:
            raise ResourceExhausted("split")
        for size in range(len(optional) + 1):
            for extra in itertools.combinations(optional, size):
                slice_rows = required + extra
                if self.eval(blocker, pt.with_team(team.with_rows(slice_rows))):
                    return True
        return False

    def eval_or_fallback(self, node, split, pt: Polyteam) -> bool:
        def go(idx, left_pt, right_pt):
            if idx == len(split):
                return self.eval(node.left, left_pt) and self.eval(node.right, right_pt)
            for y, z in enumerate_covers(pt.team(split[idx]),
                                         self.config.max_split_assignments):
                if go(idx + 1, left_pt.with_team(y), right_pt.with_team(z)):
                    return True
            return False

        return go(0, pt, pt)

    # -- quantifiers -------------------------------------------------------

    def eval_forall(self, node, pt: Polyteam) -> bool:
        team = pt.team(node.var.sort)
        if len(team) * len(self.structure.domain) > self.config.max_expanded_team_rows:
            raise ResourceExhausted("expansion")
        expanded = team.expanded_all(node.var, self.structure.domain)
        return self.eval(node.body, pt.with_team(expanded))

    def eval_exists(self, node, pt: Polyteam) -> bool:
        t = node.var.sort
        team = pt.team(t)
        domain = self.structure.domain
        new_domain = team.domain_with(node.var)
        if team.is_empty:
            return self.eval(node.body,
                             pt.with_team(Team._trusted(t, new_domain, frozenset())))
        if len(team) * len(domain) > self.config.max_expanded_team_rows:
            raise ResourceExhausted("expansion")
        if self.rowwise(node.body, t):
            empty = Team._trusted(t, new_domain, frozenset())
            if not self.eval(node.body, pt.with_team(empty)):
                return False
            witnesses = self.guarded_witnesses(node, pt)
            for row in team.ordered_rows():
                values = domain if witnesses is None else witnesses(row)
                if not any(self.eval(node.body,
                                     pt.with_team(Team._trusted(
                                         t, new_domain,
                                         frozenset((row.extended(node.var, a),)))))
                           for a in values):
                    return False
            return True
        plan = self.existential_block_plan(node)
        if plan is not None:
            return self.eval_exists_block(plan, pt)
        if self.downward_closed(node.body, t):
            rows = team.ordered_rows()
            for combo in itertools.product(domain, repeat=len(rows)):
                chosen = Team._trusted(t, new_domain, frozenset(
                    r.extended(node.var, a) for r, a in zip(rows, combo)))
                if self.eval(node.body, pt.with_team(chosen)):
                    return True
            return False
        return self.eval_exists_subsets(node, team, pt)

    def inclusion_guards(self, node):
        """Conjuncts pinc(x̄ | ȳ) of ∃x B that every single-row witness must meet.

        B is read past its leading chain of same-sort existentials (stopping
        where the chain rebinds x) as a flat conjunction.  A conjunct
        pinc(x̄ | ȳ) guards x when it includes the block sort t into another
        sort, x occurs in x̄, and the chain binds no other variable of x̄.
        Each guard is (atom, positions of x in x̄, positions of the other
        variables of x̄, those variables).
        """
        got = self._guards.get(id(node))
        if got is not None:
            return got
        x = node.var
        t = x.sort
        bound = set()
        body = node.body
        while isinstance(body, Exists) and body.var.sort == t and body.var != x:
            bound.add(body.var)
            body = body.body
        guards = []
        for c in _flatten_and(body):
            if not isinstance(c, AtomF) or not isinstance(c.atom, PolyInc):
                continue
            a = c.atom
            if a.sort_i != t or a.sort_j == t or x not in a.x:
                continue
            at_keys = tuple(k for k, v in enumerate(a.x) if v != x)
            keys = tuple(a.x[k] for k in at_keys)
            if bound.intersection(keys):
                continue
            at_x = tuple(k for k, v in enumerate(a.x) if v == x)
            guards.append((a, at_x, at_keys, keys))
        got = tuple(guards)
        self._guards[id(node)] = got
        return got

    def guarded_witnesses(self, node, pt: Polyteam):
        """Per-row candidate values for the row-wise ∃x branch, or None.

        On a one-row team {s} the existential chain keeps the team nonempty
        and leaves the sort-j team as it is, so a guard pinc(x̄ | ȳ) can hold
        only if s[a/x](x̄) ∈ rel(X_j, ȳ).  Hash-joining each guard's relation
        on the other variables of x̄ leaves, per row, just the values a every
        guard admits, in domain order.

        Call it only after B held on the empty sort-t team: that evaluated
        every guard, so the variables of x̄ and ȳ are known to lie in the
        team domains.
        """
        indexes = []
        for atom, at_x, at_keys, keys in self.inclusion_guards(node):
            index = {}
            for values in pt.team(atom.sort_j).relation(atom.y):
                a = values[at_x[0]]
                if a not in self.domain_set or \
                        any(values[k] != a for k in at_x[1:]):
                    continue
                index.setdefault(tuple(values[k] for k in at_keys), set()).add(a)
            indexes.append((keys, index))
        if not indexes:
            return None

        def witnesses(row):
            allowed = None
            for keys, index in indexes:
                got = index.get(row.values_of(keys))
                if not got:
                    return ()
                allowed = got if allowed is None else allowed & got
            return sorted(allowed, key=value_key)

        return witnesses

    def eval_exists_subsets(self, node, team, pt: Polyteam) -> bool:
        domain = self.structure.domain
        rows = team.ordered_rows()
        choices = []
        for size in range(1, len(domain) + 1):
            choices.extend(itertools.combinations(domain, size))
        new_domain = team.domain_with(node.var)
        for combo in itertools.product(choices, repeat=len(rows)):
            chosen = Team._trusted(team.sort, new_domain, frozenset(
                r.extended(node.var, a)
                for r, vals in zip(rows, combo) for a in vals))
            if self.eval(node.body, pt.with_team(chosen)):
                return True
        return False

    # -- existential block with one opaque downward-closed disjunct --------

    def existential_block_plan(self, node):
        """Detect ∃x1..xk(C ∧ (D1 ∨ ... ∨ O ∨ ...)) decidable row by row.

        Requires: all conjuncts row-decomposable at the block sort except one
        disjunction whose parts are row-decomposable except a single opaque,
        downward-closed part O not containing the block variables.  Truth is
        then: per row, pick values making C and some row-wise disjunct hold;
        rows no row-wise disjunct accepts must satisfy O as one slice.
        """
        t = node.var.sort
        block = []
        body = node
        while isinstance(body, Exists) and body.var.sort == t:
            block.append(body.var)
            body = body.body
        conjuncts = _flatten_and(body)
        plain, disjunction = [], None
        for c in conjuncts:
            if self.rowwise(c, t):
                plain.append(c)
            elif disjunction is None and isinstance(c, (OrGlobal, OrLocal)):
                disjunction = c
            else:
                return None
        if disjunction is None:
            return None
        parts = _flatten_or(disjunction)
        if self.split_sorts(disjunction, parts) != [t]:
            return None
        opaque = [p for p in parts if not self.rowwise(p, t)]
        if len(opaque) != 1:
            return None
        blocker = opaque[0]
        if not self.downward_closed(blocker, t):
            return None
        if set(block) & all_variables(blocker):
            return None
        rowwise_parts = [p for p in parts if self.rowwise(p, t)]
        return (t, tuple(block), tuple(plain), tuple(rowwise_parts), blocker)

    def eval_exists_block(self, plan, pt: Polyteam) -> bool:
        t, block, plain, rowwise_parts, blocker = plan
        team = pt.team(t)
        domain = self.structure.domain
        new_domain = team.domain_with(*block)
        empty = pt.with_team(Team._trusted(t, new_domain, frozenset()))
        if not all(self.eval(c, empty) for c in plain):
            return False
        if not all(self.eval(p, empty) for p in rowwise_parts):
            return False
        candidates = tuple(itertools.product(domain, repeat=len(block)))
        required = []
        for row in team.ordered_rows():
            feasible = False
            covered = False
            for values in candidates:
                extended = row
                for var, a in zip(block, values):
                    extended = extended.extended(var, a)
                single = pt.with_team(Team._trusted(t, new_domain,
                                                    frozenset((extended,))))
                if not all(self.eval(c, single) for c in plain):
                    continue
                feasible = True
                if any(self.eval(p, single) for p in rowwise_parts):
                    covered = True
                    break
            if not feasible:
                return False
            if not covered:
                required.append(row)
        # blocker is free of the block variables: evaluate its slice without them
        return self.eval(blocker, pt.with_team(team.with_rows(required)))


def eval_formula(structure: Structure, pt: Polyteam, phi: Formula,
                 config: Optional[EvalConfig] = None, registry=None) -> EvalOutcome:
    """Model-check a formula against a structure and polyteam.

    The verdict matches the compositional lax semantics exactly whenever no
    resource cap trips; cap trips surface as the distinct verdict
    ``resource_exhausted``, never as ``false``.
    """
    config = config or EvalConfig()
    problems = check_well_sorted(phi, registry)
    if problems:
        raise SortedDomainError("ill-sorted formula: " + "; ".join(problems))
    for sort, variables in free_variables(phi).items():
        team = pt.team(sort)
        missing = set(variables) - set(team.domain)
        if missing:
            raise SortedDomainError(
                f"free variables {sorted(map(str, missing))} missing from the "
                f"{sort!r} team domain")
    ev = _Evaluator(structure, config, registry)
    try:
        verdict = TRUE if ev.eval(phi, pt) else FALSE
        return EvalOutcome(verdict, ev.nodes)
    except ResourceExhausted as stop:
        return EvalOutcome(EXHAUSTED, ev.nodes, limit=stop.limit)


def eval_sentence(structure: Structure, phi: Formula,
                  config: Optional[EvalConfig] = None, registry=None) -> EvalOutcome:
    """Truth of a sentence: evaluation over the all-defaulted polyteam."""
    free = free_variables(phi)
    if any(free.values()):
        names = sorted(str(v) for vs in free.values() for v in vs)
        raise SortedDomainError(f"not a sentence; free variables {names}")
    return eval_formula(structure, Polyteam(), phi, config, registry)


class BulkEvaluator:
    """Many evaluations against one structure, sharing caches across queries.

    The structural analysis of each formula (mentioned sorts, row-wise and
    downward-closed classifications, inclusion guards) is computed once and
    reused for every polyteam it is evaluated on; verdicts themselves are
    not cached.  Raises ResourceExhausted
    instead of returning a third verdict.
    """

    def __init__(self, structure: Structure, config: Optional[EvalConfig] = None,
                 registry=None):
        self._engine = _Evaluator(structure, config or EvalConfig(timeout=None), registry)
        self._checked = set()
        # caches key on node identity, so every formula seen must stay alive
        # or a recycled id would resurrect another node's cache entries
        self._keep = []

    def holds(self, pt: Polyteam, phi: Formula) -> bool:
        if id(phi) not in self._checked:
            problems = check_well_sorted(phi, self._engine.registry)
            if problems:
                raise SortedDomainError("ill-sorted formula: " + "; ".join(problems))
            self._checked.add(id(phi))
            self._keep.append(phi)
        return self._engine.eval(phi, pt)
