"""Compositional lax-semantics model checking of formulas over polyteams.

The evaluator is exact: every strategy below is a search-space reduction
justified by a structural property of the clause being evaluated, never an
approximation.  The properties used are

* locality (satisfaction depends only on the teams at mentioned sorts) -
  justifies restricting disjunction covers to mentioned sorts;
* row decomposition - a subformula whose truth over the team at sort t is a
  conjunction of per-row facts (literals, dependence/exclusion atoms with one
  side at t, flat first-order parts, ...) lets covers and value choices be
  decided row by row.  A disjunction splitting only t decides a row's
  pinc(x̄ | ȳ) part with sort_i = t ≠ sort_j as s(x̄) ∈ rel(X_j, ȳ), and
  a pexc part with one side at t as the row's side not lying in the other
  side's relation, with no one-row slice;
* inclusion guards - when ∃x B at sort t is decided row by row, a top-level
  conjunct of B (read past B's leading chain of sort-t existentials, up to
  any rebinding of x) that is pinc(x̄ | ȳ) with sort_i = t, sort_j ≠ t, or a
  relation literal R(x̄), with x in x̄ and every other variable of x̄ in the
  team and unbound by the chain, admits a row's value a only if s[a/x](x̄)
  lies in rel(X_j, ȳ), or in R^M: lax ∃ keeps the one-row team nonempty and
  leaves X_j as it is, and R(x̄) is flat.  Candidate values come from a hash
  join of the row against each guard's relation; the structure is fixed, so
  the index of a relation guard is built once per evaluator;
* inclusion demands - when the value sets for ∃x B at sort t are searched
  outright, a pinc(w̄ | ȳ) in B with sort_j = t and x = y_k, reached through
  conjunctions, quantifiers binding neither x nor w_k, and every part of
  each disjunction on the way, holds only if X_i(w_k) ⊆ X_t(x): lax
  quantifiers keep every row, and a disjunction's parts cover each team.
  Choices whose values miss such a w_k value are skipped, so the search
  cost no longer hangs on where the needed values fall in domain order;
* downward closure at sort t - shrinking the sort-t team preserves truth,
  so existential value sets can be searched as single values per row and an
  opaque-but-downward-closed disjunct takes exactly the rows no row-wise
  disjunct accepts;
* existential blocks - let x̄ be a chain of sort-t existentials over a body
  C ∧ (D ∨ O), where C is row-wise at t, the disjunction splits only t, D
  stands for its row-wise parts, and its one other part O is downward-closed
  at t and shares no variable with x̄.  Then lax semantics and locality give
  ∃x̄(C ∧ (D ∨ O)) ≡ ∃x̄(C ∧ D) ∨_t (O ∧ ∃x̄C): a row goes left when some
  choice for x̄ meets C ∧ D; every other row needs a choice meeting C, and O,
  blind to x̄, must hold on those rows together.  The right-hand side is
  built once per ∃ node and decided by the disjunction strategies above.

Row decomposition and downward closure form one lattice: ``closure(node, t)``
gives each subformula a level OPAQUE < DOWNWARD < ROWWISE at sort t, so
row-wise implies downward-closed by construction.  Closure levels, mentioned
sorts, inclusion guards and demands, relation-guard indexes, block rewrites
and literal projectors share one memo whose entries hold their nodes, so no
id it keys on can be reused while the entry lives.  A session keeps the memo
across ``holds`` calls.

Row verdicts.  One loop, ``row_loop``, decides one row at a time, for the
row-wise parts of a disjunction that splits only sort t and for the body of
an ∃ at t that is row-wise there or meets an empty team.  It first probes
the parts, or the body, on the sort-t team with no rows.  By locality, a
row's verdict depends only on the node, the row with its domain, and the
teams at the other sorts the node mentions; the probe's outcome depends on
the same, less the row.  The structure is fixed.  So the evaluator keeps the
verdicts per context (id(node), the sort-t domain, then (domain, tuples) of
the team at each other mentioned sort, in sorted order), the probe under the
key ``PROBE`` among the rows, for its lifetime: one ``eval_formula`` call,
or a ``BulkEvaluator`` session.  A slice rebuilt against the same teams is
decided once, and each level of a chain ∃z1…∃zk probes once, not per call.
Keys hold team contents, not ``Team`` objects: equal teams rebuilt for
another polyteam share an entry, and no team's caches are pinned.  The
stored verdicts and the rows of the teams in the keys count against
``max_expanded_team_rows``, and the store empties itself before it would
pass that.  A row or probe that raises is never stored.

Anything not certified falls back to literal enumeration of ∃ value choices
or of k-way lax covers for k disjuncts, which the configuration caps guard.
``tests`` cross-validate every strategy against the naive oracle evaluator.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from .errors import ResourceExhausted, SortedDomainError
from .model import Polyteam, Structure, Team, value_sorted
from .syntax import (
    And, AtomF, Connective, Eq, Exists, Forall, Formula, Neq, NegRel, OrGlobal,
    OrLocal, PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth, all_variables,
    check_well_sorted, conjoin, exists_chain, free_variables, mentioned_sorts,
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


def enumerate_covers(team: Team, cap: Optional[int] = None, parts: int = 2):
    """All lax covers by ``parts`` subteams, each once: (2^parts - 1)^|team|.

    Each row goes to a nonempty set of the subteams; with two parts, to the
    left, the right or both, in that order.
    """
    rows = team.ordered_tuples()
    if cap is not None and len(rows) > cap:
        raise ResourceExhausted("split")
    for routing in itertools.product(range(1, 1 << parts), repeat=len(rows)):
        yield tuple(team.with_rows([r for r, way in zip(rows, routing) if way >> k & 1])
                    for k in range(parts))


OPAQUE, DOWNWARD, ROWWISE = 0, 1, 2

# the key under which a row loop keeps its empty-team probe among its row
# verdicts; row keys are tuples, so it meets none of them
PROBE = object()


def atom_closure(atom, t) -> int:
    """The closure level at sort t of a dependency atom that mentions t."""
    if isinstance(atom, (PolyDep, PolyExc)):
        return DOWNWARD if atom.sort_i == t and atom.sort_j == t else ROWWISE
    if isinstance(atom, PolyInc):
        return OPAQUE if atom.sort_j == t else ROWWISE
    if isinstance(atom, PolyInd):
        if atom.sort_k == t:
            return OPAQUE
        return DOWNWARD if atom.sort_i == t and atom.sort_j == t else ROWWISE
    return OPAQUE


def _demands(f, x) -> frozenset:
    """The variables whose values f demands ∃x cover; see ``inclusion_demands``."""
    if isinstance(f, AtomF):
        a = f.atom
        if isinstance(a, PolyInc) and a.sort_j == x.sort:
            return frozenset(w for w, y in zip(a.x, a.y) if y == x != w)
    elif isinstance(f, And):
        return frozenset().union(*(_demands(p, x) for p in f.parts))
    elif isinstance(f, (OrGlobal, OrLocal)):
        return frozenset.intersection(*(_demands(p, x) for p in f.parts))
    elif isinstance(f, (Exists, Forall)) and f.var != x:
        return _demands(f.body, x) - {f.var}
    return frozenset()


class _Evaluator:
    def __init__(self, structure: Structure, config: EvalConfig, registry):
        self.structure = structure
        self.config = config
        self.registry = registry
        self.domain_set = structure.domain_set
        self.nodes = 0
        self.deadline = None
        if config.timeout is not None:
            self.deadline = time.monotonic() + config.timeout
        # key -> (node, answer); keys are id(node) for ``mentioned``,
        # (id(node), t) for ``closure`` and (name, id(node), ...) for the others
        self.memo = {}
        # context -> (verdicts, their count and the rows reserved at the last hand-out)
        self.contexts = {}
        # a bound on the rows the contexts hold: the rows of their keys, and
        # per context its count plus reserve from the last hand-out
        self.rows_held = 0

    # -- cached structural queries ---------------------------------------

    def _store(self, key, node, answer):
        self.memo[key] = (node, answer)
        return answer

    def mentioned(self, node) -> frozenset:
        got = self.memo.get(id(node))
        if got is not None:
            return got[1]
        return self._store(id(node), node, mentioned_sorts(node))

    def closure(self, node, t) -> int:
        """The node's closure level at sort t: OPAQUE, DOWNWARD or ROWWISE."""
        key = (id(node), t)
        got = self.memo.get(key)
        if got is not None:
            return got[1]
        if t not in self.mentioned(node) or isinstance(node, (Truth, Eq, Neq, Rel, NegRel)):
            level = ROWWISE
        elif isinstance(node, AtomF):
            level = atom_closure(node.atom, t)
        elif isinstance(node, Connective):
            level = min(self.closure(p, t) for p in node.parts)
            # a disjunction splitting only at t lets each row pick its part;
            # any other split couples rows through the shared cover choice
            if not isinstance(node, And) and self.split_sorts(node) not in ([], [t]):
                level = min(level, DOWNWARD)
        elif isinstance(node, Forall):
            level = self.closure(node.body, t)
        elif isinstance(node, Exists):
            level = self.closure(node.body, t)
            if node.var.sort != t:
                level = min(level, DOWNWARD)
        else:
            level = OPAQUE
        return self._store(key, node, level)

    # -- bookkeeping ------------------------------------------------------

    def check_input(self, phi, pt: Polyteam):
        """Reject an ill-formed phi, such as one with a generalized atom the
        registry cannot resolve, or a free variable outside its team's domain."""
        key = ("free", id(phi))
        got = self.memo.get(key)
        if got is not None:
            free = got[1]
        else:
            problems = check_well_sorted(phi, self.registry)
            if problems:
                raise SortedDomainError("ill-sorted formula: " + "; ".join(problems))
            free = self._store(key, phi, tuple(free_variables(phi).items()))
        for sort, variables in free:
            if not variables.issubset(pt.team(sort).domain):
                missing = variables.difference(pt.team(sort).domain)
                raise SortedDomainError(
                    f"free variables {sorted(map(str, missing))} missing from the "
                    f"{sort!r} team domain")

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
            for part in node.parts:
                if not self.eval(part, pt):
                    return False
            return True
        if isinstance(node, (OrGlobal, OrLocal)):
            return self.eval_or(node, pt)
        if isinstance(node, Forall):
            return self.eval_forall(node, pt)
        if isinstance(node, Exists):
            return self.eval_exists(node, pt)
        if isinstance(node, AtomF):
            return atom_checks.check_atom(self.structure, pt, node.atom, self.registry)
        raise TypeError(f"not a formula node: {node!r}")

    def getter(self, node, team: Team):
        """The literal's row projector on teams with this domain, built once."""
        key = ("getter", id(node), team.domain)
        got = self.memo.get(key)
        if got is not None:
            return got[1]
        variables = (node.left, node.right) if isinstance(node, (Eq, Neq)) else node.args
        return self._store(key, node, team.projector(variables))

    def eval_literal(self, node, pt: Polyteam) -> bool:
        if isinstance(node, (Eq, Neq)):
            team = pt.team(node.left.sort)
            pairs = map(self.getter(node, team), team.tuples)
            if isinstance(node, Eq):
                return all(a == b for a, b in pairs)
            return all(a != b for a, b in pairs)
        rel = self.structure.relation(node.name)
        team = pt.team(node.args[0].sort)
        values = map(self.getter(node, team), team.tuples)
        if isinstance(node, Rel):
            return rel.issuperset(values)
        return rel.isdisjoint(values)

    def row_verdicts(self, node, t, pt: Polyteam) -> dict:
        """Where the row loop of ``node`` at sort t keeps its one-row verdicts.

        Maps each row tuple of the sort-t team to its one-row verdict, and
        ``PROBE`` to the probe's outcome on the empty team of the same context.
        """
        key = ("others", id(node), t)
        got = self.memo.get(key)
        others = got[1] if got is not None else \
            self._store(key, node, tuple(sorted(self.mentioned(node) - {t})))
        team = pt.team(t)
        context = [id(node), team.domain]
        cost = 0
        for s in others:
            other = pt.team(s)
            context.append((other.domain, other.tuples))
            cost += len(other.tuples)
        context = tuple(context)
        # a loop stores at most one verdict per row of the sort-t team, and
        # its empty-team probe
        reserve = len(team.tuples) + 1
        cap = self.config.max_expanded_team_rows
        if cost + reserve > cap:
            return {}
        entry = self.contexts.get(context)
        if entry is None:
            verdicts = {}
            held = self.rows_held + cost
        else:
            # settle the last hand-out: what its loop stored replaces its reserve
            verdicts, counted, reserved = entry
            held = self.rows_held + len(verdicts) - counted - reserved
        if held + reserve > cap:
            self.contexts.clear()
            verdicts = {}
            held = cost
        self.contexts[context] = (verdicts, len(verdicts), reserve)
        self.rows_held = held + reserve
        return verdicts

    def row_loop(self, node, t, pt: Polyteam, parts, decider, accepts=None) -> bool:
        """Whether ``parts`` hold on no sort-t rows, and then each row passes.

        The probe's team has no rows, and for ∃x the column x.  At the first
        row with no kept verdict, after the probe held, ``decider(node, t, pt,
        parts)`` builds the row test.  The loop stops at the first row that
        fails, unless given ``accepts``: then each row's verdict goes there,
        in ``ordered_tuples`` order.  Per level it stacks itself and the test.
        """
        verdicts = self.row_verdicts(node, t, pt)
        ok = verdicts.get(PROBE)
        if ok is None:
            team = pt.team(t)
            probe = pt.with_team(team.expanded_all(node.var, ()) if isinstance(node, Exists)
                                 else team.with_rows(()))
            for p in parts:
                ok = self.eval(p, probe)
                if not ok:
                    break
            verdicts[PROBE] = ok
        if not ok:
            return False
        decide = None
        for row in pt.team(t).ordered_tuples():
            ok = verdicts.get(row)
            if ok is None:
                if decide is None:
                    decide = decider(node, t, pt, parts)
                ok = verdicts[row] = decide(row)
            if accepts is not None:
                accepts.append(ok)
            elif not ok:
                return False
        return True

    # -- disjunction ------------------------------------------------------

    def split_sorts(self, node):
        touched = self.mentioned(node)
        if isinstance(node, OrLocal):
            return sorted(node.sorts & touched)
        return sorted(touched)

    def eval_or(self, node, pt: Polyteam) -> bool:
        """A disjunction; one that splits only sort t is decided row by row.

        Each row goes to the first row-wise part whose ``row_lookup`` test
        accepts it.  The rows no row-wise part accepts go to the one opaque
        part, if any, with any accepted rows it still needs.
        """
        split = self.split_sorts(node)
        if len(split) != 1:
            return self.eval_or_fallback(node, split, pt)
        t = split[0]
        team = pt.team(t)
        rowwise_parts, opaque = [], []
        for p in node.parts:
            (rowwise_parts if self.closure(p, t) == ROWWISE else opaque).append(p)
        if len(opaque) > 1:
            return self.eval_or_fallback(node, split, pt)
        accepts = [] if opaque else None
        held = self.row_loop(node, t, pt, rowwise_parts, self.or_decider, accepts)
        if not held or not opaque:
            return held
        rows = team.ordered_tuples()
        blocker = opaque[0]
        required = tuple(r for r, ok in zip(rows, accepts) if not ok)
        if self.closure(blocker, t) == DOWNWARD:
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

    def or_decider(self, node, t, pt: Polyteam, parts):
        """A row passes when some row-wise part's ``row_lookup`` test accepts it."""
        tests = [self.row_lookup(p, t, pt) for p in parts]

        def decide(row):
            for test in tests:
                if test(row):
                    return True
            return False

        return decide

    def row_lookup(self, part, t, pt: Polyteam):
        """A test of one sort-t row tuple that decides ``part`` on its slice.

        On a one-row team {s} at t, pinc(x̄ | ȳ) with sort_i = t ≠ sort_j
        holds iff s(x̄) ∈ rel(X_j, ȳ), and pexc(x̄ | ȳ) with one side at t
        iff the row's side is not in the other side's relation: those are
        set lookups.  Any other part is evaluated on the slice.  Call it
        only after the parts held on the empty sort-t team, or a kept probe
        says so for this context: that read both sides, so their variables
        lie in the team domains.
        """
        atom = part.atom if isinstance(part, AtomF) else None
        if isinstance(atom, PolyInc) and atom.sort_i == t != atom.sort_j:
            project = pt.team(t).projector(atom.x)
            rel = pt.team(atom.sort_j).relation(atom.y)
            return lambda row: project(row) in rel
        if isinstance(atom, PolyExc) and (atom.sort_i == t) != (atom.sort_j == t):
            mine, other, theirs = (atom.x, atom.sort_j, atom.y) if atom.sort_i == t \
                else (atom.y, atom.sort_i, atom.x)
            project = pt.team(t).projector(mine)
            rel = pt.team(other).relation(theirs)
            return lambda row: project(row) not in rel
        team = pt.team(t)
        return lambda row: self.eval(part, pt.with_team(team.with_rows((row,))))

    def eval_or_fallback(self, node, split, pt: Polyteam, pts=None) -> bool:
        # each row of each split team goes to a nonempty set of the parts, one
        # split sort per call, with pts the polyteam of each part so far; with
        # no split sort left, every part must hold on its polyteam
        parts = node.parts
        pts = pts or [pt] * len(parts)
        if not split:
            return all(self.eval(p, q) for p, q in zip(parts, pts))
        for cover in enumerate_covers(pt.team(split[0]),
                                      self.config.max_split_assignments, len(parts)):
            if self.eval_or_fallback(node, split[1:], pt,
                                     [q.with_team(y) for q, y in zip(pts, cover)]):
                return True
        return False

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
        if len(team) * len(domain) > self.config.max_expanded_team_rows:
            raise ResourceExhausted("expansion")
        level = self.closure(node.body, t)
        if level == ROWWISE or team.is_empty:
            return self.row_loop(node, t, pt, (node.body,), self.exists_decider)
        rewritten = self.block_disjunction(node)
        if rewritten is not None:
            return self.eval(rewritten, pt)
        rows = team.ordered_tuples()
        # the values that every choice must cover, by ``inclusion_demands``
        needed = set()
        for w in self.inclusion_demands(node):
            other = pt.team(w.sort)
            if w in other.domain:
                needed.update(v for v, in other.relation((w,)))
        if not needed <= self.domain_set:
            return False
        # per row, a set of values for x: single values suffice when the
        # body is downward-closed at t, else every nonempty subset is tried
        sizes = [1] if level == DOWNWARD else range(1, len(domain) + 1)
        choices = [c for size in sizes for c in itertools.combinations(domain, size)]
        for combo in itertools.product(choices, repeat=len(rows)):
            if needed and not needed.issubset(itertools.chain.from_iterable(combo)):
                continue
            chosen = team.expanded_choice(node.var, dict(zip(rows, combo)).__getitem__)
            if self.eval(node.body, pt.with_team(chosen)):
                return True
        return False

    def exists_decider(self, node, t, pt: Polyteam, parts):
        """A row passes when some candidate value for x satisfies the body."""
        witnesses = self.witness_picker(node, pt)
        extend = pt.team(t).extender(node.var)
        domain = self.structure.domain

        def decide(row):
            for a in domain if witnesses is None else witnesses(row):
                if self.eval(node.body, pt.with_team(extend(row, a))):
                    return True
            return False

        return decide

    def block_disjunction(self, node):
        """∃x̄(C ∧ D) ∨_t (O ∧ ∃x̄C) for a block ∃x̄(C ∧ (D ∨ O)), or None.

        x̄ is the leading chain of sort-t existentials from ∃x.  Every
        conjunct of the chain's body except one disjunction is row-wise at t
        and goes to C.  That disjunction splits only t, and all its parts
        but one are row-wise at t and go to D.  The last part O is
        downward-closed at t and shares no variable with x̄.  Built once per
        node; None when a side condition fails.
        """
        key = ("block", id(node))
        got = self.memo.get(key)
        if got is not None:
            return got[1]
        t = node.var.sort
        block = []
        body = node
        while isinstance(body, Exists) and body.var.sort == t:
            block.append(body.var)
            body = body.body
        plain, others = [], []
        for c in body.parts if isinstance(body, And) else (body,):
            (plain if self.closure(c, t) == ROWWISE else others).append(c)
        if len(others) != 1 or not isinstance(others[0], (OrGlobal, OrLocal)):
            return self._store(key, node, None)
        disjunction = others[0]
        if self.split_sorts(disjunction) != [t]:
            return self._store(key, node, None)
        rowwise_parts, opaque = [], []
        for p in disjunction.parts:
            (rowwise_parts if self.closure(p, t) == ROWWISE else opaque).append(p)
        if len(opaque) != 1 or self.closure(opaque[0], t) == OPAQUE or \
                set(block) & all_variables(opaque[0]):
            return self._store(key, node, None)
        at_t = frozenset((t,))
        rowwise = rowwise_parts[0] if len(rowwise_parts) == 1 else \
            OrLocal(at_t, *rowwise_parts)
        return self._store(key, node, OrLocal(
            at_t, exists_chain(block, conjoin(plain + [rowwise])),
            And(opaque[0], exists_chain(block, conjoin(plain)))))

    def inclusion_guards(self, node):
        """Conjuncts of ∃x B that every single-row witness must meet.

        B is read past its leading chain of same-sort existentials (stopping
        where the chain rebinds x) as a flat conjunction.  A conjunct guards
        x when it is pinc(x̄ | ȳ) including the block sort t into another
        sort, or a relation literal R(x̄): on one row, R(x̄) is the inclusion
        of the row's tuple in R^M.  Either way x occurs in x̄ and the chain
        binds no other variable of x̄.  Each guard is (the atom or the
        literal, positions of x in x̄, positions of the other variables of
        x̄, those variables).
        """
        key = ("guards", id(node))
        got = self.memo.get(key)
        if got is not None:
            return got[1]
        x = node.var
        t = x.sort
        bound = set()
        body = node.body
        while isinstance(body, Exists) and body.var.sort == t and body.var != x:
            bound.add(body.var)
            body = body.body
        guards = []
        for c in body.parts if isinstance(body, And) else (body,):
            if isinstance(c, Rel):
                guard, xs = c, c.args
            elif isinstance(c, AtomF) and isinstance(c.atom, PolyInc) and \
                    c.atom.sort_i == t != c.atom.sort_j:
                guard, xs = c.atom, c.atom.x
            else:
                continue
            if x not in xs:
                continue
            at_keys = tuple(k for k, v in enumerate(xs) if v != x)
            keys = tuple(xs[k] for k in at_keys)
            if bound.intersection(keys):
                continue
            at_x = tuple(k for k, v in enumerate(xs) if v == x)
            guards.append((guard, at_x, at_keys, keys))
        return self._store(key, node, tuple(guards))

    def inclusion_demands(self, node) -> frozenset:
        """Variables w whose values any workable choice for ∃x B must cover.

        A conjunct pinc(w̄ | ȳ) of B with sort_j = t and x = y_k, where w_k
        is free in ∃x B, holds only if X_i(w_k) ⊆ X_t(x).  Lax ∃ and ∀ keep
        every row, so both value sets survive the quantifiers inside B that
        bind neither; a disjunction splits each team into parts that cover
        it, so what every part demands, the whole demands.  Built once per
        node.
        """
        key = ("demands", id(node))
        got = self.memo.get(key)
        if got is not None:
            return got[1]
        return self._store(key, node, _demands(node.body, node.var))

    def join_index(self, tuples, at_x, at_keys) -> dict:
        """Key values -> the domain values a that some tuple has at every x position."""
        index = {}
        for values in tuples:
            a = values[at_x[0]]
            if a not in self.domain_set or any(values[k] != a for k in at_x[1:]):
                continue
            index.setdefault(tuple(values[k] for k in at_keys), set()).add(a)
        return index

    def relation_index(self, rel: Rel, at_x, at_keys) -> dict:
        """``join_index`` of R^M for the guard R(x̄), built once per evaluator.

        Only tuples of length |x̄| count: under another arity the literal
        fails on every nonempty team, so it admits no value.
        """
        # the positions of x fix the others: at_keys is every position not in at_x
        key = ("relation index", id(rel), at_x)
        got = self.memo.get(key)
        if got is not None:
            return got[1]
        width = len(rel.args)
        tuples = [v for v in self.structure.relation(rel.name) if len(v) == width]
        return self._store(key, rel, self.join_index(tuples, at_x, at_keys))

    def witness_picker(self, node, pt: Polyteam):
        """Per-row candidate values for the row-wise ∃x branch, or None.

        On a one-row team {s} the existential chain keeps the team nonempty
        and leaves the sort-j team as it is, so a guard pinc(x̄ | ȳ) can hold
        only if s[a/x](x̄) ∈ rel(X_j, ȳ), and a guard R(x̄) only if
        s[a/x](x̄) ∈ R^M.  Hash-joining each guard's relation on the other
        variables of x̄ leaves, per row, just the values a every guard
        admits, in domain order.  The result maps a row tuple of the sort-t
        team to those values.

        Call it only after B held on the empty sort-t team, or a kept probe
        says so for this context (the same sort-t domain and teams at the
        other sorts B mentions): that evaluated every
        guard, so the variables of x̄ and ȳ are known to lie in the team
        domains and each R to name a relation of the structure.
        """
        team = pt.team(node.var.sort)
        indexes = []
        for guard, at_x, at_keys, keys in self.inclusion_guards(node):
            if isinstance(guard, Rel):
                index = self.relation_index(guard, at_x, at_keys)
            else:
                index = self.join_index(pt.team(guard.sort_j).relation(guard.y),
                                        at_x, at_keys)
            indexes.append((team.projector(keys), index))
        if not indexes:
            return None

        def witnesses(row):
            allowed = None
            for project, index in indexes:
                got = index.get(project(row))
                if not got:
                    return ()
                allowed = got if allowed is None else allowed & got
            return value_sorted(allowed)

        return witnesses


def eval_formula(structure: Structure, pt: Polyteam, phi: Formula,
                 config: Optional[EvalConfig] = None, registry=None) -> EvalOutcome:
    """Model-check a formula against a structure and polyteam.

    The verdict matches the compositional lax semantics exactly whenever no
    resource cap trips; cap trips surface as the distinct verdict
    ``resource_exhausted``, never as ``false``.
    """
    ev = _Evaluator(structure, config or EvalConfig(), registry)
    ev.check_input(phi, pt)
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
    """Many evaluations against one structure, sharing one engine across queries.

    The engine's memo (the structural analysis of each formula) and its row
    verdicts (see the module docstring) carry over from one ``holds`` call
    to the next.  Raises ResourceExhausted instead of returning a third
    verdict.
    """

    def __init__(self, structure: Structure, config: Optional[EvalConfig] = None,
                 registry=None):
        self._engine = _Evaluator(structure, config or EvalConfig(timeout=None), registry)

    def holds(self, pt: Polyteam, phi: Formula) -> bool:
        self._engine.check_input(phi, pt)
        return self._engine.eval(phi, pt)
