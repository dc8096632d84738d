"""Compositional lax-semantics model checking of formulas over polyteams.

The evaluator is exact: every strategy below is a search-space reduction
justified by a structural property of the clause being evaluated, never an
approximation.  The properties used are

* locality (satisfaction depends only on the teams at mentioned sorts) -
  justifies restricting disjunction covers to mentioned sorts.  With
  downward closure, it leaves one cover at a split sort s that some part
  ignores and no part is opaque at: the parts that ignore s take the whole
  sort-s team, which they cannot tell from any other, and the rest the
  empty team, a subteam of any they could be given;
* row decomposition - a subformula whose truth over the team at sort t is a
  conjunction of per-row facts (literals, dependence/exclusion atoms with one
  side at t, flat first-order parts, ...) lets covers and value choices be
  decided row by row.  Such a subformula is compiled, once per sort-t column
  layout, into a test of one row tuple: literals compare the row's values,
  pinc(x̄ | ȳ) with sort_i = t ≠ sort_j is s(x̄) ∈ rel(X_j, ȳ), a pexc with
  one side at t is the row's side not lying in the other side's relation, ∧
  is all, a disjunction splitting only t is any, and ∃x and ∀x at t try the
  body on the row extended by each candidate value.  Only what is left, such
  as a quantifier at another sort, is evaluated on a one-row slice;
* inclusion guards - when ∃x B at sort t is decided row by row, a top-level
  conjunct of B (read past B's leading chain of sort-t existentials, up to
  any rebinding of x) that is pinc(x̄ | ȳ) with sort_i = t, sort_j ≠ t, or a
  relation literal R(x̄), with x in x̄ and every other variable of x̄ in the
  team and unbound by the chain, admits a row's value a only if s[a/x](x̄)
  lies in rel(X_j, ȳ), or in R^M: lax ∃ keeps the one-row team nonempty and
  leaves X_j as it is, and R(x̄) is flat.  Candidate values come from a hash
  join of the row against each guard's relation, whose index is kept while
  that relation stays the same: for good for R^M, which the structure fixes,
  and while the sort-j team's relation does for a pinc guard;
* exclusion guards - when ∀x B at sort t is decided row by row, B itself or
  one part of a disjunction B that splits only t, if it is pexc(x̄ | ȳ) (in
  either orientation) with x̄ at t, ȳ at another sort and x in x̄, or a
  negated literal !R(x̄) with x in x̄, holds on a row s(a/x) unless
  s(a/x)(x̄) lies in rel(X_j, ȳ), or in R^M.  So only the values a that
  every guard blocks can refute the row; the same hash join finds them, and
  the body meets the row extended with just those values;
* inclusion demands - when the value sets for ∃x B at sort t are searched
  outright, a pinc(w̄ | ȳ) in B with sort_j = t and x = y_k, reached through
  conjunctions, quantifiers binding neither x nor w_k, and every part of
  each disjunction on the way, holds only if X_i(w_k) ⊆ X_t(x): lax
  quantifiers keep every row, and a disjunction's parts cover each team.
  Choices whose values miss such a w_k value are skipped, so the search
  cost no longer hangs on where the needed values fall in domain order;
* downward closure at sort t - shrinking the sort-t team preserves truth,
  so existential value sets can be searched as single values per row, an
  opaque-but-downward-closed disjunct takes exactly the rows no row-wise
  disjunct accepts, and where at most one of k parts is opaque at a split
  sort t, the covers tried there are the partitions, k^rows, not the
  (2^k - 1)^rows lax covers: a row that a cover gives to several parts can
  leave all but one, keeping the opaque one if it has it.  Lax and strict
  disjunction agree on downward-closed formulas (Galliani, APAL 2012);
* existential blocks - let x̄ be a chain of sort-t existentials over a body
  C ∧ (D ∨ O), where C is row-wise at t, the disjunction splits only t, D
  stands for its row-wise parts, and its one other part O is downward-closed
  at t and shares no variable with x̄.  Then lax semantics and locality give
  ∃x̄(C ∧ (D ∨ O)) ≡ ∃x̄(C ∧ D) ∨_t (O ∧ ∃x̄C): a row goes left when some
  choice for x̄ meets C ∧ D; every other row needs a choice meeting C, and O,
  blind to x̄, must hold on those rows together.  The right-hand side is
  built once per ∃ node and decided by the disjunction strategies above.

Analysis.  One pass over each formula ``check_input`` meets gives each node
one record (``_Facts``), built from its parts' records: the sorts it
mentions, its free variables, the sorts it binds, its split sorts, inclusion
demands and closure levels.  Row decomposition and downward closure form
one lattice, OPAQUE < DOWNWARD < ROWWISE at each sort, so row-wise implies
downward-closed by construction.  All else built from a node is kept in its
record on first use: a quantifier's guards, an ∃'s block rewrite (whose new
nodes get records), literal projectors, compiled row tests and guard join
slots.  Records, keyed by node id, hold their nodes, so no id is reused
while they live.  A session keeps them.

Row verdicts.  One loop, ``row_loop``, decides one row at a time: for the
row-wise parts of a disjunction that splits only sort t, for the body of a
row-wise ∃ at t, and for the body of a row-wise ∀ at t that binds no sort-t
variable.  It first probes the parts, or the body, on the sort-t team with
no rows (and the quantified column); then each row meets the node's
compiled row test, bound to the teams at the other sorts.  By locality, a
row's verdict depends only on the node, the row with its domain, and the
teams at the other sorts the node mentions, and the probe's on the same less
the row.  So the evaluator keeps them per context (id(node), the sort-t
domain, then (domain, tuples) of the team at each other mentioned sort, in
sorted order), the probe under the key ``PROBE``, for its lifetime: one
``eval_formula`` call, or a ``BulkEvaluator`` session.  Keys hold team
contents, not ``Team`` objects, so equal teams rebuilt for another polyteam
share an entry and no team's caches are pinned.  The stored verdicts and the
rows of the teams in the keys count against ``max_expanded_team_rows``, and
the store empties itself before it would pass that.  A row or probe that
raises is never stored.  ``evaluator_backed`` gives ``oracle.equivalent``
one ``BulkEvaluator`` session per structure.

Anything not certified falls back to literal enumeration of ∃ value choices
or of covers for k disjuncts, chosen per split sort as above, which the
configuration caps guard.
``tests`` cross-validate every strategy against the naive oracle evaluator.

Counting.  ``nodes_visited`` counts one node per ``eval`` call and one per
call of a compiled row test, a row loop's own test included; a slice test
counts what its ``eval`` visits.  The timeout is read every 256 nodes, so it
trips inside compiled chains too.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

from .errors import ResourceExhausted, SortedDomainError
from .model import Polyteam, Record, Structure, Team, _getter, _set, value_sorted
from .syntax import (
    And, AtomF, Connective, Eq, Exists, Forall, Formula, Neq, NegRel, OrGlobal,
    OrLocal, PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth, all_variables, atom_sorts,
    conjoin, exists_chain, free_variables, node_variables, node_violations, walk,
)
from . import atoms as atom_checks

TRUE = "true"
FALSE = "false"
EXHAUSTED = "resource_exhausted"


class EvalConfig(Record):
    """Resource limits for the exponential search; all caps are positive.

    ``timeout`` is in seconds, or None for no limit.
    """

    __slots__ = ("max_expanded_team_rows", "max_split_assignments", "timeout")

    def __init__(self, max_expanded_team_rows: int = 100_000,
                 max_split_assignments: int = 14, timeout: Optional[float] = 120.0):
        if max_expanded_team_rows <= 0 or max_split_assignments <= 0:
            raise ValueError("caps must be positive")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        _set(self, "max_expanded_team_rows", max_expanded_team_rows)
        _set(self, "max_split_assignments", max_split_assignments)
        _set(self, "timeout", timeout)


class EvalOutcome(Record):
    """A verdict; ``nodes_visited`` counts each ``eval`` call and each call of
    a compiled row test as one node (see Counting in the module docstring).

    Unlike other records its fields may be reassigned, so it has no hash.
    """

    __slots__ = ("verdict", "nodes_visited", "limit")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, verdict: str, nodes_visited: int = 0, limit: Optional[str] = None):
        self.verdict = verdict
        self.nodes_visited = nodes_visited
        self.limit = limit

    def as_bool(self) -> bool:
        if self.verdict == EXHAUSTED:
            raise RuntimeError(f"evaluation exhausted its {self.limit} limit")
        return self.verdict == TRUE


def enumerate_covers(team: Team, cap: Optional[int] = None, parts: int = 2,
                     partition: bool = False):
    """The lax covers of ``team`` by ``parts`` subteams, each once, in a fixed order.

    Each row goes to a nonempty set of the subteams, (2^parts - 1)^|team|
    covers; with ``partition``, to exactly one of them, parts^|team|.  The
    rows are routed in ``ordered_tuples`` order, the first varying slowest,
    and each row's sets come in the order of their bit masks, subteam k
    being bit k: with two parts, the left, the right, then both.  So the
    partitions come in the order the lax covers list them.  Raises
    ResourceExhausted("split") when the team has more than ``cap`` rows.
    """
    rows = team.ordered_tuples()
    if cap is not None and len(rows) > cap:
        raise ResourceExhausted("split")
    ways = [1 << k for k in range(parts)] if partition else range(1, 1 << parts)
    for routing in itertools.product(ways, repeat=len(rows)):
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


class _Facts:
    """What the evaluator reads of one formula node, built from its parts' records.

    ``sorts``: the sorts it mentions, as ``mentioned_sorts`` gives them, and
    ``order`` the same sorted; ``free``: its free variables; ``binds``: the
    sorts at which a quantifier in it binds; ``split``: a disjunction's split
    sorts, sorted, () for a conjunction, else None; ``levels``: its closure
    level at each sort where that is not ROWWISE (read through ``closure``);
    ``demands``: x -> the variables whose values it demands that ∃x cover.
    Filled on first use: ``guards``, of an ∃ or a ∀; ``block``, an ∃'s block
    rewrite, or False; ``passed``, at a formula ``check_input`` met, its free
    variables by sort and the domains that last passed; ``getters``, a
    literal's row projector per team domain; ``compiled``, its row test per
    (sort, column layout); ``joins``, a guard's join slot per position of x.
    A record holds its node, never the evaluator.
    """

    __slots__ = ("node", "sorts", "order", "free", "binds", "split", "levels", "demands",
                 "guards", "block", "passed", "getters", "compiled", "joins")

    def __init__(self, node, records):
        self.node = node
        self.guards = self.block = self.passed = None
        self.getters, self.compiled, self.joins = {}, {}, {}
        below = [records[id(p)] for p in node.parts] if isinstance(node, Connective) else \
            [records[id(node.body)]] if isinstance(node, (Exists, Forall)) else []
        own = atom_sorts(node.atom) if isinstance(node, AtomF) else \
            frozenset(v.sort for v in node_variables(node))
        self.sorts = own.union(*(b.sorts for b in below))
        self.order = tuple(sorted(self.sorts))
        self.split = None
        if isinstance(node, (Exists, Forall)):
            body, x = below[0], node.var
            self.free = body.free - {x} if x in body.free else body.free
            self.binds = body.binds | {x.sort}
            # lax ∃ at another sort than t couples t's rows through the choice
            self.levels = body.levels if isinstance(node, Forall) else {
                t: level for t in self.order
                if (level := body.closure(t) if t == x.sort else
                    min(body.closure(t), DOWNWARD)) != ROWWISE}
            self.demands = {v: rest for v, ws in body.demands.items()
                            if v != x and (rest := ws - {x})}
        elif isinstance(node, Connective):
            self.free = frozenset().union(*(b.free for b in below))
            self.binds = frozenset().union(*(b.binds for b in below))
            self.split = () if isinstance(node, And) else \
                tuple(sorted(node.sorts & self.sorts)) if isinstance(node, OrLocal) else self.order
            self.levels = {}
            for t in self.order:
                level = min(b.closure(t) for b in below)
                # a disjunction splitting only at t lets each row pick its part;
                # any other split couples rows through the shared cover choice
                if self.split not in ((), (t,)):
                    level = min(level, DOWNWARD)
                if level != ROWWISE:
                    self.levels[t] = level
            # every demand of a part, for ∧; of every part, for a disjunction
            self.demands = dict(below[0].demands)
            for b in below[1:]:
                if isinstance(node, And):
                    for v, ws in b.demands.items():
                        self.demands[v] = self.demands[v] | ws if v in self.demands else ws
                else:
                    self.demands = {v: ws & b.demands[v] for v, ws in self.demands.items()
                                    if v in b.demands and ws & b.demands[v]}
        else:
            self.free = frozenset(node_variables(node))
            self.binds = frozenset()
            atom = node.atom if isinstance(node, AtomF) else None
            self.levels = {} if atom is None else \
                {t: level for t in self.order if (level := atom_closure(atom, t)) != ROWWISE}
            self.demands = {}
            if isinstance(atom, PolyInc):
                # pinc(w̄ | ȳ) demands w_k of ∃x for x = y_k at sort j
                for w, y in zip(atom.x, atom.y):
                    if w != y and y.sort == atom.sort_j:
                        self.demands[y] = self.demands.get(y, frozenset()) | {w}

    def closure(self, t) -> int:
        """The node's closure level at sort t: OPAQUE, DOWNWARD or ROWWISE."""
        return self.levels.get(t, ROWWISE)


def _guard(guard, xs, x, bound, target):
    """A guard of x in the variables xs: (its AtomF or literal node, the
    positions of x in xs, those of the other variables, those variables, and
    the sort and variables of the relation to join, or None for R^M).  None
    when x is not in xs, or ``bound`` holds one of the other variables: a
    row's value says nothing of a variable bound below the quantifier.
    """
    at_keys = tuple(k for k, v in enumerate(xs) if v != x)
    keys = tuple(xs[k] for k in at_keys)
    if x not in xs or not bound.isdisjoint(keys):
        return None
    return (guard, tuple(k for k, v in enumerate(xs) if v == x), at_keys, keys, target)


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
        # id(node) -> the node's record, from ``analyse``
        self.records = {}
        # context -> (verdicts, their count and the rows reserved at the last hand-out)
        self.contexts = {}
        # a bound on the rows the contexts hold: the rows of their keys, and
        # per context its count plus reserve from the last hand-out
        self.rows_held = 0

    # -- analysis ---------------------------------------------------------

    def facts(self, node) -> _Facts:
        """The node's record; ``analyse`` has met every node ``eval`` meets."""
        return self.records[id(node)]

    def analyse(self, phi) -> _Facts:
        """phi's record, after one pass gives each node of phi its record.

        The pass walks phi in ``walk``'s preorder for the sort problems, as
        ``check_well_sorted`` orders them, and the relation names; either kind
        of fault raises SortedDomainError before any record is built.  Then
        the nodes without a record get one, last walked first, so parts come
        first.  So a node with a record passed both checks.
        """
        got = self.records.get(id(phi))
        if got is not None:
            return got
        nodes = list(walk(phi))
        problems, names = [], set()
        for node in nodes:
            problems += node_violations(node, self.registry)
            if isinstance(node, (Rel, NegRel)):
                names.add(node.name)
        if problems:
            raise SortedDomainError("ill-sorted formula: " + "; ".join(problems))
        names.difference_update(self.structure.relations)
        if names:
            raise SortedDomainError(f"unknown relation {min(names)!r}")
        records = self.records
        for node in reversed(nodes):
            if id(node) not in records:
                records[id(node)] = _Facts(node, records)
        return records[id(phi)]

    def check_input(self, phi, pt: Polyteam):
        """Reject an ill-formed phi, such as one with a generalized atom the
        registry cannot resolve, a relation the structure lacks, or a free
        variable outside its team's domain.

        All three are decided before evaluation, so whether a call raises does
        not hang on which parts a strategy happens to read: a row loop's probe
        reads every part on the empty team, an expansion may stop at a failing
        conjunct.  ``analyse`` checks the first two once per formula; phi's
        record then keeps its free variables by sort, and the team domains
        that last passed: while the polyteams of a session keep them, the
        subset test is not run again.
        """
        facts = self.records.get(id(phi)) or self.analyse(phi)
        if facts.passed is None:
            free = facts.free
            facts.passed = tuple((sort, frozenset(v for v in free if v.sort == sort))
                                 for sort in sorted({v.sort for v in free})), None
        free, passed = facts.passed
        domains = [pt.team(sort).domain for sort, _ in free]
        if domains == passed:
            return
        for (sort, variables), domain in zip(free, domains):
            if not variables.issubset(domain):
                missing = variables.difference(domain)
                raise SortedDomainError(
                    f"free variables {sorted(map(str, missing))} missing from the "
                    f"{sort!r} team domain")
        facts.passed = (free, domains)

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
        """The literal's row projector on teams with this domain, kept in its record."""
        getters = self.facts(node).getters
        got = getters.get(team.domain)
        if got is None:
            variables = (node.left, node.right) if isinstance(node, (Eq, Neq)) else node.args
            got = getters[team.domain] = team.projector(variables)
        return got

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
        team = pt.team(t)
        context = [id(node), team.domain]
        cost = 0
        for s in self.facts(node).order:
            if s != t:
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

    def row_loop(self, node, t, pt: Polyteam, parts, accepts=None) -> bool:
        """Whether ``parts`` hold on no sort-t rows, and then each row passes.

        The probe's team has no rows, and for ∃x and ∀x the column x.  At
        the first row with no kept verdict, after the probe held, the node's
        compiled row test is bound to pt.  The loop stops at the first row
        that fails, unless given ``accepts``: then each row's verdict goes
        there, in ``ordered_tuples`` order.
        """
        verdicts = self.row_verdicts(node, t, pt)
        ok = verdicts.get(PROBE)
        if ok is None:
            team = pt.team(t)
            probe = pt.with_team(team.expanded_all(node.var, ())
                                 if isinstance(node, (Exists, Forall)) else team.with_rows(()))
            for p in parts:
                ok = self.eval(p, probe)
                if not ok:
                    break
            verdicts[PROBE] = ok
        if not ok:
            return False
        team = pt.team(t)
        test = None
        for row in team.ordered_tuples():
            ok = verdicts.get(row)
            if ok is None:
                if test is None:
                    test = self.compiled(node, t, team.domain)(self, pt)
                ok = verdicts[row] = test(row)
            if accepts is not None:
                accepts.append(ok)
            elif not ok:
                return False
        return True

    # -- compiled row tests -------------------------------------------------

    def compiled(self, node, t, layout):
        """bind(ev, pt) -> test(row): whether node holds on the one-row team {s}.

        node is row-wise at sort t; ``layout`` names the sort-t variable at
        each position of s's tuple.  Built once per (t, layout) and kept in
        node's record, with no reference to the evaluator ev, which no record
        holds.  Test a row only once node held on the empty sort-t team, as a
        row loop's probe shows: then so did every part below, since an empty
        team splits and extends only into empty teams, and flatness gives
        each rule.  ∃x and ∀x try the body on s's tuple with x overwritten,
        or appended, by each value from ``picker``; a ∀ with none holds, as
        its body on {s}[∅/x] is the probe's.  Anything else, such as a
        quantifier at another sort or a ∀ whose body binds at t (so caps see
        its expansion), is evaluated on the slice {s}.
        """
        facts = self.facts(node)
        got = facts.compiled.get((t, layout))
        if got is not None:
            return got
        domain = self.structure.domain
        atom = node.atom if isinstance(node, AtomF) else None
        split = facts.split
        if isinstance(node, (Eq, Neq)) and node.left.sort == t:
            i, j = map(layout.index, (node.left, node.right))
            want = isinstance(node, Eq)

            def bind(ev, pt):
                tick = ev.tick

                def test(row):
                    tick()
                    return (row[i] == row[j]) is want
                return test
        elif isinstance(node, (Rel, NegRel)) and node.args[0].sort == t or \
                isinstance(atom, PolyInc) and atom.sort_i == t != atom.sort_j or \
                isinstance(atom, PolyExc) and (atom.sort_i == t) != (atom.sort_j == t):
            # s(x̄) in R^M, or in the other side's relation rel(X_j, ȳ)
            mine, other, theirs = (node.args, None, None) if atom is None else \
                (atom.x, atom.sort_j, atom.y) if atom.sort_i == t else \
                (atom.y, atom.sort_i, atom.x)
            rel = self.structure.relation(node.name) if atom is None else None
            want = isinstance(node, Rel) or isinstance(atom, PolyInc)
            project = _getter(tuple(map(layout.index, mine)))

            def bind(ev, pt):
                tick, have = ev.tick, pt.team(other).relation(theirs) if rel is None else rel

                def test(row):
                    tick()
                    return (project(row) in have) is want
                return test
        elif split in ((), (t,)):
            # any part for a split of t, else all: a disjunction splitting no
            # sort is a conjunction; a row loop leaves an opaque part out
            want = bool(split)
            binds = [self.compiled(p, t, layout)
                     for p in (self.rowwise_split(node.parts, t)[0] if want else node.parts)]

            def bind(ev, pt):
                tick, tests = ev.tick, [b(ev, pt) for b in binds]

                def test(row):
                    tick()
                    for part in tests:
                        if part(row) is want:
                            return want
                    return not want
                return test
        elif isinstance(node, (Exists, Forall)) and node.var.sort == t and \
                len(domain) <= self.config.max_expanded_team_rows and \
                (isinstance(node, Exists) or t not in self.facts(node.body).binds):
            x, want = node.var, isinstance(node, Exists)
            # x's column, or a new last one
            k = layout.index(x) if x in layout else len(layout)
            inner, extend = layout[:k] + (x,) + layout[k + 1:], \
                lambda row, a: row[:k] + (a,) + row[k + 1:]
            body = self.compiled(node.body, t, inner)

            def bind(ev, pt):
                tick, holds, pick = ev.tick, body(ev, pt), ev.picker(node, pt, layout)

                def test(row):
                    tick()
                    for a in domain if pick is None else pick(row):
                        if holds(extend(row, a)) is want:
                            return want
                    return not want
                return test
        else:
            empty = Team.from_tuples(t, layout, ())
            order = None if empty.domain == layout else \
                _getter(tuple(map(layout.index, empty.domain)))

            def bind(ev, pt):
                def test(row):
                    team = empty.with_rows((row if order is None else order(row),))
                    return bool(ev.eval(node, pt.with_team(team)))
                return test
        facts.compiled[t, layout] = bind
        return bind

    # -- disjunction ------------------------------------------------------

    def rowwise_split(self, parts, t):
        """The parts that are row-wise at sort t, and the rest, each in order."""
        rowwise, rest = [], []
        for p in parts:
            (rowwise if self.facts(p).closure(t) == ROWWISE else rest).append(p)
        return rowwise, rest

    def eval_or(self, node, pt: Polyteam) -> bool:
        """A disjunction; one that splits only sort t is decided row by row.

        A row passes when some row-wise part holds on it, by the compiled
        row test.  The rows no row-wise part accepts go to the one opaque
        part, if any, with any accepted rows it still needs.
        """
        split = self.facts(node).split
        if len(split) != 1:
            return self.eval_or_fallback(node, split, pt)
        t = split[0]
        team = pt.team(t)
        rowwise_parts, opaque = self.rowwise_split(node.parts, t)
        if len(opaque) > 1:
            return self.eval_or_fallback(node, split, pt)
        accepts = [] if opaque else None
        held = self.row_loop(node, t, pt, rowwise_parts, accepts)
        if not held or not opaque:
            return held
        rows = team.ordered_tuples()
        blocker = opaque[0]
        required = tuple(r for r, ok in zip(rows, accepts) if not ok)
        if self.facts(blocker).closure(t) == DOWNWARD:
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

    def eval_or_fallback(self, node, split, pt: Polyteam, pts=None) -> bool:
        # each row of each split team goes to a nonempty set of the parts, one
        # split sort s per call, with pts the polyteam of each part so far; with
        # no split sort left, every part must hold on its polyteam.  The parts'
        # closure at s picks its covers (module docstring): one when some part
        # ignores s and none is opaque there, the partitions when at most one
        # is, else every lax cover
        parts = node.parts
        pts = pts or [pt] * len(parts)
        if not split:
            return all(self.eval(p, q) for p, q in zip(parts, pts))
        s, team = split[0], pt.team(split[0])
        records = [self.facts(p) for p in parts]
        levels = [r.closure(s) for r in records]
        if OPAQUE not in levels and any(s not in r.sorts for r in records):
            empty = team.with_rows(())
            covers = [tuple(empty if s in r.sorts else team for r in records)]
        else:
            covers = enumerate_covers(team, self.config.max_split_assignments, len(parts),
                                      partition=levels.count(OPAQUE) <= 1)
        for cover in covers:
            if self.eval_or_fallback(node, split[1:], pt,
                                     [q.with_team(y) for q, y in zip(pts, cover)]):
                return True
        return False

    # -- quantifiers -------------------------------------------------------

    def eval_forall(self, node, pt: Polyteam) -> bool:
        """∀x B; row by row when the sort-t team X is empty, or B is row-wise
        at t and binds no sort-t variable.

        Then the row loop meets at most the |X|·|M| rows that the cap check
        bounds.  A sort-t quantifier inside B would multiply them again on
        one-row slices, out of the cap's sight, so such a ∀ is expanded as a
        whole and the inner quantifier's cap check sees the expanded team.
        """
        t = node.var.sort
        team = pt.team(t)
        if len(team) * len(self.structure.domain) > self.config.max_expanded_team_rows:
            raise ResourceExhausted("expansion")
        body = self.facts(node.body)
        if team.is_empty or (body.closure(t) == ROWWISE and t not in body.binds):
            return self.row_loop(node, t, pt, (node.body,))
        expanded = team.expanded_all(node.var, self.structure.domain)
        return self.eval(node.body, pt.with_team(expanded))

    def eval_exists(self, node, pt: Polyteam) -> bool:
        t = node.var.sort
        team = pt.team(t)
        domain = self.structure.domain
        if len(team) * len(domain) > self.config.max_expanded_team_rows:
            raise ResourceExhausted("expansion")
        body = self.facts(node.body)
        level = body.closure(t)
        if level == ROWWISE or team.is_empty:
            return self.row_loop(node, t, pt, (node.body,))
        rewritten = self.block_disjunction(node)
        if rewritten is not None:
            return self.eval(rewritten, pt)
        rows = team.ordered_tuples()
        # the values that every choice must cover: the inclusion demands
        needed = set()
        for w in body.demands.get(node.var, ()):
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

    def block_disjunction(self, node):
        """∃x̄(C ∧ D) ∨_t (O ∧ ∃x̄C) for an existential block ∃x̄(C ∧ (D ∨ O)),
        as the module docstring defines it, or None when a side condition
        fails.  Built once per node and kept in its record, as False for None;
        the new nodes get their records.
        """
        facts = self.facts(node)
        if facts.block is not None:
            return facts.block or None
        facts.block = False
        t = node.var.sort
        block = []
        body = node
        while isinstance(body, Exists) and body.var.sort == t:
            block.append(body.var)
            body = body.body
        plain, others = self.rowwise_split(body.parts if isinstance(body, And) else (body,), t)
        disjunction = others[0] if len(others) == 1 else None
        if not isinstance(disjunction, (OrGlobal, OrLocal)) or \
                self.facts(disjunction).split != (t,):
            return None
        rowwise_parts, opaque = self.rowwise_split(disjunction.parts, t)
        if len(opaque) != 1 or self.facts(opaque[0]).closure(t) == OPAQUE or \
                set(block) & all_variables(opaque[0]):
            return None
        at_t = frozenset((t,))
        rowwise = rowwise_parts[0] if len(rowwise_parts) == 1 else \
            OrLocal(at_t, *rowwise_parts)
        facts.block = OrLocal(at_t, exists_chain(block, conjoin(plain + [rowwise])),
                              And(opaque[0], exists_chain(block, conjoin(plain))))
        self.analyse(facts.block)
        return facts.block

    def guards(self, node):
        """The guards of ∃x B or of ∀x B (see the module docstring), each a
        ``_guard`` tuple: for ∃, among the conjuncts of B read past its
        leading chain of sort-t existentials, up to a rebinding of x; for ∀,
        B itself, or among the parts of a disjunction B that splits only t.
        Built once per node and kept in its record.
        """
        facts = self.facts(node)
        if facts.guards is not None:
            return facts.guards
        x, body, bound = node.var, node.body, set()
        t, inclusion = x.sort, isinstance(node, Exists)
        while inclusion and isinstance(body, Exists) and body.var.sort == t and body.var != x:
            bound.add(body.var)
            body = body.body
        split = isinstance(body, And) if inclusion else \
            isinstance(body, (OrGlobal, OrLocal)) and self.facts(body).split == (t,)
        guards = []
        for c in body.parts if split else (body,):
            a = c.atom if isinstance(c, AtomF) else None
            if isinstance(c, Rel if inclusion else NegRel):
                guards.append(_guard(c, c.args, x, bound, None))
            elif inclusion and isinstance(a, PolyInc) and a.sort_i == t != a.sort_j:
                guards.append(_guard(c, a.x, x, bound, (a.sort_j, a.y)))
            elif not inclusion and isinstance(a, PolyExc) and (a.sort_i == t) != (a.sort_j == t):
                mine, target = (a.x, (a.sort_j, a.y)) if a.sort_i == t else (a.y, (a.sort_i, a.x))
                guards.append(_guard(c, mine, x, bound, target))
        facts.guards = tuple(g for g in guards if g is not None)
        return facts.guards

    def join_index(self, tuples, at_x, at_keys) -> dict:
        """Key values -> the domain values a that some tuple has at every x
        position.  The tuples share one width; unless it is |at_x| + |at_keys|,
        none joins."""
        index = {}
        if len(next(iter(tuples), ())) != len(at_x) + len(at_keys):
            return index
        for values in tuples:
            a = values[at_x[0]]
            if a not in self.domain_set or any(values[k] != a for k in at_x[1:]):
                continue
            index.setdefault(tuple(values[k] for k in at_keys), set()).add(a)
        return index

    def guard_index(self, guard, at_x, at_keys, target, pt: Polyteam) -> dict:
        """The guard's ``join_index``: of R^M for a literal, else of rel(X_j, ȳ).

        The guard's record keeps one slot per position of x: the relation the
        index was built from, and the index, reused while the relation is the
        same frozenset, as R^M always is and rel(X_j, ȳ) is for every slice of
        one polyteam.  Under another arity R^M joins as no tuples: then R(x̄)
        fails on every nonempty team, so it admits no value, and !R(x̄) holds
        on every team, so it blocks none.
        """
        rel = self.structure.relation(guard.name) if target is None else \
            pt.team(target[0]).relation(target[1])
        joins = self.facts(guard).joins
        got = joins.get(at_x)
        if got is not None and got[0] is rel:
            return got[1]
        index = self.join_index(rel, at_x, at_keys)
        joins[at_x] = (rel, index)
        return index

    def picker(self, node, pt: Polyteam, layout):
        """Row tuple over ``layout`` -> the values for x, in domain order,
        that every guard's index gives it:
        for ∃x B the values its inclusion guards admit, for ∀x B those its
        exclusion guards all block, which alone can refute the row.  () when
        some index lacks the row, and None when there is no guard.

        Call it only after B held on the empty sort-t team, or a kept probe
        says so for this context: that evaluated every guard, so their
        variables lie in the team domains and each R names a relation.
        """
        indexes = [(_getter(tuple(map(layout.index, keys))),
                    self.guard_index(guard, at_x, at_keys, target, pt))
                   for guard, at_x, at_keys, keys, target in self.guards(node)]
        if not indexes:
            return None

        def pick(row):
            allowed = None
            for project, index in indexes:
                got = index.get(project(row))
                if not got:
                    return ()
                allowed = got if allowed is None else allowed & got
            return value_sorted(allowed)

        return pick


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

    The engine's records (one analysis pass per formula, with what is built
    from each node, see the module docstring) and its row verdicts carry over
    from one ``holds`` call to the next, so a formula met again is neither
    walked, checked nor compiled again.  Raises ResourceExhausted instead of
    returning a third verdict.
    """

    def __init__(self, structure: Structure, config: Optional[EvalConfig] = None,
                 registry=None):
        self._engine = _Evaluator(structure, config or EvalConfig(timeout=None), registry)

    def holds(self, pt: Polyteam, phi: Formula) -> bool:
        self._engine.check_input(phi, pt)
        return self._engine.eval(phi, pt)


def evaluator_backed(config=None, registry=None):
    """An ``evaluate`` callback for ``oracle.equivalent`` driving this evaluator.

    For equivalence sweeps too large for the oracle's naive default.  One
    session serves each structure in turn, so the records of both formulas
    and the row verdicts carry across the structure's polyteams;
    ``equivalent`` is done with a structure once it moves on, so only the
    current session is kept.
    """
    current, session = None, None

    def evaluate(structure, pt, phi):
        nonlocal current, session
        if structure is not current:
            current, session = structure, BulkEvaluator(structure, config, registry)
        return session.holds(pt, phi)

    return evaluate
