"""Sound and complete implication for poly-dependence atoms.

``decide`` answers whether every structure and polyteam satisfying all
premise atoms also satisfies the conclusion.  A negative answer always
carries a concrete counterexample polyteam (an exact witness, not a bounded
search result); a positive answer carries the firing trace, which
``replay_trace`` expands into a checked single-step derivation.

Both branches saturate with a worklist on which each premise fires at most
once:

* Same-sort conclusions reduce to attribute-set closure over the same-sort
  premises at the conclusion's sort, computed as LINCLOSURE (Beeri &
  Bernstein, "Computational problems related to the design of normal form
  relational schemas", ACM TODS 4(1), 1979).  Each premise counts its
  distinct antecedent attributes still outside the closure, and a watch list
  maps each attribute to the premises waiting on it.  A premise whose count
  reaches zero joins a FIFO queue.  Cost: O(total atom size).
* Cross-sort conclusions saturate an equivalence relation over the two
  sorts' variables, as in congruence closure (Downey, Sethi & Tarjan,
  "Variations on the common subexpression problem", JACM 27(4), 1980).
  Union-find merges by size.  Each unmet antecedent position (x_k, u_k) of
  an oriented premise waits on the pending lists of both endpoint classes; a
  merge rechecks only the absorbed (smaller) class's list and moves the
  positions still unmet to the surviving class.  A position is rechecked
  only when the class of its endpoint at least doubles, so the cost is
  O(n log n) rechecks over n antecedent positions, plus the O(n) merges,
  each a near-constant union-find operation.

The closure and the partition do not depend on the firing order, so the
verdict and the counterexample are those of any saturation order.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .errors import RuleApplicationError, SortedDomainError
from .model import Assignment, Polyteam, Record, Structure, Team, Variable, _set
from .syntax import PolyDep, atom_violations
from .atoms import check_polydep


# ---------------------------------------------------------------------------
# Verdict objects

class FiringRecord(Record):
    """One saturation step: the premise ``atom`` fired, and ``merges`` holds
    the pairs of variables it merged.

    Cross-sort merges pair a left-sort variable with a right-sort variable;
    same-sort closure steps record each attribute added as a self-pair.
    """

    __slots__ = ("atom", "merges")

    def __init__(self, atom, merges):
        _set(self, "atom", atom)
        _set(self, "merges", merges)


class Counterexample(Record):
    """A polyteam satisfying the premises and violating the conclusion.

    Rows map each occurring variable to its interned equivalence-class value,
    as the mapping ``classes`` records; sorts touched only by discarded
    premises carry explicitly empty teams, which keeps those premises
    vacuously satisfied.
    """

    __slots__ = ("polyteam", "classes")

    def structure(self) -> Structure:
        values = set(self.classes.values()) or {"c0"}
        return Structure(values)


class ImplicationVerdict(Record):
    """The answer of ``decide``, with a trace or a counterexample.

    ``stats`` counts the work done and takes no part in equality:
    ``premises`` given, ``premises_kept`` after discarding those at other
    sorts (``premises_discarded``), ``firings`` (premises whose antecedent
    was met; only those that added something appear in the trace) and
    ``pair_checks`` (watch-list rechecks of a waiting premise).
    """

    __slots__ = ("implied", "trace", "counterexample", "stats")

    def __init__(self, implied, trace=None, counterexample=None, stats=None):
        if (trace is None) == (counterexample is None):
            raise ValueError("exactly one of trace/counterexample must be present")
        _set(self, "implied", implied)
        _set(self, "trace", trace)
        _set(self, "counterexample", counterexample)
        _set(self, "stats", {} if stats is None else stats)

    def _key(self) -> tuple:
        return self.implied, self.trace, self.counterexample


def _stats(premises, kept, firings, pair_checks) -> dict:
    return {"premises": len(premises), "premises_kept": kept,
            "premises_discarded": len(premises) - kept,
            "firings": firings, "pair_checks": pair_checks}


class _UnionFind:
    """Union-find by size with path compression; merges only, never splits."""

    def __init__(self):
        self.parent = {}
        self.size = {}

    def find(self, item):
        root = item
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(item, item) != item:
            self.parent[item], item = root, self.parent[item]
        return root

    def merge(self, a, b):
        """Join the classes of a and b: (surviving, absorbed) roots, or None."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        size_a, size_b = self.size.get(ra, 1), self.size.get(rb, 1)
        if size_a < size_b:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] = size_a + size_b
        return ra, rb


def _validate(atoms: Sequence[PolyDep]):
    for atom in atoms:
        if not isinstance(atom, PolyDep):
            raise SortedDomainError(f"implication engine only accepts pdep atoms, got {atom!r}")
        problems = atom_violations(atom)
        if problems:
            raise SortedDomainError(f"invalid atom {atom}: " + "; ".join(problems))


def _occurring_variables(atoms) -> dict:
    per_sort: dict = {}
    for atom in atoms:
        for sort, tup in atom.tuples():
            per_sort.setdefault(sort, set()).update(tup)
    return per_sort


def decide(premises: Sequence[PolyDep], conclusion: PolyDep) -> ImplicationVerdict:
    """Decide premises ⊨ conclusion for poly-dependence atoms."""
    premises = list(premises)
    _validate(premises + [conclusion])
    if conclusion.sort_i == conclusion.sort_j:
        return _decide_same_sort(premises, conclusion)
    return _decide_cross_sort(premises, conclusion)


# -- same-sort conclusions: attribute closure --------------------------------
#
# Only same-sort premises at the conclusion's sort matter: any polyteam
# witnessing non-implication among those extends by empty teams everywhere
# else, keeping every discarded premise vacuously true.

def _decide_same_sort(premises, conclusion) -> ImplicationVerdict:
    sort = conclusion.sort_i
    local = [a for a in premises if a.sort_i == sort and a.sort_j == sort]
    closure = set(conclusion.x)
    unmet, watch = [], {}
    for p, atom in enumerate(local):
        missing = set(atom.x) - closure
        unmet.append(len(missing))
        for attr in missing:
            watch.setdefault(attr, []).append(p)
    queue = deque(p for p, count in enumerate(unmet) if count == 0)
    trace, firings, pair_checks = [], 0, 0
    while queue:
        atom = local[queue.popleft()]
        firings += 1
        added = sorted(set(atom.y) - closure)
        if not added:
            continue
        closure.update(added)
        trace.append(FiringRecord(atom, tuple((v, v) for v in added)))
        for attr in added:
            for p in watch.pop(attr, ()):
                pair_checks += 1
                unmet[p] -= 1
                if unmet[p] == 0:
                    queue.append(p)
    stats = _stats(premises, len(local), firings, pair_checks)
    if set(conclusion.y) <= closure:
        return ImplicationVerdict(True, trace=tuple(trace), stats=stats)
    # classic two-row witness: rows agree exactly on the closure
    per_sort = _occurring_variables(premises + [conclusion])
    variables = sorted(per_sort.get(sort, ()))
    inside = Assignment({v: "c0" for v in variables})
    outside = Assignment({v: "c0" if v in closure else "c1" for v in variables})
    teams = [Team(sort, variables, (inside, outside))]
    teams += [Team(s, sorted(vs), ()) for s, vs in per_sort.items() if s != sort]
    classes = {v: outside[v] for v in variables}
    return ImplicationVerdict(
        False, counterexample=Counterexample(Polyteam(teams), classes), stats=stats)


# -- cross-sort conclusions: equivalence saturation ---------------------------

def _orient(atom: PolyDep, i, j) -> Optional[PolyDep]:
    """The atom as an (i, j)-atom via the symmetry rule, or None to discard."""
    if (atom.sort_i, atom.sort_j) == (i, j):
        return atom
    if (atom.sort_i, atom.sort_j) == (j, i):
        return PolyDep(i, atom.u, atom.v, j, atom.x, atom.y)
    return None


def _class_values(variables, lookup):
    """Deterministically intern equivalence classes as values c0, c1, ..."""
    mapping, values = {}, {}
    for v in sorted(variables):
        root = lookup(v)
        if root not in values:
            values[root] = f"c{len(values)}"
        mapping[v] = values[root]
    return mapping


def _decide_cross_sort(premises, conclusion) -> ImplicationVerdict:
    i, j = conclusion.sort_i, conclusion.sort_j
    oriented = [(a, o) for a in premises if (o := _orient(a, i, j)) is not None]
    uf = _UnionFind()
    # one entry per antecedent position, so a repeated pair (a, c) counts
    # once per position it fills; each entry waits on both endpoint classes
    positions, pending = [], {}
    unmet = [len(o.x) for _, o in oriented]
    for p, (_, o) in enumerate(oriented):
        for a, c in zip(o.x, o.u):
            pending.setdefault(a, []).append(len(positions))
            pending.setdefault(c, []).append(len(positions))
            positions.append((p, a, c))
    met = bytearray(len(positions))
    queue = deque(p for p, count in enumerate(unmet) if count == 0)
    pair_checks = 0

    def merge(a, c) -> bool:
        nonlocal pair_checks
        roots = uf.merge(a, c)
        if roots is None:
            return False
        survivor, absorbed = roots
        for entry in pending.pop(absorbed, ()):
            pair_checks += 1
            if met[entry]:
                continue
            p, left, right = positions[entry]
            if uf.find(left) == uf.find(right):
                met[entry] = 1
                unmet[p] -= 1
                if unmet[p] == 0:
                    queue.append(p)
            else:
                pending.setdefault(survivor, []).append(entry)
        return True

    for xk, uk in zip(conclusion.x, conclusion.u):
        merge(xk, uk)
    trace, firings = [], 0
    while queue:
        original, o = oriented[queue.popleft()]
        firings += 1
        merges = tuple((b, d) for b, d in zip(o.y, o.v) if merge(b, d))
        if merges:
            trace.append(FiringRecord(original, merges))
    stats = _stats(premises, len(oriented), firings, pair_checks)
    if all(uf.find(yk) == uf.find(vk) for yk, vk in zip(conclusion.y, conclusion.v)):
        return ImplicationVerdict(True, trace=tuple(trace), stats=stats)
    per_sort = _occurring_variables(premises + [conclusion])
    vars_i = sorted(per_sort.get(i, ()))
    vars_j = sorted(per_sort.get(j, ()))
    classes = _class_values(vars_i + vars_j, uf.find)
    teams = [Team(i, vars_i, (Assignment({v: classes[v] for v in vars_i}),)),
             Team(j, vars_j, (Assignment({v: classes[v] for v in vars_j}),))]
    teams += [Team(s, sorted(vs), ()) for s, vs in per_sort.items() if s not in (i, j)]
    return ImplicationVerdict(
        False, counterexample=Counterexample(Polyteam(teams), classes), stats=stats)


def verify_counterexample(verdict: ImplicationVerdict, premises: Sequence[PolyDep],
                          conclusion: PolyDep, structure: Optional[Structure] = None) -> bool:
    """Check the emitted counterexample against the optimized atom checkers."""
    if verdict.counterexample is None:
        raise ValueError("verdict carries no counterexample")
    ce = verdict.counterexample
    structure = structure or ce.structure()
    if not all(check_polydep(structure, ce.polyteam, a) for a in premises):
        return False
    return not check_polydep(structure, ce.polyteam, conclusion)


# ---------------------------------------------------------------------------
# Single-step rule constructors

def _build(sort_i, x, y, sort_j, u, v) -> PolyDep:
    atom = PolyDep(sort_i, tuple(x), tuple(y), sort_j, tuple(u), tuple(v))
    problems = atom_violations(atom)
    if problems:
        raise RuleApplicationError("; ".join(problems))
    return atom


def rule_reflexivity(x: Sequence[Variable], u: Sequence[Variable], k: int) -> PolyDep:
    """=(x ; x_k | u ; u_k) with 1-based position k."""
    x, u = tuple(x), tuple(u)
    if len(x) != len(u) or not x:
        raise RuleApplicationError("reflexivity needs two equal-length nonempty tuples")
    if not 1 <= k <= len(x):
        raise RuleApplicationError(f"position {k} outside 1..{len(x)}")
    return _build(x[0].sort, x, (x[k - 1],), u[0].sort, u, (u[k - 1],))


def rule_augmentation(atom: PolyDep, z: Sequence[Variable], w: Sequence[Variable]) -> PolyDep:
    z, w = tuple(z), tuple(w)
    if len(z) != len(w):
        raise RuleApplicationError("augmentation tuples must have equal length")
    return _build(atom.sort_i, atom.x + z, atom.y + z, atom.sort_j, atom.u + w, atom.v + w)


def rule_transitivity(first: PolyDep, second: PolyDep) -> PolyDep:
    if (first.sort_i, first.sort_j) != (second.sort_i, second.sort_j):
        raise RuleApplicationError("transitivity premises over different sort pairs")
    if second.x != first.y or second.u != first.v:
        raise RuleApplicationError("second premise must consume the first's consequents")
    return _build(first.sort_i, first.x, second.y, first.sort_j, first.u, second.v)


def rule_union(first: PolyDep, second: PolyDep) -> PolyDep:
    if (first.sort_i, first.sort_j) != (second.sort_i, second.sort_j):
        raise RuleApplicationError("union premises over different sort pairs")
    if first.x != second.x or first.u != second.u:
        raise RuleApplicationError("union premises must share antecedents")
    return _build(first.sort_i, first.x, first.y + second.y,
                  first.sort_j, first.u, first.v + second.v)


def rule_symmetry(atom: PolyDep) -> PolyDep:
    return _build(atom.sort_j, atom.u, atom.v, atom.sort_i, atom.x, atom.y)


def rule_weak_transitivity(atom: PolyDep, head: int) -> PolyDep:
    """From =(x ; y z z | u ; v v w) conclude =(x ; y | u ; w), |y|=|w|=head.

    The premise's consequent equalities must actually chain each y position
    to the matching w position; degenerate arity combinations that break the
    chain are rejected as unsound instances.
    """
    m = head
    if m < 0 or m > len(atom.y) or (len(atom.y) - m) % 2 or len(atom.y) != len(atom.v):
        raise RuleApplicationError("consequents do not decompose as y z z / v v w")
    p = (len(atom.y) - m) // 2
    y, z1, z2 = atom.y[:m], atom.y[m:m + p], atom.y[m + p:]
    v1, v2, w = atom.v[:p], atom.v[p:2 * p], atom.v[2 * p:]
    if z1 != z2 or v1 != v2 or len(w) != m:
        raise RuleApplicationError("consequents do not decompose as y z z / v v w")
    uf = _UnionFind()
    for left, right in zip(atom.y, atom.v):
        uf.merge(left, right)
    for yk, wk in zip(y, w):
        if uf.find(yk) != uf.find(wk):
            raise RuleApplicationError(
                f"equality chain does not connect {yk} to {wk}; "
                "this weak-transitivity instance is unsound")
    return _build(atom.sort_i, atom.x, y, atom.sort_j, atom.u, w)


_RULES = {
    "reflexivity": rule_reflexivity,
    "augmentation": rule_augmentation,
    "transitivity": rule_transitivity,
    "union": rule_union,
    "symmetry": rule_symmetry,
    "weak_transitivity": rule_weak_transitivity,
}


def derive_rule(rule: str, *args) -> PolyDep:
    """Apply one named inference rule; raises RuleApplicationError on misuse."""
    try:
        impl = _RULES[rule]
    except KeyError:
        raise RuleApplicationError(f"unknown rule {rule!r}") from None
    return impl(*args)


# ---------------------------------------------------------------------------
# Trace replay

class DerivationStep(Record):
    """The rule applied, its premises (a tuple of PolyDeps) and its conclusion."""

    __slots__ = ("rule", "premises", "conclusion")

    def __init__(self, rule, premises, conclusion):
        _set(self, "rule", rule)
        _set(self, "premises", premises)
        _set(self, "conclusion", conclusion)


class Derivation(Record):
    """The steps of a replayed trace, the projections it started from, and
    the PolyDep it derived, if any."""

    __slots__ = ("steps", "projections", "conclusion")


class _Stepper:
    def __init__(self):
        self.steps = []

    def apply(self, rule, *args) -> PolyDep:
        got = derive_rule(rule, *args)
        premises = tuple(a for a in args if isinstance(a, PolyDep))
        self.steps.append(DerivationStep(rule, premises, got))
        return got

    def project(self, atom: PolyDep, k: int) -> PolyDep:
        """=(x ; y_k | u ; v_k), via reflexivity on the consequents."""
        refl = self.apply("reflexivity", atom.y, atom.v, k)
        return self.apply("transitivity", atom, refl)

    def fold_union(self, atoms):
        current = atoms[0]
        for nxt in atoms[1:]:
            current = self.apply("union", current, nxt)
        return current


def replay_trace(premises: Sequence[PolyDep], conclusion: PolyDep,
                 verdict: ImplicationVerdict) -> Derivation:
    """Expand a positive verdict's trace into a checked rule derivation.

    Produces a derivation of the single-consequent projection of the
    conclusion at every position, plus the conclusion itself when its
    consequent tuple is nonempty.  Every step re-runs the rule constructors,
    so a malformed trace cannot replay silently.
    """
    if not verdict.implied:
        raise ValueError("can only replay traces of positive verdicts")
    if conclusion.sort_i == conclusion.sort_j:
        return _replay_same_sort(conclusion, verdict)
    return _replay_cross_sort(conclusion, verdict)


def _carry(stepper, oriented, x, u, derive_antecedent):
    """=(x ; y' | u ; v') carrying the fired atom over the goal antecedents.

    ``derive_antecedent`` supplies =(x ; a | u ; c) certificates position by
    position; empty-antecedent (constancy) premises are carried by
    augmentation instead, leaving their consequents as a prefix.
    """
    if oriented.x:
        certs = [derive_antecedent(a, c) for a, c in zip(oriented.x, oriented.u)]
        fused = stepper.fold_union(certs)
        return stepper.apply("transitivity", fused, oriented)
    return stepper.apply("augmentation", oriented, x, u)


def _replay_same_sort(conclusion, verdict) -> Derivation:
    stepper = _Stepper()
    x = conclusion.x
    derived = {}
    for k, var in enumerate(x, start=1):
        derived[var] = stepper.apply("reflexivity", x, x, k)

    def antecedent_cert(a, _c):
        return derived[a]

    for record in verdict.trace:
        carried = _carry(stepper, record.atom, x, x, antecedent_cert)
        for t, var in enumerate(record.atom.y, start=1):
            if var not in derived:
                derived[var] = stepper.project(carried, t)
    projections = tuple(derived[v] for v in conclusion.y)
    final = stepper.fold_union(list(projections)) if projections else None
    return Derivation(tuple(stepper.steps), projections, final)


def _replay_cross_sort(conclusion, verdict) -> Derivation:
    stepper = _Stepper()
    x, u = conclusion.x, conclusion.u
    i, j = conclusion.sort_i, conclusion.sort_j
    adjacency = {}

    def add_edge(p, q, atom):
        adjacency.setdefault(p, []).append((q, atom))
        adjacency.setdefault(q, []).append((p, atom))

    def cert(p, q) -> PolyDep:
        """Derive =(x ; p | u ; q) by walking the recorded merge graph."""
        previous = {p: None}
        frontier = deque([p])
        while frontier and q not in previous:
            node = frontier.popleft()
            for other, atom in adjacency.get(node, ()):
                if other not in previous:
                    previous[other] = (node, atom)
                    frontier.append(other)
        if q not in previous:
            raise RuleApplicationError(f"{p} and {q} were never merged")
        path = []
        node = q
        while previous[node] is not None:
            back, atom = previous[node]
            path.append(atom)
            node = back
        path.reverse()
        # edges alternate sides, so the certificates fold pairwise: from
        # =(x;p|u;q') and the bridge pair via p'' derive =(x;p|u;q'')
        current = path[0]
        idx = 1
        while idx < len(path):
            bridge, forward = path[idx], path[idx + 1]
            fused = stepper.apply("union", current, bridge)
            fused = stepper.apply("union", fused, forward)
            current = stepper.apply("weak_transitivity", fused, 1)
            idx += 2
        return current

    for k in range(len(x)):
        seed = stepper.apply("reflexivity", x, u, k + 1)
        add_edge(x[k], u[k], seed)
    for record in verdict.trace:
        oriented = record.atom
        if (oriented.sort_i, oriented.sort_j) != (i, j):
            oriented = stepper.apply("symmetry", oriented)
        carried = _carry(stepper, oriented, x, u, cert)
        for t in range(1, len(oriented.y) + 1):
            add_edge(oriented.y[t - 1], oriented.v[t - 1], stepper.project(carried, t))
    projections = tuple(cert(yk, vk) for yk, vk in zip(conclusion.y, conclusion.v))
    final = stepper.fold_union(list(projections)) if projections else None
    return Derivation(tuple(stepper.steps), projections, final)
