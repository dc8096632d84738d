import itertools
import math
import random

import pytest

from polyteam.errors import RuleApplicationError, SortedDomainError
from polyteam.implication import (
    ImplicationVerdict, decide, derive_rule, replay_trace, rule_augmentation, rule_reflexivity,
    rule_symmetry, rule_transitivity, rule_union, rule_weak_transitivity,
    verify_counterexample,
)
from polyteam.model import Assignment, Polyteam, Team, Variable
from polyteam.oracle import semantic_implies
from polyteam.syntax import PolyDep

S1, S2, S3 = "s1", "s2", "s3"
X, Y, Z = Variable(S1, "x"), Variable(S1, "y"), Variable(S1, "z")
U, V, W = Variable(S2, "u"), Variable(S2, "v"), Variable(S2, "w")
K = Variable(S3, "k")


def dep(x, y, u, v, si=S1, sj=S2):
    return PolyDep(si, tuple(x), tuple(y), sj, tuple(u), tuple(v))


def fd(lhs, rhs, sort="T"):
    lhs = tuple(Variable(sort, n) for n in lhs)
    rhs = tuple(Variable(sort, n) for n in rhs)
    return PolyDep(sort, lhs, rhs, sort, lhs, rhs)


# ---------------------------------------------------------------------------
# Rule constructors

def test_reflexivity_rule():
    got = rule_reflexivity((X, Y), (U, V), 2)
    assert got == dep((X, Y), (Y,), (U, V), (V,))
    with pytest.raises(RuleApplicationError):
        rule_reflexivity((X, Y), (U,), 1)
    with pytest.raises(RuleApplicationError):
        rule_reflexivity((X,), (U,), 2)


def test_augmentation_rule():
    got = rule_augmentation(dep((X,), (Y,), (U,), (V,)), (Z,), (W,))
    assert got == dep((X, Z), (Y, Z), (U, W), (V, W))
    with pytest.raises(RuleApplicationError):
        rule_augmentation(dep((X,), (Y,), (U,), (V,)), (Z,), ())


def test_transitivity_and_union_rules():
    first = dep((X,), (Y,), (U,), (V,))
    second = dep((Y,), (Z,), (V,), (W,))
    assert rule_transitivity(first, second) == dep((X,), (Z,), (U,), (W,))
    with pytest.raises(RuleApplicationError):
        rule_transitivity(second, first)
    other = dep((X,), (Z,), (U,), (W,))
    assert rule_union(first, other) == dep((X,), (Y, Z), (U,), (V, W))
    with pytest.raises(RuleApplicationError):
        rule_union(first, second)


def test_symmetry_rule():
    assert rule_symmetry(dep((X,), (Y,), (U,), (V,))) == \
        PolyDep(S2, (U,), (V,), S1, (X,), (Y,))


def test_weak_transitivity_rule():
    premise = dep((X,), (Y, Z, Z), (U,), (V, V, W))
    assert rule_weak_transitivity(premise, 1) == dep((X,), (Y,), (U,), (W,))
    with pytest.raises(RuleApplicationError):
        rule_weak_transitivity(dep((X,), (Y, Z), (U,), (V, W)), 1)


def test_weak_transitivity_rejects_chain_breaking_arities():
    # y1 y2 z z / v v w1 w2 never links y1 to w1: the equalities chain
    # y1=v, y2=v, z=w1, z=w2 and leave y and w in separate components
    y1, y2 = Variable(S1, "y1"), Variable(S1, "y2")
    w1, w2 = Variable(S2, "w1"), Variable(S2, "w2")
    premise = dep((X,), (y1, y2, Z, Z), (U,), (V, V, w1, w2))
    with pytest.raises(RuleApplicationError, match="unsound"):
        rule_weak_transitivity(premise, 2)


def chained(pairs, start, goal) -> bool:
    """Whether the equalities ``pairs`` link start to goal: a plain fixpoint."""
    reached, grew = {start}, True
    while grew:
        grew = False
        for left, right in pairs:
            if (left in reached) != (right in reached):
                reached.update((left, right))
                grew = True
    return goal in reached


def test_weak_transitivity_accepts_exactly_the_chained_splits():
    pool_i, pool_j = (X, Y, Z), (U, V, W)
    seen = {"accepted": 0, "rejected": 0}
    for size in range(5):
        for y in itertools.product(pool_i, repeat=size):
            for v in itertools.product(pool_j, repeat=size):
                premise = dep((X,), y, (U,), v)
                for head in range(size + 1):
                    try:
                        got = rule_weak_transitivity(premise, head)
                    except RuleApplicationError as err:
                        if "do not decompose" in str(err):
                            continue
                        assert "unsound" in str(err)
                        got = None
                    w = v[size - head:]
                    expected = all(chained(tuple(zip(y, v)), yk, wk)
                                   for yk, wk in zip(y[:head], w))
                    assert (got is not None) == expected, (premise, head)
                    if got is not None:
                        assert got == dep((X,), y[:head], (U,), w)
                    seen["accepted" if expected else "rejected"] += 1
    assert min(seen.values()) > 100, seen


def test_derive_rule_dispatch():
    assert derive_rule("symmetry", dep((X,), (Y,), (U,), (V,))).sort_i == S2
    with pytest.raises(RuleApplicationError):
        derive_rule("modus_ponens", None)


# ---------------------------------------------------------------------------
# decide: cross-sort

def test_transitivity_instance_is_implied():
    sigma = [dep((X,), (Y,), (U,), (V,)), dep((Y,), (Z,), (V,), (W,))]
    goal = dep((X,), (Z,), (U,), (W,))
    verdict = decide(sigma, goal)
    assert verdict.implied
    assert [r.atom for r in verdict.trace] == sigma


def test_reflexivity_instances_from_empty_premises():
    assert decide([], dep((X,), (X,), (U,), (U,))).implied
    assert decide([], dep((X, Y), (Y,), (U, V), (V,))).implied
    assert decide([], dep((X, Y), (Y, X), (U, V), (V, U))).implied


def test_weak_transitivity_instance_is_implied():
    sigma = [dep((X,), (Y, Z, Z), (U,), (V, V, W))]
    assert decide(sigma, dep((X,), (Y,), (U,), (W,))).implied


def test_not_implied_yields_exact_counterexample():
    goal = dep((X,), (Y,), (U,), (V,))
    verdict = decide([], goal)
    assert not verdict.implied
    ce = verdict.counterexample
    assert len(ce.polyteam.team(S1)) == 1 and len(ce.polyteam.team(S2)) == 1
    rows1 = ce.polyteam.team(S1).ordered_rows()[0]
    rows2 = ce.polyteam.team(S2).ordered_rows()[0]
    assert rows1[X] == rows2[U]          # seeded equal
    assert rows1[Y] != rows2[V]          # conclusion violated
    assert verify_counterexample(verdict, [], goal)


def test_counterexample_with_third_sort_constancy_uses_empty_team():
    sigma = [PolyDep(S1, (), (X,), S3, (), (K,))]
    goal = dep((X,), (Y,), (U,), (V,))
    verdict = decide(sigma, goal)
    assert not verdict.implied
    third = verdict.counterexample.polyteam.team(S3)
    assert third.domain == (K,) and third.is_empty
    assert verify_counterexample(verdict, sigma, goal)


def test_hand_collapsed_counterexample_fails_verification():
    goal = dep((X,), (Y,), (U,), (V,))
    verdict = decide([], goal)
    collapsed = Polyteam([
        Team(S1, (X, Y), (Assignment({X: "c0", Y: "c0"}),)),
        Team(S2, (U, V), (Assignment({U: "c0", V: "c0"}),)),
    ])
    from polyteam.implication import Counterexample, ImplicationVerdict
    fake = ImplicationVerdict(False, counterexample=Counterexample(
        collapsed, {X: "c0", Y: "c0", U: "c0", V: "c0"}))
    assert not verify_counterexample(fake, [], goal)


def test_constancy_premises_fire_vacuously():
    sigma = [PolyDep(S1, (), (Y,), S2, (), (V,))]
    assert decide(sigma, PolyDep(S1, (), (Y,), S2, (), (V,))).implied
    assert not decide([dep((X,), (Y,), (U,), (V,))],
                      PolyDep(S1, (), (Y,), S2, (), (V,))).implied


def test_symmetry_invariance_of_decide(rng):
    for _ in range(200):
        sigma, goal = random_instance(rng)
        mirrored = [rule_symmetry(a) for a in sigma]
        assert decide(sigma, goal).implied == \
            decide(mirrored, rule_symmetry(goal)).implied


def test_monotonicity_of_decide(rng):
    for _ in range(200):
        sigma, goal = random_instance(rng)
        if decide(sigma, goal).implied:
            extra, _ = random_instance(rng)
            assert decide(sigma + extra, goal).implied


def test_zero_consequent_goals_are_trivially_implied():
    goal = PolyDep(S1, (X,), (), S2, (U,), ())
    verdict = decide([], goal)
    assert verdict.implied and verdict.trace == ()


# ---------------------------------------------------------------------------
# decide: same-sort (attribute closure)

def textbook_closure(fds, seed):
    """Worklist attribute-set closure, independent of the engine's loop."""
    closure = frozenset(seed)
    queue = list(fds)
    progress = True
    while progress:
        progress = False
        for lhs, rhs in queue:
            if lhs <= closure and not rhs <= closure:
                closure |= rhs
                progress = True
    return closure


def test_same_sort_agrees_with_textbook_closure(rng):
    attrs = [Variable("T", n) for n in "abcdef"]
    for _ in range(400):
        fds = []
        for _ in range(rng.randint(0, 8)):
            lhs = tuple(rng.sample(attrs, rng.randint(0, 2)))
            rhs = tuple(rng.sample(attrs, rng.randint(1, 2)))
            fds.append(PolyDep("T", lhs, rhs, "T", lhs, rhs))
        lhs = tuple(rng.sample(attrs, rng.randint(0, 2)))
        rhs = tuple(rng.sample(attrs, rng.randint(1, 3)))
        goal = PolyDep("T", lhs, rhs, "T", lhs, rhs)
        closure = textbook_closure([(frozenset(a.x), frozenset(a.y)) for a in fds],
                                   frozenset(goal.x))
        assert decide(fds, goal).implied == (frozenset(goal.y) <= closure)


def test_same_sort_counterexample_is_classic_two_row_team():
    sigma = [fd("a", "b")]
    goal = fd("b", "a")
    verdict = decide(sigma, goal)
    assert not verdict.implied
    team = verdict.counterexample.polyteam.team("T")
    assert len(team) == 2
    assert verify_counterexample(verdict, sigma, goal)


def test_same_sort_ignores_cross_sort_premises():
    sigma = [dep((X,), (Y,), (U,), (V,), S1, S2)]
    goal = fd("x", "y", sort=S1)
    verdict = decide(sigma, goal)
    assert not verdict.implied
    assert verify_counterexample(verdict, sigma, goal)


# ---------------------------------------------------------------------------
# replay

def random_instance(rng, sorts=(S1, S2)):
    si, sj = sorts
    pool_i = [Variable(si, n) for n in "xyzp"]
    pool_j = [Variable(sj, n) for n in "uvwq"]
    sigma = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.3:
            attrs = pool_i if rng.random() < 0.5 else pool_j
            lhs = tuple(rng.sample(attrs, rng.randint(0, 2)))
            rhs = tuple(rng.sample(attrs, rng.randint(1, 2)))
            sigma.append(PolyDep(attrs[0].sort, lhs, rhs, attrs[0].sort, lhs, rhs))
            continue
        n_ante, n_cons = rng.randint(0, 2), rng.randint(1, 2)
        a = tuple(rng.choices(pool_i, k=n_ante))
        b = tuple(rng.choices(pool_i, k=n_cons))
        c = tuple(rng.choices(pool_j, k=n_ante))
        d = tuple(rng.choices(pool_j, k=n_cons))
        if rng.random() < 0.5:
            sigma.append(PolyDep(si, a, b, sj, c, d))
        else:
            sigma.append(PolyDep(sj, c, d, si, a, b))
    n_ante, n_cons = rng.randint(0, 2), rng.randint(1, 2)
    goal = PolyDep(si, tuple(rng.choices(pool_i, k=n_ante)),
                   tuple(rng.choices(pool_i, k=n_cons)),
                   sj, tuple(rng.choices(pool_j, k=n_ante)),
                   tuple(rng.choices(pool_j, k=n_cons)))
    return sigma, goal


def test_replay_reconstructs_projections_and_goal(rng):
    replayed = 0
    for _ in range(600):
        sigma, goal = random_instance(rng)
        verdict = decide(sigma, goal)
        if not verdict.implied:
            continue
        replayed += 1
        derivation = replay_trace(sigma, goal, verdict)
        for k, proj in enumerate(derivation.projections):
            assert proj == PolyDep(goal.sort_i, goal.x, (goal.y[k],),
                                   goal.sort_j, goal.u, (goal.v[k],))
        if goal.y:
            assert derivation.conclusion == goal
    assert replayed >= 30


def test_replay_handles_same_sort_traces(rng):
    attrs = [Variable("T", n) for n in "abcd"]
    replayed = 0
    for _ in range(300):
        fds = []
        for _ in range(rng.randint(1, 5)):
            lhs = tuple(rng.sample(attrs, rng.randint(0, 2)))
            rhs = tuple(rng.sample(attrs, rng.randint(1, 2)))
            fds.append(PolyDep("T", lhs, rhs, "T", lhs, rhs))
        lhs = tuple(rng.sample(attrs, rng.randint(1, 2)))
        rhs = tuple(rng.sample(attrs, rng.randint(1, 2)))
        goal = PolyDep("T", lhs, rhs, "T", lhs, rhs)
        verdict = decide(fds, goal)
        if not verdict.implied:
            continue
        replayed += 1
        derivation = replay_trace(fds, goal, verdict)
        assert derivation.conclusion == goal
    assert replayed >= 30


# ---------------------------------------------------------------------------
# agreement with the bounded semantic oracle

def test_decide_matches_semantic_oracle_on_random_instances(rng):
    for _ in range(150):
        sigma, goal = random_instance(rng)
        verdict = decide(sigma, goal)
        if verdict.implied:
            assert semantic_implies(sigma, goal, values=(0, 1, 2), max_rows=2)
        else:
            assert verify_counterexample(verdict, sigma, goal)


# every instance of at most two premises over the 32 cross-sort unary atoms on
# S{x, y} and T{u, v}, each with every one of them as the conclusion
SIDES = (("S", (Variable("S", "x"), Variable("S", "y"))),
         ("T", (Variable("T", "u"), Variable("T", "v"))))
UNARY = [PolyDep(si, (a,), (b,), sj, (c,), (d,))
         for (si, mine), (sj, theirs) in (SIDES, SIDES[::-1])
         for a, b, c, d in itertools.product(mine, mine, theirs, theirs)]
SMALL_SCOPE = [(sigma, goal) for n in range(3) for sigma in itertools.combinations(UNARY, n)
               for goal in UNARY]


@pytest.fixture(scope="module")
def small_scope_verdicts():
    return [decide(sigma, goal) for sigma, goal in SMALL_SCOPE]


def test_small_scope_verdicts_check_themselves(small_scope_verdicts):
    assert len(UNARY) == 32 and len(SMALL_SCOPE) == 16_928
    implied = 0
    for (sigma, goal), verdict in zip(SMALL_SCOPE, small_scope_verdicts):
        if verdict.implied:
            implied += 1
            assert replay_trace(sigma, goal, verdict).conclusion == goal, (sigma, goal)
        else:
            assert verify_counterexample(verdict, sigma, goal), (sigma, goal)
    assert implied == 6_224


def test_small_scope_verdicts_match_semantic_oracle(small_scope_verdicts):
    for (sigma, goal), verdict in zip(SMALL_SCOPE, small_scope_verdicts):
        assert verdict.implied == semantic_implies(sigma, goal, values=(0, 1, 2), max_rows=2), \
            (sigma, goal)


def test_invalid_atoms_are_rejected():
    with pytest.raises(SortedDomainError):
        decide([], PolyDep(S1, (X,), (Y,), S1, (U,), (V,)))
    with pytest.raises(SortedDomainError):
        decide([PolyDep(S1, (X,), (Y, Z), S2, (U,), (V,))],
               dep((X,), (Y,), (U,), (V,)))


# ---------------------------------------------------------------------------
# differential check against the fixpoint loops decide replaced

def reference_decide(premises, conclusion):
    """(implied, classes), saturating by rescanning until nothing changes.

    ``classes`` is the counterexample class map decide must emit, or None
    when the conclusion is implied.
    """
    variables = {}
    for atom in list(premises) + [conclusion]:
        for sort, tup in atom.tuples():
            variables.setdefault(sort, set()).update(tup)
    i, j = conclusion.sort_i, conclusion.sort_j
    if i == j:
        closure = set(conclusion.x)
        changed = True
        while changed:
            changed = False
            for a in premises:
                if a.sort_i == a.sort_j == i and set(a.x) <= closure \
                        and not set(a.y) <= closure:
                    closure |= set(a.y)
                    changed = True
        if set(conclusion.y) <= closure:
            return True, None
        return False, {v: "c0" if v in closure else "c1" for v in variables[i]}
    parent = {}

    def find(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    def merge(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
        return ra != rb

    oriented = [a if a.sort_i == i else rule_symmetry(a)
                for a in premises if {a.sort_i, a.sort_j} == {i, j}]
    for a, c in zip(conclusion.x, conclusion.u):
        merge(a, c)
    changed = True
    while changed:
        changed = False
        for o in oriented:
            if all(find(a) == find(c) for a, c in zip(o.x, o.u)):
                for b, d in zip(o.y, o.v):
                    changed |= merge(b, d)
    if all(find(b) == find(d) for b, d in zip(conclusion.y, conclusion.v)):
        return True, None
    names, classes = {}, {}
    for v in sorted(variables[i] | variables[j]):
        classes[v] = names.setdefault(find(v), f"c{len(names)}")
    return False, classes


POOLS = {s: [Variable(s, n) for n in "abc"] for s in (S1, S2, S3)}
# (j, i) premises need the symmetry rule; S3 premises must be discarded
PREMISE_SORTS = ((S1, S2), (S2, S1), (S1, S3), (S3, S2), (S1, S1), (S2, S2), (S3, S3))


def random_antecedent(rng, si, sj):
    """Antecedent tuples, often repeating one pair (a, c) at two positions."""
    n = rng.randint(0, 3)
    x = tuple(rng.choices(POOLS[si], k=n))
    u = x if si == sj else tuple(rng.choices(POOLS[sj], k=n))
    if n >= 2 and rng.random() < 0.4:
        x, u = x[:-1] + x[:1], u[:-1] + u[:1]
    return x, u


def random_atom(rng, si, sj, antecedent=None):
    x, u = antecedent or random_antecedent(rng, si, sj)
    m = rng.randint(1, 2)
    y = tuple(rng.choices(POOLS[si], k=m))
    v = y if si == sj else tuple(rng.choices(POOLS[sj], k=m))
    return PolyDep(si, x, y, sj, u, v)


def differential_instance(rng):
    sigma = [random_atom(rng, *rng.choice(PREMISE_SORTS))
             for _ in range(rng.randint(0, 7))]
    si, sj = (S1, S2) if rng.random() < 0.6 else (S1, S1)
    antecedent = None
    donors = [a for a in sigma if {a.sort_i, a.sort_j} == {si, sj}]
    if donors and rng.random() < 0.5:
        # the conclusion's own antecedent enables a premise
        donor = rng.choice(donors)
        antecedent = (donor.x, donor.u) if donor.sort_i == si else (donor.u, donor.x)
    return sigma, random_atom(rng, si, sj, antecedent)


def has_repeated_pair(atom):
    pairs = list(zip(atom.x, atom.u))
    return len(set(pairs)) < len(pairs)


def test_decide_agrees_with_the_fixpoint_reference(rng):
    seen = {"implied": 0, "refuted": 0, "repeated pair fired": 0,
            "constancy fired": 0, "(j,i) fired": 0, "goal antecedent fired": 0,
            "third sort discarded": 0}
    for _ in range(1500):
        sigma, goal = differential_instance(rng)
        verdict = decide(sigma, goal)
        implied, classes = reference_decide(sigma, goal)
        assert verdict.implied == implied, (sigma, goal)
        if not implied:
            seen["refuted"] += 1
            assert verdict.counterexample.classes == classes, (sigma, goal)
            assert verify_counterexample(verdict, sigma, goal)
            continue
        seen["implied"] += 1
        fired = [record.atom for record in verdict.trace]
        assert len(fired) == len(set(fired)), (sigma, goal)
        derivation = replay_trace(sigma, goal, verdict)
        if goal.y:
            assert derivation.conclusion == goal
        seen["repeated pair fired"] += any(map(has_repeated_pair, fired))
        seen["constancy fired"] += any(not a.x for a in fired)
        seen["(j,i) fired"] += any(a.sort_i == S2 for a in fired)
        seen["goal antecedent fired"] += any(
            a.x and {(a.x, a.u), (a.u, a.x)} & {(goal.x, goal.u)} for a in fired)
        seen["third sort discarded"] += verdict.stats["premises_discarded"] > 0
    assert min(seen.values()) >= 20, seen


def test_repeated_antecedent_pairs_count_once_per_position():
    a, b = Variable(S1, "a"), Variable(S1, "b")
    c, d = Variable(S2, "c"), Variable(S2, "d")
    sigma = [dep((a, a), (b,), (c, c), (d,)), dep((a, b, a), (Z,), (c, d, c), (W,))]
    verdict = decide(sigma, dep((a,), (Z,), (c,), (W,)))
    assert verdict.implied
    assert [r.atom for r in verdict.trace] == sigma
    same = [fd("z", "a"), fd("aa", "b"), fd("aba", "c")]
    assert [r.atom for r in decide(same, fd("z", "c")).trace] == same


def test_a_met_position_is_not_counted_again_when_its_class_moves():
    a1, a2, a3, a4, b = (Variable(S1, n) for n in ("a1", "a2", "a3", "a4", "b"))
    c1, c2, c3, d = (Variable(S2, n) for n in ("c1", "c2", "c3", "d"))
    # the goal meets (a1, c1); the class {a1, c1} is then absorbed into the
    # larger {a3, a4, c3}, while (a2, c2) stays unmet throughout
    sigma = [dep((a1, a2), (b,), (c1, c2), (d,)),
             dep((), (a3, a4), (), (c3, c3)),
             dep((), (a3,), (), (c1,))]
    goal = dep((a1,), (b,), (c1,), (d,))
    verdict = decide(sigma, goal)
    assert not verdict.implied
    assert verdict.counterexample.classes == reference_decide(sigma, goal)[1]


def test_stats_count_the_work():
    sigma = [dep((X,), (Y,), (U,), (V,)),
             PolyDep(S2, (V,), (W,), S1, (Y,), (Z,)),
             PolyDep(S1, (), (X,), S3, (), (K,)),
             fd("x", "y", sort=S1)]
    verdict = decide(sigma, dep((X,), (Z,), (U,), (W,)))
    assert verdict.implied
    assert {k: verdict.stats[k] for k in ("premises", "premises_kept",
                                         "premises_discarded", "firings")} == \
        {"premises": 4, "premises_kept": 2, "premises_discarded": 2, "firings": 2}
    assert verdict.stats["pair_checks"] >= 2
    same = decide(sigma, fd("x", "y", sort=S1))
    assert (same.stats["premises_kept"], same.stats["firings"]) == (1, 1)
    assert verdict == ImplicationVerdict(True, trace=verdict.trace)


# ---------------------------------------------------------------------------
# scale: saturation must stay near-linear in the number of premises

def shuffled_chain(n, cross_sort, seed=5):
    """Premises a_k -> a_{k+1} in a fixed shuffle, and the goal a_0 -> a_n."""
    rng = random.Random(seed)
    a = [Variable("P", f"a{k}") for k in range(n + 1)]
    b = [Variable("Q", f"b{k}") for k in range(n + 1)]
    links = []
    for k in range(n):
        if not cross_sort:
            links.append(PolyDep("P", (a[k],), (a[k + 1],), "P", (a[k],), (a[k + 1],)))
        elif rng.random() < 0.5:
            links.append(PolyDep("Q", (b[k],), (b[k + 1],), "P", (a[k],), (a[k + 1],)))
        else:
            links.append(PolyDep("P", (a[k],), (a[k + 1],), "Q", (b[k],), (b[k + 1],)))
    rng.shuffle(links)
    if cross_sort:
        return links, PolyDep("P", (a[0],), (a[n],), "Q", (b[0],), (b[n],))
    return links, PolyDep("P", (a[0],), (a[n],), "P", (a[0],), (a[n],))


def star(n, seed=5):
    """Two chains that grow one class from {a_0, b_0}, in a fixed shuffle.

    Links a_k -> a_{k+1} against b_0 merge a new variable as the first
    argument, links b_k -> b_{k+1} against a_0 merge the growing class as
    the first argument, so both sides of each merge take the small class.
    """
    m = n // 2
    a = [Variable("P", f"a{k}") for k in range(m + 1)]
    b = [Variable("Q", f"b{k}") for k in range(m + 1)]
    links = [PolyDep("P", (a[k],), (a[k + 1],), "Q", (b[0],), (b[0],)) for k in range(m)]
    links += [PolyDep("P", (a[0],), (a[0],), "Q", (b[k],), (b[k + 1],)) for k in range(m)]
    random.Random(seed).shuffle(links)
    return links, PolyDep("P", (a[0],), (a[m],), "Q", (b[0],), (b[m],))


@pytest.mark.parametrize("build,n", [
    (lambda n: shuffled_chain(n, cross_sort=True), 2000),
    (lambda n: shuffled_chain(n, cross_sort=False), 5000),
    (star, 2000),
], ids=["cross-sort-chain", "same-sort-chain", "cross-sort-star"])
def test_long_chains_decide_in_near_linear_work(build, n):
    sigma, goal = build(n)
    verdict = decide(sigma, goal)
    assert verdict.implied and len(verdict.trace) == n
    assert verdict.stats["firings"] == n
    assert verdict.stats["pair_checks"] <= 4 * n * math.ceil(math.log2(n))
    derivation = replay_trace(sigma, goal, verdict)
    assert derivation.conclusion == goal
