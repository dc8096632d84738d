import ast
import collections
import functools
import itertools
import random
from pathlib import Path

import pytest

from polyteam.atoms import AtomRegistry, GeneralizedQuantifier
from polyteam.errors import SortedDomainError
from polyteam.evaluator import (
    DOWNWARD, EXHAUSTED, FALSE, OPAQUE, PROBE, ROWWISE, TRUE, BulkEvaluator,
    EvalConfig, EvalOutcome, _Evaluator, enumerate_covers, eval_formula, eval_sentence,
    evaluator_backed,
)
from polyteam.model import (
    Assignment, Polyteam, Structure, Team, Variable, polyteam_restrict,
    polyteam_union, subteam_of,
)
from polyteam import evaluator as evaluator_module, oracle
from polyteam.oracle import (
    enumerate_polyteams, enumerate_structures, enumerate_teams, equivalent, naive_eval,
    tarski,
)
from polyteam.syntax import (
    And, AtomF, Eq, Exists, Forall, Neq, NegRel, OrGlobal, OrLocal, PolyDep,
    PolyExc, PolyInc, PolyInd, Rel, Truth, all_variables, conjoin, exists_chain,
    free_variables, mentioned_sorts, parse, walk,
)

from samplers import (
    P, PX, PY, Q, QU, QV, FormulaSampler, assignments, random_polyteam,
)
from test_cli import EQUIV_PAIRS

ST = Structure((0, 1))
NO_LIMITS = EvalConfig(timeout=None)


def holds(structure, pt, phi, **kw):
    return eval_formula(structure, pt, phi, NO_LIMITS, **kw).as_bool()


def team_p(rows):
    return Team(P, (PX, PY), rows)


def row(**kv):
    return Assignment({{"x": PX, "y": PY, "u": QU, "v": QV}[k]: v
                       for k, v in kv.items()})


# ---------------------------------------------------------------------------
# Clause-level checks

def test_literal_clauses_are_universal_over_the_team():
    pt = Polyteam([team_p([row(x=0, y=0), row(x=1, y=1)])])
    assert holds(ST, pt, Eq(PX, PY))
    assert not holds(ST, pt, Neq(PX, PY))
    st = Structure((0, 1), {"R": [(0, 0), (1, 1)]})
    assert holds(st, pt, Rel("R", (PX, PY)))
    assert not holds(st, pt, NegRel("R", (PX, PY)))


def test_sentence_examples():
    assert eval_sentence(ST, parse("A P.x . (E P.y . P.x = P.y)")).as_bool()
    assert eval_sentence(ST, parse("A P.x . P.x = P.x")).as_bool()
    st = Structure((0, 1), {"R": []})
    assert not eval_sentence(st, parse("E P.x . R(P.x)")).as_bool()
    with pytest.raises(SortedDomainError):
        eval_sentence(ST, parse("P.x = P.y"))


def test_free_variables_must_be_in_team_domains():
    with pytest.raises(SortedDomainError):
        eval_formula(ST, Polyteam(), parse("P.x = P.y"))
    with pytest.raises(SortedDomainError):
        eval_formula(ST, Polyteam([Team(P, (PX,), ())]), parse("P.x = P.y"))


def test_ill_sorted_formula_is_rejected_before_evaluation():
    with pytest.raises(SortedDomainError):
        eval_formula(ST, Polyteam(), Eq(PX, QU))


def test_both_entry_points_reject_the_same_inputs():
    # P.y != P.y fails on the one-row team before anything reads P.x
    phi = parse(r"P.y != P.y /\ P.x = P.x")
    y_only = Polyteam([Team.from_tuples(P, (PY,), [(0,)])])
    xy = Polyteam([Team.from_tuples(P, (PX, PY), [(0, 0)])])
    bulk = BulkEvaluator(ST)
    with pytest.raises(SortedDomainError):
        eval_formula(ST, y_only, phi)
    with pytest.raises(SortedDomainError):
        bulk.holds(y_only, phi)
    # the session keeps the formula's free variables, and still checks each polyteam
    assert not bulk.holds(xy, phi)
    with pytest.raises(SortedDomainError):
        bulk.holds(y_only, phi)
    with pytest.raises(SortedDomainError):
        bulk.holds(Polyteam(), Eq(PX, QU))


@pytest.mark.parametrize("first", [r"P.x != P.x", r"P.x = P.x"])
def test_unresolvable_generalized_atom_is_rejected_before_evaluation(first):
    # the first conjunct fails or holds on the one-row team; neither may
    # decide whether the generalized atom is looked up
    registry = AtomRegistry([GeneralizedQuantifier("foo", (1,), lambda d, r: True)])
    phi = parse(first + r" /\ atom foo((P.x))", registry)
    pt = Polyteam([Team.from_tuples(P, (PX,), [(0,)])])
    for missing in (None, AtomRegistry()):
        with pytest.raises(SortedDomainError, match="unknown generalized atom 'foo'"):
            eval_formula(ST, pt, phi, registry=missing)
        with pytest.raises(SortedDomainError, match="unknown generalized atom 'foo'"):
            BulkEvaluator(ST, registry=missing).holds(pt, phi)
    assert holds(ST, pt, phi, registry=registry) == (first == "P.x = P.x")


@pytest.mark.parametrize("text", [
    r"P.x != P.x /\ !S(P.x)",
    r"A P.z . (pexc(P.z, P.y | Q.u, Q.v) /\ !S(P.z))",
    r"E P.z . (pinc(P.z | Q.u) /\ S(P.z))",
])
def test_unknown_relation_is_rejected_before_evaluation(text):
    # an evaluation that stops at a failing first conjunct never reads S,
    # while a row loop's probe reads it on the empty team: neither may
    # decide whether the call raises
    phi = parse(text)
    pt = Polyteam([Team.from_tuples(P, (PX, PY), [(0, 1)]),
                   Team.from_tuples(Q, (QU, QV), [(0, 1)])])
    st = Structure((0, 1), {"R": [(0,)]})
    with pytest.raises(SortedDomainError, match="unknown relation 'S'"):
        eval_formula(st, pt, phi)
    with pytest.raises(SortedDomainError, match="unknown relation 'S'"):
        BulkEvaluator(st).holds(pt, phi)
    st = Structure((0, 1), {"S": [(0,)]})
    assert holds(st, pt, phi) == naive_eval(st, pt, phi)


def test_enumerate_covers_counts():
    assert len(list(enumerate_covers(team_p([])))) == 1
    assert len(list(enumerate_covers(team_p([row(x=0, y=0)])))) == 3
    two = team_p([row(x=0, y=0), row(x=1, y=1)])
    covers = list(enumerate_covers(two))
    assert len(covers) == 9
    assert len(set(covers)) == 9
    assert all(left.union(right) == two for left, right in covers)


def test_enumerate_covers_by_k_parts():
    rows = [row(x=0, y=0), row(x=1, y=1), row(x=0, y=1)]
    for n in range(len(rows) + 1):
        team = team_p(rows[:n])
        ordered = team.ordered_rows()
        # two parts: a row goes left, right or to both, in that order
        pairs = [(team_p([r for r, way in zip(ordered, routing) if way != 1]),
                  team_p([r for r, way in zip(ordered, routing) if way != 0]))
                 for routing in itertools.product((0, 1, 2), repeat=n)]
        assert list(enumerate_covers(team, parts=2)) == pairs
        triples = list(enumerate_covers(team, parts=3))
        assert len(triples) == len(set(triples)) == 7 ** n
        assert all(a.union(b).union(c) == team for a, b, c in triples)


def test_global_split_allows_overlap():
    # each row satisfies one disjunct; the cover routes them apart
    pt = Polyteam([team_p([row(x=0, y=0), row(x=0, y=1)])])
    phi = OrGlobal(Eq(PX, PY), Neq(PX, PY))
    assert holds(ST, pt, phi)
    assert not holds(ST, pt, Eq(PX, PY))


def test_local_split_leaves_other_sorts_whole():
    # the Q-atom inside a P-local split still sees the full Q team
    pt = Polyteam([team_p([row(x=0, y=0)]),
                   Team(Q, (QU, QV), [row(u=0, v=0), row(u=1, v=0)])])
    phi = OrLocal(frozenset((P,)), Neq(QU, QV), Neq(QU, QV))
    assert not holds(ST, pt, phi)
    # a global split may split Q as well, but Neq still fails on the cover
    assert not holds(ST, pt, OrGlobal(Neq(QU, QV), Neq(QU, QV)))


def test_local_disjunction_at_unmentioned_sort_is_conjunction():
    pt = Polyteam([team_p([row(x=0, y=0), row(x=0, y=1)])])
    phi = OrLocal(frozenset((Q,)), Eq(PX, PY), Neq(PX, PY))
    assert not holds(ST, pt, phi)


def test_forall_and_exists_clauses():
    pt = Polyteam([Team(P, (PX,), [Assignment({PX: 0})])])
    assert holds(ST, pt, Forall(PY, OrGlobal(Eq(PX, PY), Neq(PX, PY))))
    assert holds(ST, pt, Exists(PY, Eq(PX, PY)))
    assert not holds(ST, pt, Forall(PY, Eq(PX, PY)))


def test_lax_exists_provides_value_sets_not_single_values():
    # u must take both values across the expanded team for the inclusion
    pt = Polyteam([team_p([row(x=0, y=0), row(x=1, y=1)]),
                   Team(Q, (QV,), [Assignment({QV: 0})])])
    phi = Exists(QU, AtomF(PolyInc(P, (PX,), Q, (QU,))))
    assert holds(ST, pt, phi)


def test_truth_node():
    assert holds(ST, Polyteam(), Truth())


# ---------------------------------------------------------------------------
# Resource handling

def test_expansion_cap_yields_exhausted():
    config = EvalConfig(max_expanded_team_rows=3, timeout=None)
    pt = Polyteam([team_p([row(x=0, y=0), row(x=1, y=1)])])
    out = eval_formula(ST, pt, Forall(PX, Eq(PX, PX)), config)
    assert out.verdict == EXHAUSTED and out.limit == "expansion"
    with pytest.raises(RuntimeError):
        out.as_bool()


@pytest.mark.parametrize("text", [
    r"A P.z . A P.w . P.x != P.y",
    r"A P.z . E P.w . (P.w = P.z /\ P.x != P.y)",
    r"A P.z . (P.x != P.y /\ A P.w . P.w = P.w)",
])
def test_expansion_cap_trips_inside_a_forall_as_on_the_whole_expansion(text):
    # two rows over {0, 1}: the outer ∀ meets 4 rows, the inner quantifier
    # 8; on one-row slices the inner one would meet only 4
    pt = Polyteam([team_p([row(x=0, y=1), row(x=1, y=0)])])
    phi = parse(text)
    out = eval_formula(ST, pt, phi, EvalConfig(max_expanded_team_rows=7, timeout=None))
    assert (out.verdict, out.limit) == (EXHAUSTED, "expansion")
    assert eval_formula(ST, pt, phi, EvalConfig(max_expanded_team_rows=8, timeout=None)) \
        .verdict == TRUE


def test_split_cap_yields_exhausted():
    config = EvalConfig(max_split_assignments=1, timeout=None)
    rows = [row(x=a, y=b) for a, b in itertools.product((0, 1), repeat=2)]
    pt = Polyteam([team_p(rows), Team(Q, (QU,), [Assignment({QU: 0})])])
    # both disjuncts are opaque at P (same-sort inclusion), forcing enumeration
    inc = AtomF(PolyInc(P, (PX,), P, (PY,)))
    out = eval_formula(ST, pt, OrLocal(frozenset((P,)), inc, inc), config)
    assert out.verdict == EXHAUSTED and out.limit == "split"


def test_timeout_trips():
    config = EvalConfig(timeout=0.05, max_split_assignments=64)
    rows = [row(x=a, y=b) for a, b in itertools.product((0, 1), repeat=2)]
    pt = Polyteam([team_p(rows)])
    # two opaque, unsatisfiable same-sort disjuncts over a 32-row expansion:
    # the cover enumeration can neither succeed nor finish within the deadline
    phi = parse(r"A P.z1 . A P.z2 . A P.z3 . (pexc(P.x | P.x) \/ pexc(P.y | P.y))")
    out = eval_formula(ST, pt, phi, config)
    assert out.verdict == EXHAUSTED and out.limit == "timeout"


def test_config_validation():
    for limits in ({"max_expanded_team_rows": 0}, {"max_expanded_team_rows": -1},
                   {"max_split_assignments": 0}, {"max_split_assignments": -2},
                   {"timeout": 0}, {"timeout": -0.5}):
        with pytest.raises(ValueError, match="must be positive"):
            EvalConfig(**limits)


def test_determinism_of_outcome_and_stats():
    sampler = FormulaSampler(("eq", "pdep", "pinc", "pexc"))
    rng = random.Random(5)
    for _ in range(20):
        phi = sampler.formula(rng, 2)
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        first = eval_formula(ST, pt, phi, NO_LIMITS)
        second = eval_formula(ST, pt, phi, NO_LIMITS)
        assert (first.verdict, first.nodes_visited) == \
            (second.verdict, second.nodes_visited)


# ---------------------------------------------------------------------------
# Semantic properties (small versions; the acceptance suite scales them up)

def flat_sampler():
    return FormulaSampler(("eq",), connectives=("and", "or", "exists", "forall"),
                          variables=(PX, PY))


def test_flatness_matches_rowwise_tarski(rng):
    sampler = flat_sampler()
    st = Structure((0, 1), {"R": [(0,)]})
    for _ in range(150):
        phi = sampler.formula(rng, rng.randint(0, 3))
        pt = random_polyteam(rng, {P: (PX, PY)}, (0, 1), max_rows=3)
        expected = all(tarski(st, s, phi) for s in pt.team(P).rows)
        assert holds(st, pt, phi) == expected


def test_locality_restriction_invariance(rng):
    extra_p, extra_q = Variable(P, "spare"), Variable(Q, "spare")
    sampler = FormulaSampler(("eq", "neq", "pdep", "pinc", "pexc", "dep_uni"))
    for _ in range(100):
        phi = sampler.formula(rng, rng.randint(0, 2))
        wide = random_polyteam(rng, {P: (PX, PY, extra_p), Q: (QU, QV, extra_q)}, (0, 1))
        free = free_variables(phi)
        narrow = polyteam_restrict(wide, {P: free.get(P, ()), Q: free.get(Q, ())})
        assert holds(ST, wide, phi) == holds(ST, narrow, phi)


def subteams_of(pt, rng, count=3):
    for _ in range(count):
        teams = []
        for sort in (P, Q):
            team = pt.team(sort)
            rows = [r for r in team.rows if rng.random() < 0.6]
            teams.append(Team(sort, team.domain, rows))
        yield Polyteam(teams)


def test_downward_closure_for_dependence_and_exclusion(rng):
    sampler = FormulaSampler(("eq", "neq", "pdep", "pexc", "dep_uni", "exc_uni"))
    for _ in range(100):
        phi = sampler.formula(rng, rng.randint(0, 2))
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        if not holds(ST, pt, phi):
            continue
        for sub in subteams_of(pt, rng):
            assert subteam_of(sub, pt)
            assert holds(ST, sub, phi)


def test_union_closure_for_inclusion(rng):
    sampler = FormulaSampler(("pinc", "inc_uni"),
                             connectives=("and", "or", "orlocal", "exists", "forall"))
    for _ in range(100):
        phi = sampler.formula(rng, rng.randint(0, 2))
        one = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        two = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        if holds(ST, one, phi) and holds(ST, two, phi):
            assert holds(ST, polyteam_union(one, two), phi)


def test_empty_polyteam_satisfies_everything(rng):
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    st = Structure((0, 1), {"R": [(0,)]})
    empty = Polyteam([Team(P, (PX, PY), ()), Team(Q, (QU, QV), ())])
    for _ in range(150):
        phi = sampler.formula(rng, rng.randint(0, 3))
        assert holds(st, empty, phi)


def test_cross_validation_against_naive_evaluator(rng):
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    structures = list(enumerate_structures({"R": 1}, (0, 1)))
    for _ in range(120):
        phi = sampler.formula(rng, rng.randint(0, 3))
        st = rng.choice(structures)
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        assert holds(st, pt, phi) == naive_eval(st, pt, phi)


def test_k_part_fallback_matches_naive_oracle():
    # disjunctions of 3 or 4 parts that split both sorts go to the k-way
    # cover fallback; the oracle nests them as parts[0] against the rest
    rng = random.Random(12)
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES), connectives=("and", "exists"))
    structures = list(enumerate_structures({"R": 1}, (0, 1)))
    ev = _Evaluator(structures[0], NO_LIMITS, None)
    for _ in range(40):
        k = rng.choice((3, 3, 4))
        parts = [AtomF(PolyInc(P, (PX,), Q, (QV,)))]
        parts += [sampler.formula(rng, rng.randint(0, 1)) for _ in range(k - 1)]
        rng.shuffle(parts)
        phi = OrGlobal(*parts) if rng.random() < 0.5 else OrLocal(frozenset((P, Q)), *parts)
        assert len(phi.parts) == k and ev.analyse(phi).split == (P, Q)
        st = rng.choice(structures)
        for _ in range(3):
            pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1),
                                 max_rows=2 if k == 3 else 1, min_rows=0)
            assert holds(st, pt, phi) == naive_eval(st, pt, phi), (phi, pt)


# ---------------------------------------------------------------------------
# Cover routing: one cover, partitions or every lax cover per split sort

def test_enumerate_covers_partitions():
    rows = [row(x=0, y=0), row(x=1, y=1), row(x=0, y=1)]
    for n in range(len(rows) + 1):
        team = team_p(rows[:n])
        ordered = team.ordered_rows()
        # two parts: a row goes left or right, in that order
        pairs = [(team_p([r for r, way in zip(ordered, routing) if way == 0]),
                  team_p([r for r, way in zip(ordered, routing) if way == 1]))
                 for routing in itertools.product((0, 1), repeat=n)]
        assert list(enumerate_covers(team, parts=2, partition=True)) == pairs
        for k in (1, 2, 3):
            partitions = list(enumerate_covers(team, parts=k, partition=True))
            assert len(partitions) == len(set(partitions)) == k ** n
            for cover in partitions:
                assert sum(map(len, cover)) == n
                assert functools.reduce(Team.union, cover) == team
            # in the order the lax covers list them
            assert partitions == [c for c in enumerate_covers(team, parts=k)
                                  if sum(map(len, c)) == n]


# parts of a disjunction over P and Q, by kind: "ignores" mentions one sort
# only, "down" is a same-sort pdep or pexc, "row" is row-wise at both sorts,
# "opaque" is a pinc into the sort of its other side
ROUTING_PARTS = {
    "ignores": ["P.x = P.y", "R(P.x)", "Q.u != Q.v", "pinc(Q.u | Q.v)", "pinc(P.x | P.y)"],
    "down": ["pdep(P.x ; P.y | P.x ; P.y)", "pexc(P.x | P.y)",
             "pdep(Q.u ; Q.v | Q.u ; Q.v)", "pexc(Q.u | Q.v)"],
    "row": ["pexc(P.y | Q.u)", "pdep(P.x ; P.y | Q.u ; Q.v)", r"P.x = P.y /\ Q.u != Q.v"],
    "opaque": ["pinc(P.x | Q.v)", "pinc(Q.u | P.y)"],
}
ROUTING_STRUCTURES = list(enumerate_structures({"R": 1}, (0, 1)))


def routing_disjunction(rng, k, split=(P, Q)):
    """A disjunction of k parts that mentions P and Q and splits the sorts
    ``split``, or, given None, P, Q or both."""
    while True:
        parts = []
        for _ in range(k):
            kind = rng.choice(sorted(ROUTING_PARTS))
            part = parse(rng.choice(ROUTING_PARTS[kind]))
            if rng.random() < 0.25:
                part = And(part, parse(rng.choice(ROUTING_PARTS["ignores"])))
            parts.append(part)
        sorts = frozenset(split or rng.choice(((P,), (Q,), (P, Q))))
        phi = OrGlobal(*parts) if len(sorts) == 2 and rng.random() < 0.5 else \
            OrLocal(sorts, *parts)
        if mentioned_sorts(phi) == {P, Q}:
            return phi


def cover_route(ev, phi, s):
    """How ``eval_or_fallback`` covers sort s of phi: one cover, partitions, or all."""
    records = [ev.facts(p) for p in phi.parts]
    levels = [r.closure(s) for r in records]
    if OPAQUE not in levels and any(s not in r.sorts for r in records):
        return "one"
    return "partitions" if levels.count(OPAQUE) <= 1 else "covers"


def test_cover_routing_matches_naive_oracle():
    rng = random.Random(23)
    ev = _Evaluator(ROUTING_STRUCTURES[0], NO_LIMITS, None)
    routes = collections.Counter()
    for _ in range(320):
        k = rng.choice((2, 2, 3, 4))
        phi = routing_disjunction(rng, k, split=None)
        split = ev.analyse(phi).split
        if len(split) == 2 or len(ev.rowwise_split(phi.parts, split[0])[1]) > 1:
            routes.update(cover_route(ev, phi, s) for s in split)
        st = rng.choice(ROUTING_STRUCTURES)
        for _ in range(4):
            pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1),
                                 max_rows=2 if k < 4 else 1, min_rows=0)
            assert holds(st, pt, phi) == naive_eval(st, pt, phi), (phi, pt)
    assert min(routes[r] for r in ("one", "partitions", "covers")) >= 30, routes


def test_parts_opaque_at_a_sort_may_need_to_share_its_rows():
    # each Q row fits one part only, and both parts need the one P row: only
    # a lax cover that gives it to both holds, so two parts opaque at P rule
    # out partitions there
    phi = parse(r"(pinc(Q.u | P.y) /\ Q.u = Q.v) \/ (pinc(Q.u | P.y) /\ Q.u != Q.v)")
    pt = Polyteam([team_p([row(x=1, y=0)]),
                   Team.from_tuples(Q, (QU, QV), [(0, 0), (0, 1)])])
    assert holds(ST, pt, phi) and naive_eval(ST, pt, phi)
    ev = _Evaluator(ST, NO_LIMITS, None)
    ev.analyse(phi)
    assert [cover_route(ev, phi, s) for s in (P, Q)] == ["covers", "partitions"]


PU, PV = Variable(P, "u"), Variable(P, "v")
DEPENDENCE_PAIR = parse(r"pdep(P.x ; P.y | P.x ; P.y) \/ pdep(P.u ; P.v | P.u ; P.v)")


def dependence_pair_instance(rows, clashes):
    """A structure and a P team of ``rows`` rows for ``DEPENDENCE_PAIR``: first
    ``clashes`` rows (0, k, 0, k), which pairwise break both parts, then rows
    of fresh values.  The pair is false from 3 clashes on."""
    tuples = [(0, k, 0, k) for k in range(clashes)]
    tuples += [(v, v, v, v) for v in range(10, 10 + rows - clashes)]
    st = Structure(sorted({v for t in tuples for v in t}))
    return st, Polyteam([Team.from_tuples(P, (PX, PY, PU, PV), tuples)])


@pytest.mark.parametrize("rows,clashes,verdict,nodes", [
    (12, 3, FALSE, 6145), (12, 2, TRUE, 1027), (14, 3, FALSE, 24577)])
def test_disjunction_of_two_dependence_atoms_tries_only_partitions(rows, clashes, verdict,
                                                                   nodes):
    # both parts are downward-closed at P, so 2^rows partitions replace the
    # 3^rows lax covers: 12 false rows took 669,223 nodes over all covers
    st, pt = dependence_pair_instance(rows, clashes)
    assert eval_formula(st, pt, DEPENDENCE_PAIR, EvalConfig()) == EvalOutcome(verdict, nodes)


@pytest.mark.parametrize("clashes", [2, 3])
def test_disjunction_of_two_dependence_atoms_matches_naive_oracle(clashes):
    st, pt = dependence_pair_instance(5, clashes)
    assert holds(st, pt, DEPENDENCE_PAIR) == naive_eval(st, pt, DEPENDENCE_PAIR) == \
        (clashes < 3)


def test_ignored_sort_above_the_split_cap_gets_a_verdict():
    # the P team goes whole to the part that ignores P, and none of it to
    # the other, downward-closed there; no P cover is enumerated, so its four
    # rows no longer trip a cap of 2, and only the Q partitions are tried
    phi = parse(r"pinc(Q.u | Q.v) \/ (pexc(P.x | P.y) /\ Q.u = Q.v)")
    config = EvalConfig(max_split_assignments=2, timeout=None)
    p_team = team_p([row(x=a, y=b) for a, b in itertools.product((0, 1), repeat=2)])
    verdicts = set()
    for q_team in enumerate_teams(Q, (QU, QV), (0, 1), 2, min_rows=0):
        pt = Polyteam([p_team, q_team])
        expected = TRUE if naive_eval(ST, pt, phi) else FALSE
        assert eval_formula(ST, pt, phi, config).verdict == expected, pt
        verdicts.add(expected)
    assert verdicts == {TRUE, FALSE}


def test_split_cap_trips_only_on_an_enumerated_team_above_it(monkeypatch):
    # every verdict under a split cap of 1 or 2 is the oracle's, and the cap
    # trips exactly where a team handed to ``enumerate_covers`` has more rows
    rng = random.Random(29)
    sizes = []

    def recorded(team, cap=None, parts=2, partition=False):
        sizes.append(len(team))
        return enumerate_covers(team, cap, parts, partition)

    monkeypatch.setattr(evaluator_module, "enumerate_covers", recorded)
    ev = _Evaluator(ROUTING_STRUCTURES[0], NO_LIMITS, None)
    trips = above_cap_answers = 0
    for _ in range(400):
        k = rng.choice((2, 2, 3))
        phi = routing_disjunction(rng, k)
        assert ev.analyse(phi).split == (P, Q)
        st, cap = rng.choice(ROUTING_STRUCTURES), rng.choice((1, 2))
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1),
                             max_rows=3 if k == 2 else 2, min_rows=0)
        sizes.clear()
        out = eval_formula(st, pt, phi, EvalConfig(max_split_assignments=cap, timeout=None))
        assert (out.limit == "split") == any(size > cap for size in sizes), (phi, pt)
        if out.verdict == EXHAUSTED:
            trips += 1
            continue
        assert out.as_bool() == naive_eval(st, pt, phi), (phi, pt)
        above_cap_answers += max(len(pt.team(P)), len(pt.team(Q))) > cap
    assert trips >= 40 and above_cap_answers >= 40, (trips, above_cap_answers)


def test_bulk_evaluator_agrees_with_eval_formula(rng):
    sampler = FormulaSampler(("eq", "pdep", "pinc"))
    bulk = BulkEvaluator(ST)
    for _ in range(50):
        phi = sampler.formula(rng, 2)
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        assert bulk.holds(pt, phi) == holds(ST, pt, phi)


def memo_rows(bulk):
    """Rows the session's verdict store holds: verdicts plus key team rows."""
    contexts = bulk._engine.contexts
    return sum(len(verdicts) for verdicts, _, _ in contexts.values()) + \
        sum(len(tuples) for key in contexts for _, tuples in key[2:])


SWEEP_ST = Structure((0, 1), {"R": [(0,)]})


def sweep_formulas(rng):
    """Twelve sampled formulas, each to be run over every small polyteam."""
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    polyteams = list(enumerate_polyteams({P: (PX, PY), Q: (QU, QV)}, (0, 1), 2))
    for _ in range(12):
        yield sampler.formula(rng, rng.randint(1, 3)), polyteams


def sweep_session(rng, cap):
    """One session over every small polyteam, in the order ``equivalent`` uses.

    Gives the session's nodes, the nodes fresh evaluations take, the largest
    count of rows its verdict store held, and whether it ever emptied.
    """
    bulk = BulkEvaluator(SWEEP_ST, EvalConfig(max_expanded_team_rows=cap, timeout=None))
    fresh_nodes, most, emptied = 0, 0, False
    for phi, polyteams in sweep_formulas(rng):
        for pt in polyteams:
            before = len(bulk._engine.contexts)
            assert bulk.holds(pt, phi) == naive_eval(SWEEP_ST, pt, phi), (phi, pt)
            emptied |= len(bulk._engine.contexts) < before
            most = max(most, memo_rows(bulk))
            fresh_nodes += eval_formula(SWEEP_ST, pt, phi, NO_LIMITS).nodes_visited
    return bulk._engine.nodes, fresh_nodes, most, emptied


def test_session_row_verdicts_agree_with_naive_oracle(rng):
    nodes, fresh_nodes, most, _ = sweep_session(rng, EvalConfig().max_expanded_team_rows)
    assert most > 0 and nodes < fresh_nodes


def test_session_row_verdicts_stay_within_the_row_cap():
    # 16 rows still admit every expansion of a depth-3 formula over 2-row teams
    cap = 16
    nodes, fresh_nodes, most, emptied = sweep_session(random.Random(5), cap)
    assert 0 < most <= cap and emptied and nodes < fresh_nodes


def test_single_evaluations_agree_with_naive_oracle_as_their_store_empties(monkeypatch):
    # at 16 rows the store of one evaluation empties while an outer row loop
    # is still open, writing verdicts into a dict the store no longer holds
    config = EvalConfig(max_expanded_team_rows=16, timeout=None)
    open_loops, clears = [0], []
    init, row_loop = _Evaluator.__init__, _Evaluator.row_loop

    class Store(dict):
        def clear(self):
            clears.append(open_loops[0])
            super().clear()

    def tracked_init(self, *args):
        init(self, *args)
        self.contexts = Store()

    def tracked_loop(self, *args):
        open_loops[0] += 1
        try:
            return row_loop(self, *args)
        finally:
            open_loops[0] -= 1

    monkeypatch.setattr(_Evaluator, "__init__", tracked_init)
    monkeypatch.setattr(_Evaluator, "row_loop", tracked_loop)
    for phi, polyteams in sweep_formulas(random.Random(3)):
        for pt in polyteams:
            expected = naive_eval(SWEEP_ST, pt, phi)
            assert eval_formula(SWEEP_ST, pt, phi, config).as_bool() == expected, (phi, pt)
    assert clears and max(clears) > 1


PW, PZ = Variable(P, "w"), Variable(P, "z")


@pytest.mark.parametrize("phi", [
    OrLocal(frozenset((P,)), Rel("R", (PX,)), Neq(PX, PX)),
    Exists(PZ, And(Eq(PZ, PX), Rel("R", (PZ,)))),
])
def test_session_row_verdicts_are_kept_per_team_domain(phi):
    # the same row tuple reads x = 0 on domain (x, y) and x = 1 on (w, x)
    bulk = BulkEvaluator(Structure((0, 1), {"R": [(0,)]}))
    xy = Polyteam([Team.from_tuples(P, (PX, PY), [(0, 1)])])
    wx = Polyteam([Team.from_tuples(P, (PW, PX), [(0, 1)])])
    assert bulk.holds(xy, phi) and not bulk.holds(wx, phi) and bulk.holds(xy, phi)


ST_R = Structure((0, 1), {"R": [(0,)]})
# the probe of each row loop reads the Q team, so it flips between contexts
PROBE_FLIPS = {
    "split": r"(P.x = P.y /\ Q.u = Q.v) \/_{P} R(P.x)",
    "exists": r"E P.z . (P.z = P.x /\ Q.u = Q.v)",
    "nested": r"E P.z . ((P.z = P.x /\ Q.u = Q.v) \/_{P} R(P.z))",
}


@pytest.mark.parametrize("case", sorted(PROBE_FLIPS))
def test_session_probe_verdicts_agree_with_naive_oracle(case):
    phi = parse(PROBE_FLIPS[case])
    bulk = BulkEvaluator(ST_R)
    for pt in enumerate_polyteams({P: (PX, PY), Q: (QU, QV)}, (0, 1), 2, min_rows=0):
        assert bulk.holds(pt, phi) == naive_eval(ST_R, pt, phi), pt
    probes = {verdicts[PROBE] for verdicts, _, _ in bulk._engine.contexts.values()}
    assert probes == {False, True}


def two_row_p_one_row_q():
    return Polyteam([Team.from_tuples(P, (PX, PY), [(0, 0), (1, 1)]),
                     Team.from_tuples(Q, (QU, QV), [(0, 0)])])


@pytest.mark.parametrize("case", ["split", "exists"])
def test_session_repeat_visits_one_node(case):
    # the first call stores the probe and each row; the second finds them all
    phi, pt = parse(PROBE_FLIPS[case]), two_row_p_one_row_q()
    bulk = BulkEvaluator(ST_R)
    assert bulk.holds(pt, phi)
    before = bulk._engine.nodes
    assert bulk.holds(pt, phi)
    assert bulk._engine.nodes - before == 1


def test_session_context_without_room_for_its_probe_is_not_kept():
    phi, pt = parse(PROBE_FLIPS["split"]), two_row_p_one_row_q()
    # 1 Q row in the key and 2 P rows: the probe's slot is one too many
    bulk = BulkEvaluator(ST_R, EvalConfig(max_expanded_team_rows=3, timeout=None))
    bulk._engine.analyse(phi)
    verdicts = bulk._engine.row_verdicts(phi, P, pt)
    assert verdicts == {} and not bulk._engine.contexts
    assert bulk.holds(pt, phi) == naive_eval(ST_R, pt, phi)
    assert not bulk._engine.contexts
    roomy = BulkEvaluator(ST_R, EvalConfig(max_expanded_team_rows=4, timeout=None))
    assert roomy.holds(pt, phi) == naive_eval(ST_R, pt, phi)
    assert memo_rows(roomy) == 4


@pytest.mark.parametrize("pair,nodes", [("e2", 395), ("elim-or", 1199)])
def test_sweep_shaped_session_work_is_pinned(pair, nodes):
    # one session over an equivalence sweep, as ``oracle equiv
    # --use-evaluator`` runs it; the count moves only if the session's work
    # does.  Neither side names a relation, so the sweep has one structure.
    # The e2 right side is a ∀ over a row-wise body: the session keeps its
    # row verdicts, and each row meets only the values that can refute it
    left, right = (parse(text) for text in EQUIV_PAIRS[pair])
    sessions = []

    def evaluate(structure, pt, phi):
        if not sessions:
            sessions.append(BulkEvaluator(structure))
        return sessions[0].holds(pt, phi)

    assert equivalent(left, right, values=(0, 1), max_rows=2, evaluate=evaluate)[0]
    assert sessions[0]._engine.nodes == nodes


def test_literal_reads_its_team_relation_on_each_domain():
    ev = _Evaluator(Structure((0, 1), {"R": [(1,)]}), NO_LIMITS, None)
    eq, rel = analysed(ev, Eq(PX, PY)), analysed(ev, Rel("R", (PY,)))
    narrow = Polyteam([Team.from_tuples(P, (PX, PY), [(1, 1)])])
    wide = Polyteam([Team.from_tuples(P, (PW, PX, PY), [(0, 1, 1)])])
    wide_false = Polyteam([Team.from_tuples(P, (PW, PX, PY), [(1, 1, 0)])])
    for _ in range(2):
        assert ev.eval(eq, narrow) and ev.eval(rel, narrow)
        assert ev.eval(eq, wide) and ev.eval(rel, wide)
        assert not ev.eval(eq, wide_false) and not ev.eval(rel, wide_false)


@pytest.mark.parametrize("left,right", [
    (Rel("R", (PX,)), Rel("R", (PX,))),
    (OrLocal(frozenset((P,)), Rel("R", (PX,)), NegRel("R", (PX,))), Truth()),
    (Rel("R", (PX,)), Exists(PY, And(Rel("R", (PY,)), Eq(PX, PY)))),
    (AtomF(PolyInc(P, (PX,), Q, (QU,))), Forall(QV, NegRel("R", (QU,)))),
])
def test_evaluator_backed_equivalence_agrees_with_naive(left, right):
    naive = equivalent(left, right)
    backed = equivalent(left, right, evaluate=evaluator_backed())
    assert naive[0] == backed[0]
    if naive[1] is not None:
        assert naive[1][0].relations == backed[1][0].relations
        assert naive[1][1:] == backed[1][1:]


def imported_modules(tree, package):
    """Every module name an import in ``tree`` may bind, made absolute.

    ``from A import b`` yields A and A.b, since b may be a submodule; a
    relative import resolves against ``package``, the importing module's
    package.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) + 1 - node.level] + ([base] if base else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_oracle_imports_neither_the_evaluator_nor_the_atom_checkers():
    banned = ("polyteam.evaluator", "polyteam.atoms")
    modules = sorted(Path(oracle.__file__).parent.glob("*.py"))
    assert len(modules) >= 4
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in imported_modules(tree, "polyteam.oracle"):
            assert not any(name == b or name.startswith(b + ".") for b in banned), \
                (path.name, name)


def test_no_module_imports_a_name_it_never_uses():
    # a package's __init__ imports names to export them
    package = Path(evaluator_module.__file__).parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bound = {(alias.asname or alias.name).partition(".")[0]
                 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bound <= used, (path.relative_to(package), sorted(bound - used))


# ---------------------------------------------------------------------------
# Inclusion guards on the row-wise ∃ branch

VALUES3 = (0, 1, 2)
ST3 = Structure(VALUES3)

GUARD_CASES = {
    # x twice in x̄: only tuples with equal values at both positions count
    "repeated": (r"E P.x . pinc(P.x, P.x | Q.u, Q.v)", 1),
    # P.y is in the team but rebound by the chain: its row value says nothing
    "bound-later": (r"E P.x . E P.y . pinc(P.y, P.x | Q.u, Q.v)", 0),
    # the chain stops at the inner ∃P.x, so the outer one has no guard
    "shadowing": (r"E P.x . E P.x . pinc(P.y, P.x | Q.u, Q.v)", 0),
    "two-guards": (r"E P.x . (pinc(P.y, P.x | Q.v, Q.u) /\ pinc(P.x | Q.v))", 2),
    "rowwise-disjunct": (r"E P.x . (pinc(P.y, P.x | Q.u, Q.v) /\ "
                         r"(P.x = P.y \/ R(P.x)))", 1),
}


def analysed(ev, formula):
    """The formula, parsed from text if need be, once ev's analysis pass gave
    each of its nodes a record."""
    phi = parse(formula) if isinstance(formula, str) else formula
    ev.analyse(phi)
    return phi


def agree_with_naive(phi, structures=(ST3,), p_rows=2, q_rows=2, values=VALUES3):
    """Evaluator and naive oracle agree on all small P(y), Q(u, v) polyteams."""
    p_teams = list(enumerate_teams(P, (PY,), values, p_rows, min_rows=0))
    q_teams = list(enumerate_teams(Q, (QU, QV), values, q_rows, min_rows=0))
    for st in structures:
        for p_team, q_team in itertools.product(p_teams, q_teams):
            pt = Polyteam([p_team, q_team])
            assert holds(st, pt, phi) == naive_eval(st, pt, phi), (st, pt)


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_inclusion_guard_side_conditions(case):
    text, count = GUARD_CASES[case]
    ev = _Evaluator(REL_STRUCTURES[1], NO_LIMITS, None)
    phi = analysed(ev, text)
    assert ev.facts(phi).guards is None
    assert ev.guards(phi) is ev.facts(phi).guards and len(ev.facts(phi).guards) == count


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_inclusion_guard_matches_naive_oracle(case):
    phi = parse(GUARD_CASES[case][0])
    if case == "rowwise-disjunct":
        structures = [Structure(VALUES3, {"R": rel}) for rel in ([], [(1,)], [(0,), (2,)])]
        agree_with_naive(phi, structures)
    elif case in ("bound-later", "shadowing"):
        # a nested chain multiplies the naive search; one P row is enough
        # since the row-wise branch decides each row on its own
        agree_with_naive(phi, p_rows=1)
    else:
        agree_with_naive(phi)


def test_guard_witnesses_are_the_join_values():
    ev = _Evaluator(ST3, NO_LIMITS, None)
    p_team = Team(P, (PY,), [Assignment({PY: 0}), Assignment({PY: 1})])
    q_team = Team(Q, (QU, QV), [row(u=0, v=0), row(u=1, v=2), row(u=2, v=1),
                                row(u=0, v=1)])
    pt = Polyteam([p_team, q_team])

    def guarded(text):
        return ev.picker(analysed(ev, text), pt, p_team.domain)

    def picks(text):
        witnesses = guarded(text)
        return [list(witnesses(r)) for r in p_team.ordered_tuples()]

    # repeated x keeps only the diagonal tuple (0, 0)
    assert picks(r"E P.x . pinc(P.x, P.x | Q.u, Q.v)") == [[0], [0]]
    # keyed on P.y: y=0 joins u=0 (v in {0, 1}), y=1 joins u=1 (v=2)
    assert picks(r"E P.x . pinc(P.y, P.x | Q.u, Q.v)") == [[0, 1], [2]]
    # two guards intersect: the second reads x from u and keys y on v,
    # so y=0 allows u in {0} and y=1 allows u in {0, 2}
    assert picks(r"E P.x . (pinc(P.y, P.x | Q.u, Q.v) /\ pinc(P.x, P.y | Q.u, Q.v))") == \
        [[0], [2]]
    assert guarded(r"E P.x . E P.y . pinc(P.y, P.x | Q.u, Q.v)") is None


def test_inclusion_guard_with_empty_target_team():
    phi = parse(r"E P.x . pinc(P.y, P.x | Q.u, Q.v)")
    q_empty = Team(Q, (QU, QV), ())
    one_row = Polyteam([Team(P, (PY,), [Assignment({PY: 0})]), q_empty])
    no_rows = Polyteam([Team(P, (PY,), ()), q_empty])
    assert not holds(ST3, one_row, phi)
    assert holds(ST3, no_rows, phi)
    for pt in (one_row, no_rows):
        assert holds(ST3, pt, phi) == naive_eval(ST3, pt, phi)


def test_guarded_exists_cross_validation(rng):
    sampler = FormulaSampler(("eq", "neq", "rel", "pdep", "pinc", "pexc"))
    leaf = FormulaSampler.LEAVES["pinc"]
    structures = list(enumerate_structures({"R": 1}, (0, 1)))
    for _ in range(150):
        rest = sampler.formula(rng, rng.randint(0, 2))
        body = And(leaf(), rest) if rng.random() < 0.5 else And(rest, leaf())
        if rng.random() < 0.3:
            body = Exists(PY, body)
        phi = Exists(PX, body)
        st = rng.choice(structures)
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        assert holds(st, pt, phi) == naive_eval(st, pt, phi)


# ---------------------------------------------------------------------------
# Relation guards: a top-level R(x̄) of the ∃ body also narrows the witnesses

# R is unary and R2 binary in every structure below
REL_GUARD_CASES = {
    "plain": (r"E P.x . R(P.x)", 1),
    # keyed on P.y, which the row fixes
    "keyed": (r"E P.x . R2(P.y, P.x)", 1),
    # x twice in x̄: only tuples with equal values at both positions count
    "repeated": (r"E P.x . R2(P.x, P.x)", 1),
    # P.y is rebound by the chain: its row value says nothing
    "bound-later": (r"E P.x . E P.y . R2(P.y, P.x)", 0),
    "in-disjunction": (r"E P.x . (P.x = P.y \/ R(P.x))", 0),
    "beside-pinc": (r"E P.x . (R2(P.y, P.x) /\ pinc(P.x | Q.u))", 2),
    # a unary R read as binary fails on every nonempty team, as does a
    # binary R2 read as unary
    "arity-mismatch": (r"E P.x . R(P.y, P.x)", 1),
    "arity-mismatch-wide": (r"E P.x . R2(P.x)", 1),
}
REL_STRUCTURES = [Structure(VALUES3, {"R": r, "R2": r2}) for r, r2 in [
    ([], []),
    ([(0,), (2,)], [(0, 1), (0, 2), (1, 0), (2, 2)]),
    ([(1,)], [(0, 0), (1, 2), (2, 1)]),
]]


@pytest.mark.parametrize("case", sorted(REL_GUARD_CASES))
def test_relation_guard_side_conditions(case):
    text, count = REL_GUARD_CASES[case]
    ev = _Evaluator(REL_STRUCTURES[1], NO_LIMITS, None)
    phi = analysed(ev, text)
    assert ev.guards(phi) is ev.facts(phi).guards and len(ev.facts(phi).guards) == count


@pytest.mark.parametrize("case", sorted(REL_GUARD_CASES))
def test_relation_guard_matches_naive_oracle(case):
    phi = parse(REL_GUARD_CASES[case][0])
    # a nested chain multiplies the naive search; one P row is enough
    agree_with_naive(phi, REL_STRUCTURES, p_rows=1 if case == "bound-later" else 2)


def test_relation_guard_with_arity_mismatch_holds_only_on_the_empty_team():
    phi = parse(REL_GUARD_CASES["arity-mismatch"][0])
    q_team = Team(Q, (QU, QV), [row(u=0, v=0)])
    for st in REL_STRUCTURES:
        for p_rows in ([], [Assignment({PY: 0})], [Assignment({PY: 1})]):
            pt = Polyteam([Team(P, (PY,), p_rows), q_team])
            assert holds(st, pt, phi) == (not p_rows) == naive_eval(st, pt, phi)


def test_relation_guard_witnesses_are_the_join_values():
    ev = _Evaluator(REL_STRUCTURES[1], NO_LIMITS, None)
    p_team = Team(P, (PY,), [Assignment({PY: 0}), Assignment({PY: 1})])
    q_team = Team(Q, (QU, QV), [row(u=0, v=2), row(u=1, v=2)])
    pt = Polyteam([p_team, q_team])

    def picks(text):
        witnesses = ev.picker(analysed(ev, text), pt, p_team.domain)
        return [list(witnesses(r)) for r in p_team.ordered_tuples()]

    assert picks(r"E P.x . R(P.x)") == [[0, 2], [0, 2]]
    # y=0 joins (0, 1) and (0, 2); y=1 joins (1, 0)
    assert picks(r"E P.x . R2(P.y, P.x)") == [[1, 2], [0]]
    assert picks(r"E P.x . R2(P.x, P.x)") == [[2], [2]]
    # the pinc guard allows u in {0, 1}: the candidate sets intersect
    assert picks(r"E P.x . (R2(P.y, P.x) /\ pinc(P.x | Q.u))") == [[1], [0]]
    assert picks(r"E P.x . R(P.y, P.x)") == [[], []]
    unguarded = analysed(ev, r"E P.x . E P.y . R2(P.y, P.x)")
    assert ev.picker(unguarded, pt, p_team.domain) is None


def test_relation_guard_index_is_kept_per_position_of_x():
    # one literal node guards ∃x at its second position and ∃y at its first
    ev = _Evaluator(REL_STRUCTURES[1], NO_LIMITS, None)
    r2 = Rel("R2", (PY, PX))
    team = Team.from_tuples(P, (PX, PY), [(0, 0), (1, 1)])
    pt = Polyteam([team])
    rows = team.ordered_tuples()
    by_x = ev.picker(analysed(ev, Exists(PX, r2)), pt, team.domain)
    by_y = ev.picker(analysed(ev, Exists(PY, r2)), pt, team.domain)
    assert [list(by_x(r)) for r in rows] == [[1, 2], [0]]
    assert [list(by_y(r)) for r in rows] == [[1], [0]]


@pytest.fixture
def join_builds(monkeypatch):
    """The relation of each index ``join_index`` builds, in order."""
    built = []
    join_index = _Evaluator.join_index

    def counting(self, tuples, at_x, at_keys):
        built.append(tuples)
        return join_index(self, tuples, at_x, at_keys)

    monkeypatch.setattr(_Evaluator, "join_index", counting)
    return built


def test_relation_guard_index_is_built_once_per_session(join_builds):
    st = Structure(VALUES3, {"R2": [(0, 1), (2, 2)]})
    phi = parse(r"E P.x . R2(P.y, P.x)")
    # the first call builds the index of R2^M before it tries the witness;
    # the second finds it kept, and its row joins nothing, so it tries no
    # witness; a new evaluator builds it again
    seen, unseen = (Polyteam([Team(P, (PY,), [Assignment({PY: y})])]) for y in (0, 1))
    bulk = BulkEvaluator(st)
    assert bulk.holds(seen, phi) and join_builds == [st.relation("R2")]
    del join_builds[:]
    assert not bulk.holds(unseen, phi) and join_builds == []
    assert not holds(st, unseen, phi) and join_builds == [st.relation("R2")]


# ---------------------------------------------------------------------------
# Row lookups: cross-sort pinc/pexc parts of a P-split disjunction decided by
# set membership, beside parts that still go to a one-row slice

ROW_LOOKUP_CASES = {
    "lookups-and-slice": r"pinc(P.x | Q.u) \/_{P} pexc(P.y | Q.u) \/_{P} P.x = P.y",
    "reversed-pexc": r"pexc(Q.u | P.x) \/_{P} P.x = P.y \/_{P} pinc(P.y, P.x | Q.u, Q.v)",
    "same-sort-blocker": r"pexc(Q.u | P.x) \/_{P} pinc(P.x | Q.v) \/_{P} pexc(P.x | P.y)",
    "forall": r"A P.z . (pinc(P.z | Q.u) \/_{P} pexc(Q.u | P.x) \/_{P} P.z = P.y)",
    "forall-blocker": r"A P.z . (pexc(P.z, P.x | Q.u, Q.v) \/_{P} pexc(P.y | P.z))",
    "forall-all-lookups": r"A P.z . (pexc(P.y | Q.u) \/_{P} pinc(P.z | Q.v))",
}


@pytest.mark.parametrize("case", sorted(ROW_LOOKUP_CASES))
def test_row_lookups_agree_with_naive_oracle(case):
    phi = parse(ROW_LOOKUP_CASES[case])
    bulk = BulkEvaluator(ST)
    answers = set()
    for pt in enumerate_polyteams({P: (PX, PY), Q: (QU, QV)}, (0, 1), 2, min_rows=0):
        expected = naive_eval(ST, pt, phi)
        assert holds(ST, pt, phi) == expected, pt
        assert bulk.holds(pt, phi) == expected, pt
        answers.add(expected)
    assert answers == {False, True}


def test_row_lookups_visit_one_node_per_test():
    # the disjunction and its probe of both parts on the empty P team, then
    # per row its row test and each part's lookup it tries: x = 2 is not in
    # rel(Q, u), so that row also looks up y
    phi = parse(r"pinc(P.x | Q.u) \/_{P} pexc(P.y | Q.u)")
    q_team = Team(Q, (QU, QV), [row(u=0, v=0), row(u=1, v=0)])
    for rows, nodes in (([(0, 2)], 3 + 2), ([(0, 2), (1, 2), (2, 2)], 3 + 2 + 2 + 3)):
        pt = Polyteam([Team.from_tuples(P, (PX, PY), rows), q_team])
        outcome = eval_formula(ST3, pt, phi, NO_LIMITS)
        assert (outcome.verdict, outcome.nodes_visited) == (TRUE, nodes)


def test_relation_guards_and_row_lookups_cross_validation():
    rng = random.Random(14)
    sampler = FormulaSampler(("eq", "neq", "rel", "pdep", "pinc", "pexc", "exc_uni"))
    conjuncts = (Rel("R2", (PY, PX)), Rel("R", (PX, PY)),
                 AtomF(PolyExc(Q, (QU,), P, (PX,))))
    lookups = (AtomF(PolyExc(Q, (QU,), P, (PX,))), AtomF(PolyInc(P, (PX,), Q, (QU,))),
               AtomF(PolyExc(P, (PY,), Q, (QV,))))
    at_p = frozenset((P,))
    structures = [Structure((0, 1), {"R": r, "R2": r2}) for r, r2 in [
        ([], []), ([(0,)], [(0, 1), (1, 1)]), ([(0,), (1,)], []), ([], [(1, 0)])]]
    sessions = {st: BulkEvaluator(st) for st in structures}
    for _ in range(300):
        rest = sampler.formula(rng, rng.randint(0, 2))
        extra = rng.choice(conjuncts)
        body = And(extra, rest) if rng.random() < 0.5 else And(rest, extra)
        wrap = rng.randrange(3)
        if wrap == 0:
            phi = Exists(PX, body)
        else:
            other = rng.choice(lookups + (sampler.formula(rng, 1),))
            parts = (body, other) if rng.random() < 0.5 else (other, body)
            phi = OrLocal(at_p, *parts)
            if wrap == 1:
                phi = Forall(PX, phi)
        st = rng.choice(structures)
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        expected = naive_eval(st, pt, phi)
        assert holds(st, pt, phi) == expected, (phi, st, pt)
        assert sessions[st].holds(pt, phi) == expected, (phi, st, pt)


# ---------------------------------------------------------------------------
# Compiled row tests: a row-wise node decided on row tuples, with a one-row
# slice only where no rule applies

FEW = GeneralizedQuantifier("few", (1,), lambda domain, relations: len(relations[0]) < 2)


def pind_p(var):
    """Row-wise at P, with no rule of its own, so decided on the slice."""
    return parse(f"pind((:P),(:Q)/(:Q) ; ({var})/(Q.u) ; (Q.v)/(Q.v))")


def compiled_shapes(f):
    """Row-wise shapes around a part f that is row-wise at P.

    An ∃ or ∀ over w appends a column that sorts first in the slice's domain.
    """
    at_p = frozenset((P,))
    few = parse(r"atom few((Q.u))", AtomRegistry([FEW]))
    return {
        # the quantifiers rebind x and y, which every P team has
        "rebind-exists": Exists(PX, And(f, Neq(PX, PY))),
        "rebind-forall": Forall(PY, OrLocal(at_p, f, Eq(PX, PY))),
        "new-column": Exists(PW, And(Eq(PW, PX), OrLocal(at_p, f, Neq(PW, PY)))),
        "slice-parts": OrLocal(at_p, f, pind_p("P.x"), few),
        "slice-in-exists": Exists(PW, OrLocal(at_p, And(Eq(PW, PY), f), pind_p("P.w"))),
        # rows whose x is no u of the Q team have no refuter
        "no-refuter": Forall(PW, OrLocal(at_p, f, AtomF(PolyExc(P, (PX, PW), Q, (QU, QV))))),
    }


def test_compiled_row_tests_agree_with_naive_oracle():
    rng = random.Random(21)
    registry = AtomRegistry([FEW])
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    structures = list(enumerate_structures({"R": 1}, (0, 1)))
    ev = _Evaluator(structures[0], NO_LIMITS, registry)
    polyteams = list(enumerate_polyteams({P: (PX, PY), Q: (QU, QV)}, (0, 1), 2, min_rows=0))
    answers, compiled = {}, set()
    for _ in range(8):
        f = sampler.formula(rng, rng.randint(0, 2))
        while ev.analyse(f).closure(P) != ROWWISE:
            f = sampler.formula(rng, rng.randint(0, 2))
        for shape, phi in compiled_shapes(f).items():
            assert ev.analyse(phi).closure(P) == ROWWISE, (shape, phi)
            st = rng.choice(structures)
            session = BulkEvaluator(st, registry=registry)
            for pt in rng.sample(polyteams, 30):
                expected = naive_eval(st, pt, phi, registry)
                assert holds(st, pt, phi, registry=registry) == expected, (shape, phi, pt)
                assert session.holds(pt, phi) == expected, (shape, phi, pt)
                answers.setdefault(shape, set()).add(expected)
            if any(r.compiled for r in session._engine.records.values()):
                compiled.add(shape)
    assert all(seen == {False, True} for seen in answers.values()), answers
    assert compiled == set(answers)


def chain_text(quantifier, k):
    return "".join(f"{quantifier} P.z{i} . " for i in range(k)) + "P.x = P.y"


def test_failing_chains_stop_at_a_cap_never_false():
    # every row of the ∃ chain fails only after 2^30 tries, each a compiled
    # row test that counts a node, so the timeout trips inside the chain; the
    # ∀ chain is expanded level by level, until the expansion cap trips
    pt = Polyteam([team_p([row(x=0, y=1), row(x=1, y=0)])])
    config = EvalConfig(timeout=0.3)
    out = eval_formula(ST, pt, parse(chain_text("E", 30)), config)
    assert (out.verdict, out.limit) == (EXHAUSTED, "timeout")
    out = eval_formula(ST, pt, parse(chain_text("A", 30)), config)
    assert (out.verdict, out.limit) == (EXHAUSTED, "expansion") and out.nodes_visited <= 16


# ---------------------------------------------------------------------------
# Exclusion guards on the row-wise ∀ branch: only the values that can refute
# a row are tried

EXC_GUARD_CASES = {
    "pexc": (r"A P.z . pexc(P.z, P.y | Q.u, Q.v)", 1),
    "reversed": (r"A P.z . pexc(Q.v, Q.u | P.y, P.z)", 1),
    # x twice in x̄: only tuples with equal values at both positions block
    "repeated": (r"A P.z . pexc(P.z, P.z | Q.u, Q.v)", 1),
    "two-parts": (r"A P.z . (pexc(P.x, P.z | Q.u, Q.v) \/_{P} !R(P.y, P.z))", 2),
    "beside-slice-part": (r"A P.z . (P.z = P.y \/_{P} pexc(P.z | Q.u))", 1),
    "global-at-p-only": (r"A P.z . (P.z = P.y \/ !R(P.z))", 1),
    # the global disjunction splits Q too, so no part is a guard
    "global-splits-q": (r"A P.z . (pexc(P.z | Q.u) \/ !R(P.z))", 0),
    "split-at-q": (r"A P.z . (pexc(P.z | Q.u) \/_{Q} Q.u = Q.v)", 0),
    "conjunct": (r"A P.z . (pexc(P.z | Q.u) /\ P.z = P.y)", 0),
    "same-sort": (r"A P.z . pexc(P.z | P.y)", 0),
    "without-x": (r"A P.z . (pexc(P.y | Q.u) \/_{P} P.z = P.y)", 0),
    "in-conjunct": (r"A P.z . (P.z = P.y \/_{P} (pexc(P.z | Q.u) /\ P.z = P.x))", 0),
}


@pytest.mark.parametrize("case", sorted(EXC_GUARD_CASES))
def test_exclusion_guard_side_conditions(case):
    text, count = EXC_GUARD_CASES[case]
    ev = _Evaluator(REL_STRUCTURES[1], NO_LIMITS, None)
    phi = analysed(ev, text)
    assert ev.facts(phi).guards is None
    assert ev.guards(phi) is ev.facts(phi).guards and len(ev.facts(phi).guards) == count


def test_refuters_are_the_join_values():
    ev = _Evaluator(REL_STRUCTURES[1], NO_LIMITS, None)
    p_team = Team.from_tuples(P, (PX, PY), [(0, 0), (1, 2)])
    q_team = Team(Q, (QU, QV), [row(u=0, v=0), row(u=1, v=2), row(u=2, v=1),
                                row(u=0, v=1)])
    pt = Polyteam([p_team, q_team])

    def picks(text):
        refuters = ev.picker(analysed(ev, text), pt, p_team.domain)
        return [sorted(refuters(r)) for r in p_team.ordered_tuples()]

    # keyed on P.y: y=0 meets u=0 (v in {0, 1}), y=2 meets u=2 (v=1)
    assert picks(r"A P.z . pexc(P.y, P.z | Q.u, Q.v)") == [[0, 1], [1]]
    assert picks(r"A P.z . pexc(Q.v, Q.u | P.z, P.y)") == [[0, 1], [1]]
    # repeated z keeps only the diagonal tuple (0, 0)
    assert picks(r"A P.z . pexc(P.z, P.z | Q.u, Q.v)") == [[0], [0]]
    # R2 holds (0, 1), (0, 2), (1, 0), (2, 2): y=0 meets z in {1, 2}, y=2 meets z=2
    assert picks(r"A P.z . (P.z = P.x \/_{P} !R2(P.y, P.z))") == [[1, 2], [2]]
    # two guards intersect: a value refutes a row only if both parts fail there
    assert picks(r"A P.z . (pexc(P.y, P.z | Q.u, Q.v) \/_{P} !R2(P.y, P.z))") == \
        [[1], []]
    # !R read at the wrong arity holds on every row: nothing refutes it
    assert picks(r"A P.z . !R(P.y, P.z)") == [[], []]
    unguarded = analysed(ev, r"A P.z . (P.z = P.y \/_{P} P.z = P.x)")
    assert ev.picker(unguarded, pt, p_team.domain) is None


# two or three parts of a ∀ body over P, with {z} the bound variable; R is
# unary in some structures and binary in others, S names no relation
FORALL_GUARDS = (r"pexc({z}, P.y | Q.u, Q.v)", r"pexc(Q.v, Q.u | P.y, {z})",
                 r"pexc({z}, {z} | Q.u, Q.v)", r"pexc({z} | Q.v)", r"!R({z})",
                 r"!R(P.y, {z})", r"!R({z}, {z})")
FORALL_OTHERS = (r"{z} = P.y", r"{z} != P.x", r"R({z})", r"pinc({z} | Q.u)",
                 r"pexc(P.y | Q.v)", r"pdep(P.y ; {z} | Q.u ; Q.v)", r"!S({z})")
# not row-wise at P
FORALL_OPAQUE = (r"pexc({z} | P.y)", r"pinc(Q.u | {z})", r"pdep(:P ; {z} | :P ; {z})")
FORALL_STRUCTURES = [Structure((0, 1), {"R": r}) for r in (
    [], [(1,)], [(0,), (1,)], [(0, 1)], [(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1)])] + \
    [Structure((0, 1))]


def forall_formula(rng):
    """∀ over one or two parts, joined by a split of P only or of P and Q,
    or by a conjunction; the naive oracle's covers keep it at two."""
    z = rng.choice(("P.z", "P.x"))
    pools = rng.choices((FORALL_GUARDS, FORALL_OTHERS, FORALL_OPAQUE), (10, 7, 3),
                        k=rng.randint(1, 2))
    parts = [rng.choice(pool).format(z=z) for pool in pools]
    join, = rng.choices((r" \/_{P} ", r" \/ ", r" /\ ", r" \/_{P, Q} "), (5, 3, 2, 1))
    return parse(f"A {z} . (" + join.join(parts) + ")")


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except SortedDomainError as error:
        return type(error)


def test_forall_row_loop_matches_naive_oracle():
    # a formula naming a relation the structure lacks is rejected before
    # evaluation, whichever parts the evaluation would read; the naive oracle
    # raises only if it reads the literal
    rng = random.Random(20)
    polyteams = list(enumerate_polyteams({P: (PX, PY), Q: (QU, QV)}, (0, 1), 2, min_rows=0))
    sessions = {st: BulkEvaluator(st) for st in FORALL_STRUCTURES}
    seen, checks = set(), 0
    for _ in range(48):
        phi = forall_formula(rng)
        st = rng.choice(FORALL_STRUCTURES)
        names = {node.name for node in walk(phi) if isinstance(node, (Rel, NegRel))}
        for pt in polyteams:
            expected = outcome(naive_eval, st, pt, phi)
            if not names <= set(st.relations):
                expected = SortedDomainError
            assert outcome(holds, st, pt, phi) == expected, (phi, st, pt)
            assert outcome(sessions[st].holds, pt, phi) == expected, (phi, st, pt)
            seen.add(expected)
            checks += 1
    assert seen == {False, True, SortedDomainError} and checks > 5000


def test_forall_work_does_not_grow_with_unrelated_values():
    # φ1's ∀ with a part in front that a one-row slice decides, so each row
    # the body meets costs a node: the tests of d and the results of p each
    # block some x, and only an x that both block, other than the exempt
    # test e, refutes the row
    phi = parse(r"A C.x . (C.x = C.e \/_{C} "
                r"pexc(C.d, C.x | T.d, T.t) \/_{C} pexc(C.p, C.x | R.p, R.t))")
    cv = [Variable("C", n) for n in ("d", "p", "e")]
    tv, rv = [Variable("T", n) for n in ("d", "t")], [Variable("R", n) for n in ("p", "t")]
    base = Polyteam([
        Team.from_tuples("C", cv, [("d1", "p1", "t2"), ("d2", "p2", "t3")]),
        Team.from_tuples("T", tv, [("d1", "t1"), ("d1", "t2"), ("d2", "t3")]),
        Team.from_tuples("R", rv, [("p1", "t2"), ("p2", "t3")])])
    refuted = base.with_team(Team.from_tuples("R", rv, [("p1", "t1"), ("p1", "t2"),
                                                       ("p2", "t3")]))
    values = ("d1", "d2", "p1", "p2", "t1", "t2", "t3")
    for pt, verdict in ((base, TRUE), (refuted, FALSE)):
        counts = set()
        for extra in (0, 5, 50):
            st = Structure(values + tuple(f"v{k}" for k in range(extra)))
            got = eval_formula(st, pt, phi, NO_LIMITS)
            assert got.verdict == verdict
            counts.add(got.nodes_visited)
        assert len(counts) == 1, counts


def guard_slots(bulk):
    return sum(len(r.joins) for r in bulk._engine.records.values())


def test_sweep_session_keeps_no_index_for_pinc_or_pexc_guards():
    # the e2 right side's ∀ guard, an ∃ guard, and one atom node guarding a
    # ∀ at each position of its P side; each joins a team's relation, so no
    # record keeps its index
    exc = AtomF(PolyExc(P, (PX, PY), Q, (QU, QV)))
    formulas = [parse(EQUIV_PAIRS["e2"][1]),
                parse(r"E P.z . (pinc(P.y, P.z | Q.u, Q.v) /\ P.z != P.x)"),
                And(Forall(PX, OrLocal(frozenset((P,)), exc, Eq(PX, PY))),
                    Forall(PY, OrLocal(frozenset((P,)), exc, Neq(PX, PY))))]
    bulk = BulkEvaluator(ST)
    polyteams = list(enumerate_polyteams({P: (PX, PY), Q: (QU, QV)}, (0, 1), 2, min_rows=0))
    for phi in formulas:
        for pt in polyteams:
            assert bulk.holds(pt, phi) == naive_eval(ST, pt, phi), (phi, pt)
    assert guard_slots(bulk) == 0


def test_guard_index_is_rebuilt_when_the_joined_team_changes(join_builds):
    phi = parse(r"A P.z . (pexc(P.y, P.z | Q.u, Q.v) \/_{P} P.z = P.y)")
    # Q = {(0, 1)} refutes a row with y = 0 by z = 1; {(1, 1)} refutes no such row
    q_refutes, q_not = (Team.from_tuples(Q, (QU, QV), [r]) for r in ((0, 1), (1, 1)))
    y0, y1 = [[(0, 0)], [(0, 0), (1, 0)]], [[(0, 1)], [(0, 1), (1, 1)]]
    bulk = BulkEvaluator(ST)
    # a loop that meets a row with no kept verdict binds the row test, which
    # builds the index once, from the current Q relation
    builds = []
    for q_team, p_teams, verdict in ((q_refutes, y0, False), (q_not, y0, True),
                                     (q_refutes, y1, True)):
        for rows in p_teams:
            pt = Polyteam([Team.from_tuples(P, (PX, PY), rows), q_team])
            assert bulk.holds(pt, phi) is verdict is naive_eval(ST, pt, phi)
            assert all(rel is q_team.relation((QU, QV)) for rel in join_builds)
            builds.append(len(join_builds))
            del join_builds[:]
    # the second y = 0 team under the refuting Q stops at its first row,
    # whose verdict is kept
    assert builds == [1, 0, 1, 1, 1, 1]
    assert guard_slots(bulk) == 0


# ---------------------------------------------------------------------------
# Inclusion demands: a pinc into the ∃ sort fixes values every choice must cover

DEMAND_CASES = {
    # each case with no demand pins x elsewhere, so a wrong demand flips a verdict
    "plain": (r"E P.x . (pinc(Q.u | P.x) /\ P.x = P.y)", {QU}),
    "keyed": (r"E P.x . pinc(Q.u, Q.v | P.y, P.x)", {QV}),
    "same-sort": (r"E P.x . (pinc(P.y | P.x) /\ P.x != P.y)", {PY}),
    # the ∃ rebinds x itself: the atom says nothing of the old x's values
    "self": (r"E P.x . (pinc(P.x | P.x) /\ P.x = P.y /\ Q.u = Q.v)", set()),
    "every-part": (r"E P.x . (pinc(Q.u | P.x) \/_{Q} pinc(Q.u, Q.v | P.x, P.y))", {QU}),
    "one-part": (r"E P.x . ((pinc(Q.u | P.x) \/_{Q} Q.u = Q.v) /\ P.x = P.y)", set()),
    "global-split": (r"E P.x . (pinc(Q.u | P.x) \/ (pinc(Q.v | P.x) /\ pinc(Q.u | P.x)))",
                     {QU}),
    "past-chain": (r"E P.x . E P.z . (pinc(Q.v, Q.u | P.z, P.x) /\ P.z = P.y)", {QU}),
    "rebound-source": (r"E P.x . ((E Q.u . pinc(Q.u | P.x)) /\ P.x = P.y)", set()),
    "shadowed": (r"E P.x . ((A P.x . pinc(Q.u | P.x)) /\ P.x = P.y)", set()),
    # x on the included side is a guard, not a demand
    "guard": (r"E P.x . (pinc(P.x | Q.u) /\ P.x = P.y)", set()),
}


@pytest.mark.parametrize("case", sorted(DEMAND_CASES))
def test_inclusion_demand_side_conditions(case):
    text, demands = DEMAND_CASES[case]
    ev = _Evaluator(ST3, NO_LIMITS, None)
    phi = analysed(ev, text)
    assert ev.facts(phi.body).demands.get(phi.var, set()) == demands


@pytest.mark.parametrize("case", sorted(DEMAND_CASES))
def test_inclusion_demand_matches_naive_oracle(case):
    # P keeps a column x that the ∃ rebinds
    phi = parse(DEMAND_CASES[case][0])
    bulk = BulkEvaluator(ST)
    answers = set()
    for pt in enumerate_polyteams({P: (PX, PY), Q: (QU, QV)}, (0, 1), 2, min_rows=0):
        expected = naive_eval(ST, pt, phi)
        assert holds(ST, pt, phi) == expected, pt
        assert bulk.holds(pt, phi) == expected, pt
        answers.add(expected)
    assert answers == {False, True}


def test_inclusion_demand_keeps_search_independent_of_value_names():
    # the first value in domain order used to send the search through every
    # choice for the inner chain before it tried the employee
    phi = parse(r"E E.x1 . E E.x2 . E E.x3 . ("
                r"(pinc(P.employee, P.name | E.x1, E.x2) \/_{P} "
                r"pinc(P.employee, P.name | E.x1, E.x3))"
                r" /\ pdep(E.x1 ; E.x2, E.x3 | E.x1 ; E.x2, E.x3))")
    p_vars = tuple(Variable("P", n) for n in ("name", "employee", "position"))
    e_vars = tuple(Variable("E", n) for n in ("name", "project_1", "project_2"))
    employees = Team.from_tuples("E", e_vars, [("e42", "p86", "p86")])
    for position in ("dev", "ops", "qa"):
        projects = Team.from_tuples("P", p_vars, [("p86", "e42", position)])
        st = Structure(("p86", "e42", position))
        outcome = eval_formula(st, Polyteam([projects, employees]), phi, NO_LIMITS)
        assert outcome.verdict == TRUE and outcome.nodes_visited <= 25, position


def test_inclusion_demand_outside_the_domain_fails_at_once():
    phi = parse(DEMAND_CASES["plain"][0])
    pt = Polyteam([Team(P, (PY,), [row(y=0)]), Team(Q, (QU, QV), [row(u=5, v=0)])])
    outcome = eval_formula(ST3, pt, phi, NO_LIMITS)
    assert (outcome.verdict, outcome.nodes_visited) == (FALSE, 1)
    assert naive_eval(ST3, pt, phi) is False


def test_inclusion_demands_cross_validation():
    rng = random.Random(15)
    sampler = FormulaSampler(("eq", "neq", "rel", "pdep", "pinc", "pexc"))
    at_q = frozenset((Q,))
    demanding = (AtomF(PolyInc(Q, (QU,), P, (PX,))),
                 AtomF(PolyInc(Q, (QV, QU), P, (PY, PX))),
                 AtomF(PolyInc(P, (PY,), P, (PX,))),
                 OrLocal(at_q, AtomF(PolyInc(Q, (QU,), P, (PX,))),
                         AtomF(PolyInc(Q, (QU, QV), P, (PX, PY)))))
    structures = list(enumerate_structures({"R": 1}, (0, 1)))
    sessions = {st: BulkEvaluator(st) for st in structures}
    for _ in range(200):
        rest = sampler.formula(rng, rng.randint(0, 2))
        extra = rng.choice(demanding)
        body = And(extra, rest) if rng.random() < 0.5 else And(rest, extra)
        if rng.random() < 0.3:
            body = Exists(PY, body)
        phi = Exists(PX, body)
        st = rng.choice(structures)
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        expected = naive_eval(st, pt, phi)
        assert holds(st, pt, phi) == expected, (phi, st, pt)
        assert sessions[st].holds(pt, phi) == expected, (phi, st, pt)


# ---------------------------------------------------------------------------
# Existential blocks ∃x̄(C ∧ (D ∨_P O)), decided as ∃x̄(C ∧ D) ∨_P (O ∧ ∃x̄C)

# C conjuncts and D parts are row-wise at P; {z} is a block variable
BLOCK_GUARDS = (r"pinc(P.y, {z} | Q.u, Q.v)", r"pinc({z} | Q.v)")
BLOCK_C = BLOCK_GUARDS + (r"{z} != P.y", r"R({z})", r"pexc({z} | Q.u)",
                          r"pdep({z} ; P.y | Q.u ; Q.v)")
BLOCK_D = (r"{z} = P.y", r"R({z})", r"!R(P.y)", r"pexc({z} | Q.v)",
           r"pinc({z}, P.y | Q.u, Q.v)")
# opaque at P, downward-closed at P and free of the block variables
BLOCK_O = (r"pdep(:P ; P.y | :P ; P.y)", r"pexc(P.y | P.y)",
           r"(pdep(:P ; P.y | :P ; P.y) /\ pinc(P.y | Q.u))")


def block_formula(rng, block):
    def fill(templates):
        return rng.choice(templates).format(z=rng.choice(block))

    conjuncts = [fill(BLOCK_C) for _ in range(rng.randint(0, 1))]
    if rng.random() < 0.8:
        conjuncts.insert(rng.randint(0, len(conjuncts)), fill(BLOCK_GUARDS))
    parts = [fill(BLOCK_D) for _ in range(rng.randint(1, 2))]
    parts.insert(rng.randint(0, len(parts)), rng.choice(BLOCK_O))
    # the disjunction comes last so that the naive And can stop at C
    conjuncts.append("(" + r" \/_{P} ".join(parts) + ")")
    prefix = "".join(f"E {z} . " for z in block)
    return parse(prefix + "(" + r" /\ ".join(conjuncts) + ")")


@pytest.mark.parametrize("block, values, rows, count", [
    (("P.z1",), VALUES3, 2, 10),
    (("P.z1", "P.z2"), (0, 1), 1, 60),
])
def test_existential_block_matches_naive_oracle(block, values, rows, count):
    rng = random.Random(31)
    structures = list(enumerate_structures({"R": 1}, values))
    for _ in range(count):
        phi = block_formula(rng, block)
        ev = _Evaluator(structures[0], NO_LIMITS, None)
        ev.analyse(phi)
        assert ev.block_disjunction(phi) is ev.facts(phi).block is not None, phi
        agree_with_naive(phi, [rng.choice(structures)], rows, rows, values)


# ---------------------------------------------------------------------------
# The closure lattice against the two classifiers it replaced

def reference_split_sorts(node):
    touched = mentioned_sorts(node)
    if isinstance(node, OrLocal):
        return sorted(node.sorts & touched)
    return sorted(touched)


def reference_demands(f, x) -> frozenset:
    """The variables whose values f demands that ∃x cover, by recursion."""
    if isinstance(f, AtomF):
        a = f.atom
        if isinstance(a, PolyInc) and a.sort_j == x.sort:
            return frozenset(w for w, y in zip(a.x, a.y) if y == x != w)
    elif isinstance(f, And):
        return frozenset().union(*(reference_demands(p, x) for p in f.parts))
    elif isinstance(f, (OrGlobal, OrLocal)):
        return frozenset.intersection(*(reference_demands(p, x) for p in f.parts))
    elif isinstance(f, (Exists, Forall)) and f.var != x:
        return reference_demands(f.body, x) - {f.var}
    return frozenset()


def reference_rowwise(node, t):
    """Truth over the sort-t team is a conjunction of per-row facts."""
    if t not in mentioned_sorts(node):
        return True
    if isinstance(node, (Truth, Eq, Neq, Rel, NegRel)):
        return True
    if isinstance(node, AtomF):
        a = node.atom
        if isinstance(a, PolyDep):
            return not (a.sort_i == t and a.sort_j == t)
        if isinstance(a, PolyInc):
            return a.sort_j != t
        if isinstance(a, PolyExc):
            return not (a.sort_i == t and a.sort_j == t)
        if isinstance(a, PolyInd):
            return a.sort_k != t and not (a.sort_i == t and a.sort_j == t)
        return False
    if isinstance(node, And):
        return all(reference_rowwise(p, t) for p in node.parts)
    if isinstance(node, Forall):
        return reference_rowwise(node.body, t)
    if isinstance(node, Exists):
        return node.var.sort == t and reference_rowwise(node.body, t)
    if isinstance(node, (OrGlobal, OrLocal)):
        return reference_split_sorts(node) in ([], [t]) and \
            all(reference_rowwise(p, t) for p in node.parts)
    return False


def reference_downward_closed(node, t):
    """Shrinking the sort-t team preserves satisfaction."""
    if t not in mentioned_sorts(node):
        return True
    if isinstance(node, (Truth, Eq, Neq, Rel, NegRel)):
        return True
    if isinstance(node, AtomF):
        a = node.atom
        if isinstance(a, (PolyDep, PolyExc)):
            return True
        if isinstance(a, PolyInc):
            return a.sort_j != t
        if isinstance(a, PolyInd):
            return a.sort_k != t
        return False
    if isinstance(node, (And, OrGlobal, OrLocal)):
        return all(reference_downward_closed(p, t) for p in node.parts)
    if isinstance(node, (Exists, Forall)):
        return reference_downward_closed(node.body, t)
    return False


def test_closure_matches_reference_classifiers(rng):
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    ev = _Evaluator(SWEEP_ST, NO_LIMITS, None)
    levels = {(True, True): ROWWISE, (False, True): DOWNWARD, (False, False): OPAQUE}
    z = {P: (PX,), Q: (QU,)}
    # every sort pattern of every atom kind, beside the sampler's leaves
    atoms = [AtomF(kind(i, z[i], j, z[j])) for kind in (PolyInc, PolyExc)
             for i, j in itertools.product((P, Q), repeat=2)]
    atoms += [AtomF(PolyDep(i, z[i], z[i], j, z[j], z[j]))
              for i, j in itertools.product((P, Q), repeat=2)]
    atoms += [AtomF(PolyInd(i, (), z[i], j, (), z[j], k, (), z[k], z[k]))
              for i, j, k in itertools.product((P, Q), repeat=3)]
    for phi in atoms + [sampler.formula(rng, rng.randint(0, 3)) for _ in range(300)]:
        ev.analyse(phi)
        for node in walk(phi):
            for t in (P, Q):
                expected = levels[reference_rowwise(node, t), reference_downward_closed(node, t)]
                assert ev.facts(node).closure(t) == expected, (node, t)


# ---------------------------------------------------------------------------
# The analysis pass against the walkers and the recursive reference_demands

def assert_records_match_the_walkers(ev, phi):
    for node in walk(phi):
        facts = ev.facts(node)
        assert facts.node is node
        assert facts.sorts == mentioned_sorts(node) and facts.order == tuple(sorted(facts.sorts))
        assert facts.free == frozenset().union(*free_variables(node).values()), node
        assert facts.binds == {n.var.sort for n in walk(node) if isinstance(n, (Exists, Forall))}
        if isinstance(node, (OrGlobal, OrLocal)):
            assert list(facts.split) == reference_split_sorts(node), node
        for x in all_variables(node):
            assert facts.demands.get(x, frozenset()) == reference_demands(node, x), (node, x)
        assert all(facts.demands.values()) and set(facts.demands) <= all_variables(node)


def test_analysis_matches_the_walkers_and_reference_demands():
    rng = random.Random(41)
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    # beside the sampler's pinc: a repeated y, a swap, and x included in itself
    extra = (AtomF(PolyInc(Q, (QU, QV), P, (PX, PX))), AtomF(PolyInc(P, (PY, PX), P, (PX, PY))),
             AtomF(PolyInc(P, (PX, PY), P, (PX, PX))))
    ev = _Evaluator(SWEEP_ST, NO_LIMITS, None)
    for _ in range(400):
        phi = sampler.formula(rng, rng.randint(0, 3))
        if rng.random() < 0.4:
            phi = And(phi, rng.choice(extra)) if rng.random() < 0.5 else \
                OrLocal(frozenset((P,)), rng.choice(extra), phi)
        ev.analyse(phi)
        assert_records_match_the_walkers(ev, phi)
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        ev.check_input(phi, pt)
        assert ev.facts(phi).passed[0] == tuple(free_variables(phi).items())
    # a block rewrite shares the block's C and O nodes with the formula
    for _ in range(60):
        phi = block_formula(rng, rng.choice((("P.z1",), ("P.z1", "P.z2"))))
        ev.analyse(phi)
        rewritten = ev.block_disjunction(phi)
        assert rewritten is ev.facts(phi).block
        assert_records_match_the_walkers(ev, rewritten)


@pytest.mark.parametrize("shape", ["exists-chain", "conjunction"])
def test_analysis_of_5000_node_formulas_needs_no_recursion(shape):
    zs = [Variable(P, f"z{i}") for i in range(5000)]
    ev = _Evaluator(ST, NO_LIMITS, None)
    if shape == "exists-chain":
        facts = ev.analyse(exists_chain(zs, Eq(PX, PY)))
        assert facts.free == {PX, PY} and facts.binds == {P} and facts.closure(P) == ROWWISE
    else:
        facts = ev.analyse(conjoin([AtomF(PolyInc(Q, (QU,), P, (z,))) for z in zs]))
        assert facts.free == {QU, *zs} and facts.closure(P) == OPAQUE
        assert facts.demands == {z: {QU} for z in zs}
