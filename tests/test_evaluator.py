import itertools
import random

import pytest

from polyteam.errors import SortedDomainError
from polyteam.evaluator import (
    EXHAUSTED, FALSE, TRUE, BulkEvaluator, EvalConfig, EvalOutcome, _Evaluator,
    enumerate_covers, eval_formula, eval_sentence,
)
from polyteam.model import (
    Assignment, Polyteam, Structure, Team, Variable, polyteam_restrict,
    polyteam_union, subteam_of,
)
from polyteam.oracle import (
    enumerate_polyteams, enumerate_structures, enumerate_teams, naive_eval, tarski,
)
from polyteam.syntax import (
    And, AtomF, Eq, Exists, Forall, Neq, NegRel, OrGlobal, OrLocal, PolyDep,
    PolyExc, PolyInc, Rel, Truth, free_variables, parse,
)

from samplers import (
    P, PX, PY, Q, QU, QV, FormulaSampler, assignments, random_polyteam,
)

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


def test_enumerate_covers_counts():
    assert len(list(enumerate_covers(team_p([])))) == 1
    assert len(list(enumerate_covers(team_p([row(x=0, y=0)])))) == 3
    two = team_p([row(x=0, y=0), row(x=1, y=1)])
    covers = list(enumerate_covers(two))
    assert len(covers) == 9
    assert len(set(covers)) == 9
    assert all(left.union(right) == two for left, right in covers)


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
    with pytest.raises(ValueError):
        EvalConfig(max_expanded_team_rows=0)
    with pytest.raises(ValueError):
        EvalConfig(timeout=0)


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


def test_bulk_evaluator_agrees_with_eval_formula(rng):
    sampler = FormulaSampler(("eq", "pdep", "pinc"))
    bulk = BulkEvaluator(ST)
    for _ in range(50):
        phi = sampler.formula(rng, 2)
        pt = random_polyteam(rng, {P: (PX, PY), Q: (QU, QV)}, (0, 1))
        assert bulk.holds(pt, phi) == holds(ST, pt, phi)


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


def agree_with_naive(phi, structures=(ST3,), p_rows=2, q_rows=2):
    """Evaluator and naive oracle agree on all small P(y), Q(u, v) polyteams."""
    p_teams = list(enumerate_teams(P, (PY,), VALUES3, p_rows, min_rows=0))
    q_teams = list(enumerate_teams(Q, (QU, QV), VALUES3, q_rows, min_rows=0))
    for st in structures:
        for p_team, q_team in itertools.product(p_teams, q_teams):
            pt = Polyteam([p_team, q_team])
            assert holds(st, pt, phi) == naive_eval(st, pt, phi), (st, pt)


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_inclusion_guard_side_conditions(case):
    text, count = GUARD_CASES[case]
    ev = _Evaluator(ST3, NO_LIMITS, None)
    assert len(ev.inclusion_guards(parse(text))) == count


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

    def picks(text):
        witnesses = ev.guarded_witnesses(parse(text), pt)
        return [list(witnesses(r)) for r in p_team.ordered_rows()]

    # repeated x keeps only the diagonal tuple (0, 0)
    assert picks(r"E P.x . pinc(P.x, P.x | Q.u, Q.v)") == [[0], [0]]
    # keyed on P.y: y=0 joins u=0 (v in {0, 1}), y=1 joins u=1 (v=2)
    assert picks(r"E P.x . pinc(P.y, P.x | Q.u, Q.v)") == [[0, 1], [2]]
    # two guards intersect: the second reads x from u and keys y on v,
    # so y=0 allows u in {0} and y=1 allows u in {0, 2}
    assert picks(r"E P.x . (pinc(P.y, P.x | Q.u, Q.v) /\ pinc(P.x, P.y | Q.u, Q.v))") == \
        [[0], [2]]
    assert ev.guarded_witnesses(parse(r"E P.x . E P.y . pinc(P.y, P.x | Q.u, Q.v)"),
                                pt) is None


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
