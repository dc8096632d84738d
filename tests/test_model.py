import pytest
from hypothesis import given, settings, strategies as st

from polyteam.errors import InvalidChoiceError, SortedDomainError
from polyteam.model import (
    Assignment, Polyteam, Structure, Team, Variable, polyteam_restrict,
    polyteam_union, singleton_empty_team, subteam_of,
)

from samplers import P, PX, PY, Q, QU, assignments


def team_of(rows, variables=(PX, PY), sort=P):
    return Team(sort, variables, rows)


def test_variable_identity():
    assert Variable(P, "x") == PX
    assert Variable(Q, "x") != PX
    assert str(PX) == "P.x"


def test_assignment_is_single_sorted():
    with pytest.raises(SortedDomainError):
        Assignment({PX: 0, QU: 1})


def test_assignment_extend_overwrites():
    s = Assignment({PX: 0})
    assert s.extended(PX, 1)[PX] == 1
    assert s.extended(PY, 2).values_of((PX, PY)) == (0, 2)
    with pytest.raises(SortedDomainError):
        s.extended(QU, 1)


def test_team_rows_must_match_domain():
    with pytest.raises(SortedDomainError):
        Team(P, (PX, PY), [Assignment({PX: 0})])
    with pytest.raises(SortedDomainError):
        Team(P, (QU,), [])


def test_team_deduplicates_rows():
    rows = [Assignment({PX: 0, PY: 1}), Assignment({PY: 1, PX: 0})]
    assert len(team_of(rows)) == 1


def test_empty_team_differs_from_default():
    assert Team(P, (), ()) != singleton_empty_team(P)
    assert len(singleton_empty_team(P)) == 1


def test_restriction_projects_and_collapses():
    team = team_of([Assignment({PX: 0, PY: 1}), Assignment({PX: 0, PY: 2})])
    small = team.restricted((PX,))
    assert small.domain == (PX,)
    assert len(small) == 1
    with pytest.raises(SortedDomainError):
        team.restricted((QU,))


def test_expand_all_on_singleton_empty():
    expanded = singleton_empty_team(P).expanded_all(PX, (0, 1))
    assert sorted(r[PX] for r in expanded.rows) == [0, 1]


def test_expand_choice_matches_expand_all_for_constant_choice():
    team = team_of([Assignment({PX: 0, PY: 1})])
    assert team.expanded_choice(PX, lambda s: (0, 1)) == team.expanded_all(PX, (0, 1))


def test_expand_choice_direct_construction():
    team = Team(P, (PX,), [Assignment({PX: 0})])
    got = team.expanded_choice(PY, lambda s: (1,))
    assert got.ordered_rows()[0].values_of((PX, PY)) == (0, 1)


def test_expand_choice_rejects_empty_sets():
    team = team_of([Assignment({PX: 0, PY: 1})])
    with pytest.raises(InvalidChoiceError):
        team.expanded_choice(PX, lambda s: ())
    with pytest.raises(SortedDomainError):
        team.expanded_choice(QU, lambda s: (0,))


def test_polyteam_defaults_absent_sorts():
    pt = Polyteam()
    assert pt.team("anything") == singleton_empty_team("anything")
    assert pt.sorts() == ()


def test_polyteam_normalizes_default_teams():
    pt = Polyteam([singleton_empty_team(P)])
    assert pt.sorts() == ()
    assert pt == Polyteam()


def test_subteam_reflexive_and_on_empty():
    rows = assignments((PX, PY), (0, 1))
    pt = Polyteam([team_of(rows[:2])])
    assert subteam_of(pt, pt)
    empty = Polyteam([team_of(())])
    assert subteam_of(empty, pt)
    assert not subteam_of(pt, empty)


def test_subteam_one_direction():
    s1, s2 = assignments((PX, PY), (0, 1))[:2]
    small = Polyteam([team_of([s1])])
    large = Polyteam([team_of([s1, s2])])
    assert subteam_of(small, large)
    assert not subteam_of(large, small)


def test_subteam_domain_mismatch_errors():
    with pytest.raises(SortedDomainError):
        subteam_of(Polyteam([Team(P, (PX,), ())]), Polyteam([team_of(())]))


def test_union_idempotent_and_contains_parts():
    s1, s2 = assignments((PX, PY), (0, 1))[:2]
    x = Polyteam([team_of([s1])])
    y = Polyteam([team_of([s2])])
    assert polyteam_union(x, x) == x
    assert subteam_of(x, polyteam_union(x, y))
    assert subteam_of(y, polyteam_union(x, y))


def test_restrict_identity_and_projection():
    s1 = Assignment({PX: 0, PY: 1})
    s2 = Assignment({PX: 0, PY: 2})
    pt = Polyteam([team_of([s1, s2])])
    assert polyteam_restrict(pt, {P: (PX, PY)}) == pt
    projected = polyteam_restrict(pt, {P: (PX,)})
    assert len(projected.team(P)) == 1
    # restriction to no columns keeps only nonemptiness
    gone = polyteam_restrict(pt, {})
    assert gone.team(P) == singleton_empty_team(P)
    still_empty = polyteam_restrict(Polyteam([team_of(())]), {})
    assert still_empty.team(P) == Team(P, (), ())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restriction_is_monotone(data):
    pool = assignments((PX, PY), (0, 1, 2))
    big = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    small = [row for row in big if data.draw(st.booleans())]
    x = Polyteam([team_of(small)])
    y = Polyteam([team_of(big)])
    assert subteam_of(polyteam_restrict(x, {P: (PX,)}),
                      polyteam_restrict(y, {P: (PX,)}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expand_all_bounds(data):
    pool = assignments((PX, PY), (0, 1))
    rows = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    team = team_of(rows)
    values = (0, 1, 2)
    expanded = team.expanded_all(PX, values)
    assert len(expanded) <= len(team) * len(values)
    assert all(r.restricted((PY,)) in {s.restricted((PY,)) for s in team.rows}
               for r in expanded.rows)


def test_structure_invariants():
    with pytest.raises(SortedDomainError):
        Structure(())
    with pytest.raises(SortedDomainError):
        Structure((0, 1), {"R": [(0,), (0, 1)]})
    with pytest.raises(SortedDomainError):
        Structure((0,), {"R": [(1,)]})
    st_ = Structure((1, 0), {"R": [(0, 1)]})
    assert st_.domain == (0, 1)
    assert st_.arity("R") == 2
    with pytest.raises(SortedDomainError):
        st_.relation("missing")
