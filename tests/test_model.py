import random

import pytest
from hypothesis import given, settings, strategies as st

from polyteam.errors import InvalidChoiceError, SortedDomainError
from polyteam.model import (
    Assignment, Polyteam, Structure, Team, Variable, polyteam_restrict,
    polyteam_union, singleton_empty_team, subteam_of, value_key, value_sorted,
)

from samplers import P, PX, PY, Q, QU, assignments


def team_of(rows, variables=(PX, PY), sort=P):
    return Team(sort, variables, rows)


def test_variable_identity():
    assert Variable(P, "x") == PX
    assert Variable(Q, "x") != PX
    assert str(PX) == "P.x"
    assert f"{PX}" == "P.x"
    assert repr(PX) == "Variable(sort='P', name='x')"
    assert hash(Variable(P, "x")) == hash(PX)
    assert len({Variable(P, "x"), PX}) == 1
    # ordered by (sort, name): the sort first, then the name
    assert sorted([QU, PY, Variable(Q, "a"), PX, Variable("A", "z")]) == \
        [Variable("A", "z"), PX, PY, Variable(Q, "a"), QU]
    with pytest.raises(AttributeError):
        PX.name = "y"
    with pytest.raises(AttributeError):
        PX.sort = Q


def test_a_bare_variable_is_not_a_variable_tuple():
    # a Variable iterates as its two strings, which no team domain holds
    team = Team(P, (PX, PY), assignments((PX, PY), (0, 1)))
    for operation in (team.relation, team.projector, team.restricted,
                      team.ordered_rows()[0].values_of,
                      lambda bare: Team(P, bare),
                      lambda bare: Team.from_tuples(P, bare, [])):
        with pytest.raises(SortedDomainError):
            operation(PX)
    assert team.relation((PX,)) == {(0,), (1,)}


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


def test_equal_teams_hash_equally_however_built():
    rows = assignments((PX, PY), (0, 1))[:3]
    built = Team(P, (PY, PX), rows)
    from_tuples = Team.from_tuples(P, (PY, PX), [s.values_of((PY, PX)) for s in rows])
    sliced = Team(P, (PX, PY), assignments((PX, PY), (0, 1))).with_rows(
        s.values_of((PX, PY)) for s in rows)
    assert built == from_tuples == sliced
    assert len({hash(built), hash(from_tuples), hash(sliced)}) == 1
    assert hash(sliced) == hash(sliced.with_rows(sliced.tuples))
    assert {built: 1}[sliced] == 1


def test_with_team_of_the_default_drops_the_sort():
    pt = Polyteam([team_of(assignments((PX, PY), (0, 1))), Team(Q, (QU,), ())])
    rebuilt_default = Team(P, (), (Assignment(),))
    assert pt.with_team(rebuilt_default).sorts() == (Q,)
    assert pt.with_team(rebuilt_default) == Polyteam([Team(Q, (QU,), ())])
    assert Polyteam([rebuilt_default]) == Polyteam()
    # no columns but no rows either: the empty team is kept
    assert pt.with_team(Team(P, (), ())).team(P) == Team(P, (), ())
    assert pt.with_team(singleton_empty_team(Q)).sorts() == (P,)


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
    with pytest.raises(SortedDomainError):
        st_.relation("missing")


# ---------------------------------------------------------------------------
# The columnar team against a reference computed from its Assignment rows

PZ = Variable(P, "z")
MIXED = (0, 1, 10, 9, "a", "B")


def sampled_teams(rng):
    """Seeded teams over sub-domains of {x, y, z}, the empty team and the default."""
    yield singleton_empty_team(P)
    yield Team(P, (PX, PY), ())
    for _ in range(40):
        domain = tuple(rng.sample((PX, PY, PZ), rng.randint(0, 3)))
        pool = assignments(domain, rng.sample(MIXED, 3))
        yield Team(P, domain, rng.sample(pool, rng.randint(0, min(5, len(pool)))))


def reference_order(team):
    return tuple(sorted(team.rows, key=lambda s: tuple(value_key(s[v]) for v in team.domain)))


@pytest.mark.parametrize("seed", range(4))
def test_columnar_team_matches_the_assignment_reference(seed):
    rng = random.Random(seed)
    for team in sampled_teams(rng):
        rows = team.rows
        domain = team.domain
        assert all(isinstance(s, Assignment) and set(s) == set(domain) for s in rows)
        assert len(rows) == len(team)
        assert team.ordered_rows() == reference_order(team)
        assert tuple(team) == team.ordered_rows()
        # equality and hash: rebuilt from shuffled Assignments, or from tuples
        # in a shuffled column order
        shuffled = list(rows)
        rng.shuffle(shuffled)
        again = Team(P, reversed(domain), shuffled)
        assert again == team and hash(again) == hash(team)
        columns = list(domain)
        rng.shuffle(columns)
        from_tuples = Team.from_tuples(P, columns, [s.values_of(columns) for s in rows])
        assert from_tuples == team and hash(from_tuples) == hash(team)
        for size in range(len(domain) + 1):
            variables = tuple(rng.choice(domain) for _ in range(size)) if domain else ()
            assert team.relation(variables) == frozenset(s.values_of(variables) for s in rows)
            kept = tuple(rng.sample(domain, size))
            assert team.restricted(kept) == Team(P, kept, [s.restricted(kept) for s in rows])
        values = tuple(rng.sample(MIXED, rng.randint(0, 3)))
        for var in (PX, PZ):
            assert team.expanded_all(var, values) == Team(
                P, set(domain) | {var}, [s.extended(var, a) for s in rows for a in values])
            picks = {s: rng.sample(MIXED, rng.randint(1, 2)) for s in rows}
            by_tuple = {s.values_of(domain): vs for s, vs in picks.items()}
            assert team.expanded_choice(var, by_tuple.__getitem__) == Team(
                P, set(domain) | {var}, [s.extended(var, a) for s, vs in picks.items()
                                         for a in vs])
        chosen = [s for s in rows if rng.random() < 0.5]
        part = team.with_rows(s.values_of(domain) for s in chosen)
        assert part == Team(P, domain, chosen)
        other = Team(P, domain, [s for s in rows if rng.random() < 0.5])
        assert part.union(other) == Team(P, domain, set(chosen) | other.rows)
        assert part.is_subteam_of(team)


class Text(str):
    """A str subclass: its value_key names the subclass, so it sorts apart from str."""


# rows over (P.y, P.x): mixed int/str, every value a str, with a str subclass
MIXED_ROWS = [(1, "b"), (10, "b"), (9, "b"), ("B", 1), ("a", 1)]
STR_ROWS = [("b", "10"), ("b", "9"), ("b", ""), ("", "B"), ("10", "a"), ("9", "a")]
ORDER_CASES = {
    "mixed": MIXED_ROWS,
    "str": STR_ROWS,
    "str-subclass": STR_ROWS + [(Text("b"), "9"), ("9", Text("b"))],
    "str-and-int": STR_ROWS + [("b", 10), (9, "a")],
}


def test_mixed_values_order_by_type_name_then_text():
    team = Team.from_tuples(P, (PY, PX), MIXED_ROWS)
    assert [s.values_of((PX, PY)) for s in team.ordered_rows()] == \
        [(1, "B"), (1, "a"), ("b", 1), ("b", 10), ("b", 9)]
    # every value a str: text order, "" < "10" < "9" < "B" < "a"
    team = Team.from_tuples(P, (PY, PX), STR_ROWS)
    assert [s.values_of((PX, PY)) for s in team.ordered_rows()] == \
        [("", "b"), ("10", "b"), ("9", "b"), ("B", ""), ("a", "10"), ("a", "9")]


@pytest.mark.parametrize("rows", ORDER_CASES.values(), ids=ORDER_CASES.keys())
def test_value_sorted_is_value_key_order(rows):
    reference = sorted(rows, key=lambda row: tuple(map(value_key, row)))
    assert value_sorted(rows, rows=True) == reference
    assert value_sorted(reversed(rows), rows=True) == reference
    values = [v for row in rows for v in row]
    assert value_sorted(values) == sorted(values, key=value_key)
    assert [type(v) for v in value_sorted(values)] == \
        [type(v) for v in sorted(values, key=value_key)]
    assert value_sorted([]) == value_sorted([], rows=True) == []
    domain = Structure(values).domain
    assert domain == tuple(sorted(set(values), key=value_key))
    assert [type(v) for v in domain] == [type(v) for v in sorted(set(values), key=value_key)]


def test_ordered_tuples_sort_once_and_are_not_inherited_by_slices():
    for rows in ORDER_CASES.values():
        team = Team.from_tuples(P, (PY, PX), rows)
        first = team.ordered_tuples()
        assert team.ordered_tuples() is first
        assert list(first) == sorted(team.tuples, key=lambda row: tuple(map(value_key, row)))
        one_row = team.with_rows(first[:1])
        assert one_row.ordered_tuples() == first[:1]
        assert one_row.ordered_tuples() is not first
        assert team.with_rows(team.tuples).ordered_tuples() is not first


def test_from_tuples_rejects_bad_rows():
    with pytest.raises(SortedDomainError):
        Team.from_tuples(P, (PX, PY), [(0,)])
    with pytest.raises(SortedDomainError):
        Team.from_tuples(P, (PX, PX), [(0, 0)])
    with pytest.raises(SortedDomainError):
        Team.from_tuples(P, (PX, QU), [(0, 0)])


def test_relation_is_kept_per_team_and_not_inherited_by_slices():
    team = Team(P, (PX, PY), assignments((PX, PY), (0, 1)))
    first = team.relation((PX,))
    assert team.relation((PX,)) is first
    assert team.relation([PX]) is first
    assert first == {(0,), (1,)}
    one_row = team.with_rows([(1, 0)])
    assert one_row.relation((PX,)) == {(1,)}
    assert team.relation((PX,)) is first
    with pytest.raises(SortedDomainError):
        team.relation((QU,))
