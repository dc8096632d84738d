import warnings

import pytest

from polyteam.model import Variable
from polyteam.oracle import equivalent
from polyteam.rewrite import EmptyTeamWarning, rewrite_formula, translate_atom
from polyteam.syntax import parse


def rows(pt, sort):
    return [{v.name: value for v, value in row.items()}
            for row in pt.team(sort).ordered_rows()]


@pytest.mark.parametrize("rule,text,teams,verdicts", [
    # the inclusion fails, but the universal probe ranges over no Q rows
    ("e4", "pinc(P.x | Q.u)", {"P": [{"x": 0}], "Q": []}, (False, True)),
    # the exclusion holds, but no P row can mirror the Q values
    ("e6", "pexc(P.x | Q.u)", {"P": [], "Q": [{"u": 0}]}, (True, False)),
])
def test_e4_and_e6_need_a_nonempty_team(rule, text, teams, verdicts):
    phi = parse(text)
    with pytest.warns(EmptyTeamWarning):
        rewritten = rewrite_formula(phi, rule)
    same, witness = equivalent(phi, rewritten, values=(0, 1, 2), max_rows=2, min_rows=0)
    assert not same
    _, pt, left, right = witness
    assert {sort: rows(pt, sort) for sort in ("P", "Q")} == teams
    assert (left, right) == verdicts
    assert equivalent(phi, rewritten, values=(0, 1, 2), max_rows=2, min_rows=1) == (True, None)


@pytest.mark.parametrize("rule,text", [("e4", "pinc(P.x | P.u)"), ("e6", "pexc(P.x | P.u)")])
def test_same_sort_e4_and_e6_hold_on_empty_teams_without_warning(rule, text):
    phi = parse(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rewritten = rewrite_formula(phi, rule)
    assert equivalent(phi, rewritten, values=(0, 1, 2), max_rows=2, min_rows=0) == (True, None)


def test_empty_team_warning_is_raised_once_per_call():
    phi = parse(r"pinc(P.x | Q.u) /\ pinc(Q.v | P.y) /\ pexc(P.x | Q.u)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rewrite_formula(phi, "e4")
        rewrite_formula(phi, "e6")
        rewrite_formula(phi, "e3")
        translate_atom(phi.parts[0].atom, "e4")
    assert [w.category for w in caught] == [EmptyTeamWarning] * 3
    assert [str(w.message)[:2] for w in caught] == ["e4", "e6", "e4"]
    assert all(w.filename == __file__ for w in caught)
