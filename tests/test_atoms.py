import itertools
import random

import pytest

from polyteam.atoms import (
    AtomRegistry, GeneralizedQuantifier, check_atom, check_generalized,
    check_polydep, check_polyexc, check_polyinc, check_polyind, classify,
    compile_embedded_dependency, parse_embedded_dependency,
    spot_check_isomorphism_invariance,
)
from polyteam.errors import ParseError, RegistryError, SortedDomainError
from polyteam.evaluator import eval_formula
from polyteam.model import Assignment, Polyteam, Structure, Team, Variable
from polyteam.oracle import (
    enumerate_polyteams, naive_atom, naive_eval, naive_polydep, naive_polyexc,
    naive_polyinc, naive_polyind,
)
from polyteam.syntax import AtomF, GeneralizedAtom, PolyDep, PolyExc, PolyInc, PolyInd

from samplers import P, PX, PY, Q, QU, QV, assignments

ST2 = Structure((0, 1))
DEP = PolyDep(P, (PX,), (PY,), Q, (QU,), (QV,))
INC = PolyInc(P, (PX,), Q, (QV,))
EXC = PolyExc(P, (PX,), Q, (QU,))
IND = PolyInd(P, (PX,), (PY,), Q, (QU,), (QV,), P, (PX,), (PY,), (PY,))


def pt(p_rows=(), q_rows=(), p_vars=(PX, PY), q_vars=(QU, QV)):
    return Polyteam([Team(P, p_vars, p_rows), Team(Q, q_vars, q_rows)])


def row(**kv):
    return Assignment({{"x": PX, "y": PY, "u": QU, "v": QV}[k]: v
                       for k, v in kv.items()})


def test_polydep_vacuous_on_empty_left_team():
    assert check_polydep(ST2, pt(q_rows=[row(u=0, v=1)]), DEP)


def test_polydep_unfolds_on_singletons():
    bad = pt([row(x=0, y=1)], [row(u=0, v=2)])
    good = pt([row(x=0, y=1)], [row(u=0, v=1)])
    st = Structure((0, 1, 2))
    assert not check_polydep(st, bad, DEP)
    assert check_polydep(st, good, DEP)


def test_same_sort_polydep_is_the_standard_dependence_atom():
    atom = PolyDep(P, (PX,), (PY,), P, (PX,), (PY,))
    two = pt([row(x=0, y=1), row(x=1, y=1)])
    assert check_polydep(ST2, two, atom)
    broken = pt([row(x=0, y=1), row(x=0, y=0)])
    assert not check_polydep(ST2, broken, atom)


def test_polyinc_polyexc_basics():
    assert check_polyinc(ST2, pt(), INC)  # empty left team
    assert check_polyexc(ST2, pt(q_rows=[row(u=0, v=0)]), EXC)
    both = pt([row(x=0, y=0)], [row(u=1, v=0)])
    assert check_polyinc(ST2, both, INC)
    assert not check_polyexc(ST2, both, PolyExc(P, (PX,), Q, (QV,)))


def test_polyind_vacuous_and_pure():
    assert check_polyind(ST2, pt(), IND)
    assert check_polyind(ST2, pt(q_rows=[row(u=0, v=0)]), IND)


def test_atom_checkers_error_outside_team_domain():
    small = Polyteam([Team(P, (PX,), [Assignment({PX: 0})]),
                      Team(Q, (QU, QV), [row(u=0, v=0)])])
    with pytest.raises(SortedDomainError):
        check_polydep(ST2, small, DEP)


def test_example_natural_join_atom():
    """Employees must contain the natural join of Projects and Teams."""
    p_team, p_project = Variable("P", "team"), Variable("P", "project")
    t_team, t_emp = Variable("T", "team"), Variable("T", "employee")
    e_emp, e_team, e_proj = (Variable("E", "employee"), Variable("E", "team"),
                             Variable("E", "project"))
    atom = PolyInd("P", (p_team,), (p_project,), "T", (t_team,), (t_emp,),
                   "E", (e_team,), (e_proj,), (e_emp,))
    projects = Team("P", (p_project, p_team),
                    [Assignment({p_project: "p1", p_team: "t1"})])
    teams = Team("T", (t_team, t_emp), [Assignment({t_team: "t1", t_emp: "e1"})])
    employees = Team("E", (e_emp, e_team, e_proj),
                     [Assignment({e_emp: "e1", e_team: "t1", e_proj: "p1"})])
    st = Structure(("p1", "t1", "e1"))
    assert check_polyind(st, Polyteam([projects, teams, employees]), atom)
    missing = Polyteam([projects, teams, Team("E", (e_emp, e_team, e_proj), ())])
    assert not check_polyind(st, missing, atom)


def all_polyteams(max_rows=2, values=(0, 1)):
    return enumerate_polyteams({P: (PX, PY), Q: (QU, QV)}, values, max_rows)


def test_checkers_agree_with_naive_definitions():
    for poly in all_polyteams():
        assert check_polydep(ST2, poly, DEP) == naive_polydep(poly, DEP)
        assert check_polyinc(ST2, poly, INC) == naive_polyinc(poly, INC)
        assert check_polyexc(ST2, poly, EXC) == naive_polyexc(poly, EXC)
        assert check_polyind(ST2, poly, IND) == naive_polyind(poly, IND)


def test_same_sort_independence_matches_standard_atom(rng):
    """<x,x/x ; y/y ; z/z> over one sort is conditional independence."""
    z = Variable(P, "z")
    atom = PolyInd(P, (PX,), (PY,), P, (PX,), (z,), P, (PX,), (PY,), (z,))
    pool = assignments((PX, PY, z), (0, 1))
    for _ in range(250):
        team = Team(P, (PX, PY, z), rng.sample(pool, rng.randint(0, 3)))
        poly = Polyteam([team])
        expected = True
        for s, s2 in itertools.product(team.rows, repeat=2):
            if s[PX] != s2[PX]:
                continue
            if not any(s3[PX] == s[PX] and s3[PY] == s[PY] and s3[z] == s2[z]
                       for s3 in team.rows):
                expected = False
        assert check_polyind(ST2, poly, atom) == expected


def test_empty_referenced_teams_satisfy_every_builtin():
    empty = pt()
    for atom in (DEP, INC, EXC, IND):
        assert check_atom(ST2, empty, atom)


def test_polydep_is_downward_closed():
    rows_p = [row(x=0, y=0), row(x=1, y=1)]
    rows_q = [row(u=0, v=0), row(u=1, v=1)]
    full = pt(rows_p, rows_q)
    assert check_polydep(ST2, full, DEP)
    for keep_p in range(3):
        for keep_q in range(3):
            sub = pt(rows_p[:keep_p], rows_q[:keep_q])
            assert check_polydep(ST2, sub, DEP)


def test_polyinc_is_union_closed():
    for left in all_polyteams(max_rows=1):
        for right in all_polyteams(max_rows=1):
            if check_polyinc(ST2, left, INC) and check_polyinc(ST2, right, INC):
                from polyteam.model import polyteam_union
                assert check_polyinc(ST2, polyteam_union(left, right), INC)


def test_isomorphism_invariance_of_builtin_checkers(rng):
    values = (0, 1, 2)
    st = Structure(values)
    pool_p = assignments((PX, PY), values)
    pool_q = assignments((QU, QV), values)
    for _ in range(120):
        poly = pt(rng.sample(pool_p, rng.randint(0, 2)),
                  rng.sample(pool_q, rng.randint(0, 2)))
        image = list(values)
        rng.shuffle(image)
        bijection = dict(zip(values, image))

        def renamed_team(team):
            return Team(team.sort, team.domain,
                        [Assignment({v: bijection[r[v]] for v in team.domain})
                         for r in team.rows])

        renamed = Polyteam([renamed_team(poly.team(P)), renamed_team(poly.team(Q))])
        for atom in (DEP, INC, EXC, IND):
            assert check_atom(st, poly, atom) == check_atom(st, renamed, atom)


# ---------------------------------------------------------------------------
# Generalized atoms

def test_constant_true_quantifier():
    registry = AtomRegistry([GeneralizedQuantifier("top", (1,), lambda d, r: True)])
    atom = GeneralizedAtom("top", ((PX,),))
    assert check_generalized(ST2, pt(), atom, registry)


def test_nonempty_quantifier_on_empty_team():
    nonempty = GeneralizedQuantifier("nonempty", (1,), lambda d, r: bool(r[0]))
    registry = AtomRegistry([nonempty])
    atom = GeneralizedAtom("nonempty", ((PX,),))
    assert not check_generalized(ST2, pt(), atom, registry)
    assert check_generalized(ST2, pt([row(x=0, y=0)]), atom, registry)


def test_unregistered_and_mismatched_atoms_error():
    registry = AtomRegistry()
    with pytest.raises(RegistryError):
        check_generalized(ST2, pt(), GeneralizedAtom("nope", ((PX,),)), registry)
    registry = AtomRegistry([GeneralizedQuantifier("one", (1,), lambda d, r: True)])
    with pytest.raises(RegistryError):
        check_generalized(ST2, pt(), GeneralizedAtom("one", ((PX, PY),)), registry)


@pytest.mark.parametrize("registry", [
    AtomRegistry(),
    AtomRegistry([GeneralizedQuantifier("foo", (2,), lambda d, r: True)]),
], ids=["unknown", "wrong-type"])
def test_oracle_and_evaluator_reject_unresolvable_atoms(registry):
    phi = AtomF(GeneralizedAtom("foo", ((PX,),)))
    team = pt([row(x=0, y=1)])
    with pytest.raises(RegistryError):
        naive_eval(ST2, team, phi, registry)
    with pytest.raises(SortedDomainError):
        eval_formula(ST2, team, phi, registry=registry)


def test_registry_is_immutable_and_extendable():
    base = AtomRegistry()
    grown = base.extended(GeneralizedQuantifier("one", (1,), lambda d, r: True))
    assert "one" in grown and "one" not in base
    with pytest.raises(RegistryError):
        grown.extended(GeneralizedQuantifier("one", (1,), lambda d, r: False))


def test_inclusion_as_generalized_atom_agrees_with_checker():
    """Pairwise inclusion is a first-order definable quantifier of type (2, 2)."""
    q = GeneralizedQuantifier("subset", (2, 2), lambda d, r: r[0] <= r[1])
    registry = AtomRegistry([q])
    atom = GeneralizedAtom("subset", ((PX, PY), (QU, QV)))
    native = PolyInc(P, (PX, PY), Q, (QU, QV))
    for poly in all_polyteams():
        assert check_generalized(ST2, poly, atom, registry) == \
            check_polyinc(ST2, poly, native)


def test_spot_check_flags_non_invariant_quantifier(rng):
    biased = GeneralizedQuantifier("has_zero", (1,),
                                   lambda d, r: (0,) in r[0])
    violations = spot_check_isomorphism_invariance(
        biased, (0, 1, 2), (frozenset({(0,)}),), rng, rounds=40)
    assert violations
    fair = GeneralizedQuantifier("nonempty", (1,), lambda d, r: bool(r[0]))
    assert not spot_check_isomorphism_invariance(
        fair, (0, 1, 2), (frozenset({(0,)}),), rng, rounds=40)


# ---------------------------------------------------------------------------
# Embedded dependencies

EGD_TEXT = "forall x1, x2, y1, y2 . R1(x1, x2) & R2(y1, y2) & x1 = y1 -> x2 = y2"


def test_parse_embedded_dependency_shape():
    ed = parse_embedded_dependency(EGD_TEXT)
    assert len(ed.universal) == 4 and not ed.existential
    assert len(ed.antecedent) == 3 and len(ed.consequent) == 1
    with pytest.raises(ParseError):
        parse_embedded_dependency("R(x) -> S(x)")
    with pytest.raises(ParseError):
        parse_embedded_dependency("forall x . R(x) -> S(x, y)")


def test_compiled_egd_agrees_with_polydep():
    """The equality-generating dependency defining cross-table dependence."""
    q = compile_embedded_dependency(parse_embedded_dependency(EGD_TEXT))
    registry = AtomRegistry([GeneralizedQuantifier("dep22", q.type, q.evaluator)])
    atom = GeneralizedAtom("dep22", ((PX, PY), (QU, QV)))
    native = PolyDep(P, (PX,), (PY,), Q, (QU,), (QV,))
    for poly in all_polyteams():
        assert check_generalized(ST2, poly, atom, registry) == \
            check_polydep(ST2, poly, native)


def test_compiled_inclusion_tgd_agrees_with_polyinc():
    ed = parse_embedded_dependency("forall x1, x2 . R1(x1, x2) -> R2(x1, x2)")
    q = compile_embedded_dependency(ed, name="inc22")
    registry = AtomRegistry([q])
    atom = GeneralizedAtom("inc22", ((PX, PY), (QU, QV)))
    native = PolyInc(P, (PX, PY), Q, (QU, QV))
    for poly in all_polyteams():
        assert check_generalized(ST2, poly, atom, registry) == \
            check_polyinc(ST2, poly, native)


def test_compiled_tgd_with_existential_witness():
    ed = parse_embedded_dependency("forall x . R1(x) -> exists y . R2(x, y)")
    q = compile_embedded_dependency(ed)
    # every R1 value must start some R2 edge
    assert q.evaluator((0, 1), (frozenset({(0,)}), frozenset({(0, 1)})))
    assert not q.evaluator((0, 1), (frozenset({(0,)}), frozenset({(1, 1)})))
    widened = compile_embedded_dependency(ed, widen_existentials=True)
    for r1 in (frozenset(), frozenset({(0,)}), frozenset({(0,), (1,)})):
        for r2 in (frozenset(), frozenset({(0, 0)}), frozenset({(0, 1), (1, 0)})):
            assert q.evaluator((0, 1), (r1, r2)) == \
                widened.evaluator((0, 1), (r1, r2))


def test_degenerate_vacuous_antecedent():
    """With no universals and an empty antecedent the consequent must hold."""
    ed = parse_embedded_dependency("forall . true -> exists y . R1(y, y)")
    q = compile_embedded_dependency(ed)
    assert q.evaluator((0, 1), (frozenset({(0, 0)}),))
    assert not q.evaluator((0, 1), (frozenset({(0, 1)}),))


def test_classification_flags():
    egd = parse_embedded_dependency(EGD_TEXT)
    got = classify(egd)
    assert got.equality_generating and not got.tuple_generating
    assert got.separated and got.full and got.one_head and not got.uni_relational

    full_tgd = parse_embedded_dependency("forall x . R1(x) -> R2(x)")
    got = classify(full_tgd)
    assert got.tuple_generating and got.full

    embedded = parse_embedded_dependency("forall x . R1(x) -> exists y . R1(x)")
    got = classify(embedded)
    assert not got.full and got.uni_relational and not got.separated


def test_instance_classification_source_to_target():
    ed = parse_embedded_dependency("forall x1, x2 . R1(x1, x2) -> R2(x1, x2)")
    got = classify(ed, instance_sorts={"R1": "P", "R2": "E"},
                   source=("P",), target=("E",))
    assert got.instance_class == "source_to_target"
    got = classify(ed, instance_sorts={"R1": "E", "R2": "E"},
                   source=("P",), target=("E",))
    assert got.instance_class == "target"
    got = classify(ed, instance_sorts={"R1": "E", "R2": "P"},
                   source=("P",), target=("E",))
    assert got.instance_class == "neither"
