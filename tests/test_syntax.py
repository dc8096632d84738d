import pytest
from hypothesis import given, settings

from polyteam.atoms import AtomRegistry, GeneralizedQuantifier
from polyteam.errors import ParseError
from polyteam.model import Variable
from polyteam.syntax import (
    And, AtomF, Eq, Exists, Forall, Neq, OrGlobal, OrLocal, PolyDep, PolyExc,
    PolyInc, PolyInd, Rel, Truth, check_well_sorted, format_formula,
    free_variables, mentioned_sorts, parse,
)

from samplers import FormulaSampler, P, PX, PY, Q, QU, QV
import random


def roundtrip(text):
    phi = parse(text)
    again = parse(format_formula(phi))
    assert again == phi
    return phi


def test_smallest_literal():
    assert roundtrip("P.x = P.y") == Eq(PX, PY)


def test_parse_connectives_and_quantifiers():
    phi = roundtrip(r"E P.x . (P.x = P.y /\ (P.x != P.y \/ R(P.x)))")
    assert isinstance(phi, Exists)
    assert isinstance(phi.body, And)
    assert isinstance(phi.body.right, OrGlobal)


def test_parse_local_disjunction_sorts():
    phi = roundtrip(r"P.x = P.y \/_{P,Q} Q.u = Q.v")
    assert isinstance(phi, OrLocal)
    assert phi.sorts == frozenset((P, Q))


def test_parse_pdep_roundtrip():
    phi = roundtrip("pdep(E1.x ; E1.y | E2.u ; E2.v)")
    atom = phi.atom
    assert isinstance(atom, PolyDep)
    assert atom.sort_i == "E1" and atom.sort_j == "E2"


def test_same_sort_pdep_with_equal_sides_is_standard_atom():
    phi = roundtrip("pdep(E1.x ; E1.y | E1.x ; E1.y)")
    assert phi.atom.sort_i == phi.atom.sort_j == "E1"


def test_same_sort_pdep_with_differing_sides_is_rejected():
    with pytest.raises(ParseError, match="shorthand"):
        parse("pdep(E1.x ; E1.y | E1.u ; E1.v)")


def test_constancy_atom_roundtrip():
    phi = roundtrip("pdep(:E1 ; E1.y | :E2 ; E2.v)")
    assert phi.atom.x == () and phi.atom.u == ()


def test_pind_roundtrip_and_pure_form():
    phi = roundtrip("pind((P.x),(Q.a)/(R.u) ; (P.y)/(R.v) ; (Q.b)/(R.w))")
    atom = phi.atom
    assert isinstance(atom, PolyInd)
    assert (atom.sort_i, atom.sort_j, atom.sort_k) == ("P", "Q", "R")
    pure = roundtrip("pind((:P),(:P)/(:Q) ; (P.y)/(Q.v) ; (:P)/(:Q))")
    assert pure.atom.x == pure.atom.a == pure.atom.u == ()


def test_pind_defaults_empty_group_sorts():
    phi = parse("pind((),()/() ; (P.y)/(Q.v) ; ()/())")
    atom = phi.atom
    # unannotated empty groups take the first determinable group sort
    assert atom.sort_i == "P" and atom.sort_j == "P" and atom.sort_k == "Q"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("P.x =\n  Q.")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="reserved"):
        parse("P._fr0 = P.x")
    with pytest.raises(ParseError, match="arities"):
        parse("pinc(P.x | Q.u, Q.v)")
    with pytest.raises(ParseError, match="unknown generalized atom"):
        parse("atom nope((P.x))")
    with pytest.raises(ParseError, match="trailing"):
        parse("P.x = P.y P.x")


def test_generalized_atom_arity_checked_against_registry():
    registry = AtomRegistry([GeneralizedQuantifier("one", (1,), lambda d, r: True)])
    phi = parse("atom one((P.x))", registry)
    assert phi.atom.name == "one"
    with pytest.raises(ParseError, match="arities"):
        parse("atom one((P.x, P.y))", registry)


def test_free_variables():
    assert free_variables(Eq(PX, PY)) == {P: frozenset((PX, PY))}
    assert free_variables(Exists(PX, Eq(PX, PY))) == {P: frozenset((PY,))}
    phi = parse("E P.x . pdep(P.x ; P.y | Q.u ; Q.v)")
    assert free_variables(phi) == {P: frozenset((PY,)),
                                   Q: frozenset((QU, QV))}


def test_mentioned_sorts_include_var_free_atoms():
    phi = parse("pind((:P),(:T)/(:Q) ; (P.y)/(Q.v) ; (:T)/(:Q))")
    assert mentioned_sorts(phi) == frozenset(("P", "Q", "T"))


def test_check_well_sorted_reports():
    assert check_well_sorted(Eq(PX, QU)) != []
    ok = AtomF(PolyInd(P, (), (), Q, (), (), P, (), (), ()))
    assert check_well_sorted(ok) == []
    bad = AtomF(PolyInc(P, (PX,), Q, (QU, QV)))
    assert len(check_well_sorted(bad)) == 1
    mixed = AtomF(PolyDep(P, (PX, QU), (PY,), Q, (QU, QU), (QV,)))
    assert any("not of sort" in v for v in check_well_sorted(mixed))


def test_roundtrip_generated_formulas():
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    rng = random.Random(4)
    for _ in range(200):
        phi = sampler.formula(rng, rng.randint(0, 3))
        assert parse(format_formula(phi)) == phi
