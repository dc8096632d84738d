import pytest
from hypothesis import given, settings

from polyteam.atoms import AtomRegistry, GeneralizedQuantifier
from polyteam.errors import ParseError
from polyteam.model import Variable
from polyteam.syntax import (
    And, AtomF, Eq, Exists, Forall, Neq, OrGlobal, OrLocal, PolyDep, PolyExc,
    PolyInc, PolyInd, Rel, Truth, check_well_sorted, format_formula,
    free_variables, mentioned_sorts, parse, walk,
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
    assert isinstance(phi.body.parts[-1], OrGlobal)


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


@pytest.mark.parametrize("nested,flat", [
    (r"P.x = P.y /\ (P.x = P.x /\ Q.u = Q.v)", r"(P.x = P.y /\ P.x = P.x) /\ Q.u = Q.v"),
    (r"P.x = P.y \/ (P.x = P.x \/ Q.u = Q.v)", r"(P.x = P.y \/ P.x = P.x) \/ Q.u = Q.v"),
    (r"P.x = P.y \/_{P} (P.x = P.x \/_{P} Q.u = Q.v)",
     r"(P.x = P.y \/_{P} P.x = P.x) \/_{P} Q.u = Q.v"),
])
def test_associative_connectives_parse_to_one_flat_node(nested, flat):
    phi = roundtrip(nested)
    assert phi == roundtrip(flat)
    assert len(phi.parts) == 3
    assert format_formula(phi).count("(") == 1


def test_local_disjunctions_over_other_sorts_stay_nested():
    phi = roundtrip(r"P.x = P.y \/_{P} (P.x = P.x \/_{P,Q} Q.u = Q.v)")
    assert len(phi.parts) == 2 and phi.parts[1].sorts == frozenset((P, Q))


def test_sampled_connectives_are_flat():
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    rng = random.Random(6)
    for _ in range(300):
        for node in walk(sampler.formula(rng, rng.randint(1, 4))):
            if isinstance(node, (And, OrGlobal, OrLocal)):
                assert len(node.parts) >= 2
                assert not any(type(p) is type(node) and
                               getattr(p, "sorts", None) == getattr(node, "sorts", None)
                               for p in node.parts), node
    with pytest.raises(TypeError, match="two parts"):
        And(Eq(PX, PY))


# ---------------------------------------------------------------------------
# Disjunction chains: one node per run of one operator, grouped to the left

def count_constructions(monkeypatch, cls):
    """Count the nodes of exactly ``cls`` built while the patch is active."""
    built = []
    original = cls.__init__

    def counting(self, *args):
        if type(self) is cls:
            built.append(self)
        original(self, *args)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("op,cls", [(r" \/ ", OrGlobal), (r" \/_{P} ", OrLocal)])
def test_flat_disjunction_builds_one_node(monkeypatch, op, cls):
    text = op.join(f"P.x{k} = P.y" for k in range(500))
    built = count_constructions(monkeypatch, cls)
    phi = parse(text)
    assert len(built) == 1 and built[0] is phi
    assert len(phi.parts) == 500


def test_mixed_disjunction_runs_group_to_the_left():
    a, b, c = Eq(PX, PY), Neq(PX, PY), Eq(PY, PY)
    assert parse(r"P.x = P.y \/ P.x != P.y \/_{P} P.y = P.y") == \
        OrLocal(frozenset((P,)), OrGlobal(a, b), c)
    assert parse(r"P.x = P.y \/_{P,Q} P.x != P.y \/_{Q,P} P.y = P.y") == \
        OrLocal(frozenset((P, Q)), a, b, c)
    assert parse(r"P.x = P.y \/_{P} P.x != P.y \/_{Q} P.y = P.y \/_{P} P.x = P.y") == \
        OrLocal(frozenset((P,)),
                OrLocal(frozenset((Q,)), OrLocal(frozenset((P,)), a, b), c), a)


def binary_fold(units, operators):
    """The tree a left-to-right binary fold of the chain builds, one operator at a time."""
    phi = units[0]
    for op, unit in zip(operators, units[1:]):
        phi = OrGlobal(phi, unit) if op is None else OrLocal(op, phi, unit)
    return phi


def test_disjunction_chains_of_sampled_formulas_match_the_binary_fold():
    sampler = FormulaSampler(tuple(FormulaSampler.LEAVES))
    choices = [None, frozenset((P,)), frozenset((Q,)), frozenset((P, Q))]
    rng = random.Random(11)
    for _ in range(150):
        units = [sampler.formula(rng, rng.randint(0, 2)) for _ in range(rng.randint(2, 7))]
        operators = [rng.choice(choices) for _ in units[1:]]
        text = f"({format_formula(units[0])})"
        for op, unit in zip(operators, units[1:]):
            shown = r"\/" if op is None else r"\/_{" + ",".join(rng.sample(sorted(op), len(op))) + "}"
            text += f" {shown} ({format_formula(unit)})"
        assert parse(text) == binary_fold(units, operators)


# ---------------------------------------------------------------------------
# Golden error positions

GOLDEN_ERRORS = [
    ("P.x = P.y /\\\n  Q.u = Q.v /\\\n  Q.u $ Q.v", 3, 7, "unexpected character '$'"),
    ("P.x = 9x.y", 1, 7, "unexpected character '9'"),
    ("P.x = P.y\tP.z", 1, 11, "trailing input starting at 'P'"),
    ("P.x = P.y /\\\n", 2, 1, "expected a formula, found ''"),
    ("P.x = P.y /\\  # no newline", 1, 15, "expected a formula, found ''"),
    ("P.x = P.y /\\\n  P._fr0 = P.x", 2, 5,
     "variable names starting with '_fr' are reserved"),
    ("P.x = P.y /\\ atom nope((P.x))", 1, 19, "unknown generalized atom 'nope'"),
    ("P.x = P.y /\\\n  P.x ; P.y", 2, 7, "expected '=' or '!=' after P.x"),
]


@pytest.mark.parametrize("text,line,col,message", GOLDEN_ERRORS)
def test_parse_error_positions(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"{line}:{col}: {message}"
