import pytest
from hypothesis import given, settings

from polyteam.atoms import AtomRegistry, GeneralizedQuantifier
from polyteam.errors import ParseError
from polyteam.model import Variable
from polyteam.syntax import (
    And, AtomF, Eq, Exists, Forall, GeneralizedAtom, Neq, OrGlobal, OrLocal,
    PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth, atom_violations,
    check_well_sorted, format_formula, free_variables, mentioned_sorts, parse, walk,
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


# One well-formed atom of each built-in class, with a third sort T for pind.
GRID_BASE = {
    "pdep": PolyDep(P, (PX,), (PY,), Q, (QU,), (QV,)),
    "pinc": PolyInc(P, (PX,), Q, (QU,)),
    "pexc": PolyExc(P, (PX,), Q, (QU,)),
    "pind": PolyInd(P, (PX,), (PY,), Q, (QU,), (QV,),
                    "T", (Variable("T", "u"),), (Variable("T", "v"),), (Variable("T", "w"),)),
}
# per class, one group of each set whose lengths must agree
GRID_FIRSTS = {"pdep": ("x", "y"), "pinc": ("x",), "pexc": ("x",), "pind": ("x", "y", "b")}
STRAY = Variable("R", "z")


def replace(atom, **changes):
    """The atom with the named fields changed."""
    return type(atom)(*(changes.get(name, getattr(atom, name)) for name in atom._fields))


def grid_atoms():
    """Per built-in class and group: the group with a variable of another sort,
    one more variable of its own sort, or both; then every group at once."""
    for keyword, atom in GRID_BASE.items():
        groups = [name for name in atom._fields if not name.startswith("sort_")]
        yield keyword, atom
        for field in groups:
            tup = getattr(atom, field)
            own = Variable(tup[0].sort, field + "2")
            yield f"{keyword}-{field}-stray", replace(atom, **{field: (STRAY,)})
            yield f"{keyword}-{field}-longer", replace(atom, **{field: tup + (own,)})
            yield f"{keyword}-{field}-longer-stray", replace(atom, **{field: tup + (STRAY,)})
        yield f"{keyword}-all-stray", replace(atom, **{f: (STRAY,) for f in groups})
        firsts = GRID_FIRSTS[keyword]
        yield f"{keyword}-all-longer", replace(atom, **{f: getattr(atom, f) * 2 for f in firsts})
    yield "pdep-same-sort", PolyDep(P, (PX,), (PY,), P, (PY,), (PX,))
    yield "pdep-same-sort-equal", PolyDep(P, (PX,), (PY,), P, (PX,), (PY,))
    yield "pdep-same-sort-longer", PolyDep(P, (PX, PY), (PY,), P, (PY,), (PX,))
    yield "pdep-same-sort-stray", PolyDep(P, (STRAY,), (PY,), P, (PY,), (PX,))


SHORTHAND = ("pdep: same-sort atom with differing sides is a shorthand, "
             "not a primitive; introduce it via the rewrite rules")
ATOM_MESSAGES = {
    "pdep-x-stray": ["pdep x: variable R.z is not of sort 'P'"],
    "pdep-x-longer": ["pdep: arities of x and u differ (2 vs 1)"],
    "pdep-x-longer-stray": [
        "pdep x: variable R.z is not of sort 'P'",
        "pdep: arities of x and u differ (2 vs 1)",
    ],
    "pdep-y-stray": ["pdep y: variable R.z is not of sort 'P'"],
    "pdep-y-longer": ["pdep: arities of y and v differ (2 vs 1)"],
    "pdep-y-longer-stray": [
        "pdep y: variable R.z is not of sort 'P'",
        "pdep: arities of y and v differ (2 vs 1)",
    ],
    "pdep-u-stray": ["pdep u: variable R.z is not of sort 'Q'"],
    "pdep-u-longer": ["pdep: arities of x and u differ (1 vs 2)"],
    "pdep-u-longer-stray": [
        "pdep u: variable R.z is not of sort 'Q'",
        "pdep: arities of x and u differ (1 vs 2)",
    ],
    "pdep-v-stray": ["pdep v: variable R.z is not of sort 'Q'"],
    "pdep-v-longer": ["pdep: arities of y and v differ (1 vs 2)"],
    "pdep-v-longer-stray": [
        "pdep v: variable R.z is not of sort 'Q'",
        "pdep: arities of y and v differ (1 vs 2)",
    ],
    "pdep-all-stray": [
        "pdep x: variable R.z is not of sort 'P'",
        "pdep y: variable R.z is not of sort 'P'",
        "pdep u: variable R.z is not of sort 'Q'",
        "pdep v: variable R.z is not of sort 'Q'",
    ],
    "pdep-all-longer": [
        "pdep: arities of x and u differ (2 vs 1)",
        "pdep: arities of y and v differ (2 vs 1)",
    ],
    "pinc-x-stray": ["pinc x: variable R.z is not of sort 'P'"],
    "pinc-x-longer": ["pinc: arities of x and y differ (2 vs 1)"],
    "pinc-x-longer-stray": [
        "pinc x: variable R.z is not of sort 'P'",
        "pinc: arities of x and y differ (2 vs 1)",
    ],
    "pinc-y-stray": ["pinc y: variable R.z is not of sort 'Q'"],
    "pinc-y-longer": ["pinc: arities of x and y differ (1 vs 2)"],
    "pinc-y-longer-stray": [
        "pinc y: variable R.z is not of sort 'Q'",
        "pinc: arities of x and y differ (1 vs 2)",
    ],
    "pinc-all-stray": [
        "pinc x: variable R.z is not of sort 'P'",
        "pinc y: variable R.z is not of sort 'Q'",
    ],
    "pinc-all-longer": ["pinc: arities of x and y differ (2 vs 1)"],
    "pexc-x-stray": ["pexc x: variable R.z is not of sort 'P'"],
    "pexc-x-longer": ["pexc: arities of x and y differ (2 vs 1)"],
    "pexc-x-longer-stray": [
        "pexc x: variable R.z is not of sort 'P'",
        "pexc: arities of x and y differ (2 vs 1)",
    ],
    "pexc-y-stray": ["pexc y: variable R.z is not of sort 'Q'"],
    "pexc-y-longer": ["pexc: arities of x and y differ (1 vs 2)"],
    "pexc-y-longer-stray": [
        "pexc y: variable R.z is not of sort 'Q'",
        "pexc: arities of x and y differ (1 vs 2)",
    ],
    "pexc-all-stray": [
        "pexc x: variable R.z is not of sort 'P'",
        "pexc y: variable R.z is not of sort 'Q'",
    ],
    "pexc-all-longer": ["pexc: arities of x and y differ (2 vs 1)"],
    "pind-x-stray": ["pind x: variable R.z is not of sort 'P'"],
    "pind-x-longer": ["pind: arities of x and a differ (2 vs 1)"],
    "pind-x-longer-stray": [
        "pind x: variable R.z is not of sort 'P'",
        "pind: arities of x and a differ (2 vs 1)",
    ],
    "pind-y-stray": ["pind y: variable R.z is not of sort 'P'"],
    "pind-y-longer": ["pind: arities of y and v differ (2 vs 1)"],
    "pind-y-longer-stray": [
        "pind y: variable R.z is not of sort 'P'",
        "pind: arities of y and v differ (2 vs 1)",
    ],
    "pind-a-stray": ["pind a: variable R.z is not of sort 'Q'"],
    "pind-a-longer": [
        "pind: arities of x and a differ (1 vs 2)",
        "pind: arities of a and u differ (2 vs 1)",
    ],
    "pind-a-longer-stray": [
        "pind a: variable R.z is not of sort 'Q'",
        "pind: arities of x and a differ (1 vs 2)",
        "pind: arities of a and u differ (2 vs 1)",
    ],
    "pind-b-stray": ["pind b: variable R.z is not of sort 'Q'"],
    "pind-b-longer": ["pind: arities of b and w differ (2 vs 1)"],
    "pind-b-longer-stray": [
        "pind b: variable R.z is not of sort 'Q'",
        "pind: arities of b and w differ (2 vs 1)",
    ],
    "pind-u-stray": ["pind u: variable R.z is not of sort 'T'"],
    "pind-u-longer": ["pind: arities of a and u differ (1 vs 2)"],
    "pind-u-longer-stray": [
        "pind u: variable R.z is not of sort 'T'",
        "pind: arities of a and u differ (1 vs 2)",
    ],
    "pind-v-stray": ["pind v: variable R.z is not of sort 'T'"],
    "pind-v-longer": ["pind: arities of y and v differ (1 vs 2)"],
    "pind-v-longer-stray": [
        "pind v: variable R.z is not of sort 'T'",
        "pind: arities of y and v differ (1 vs 2)",
    ],
    "pind-w-stray": ["pind w: variable R.z is not of sort 'T'"],
    "pind-w-longer": ["pind: arities of b and w differ (1 vs 2)"],
    "pind-w-longer-stray": [
        "pind w: variable R.z is not of sort 'T'",
        "pind: arities of b and w differ (1 vs 2)",
    ],
    "pind-all-stray": [
        "pind x: variable R.z is not of sort 'P'",
        "pind y: variable R.z is not of sort 'P'",
        "pind a: variable R.z is not of sort 'Q'",
        "pind b: variable R.z is not of sort 'Q'",
        "pind u: variable R.z is not of sort 'T'",
        "pind v: variable R.z is not of sort 'T'",
        "pind w: variable R.z is not of sort 'T'",
    ],
    "pind-all-longer": [
        "pind: arities of x and a differ (2 vs 1)",
        "pind: arities of y and v differ (2 vs 1)",
        "pind: arities of b and w differ (2 vs 1)",
    ],
    "pdep-same-sort": [SHORTHAND],
    "pdep-same-sort-longer": ["pdep: arities of x and u differ (2 vs 1)", SHORTHAND],
    "pdep-same-sort-stray": ["pdep x: variable R.z is not of sort 'P'", SHORTHAND],
}


@pytest.mark.parametrize("name,atom", list(grid_atoms()))
def test_atom_violation_messages_are_pinned(name, atom):
    assert atom_violations(atom) == ATOM_MESSAGES.get(name, [])


ONE = AtomRegistry([GeneralizedQuantifier("one", (1,), lambda d, r: True)])


@pytest.mark.parametrize("atom,registry,messages", [
    (GeneralizedAtom("one", ((PX,),)), ONE, []),
    (GeneralizedAtom("one", ((PX, PY),)), ONE, ["atom one: arities (2,) do not match type (1,)"]),
    (GeneralizedAtom("one", ()), ONE, ["atom one: arities () do not match type (1,)"]),
    (GeneralizedAtom("one", ((PX, QU),)), ONE,
     ["atom one argument 0: variable Q.u is not of sort 'P'",
      "atom one: arities (2,) do not match type (1,)"]),
    (GeneralizedAtom("one", ((),)), ONE,
     ["atom one: argument tuple 0 is empty", "atom one: arities (0,) do not match type (1,)"]),
    (GeneralizedAtom("nope", ((PX,),)), ONE, ["unknown generalized atom 'nope'"]),
    (GeneralizedAtom("nope", ((PX, QU),)), ONE,
     ["atom nope argument 0: variable Q.u is not of sort 'P'", "unknown generalized atom 'nope'"]),
    (GeneralizedAtom("one", ((PX,),)), None, ["unknown generalized atom 'one'"]),
], ids=["registered", "longer", "no-args", "stray", "empty-tuple", "unknown", "unknown-stray",
        "no-registry"])
def test_generalized_atom_messages_are_pinned(atom, registry, messages):
    assert check_well_sorted(AtomF(atom), registry) == messages
