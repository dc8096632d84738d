"""The immutable record base: equality, hashing, repr and immutability of
every record class, and the import cost it exists to avoid."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import polyteam
from polyteam.atoms import (
    DependencyClassification, EDEq, EDRel, EmbeddedDependency, GeneralizedQuantifier,
)
from polyteam.evaluator import EvalConfig, EvalOutcome
from polyteam.implication import (
    Counterexample, Derivation, DerivationStep, FiringRecord, ImplicationVerdict,
)
from polyteam.model import Polyteam, Team, Variable
from polyteam.syntax import (
    And, AtomF, Connective, Eq, Exists, Forall, GeneralizedAtom, Neq, NegRel, OrGlobal,
    OrLocal, PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth,
)

PX, PY, QU, QV, RW = (Variable("P", "x"), Variable("P", "y"), Variable("Q", "u"),
                      Variable("Q", "v"), Variable("R", "w"))
DEP = PolyDep("P", (PX,), (PY,), "Q", (QU,), (QV,))
EQ = Eq(PX, PY)

X, Y, U, V, W = (f"Variable(sort={s!r}, name={n!r})"
                 for s, n in (("P", "x"), ("P", "y"), ("Q", "u"), ("Q", "v"), ("R", "w")))
DEP_TEXT = f"PolyDep(sort_i='P', x=({X},), y=({Y},), sort_j='Q', u=({U},), v=({V},))"
EQ_TEXT = f"Eq(left={X}, right={Y})"

# one instance of each record class, built afresh on each call, with the
# repr that the same class printed as a frozen dataclass
RECORDS = {
    "PolyDep": (lambda: PolyDep("P", (PX,), (PY,), "Q", (QU,), (QV,)), DEP_TEXT),
    "PolyInc": (lambda: PolyInc("P", (PX,), "Q", (QU,)),
                f"PolyInc(sort_i='P', x=({X},), sort_j='Q', y=({U},))"),
    "PolyExc": (lambda: PolyExc("P", (PX,), "Q", (QU,)),
                f"PolyExc(sort_i='P', x=({X},), sort_j='Q', y=({U},))"),
    "PolyInd": (lambda: PolyInd("P", (), (PX,), "Q", (), (QU,), "R", (), (), (RW,)),
                f"PolyInd(sort_i='P', x=(), y=({X},), sort_j='Q', a=(), b=({U},), "
                f"sort_k='R', u=(), v=(), w=({W},))"),
    "GeneralizedAtom": (lambda: GeneralizedAtom("nonempty", ((PX,),)),
                        f"GeneralizedAtom(name='nonempty', args=(({X},),))"),
    "Truth": (Truth, "Truth()"),
    "Eq": (lambda: Eq(PX, PY), EQ_TEXT),
    "Neq": (lambda: Neq(QU, QV), f"Neq(left={U}, right={V})"),
    "Rel": (lambda: Rel("R", (PX, PY)), f"Rel(name='R', args=({X}, {Y}))"),
    "NegRel": (lambda: NegRel("R", (PX,)), f"NegRel(name='R', args=({X},))"),
    "Connective": (lambda: Connective(EQ, Truth()), f"Connective(parts=({EQ_TEXT}, Truth()))"),
    "And": (lambda: And(EQ, Truth()), f"And(parts=({EQ_TEXT}, Truth()))"),
    "OrGlobal": (lambda: OrGlobal(EQ, Truth()), f"OrGlobal(parts=({EQ_TEXT}, Truth()))"),
    "OrLocal": (lambda: OrLocal(frozenset({"P"}), EQ, Truth()),
                f"OrLocal(parts=({EQ_TEXT}, Truth()), sorts=frozenset({{'P'}}))"),
    "Exists": (lambda: Exists(PX, EQ), f"Exists(var={X}, body={EQ_TEXT})"),
    "Forall": (lambda: Forall(PY, EQ), f"Forall(var={Y}, body={EQ_TEXT})"),
    "AtomF": (lambda: AtomF(DEP), f"AtomF(atom={DEP_TEXT})"),
    "GeneralizedQuantifier": (
        lambda: GeneralizedQuantifier("nonempty", (1,), any),
        "GeneralizedQuantifier(name='nonempty', type=(1,), evaluator=<built-in function any>)"),
    "EDRel": (lambda: EDRel("R", ("x", "y")), "EDRel(name='R', args=('x', 'y'))"),
    "EDEq": (lambda: EDEq("x", "y"), "EDEq(left='x', right='y')"),
    "EmbeddedDependency": (
        lambda: EmbeddedDependency(("x",), (EDRel("R", ("x",)),), ("y",), (EDEq("x", "y"),)),
        "EmbeddedDependency(universal=('x',), antecedent=(EDRel(name='R', args=('x',)),), "
        "existential=('y',), consequent=(EDEq(left='x', right='y'),))"),
    "DependencyClassification": (
        lambda: DependencyClassification(True, False, True, True, True, False, "target"),
        "DependencyClassification(tuple_generating=True, equality_generating=False, "
        "full=True, one_head=True, uni_relational=True, separated=False, "
        "instance_class='target')"),
    "FiringRecord": (lambda: FiringRecord(DEP, ((PX, QU),)),
                     f"FiringRecord(atom={DEP_TEXT}, merges=(({X}, {U}),))"),
    "Counterexample": (
        lambda: Counterexample(Polyteam([Team("P", (PX,), ())]), {PX: "c0"}),
        f"Counterexample(polyteam=Polyteam([Team('P', ['P.x'], 0 rows)]), "
        f"classes={{{X}: 'c0'}})"),
    "ImplicationVerdict": (
        lambda: ImplicationVerdict(True, trace=(), stats={"firings": 0}),
        "ImplicationVerdict(implied=True, trace=(), counterexample=None, "
        "stats={'firings': 0})"),
    "DerivationStep": (lambda: DerivationStep("e1", (DEP,), DEP),
                       f"DerivationStep(rule='e1', premises=({DEP_TEXT},), "
                       f"conclusion={DEP_TEXT})"),
    "Derivation": (lambda: Derivation((), (DEP,), None),
                   f"Derivation(steps=(), projections=({DEP_TEXT},), conclusion=None)"),
    "EvalConfig": (EvalConfig, "EvalConfig(max_expanded_team_rows=100000, "
                               "max_split_assignments=14, timeout=120.0)"),
    "EvalOutcome": (lambda: EvalOutcome("true", 7),
                    "EvalOutcome(verdict='true', nodes_visited=7, limit=None)"),
}
# EvalOutcome may be reassigned, so it has no hash; a Counterexample holds a dict
UNHASHABLE = {"EvalOutcome", "Counterexample"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_prints_what_the_dataclass_printed(name):
    build, text = RECORDS[name]
    assert type(build()).__name__ == name
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    build = RECORDS[name][0]
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"EvalOutcome"}))
def test_records_refuse_assignment_and_deletion(name):
    record = RECORDS[name][0]()
    for attribute in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
        with pytest.raises(AttributeError):
            delattr(record, attribute)


DUPLICATES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
              "pickle": lambda record: pickle.loads(pickle.dumps(record))}


# a Counterexample's Team refuses the setattr that deep copies restore it by
@pytest.mark.parametrize("name,how", [(name, how) for name in sorted(RECORDS)
                                      for how in DUPLICATES
                                      if name != "Counterexample" or how == "copy"])
def test_records_survive_copy_and_pickle(name, how):
    record = RECORDS[name][0]()
    twin = DUPLICATES[how](record)
    assert type(twin) is type(record) and repr(twin) == repr(record)


def test_dependency_classification_defaults_to_no_instance_class():
    flags = (True, False, True, True, True, False)
    assert DependencyClassification(*flags) == DependencyClassification(*flags, None)


def test_eval_outcome_stays_mutable():
    outcome = EvalOutcome("true")
    outcome.nodes_visited = 3
    assert outcome == EvalOutcome("true", 3)


@pytest.mark.parametrize("first,second", [
    (Eq(PX, PY), Neq(PX, PY)),
    (PolyInc("P", (PX,), "Q", (QU,)), PolyExc("P", (PX,), "Q", (QU,))),
    (And(EQ, Truth()), OrGlobal(EQ, Truth())),
    (Exists(PX, EQ), Forall(PX, EQ)),
])
def test_equal_fields_of_different_classes_are_unequal(first, second):
    assert first._key() == second._key()
    assert first != second and second != first
    assert len({first, second}) == 2


def test_implication_verdict_equality_ignores_stats():
    counted = ImplicationVerdict(True, trace=(), stats={"firings": 3})
    assert counted == ImplicationVerdict(True, trace=())
    assert hash(counted) == hash(ImplicationVerdict(True, trace=()))
    assert counted != ImplicationVerdict(False, trace=(), stats={"firings": 3})


@pytest.mark.parametrize("trace,counterexample", [(None, None), ((), "both")])
def test_implication_verdict_needs_exactly_one_of_trace_and_counterexample(
        trace, counterexample):
    with pytest.raises(ValueError, match="exactly one of trace/counterexample"):
        ImplicationVerdict(True, trace, counterexample)


def test_generic_constructor_takes_fields_by_position_or_name():
    assert EDEq("x", right="y") == EDEq(left="x", right="y") == EDEq("x", "y")
    for args, named in [(("x",), {}), (("x", "y", "z"), {}), (("x",), {"left": "y"}),
                        ((), {"left": "x", "other": "y"})]:
        with pytest.raises(TypeError, match=r"EDEq takes the fields \('left', 'right'\)"):
            EDEq(*args, **named)


def test_importing_the_package_leaves_dataclasses_unimported():
    # a fresh interpreter: the test session itself may have imported it
    src = str(Path(polyteam.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import polyteam, polyteam.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
