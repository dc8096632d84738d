"""Team-semantics toolkit over families of relational tables (polyteams).

Core pieces: the sorted team/polyteam model, a formula language with
cross-table dependency atoms, an exact lax-semantics evaluator, a sound and
complete implication engine for dependence atoms with counterexample
synthesis, constructive atom rewrites, and brute-force oracles for bounded
verification.
"""

from .errors import (
    InvalidChoiceError, ParseError, PolyteamError, RegistryError,
    ResourceExhausted, RewriteError, RuleApplicationError, SortedDomainError,
)
from .model import (
    Assignment, Polyteam, Sort, Structure, Team, Value, Variable,
    polyteam_restrict, polyteam_union, singleton_empty_team, subteam_of,
)
from .syntax import (
    And, AtomF, Eq, Exists, Forall, Formula, GeneralizedAtom, Neq, NegRel,
    OrGlobal, OrLocal, PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth,
    check_well_sorted, format_formula, free_variables, mentioned_sorts, parse,
)
from .atoms import (
    AtomRegistry, DependencyClassification, EmbeddedDependency,
    GeneralizedQuantifier, check_atom, check_generalized, check_polydep,
    check_polyexc, check_polyinc, check_polyind, classify,
    compile_embedded_dependency, parse_embedded_dependency,
)
from .evaluator import (
    BulkEvaluator, EvalConfig, EvalOutcome, enumerate_covers, eval_formula,
    eval_sentence,
)
from .implication import (
    Counterexample, Derivation, FiringRecord, ImplicationVerdict, decide,
    derive_rule, replay_trace, verify_counterexample,
)
from .rewrite import (
    CardinalityWarning, EmptyTeamWarning, FreshNameSource, decompose_by_sort,
    eliminate_global_disjunction, rewrite_formula, translate_atom,
)

__version__ = "0.1.0"
