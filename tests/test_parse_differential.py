"""``parse`` against the reference front end on seeded texts.

Every text must give an equal AST under both, or a ``ParseError`` with equal
message, line and column.  The texts come from a token-piece sampler, from
mutations of the fixture formulas, and from the benchmark's generators at
small sizes.  A second test runs the built-in atoms over a grid of variable
groups, and prints every atom that parses back through ``parse``.
"""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from polyteam.atoms import AtomRegistry, GeneralizedQuantifier
from polyteam.errors import ParseError
from polyteam.model import Variable
from polyteam.syntax import format_formula, parse

from reference_syntax import reference_parse

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
REGISTRY = AtomRegistry([GeneralizedQuantifier("one", (1,), lambda d, r: True),
                         GeneralizedQuantifier("two", (1, 2), lambda d, r: True)])

PIECES = (
    # names, including a digit-leading one, a non-ASCII letter and a reserved one
    "P", "Q", "x", "y", "u", "_fr0", "9x", "é", "x2", "E", "A", "true", "R",
    "pdep", "pinc", "pexc", "pind", "atom", "one", "two",
    # operators and symbols, and characters no token starts with
    "/\\", "\\/", "\\/_", "\\", "!=", "!", "=", "(", ")", "{", "}", ".", ",",
    ";", "|", ":", "/", "$", "<", "\x0b",
    # blanks and comments
    " ", " ", "\t", "\r", "\n", "\r\n", "#c\n", "#c",
    # whole pieces, so that some samples parse
    "P.x", "Q.u", "P.x = P.y", "Q.u != Q.v", "R(P.x)", "pdep(P.x ; P.y | Q.u ; Q.v)",
    "pinc(P.x | Q.u)", "pexc(:P | :Q)", "atom one((P.x))", "E P.x .", "A Q.u .",
    " /\\ ", " \\/ ", " \\/_{P,Q} ", "(P.x = P.y)", "P._fr1", "atom nope((P.x))",
    "atom two((P.x)(Q.u, Q.v))", "pind((P.x),(Q.a)/(R.u) ; (P.y)/(R.v) ; (Q.b)/(R.w))",
    # whole broken atoms, one for each way the atom reader fails
    "pdep(P.x, Q.y ; P.z | Q.u ; Q.v)", "pinc(P.x, :P | Q.u)", "pdep(P.x | Q.u)",
    "pexc(P._fr0 | Q.u)", "pind((P.x),(Q.a)(R.u) ; (P.y)/(R.v) ; (Q.b)/(R.w))", "pexc(P.x,",
    "pinc(:P P.x | Q.u)", "pexc(P.x | Q.u.)", "pind((P.x),(Q.a)/(R.u) ; P.y/(R.v) ; (Q.b)/(R.w))",
    "pinc(P.x | P.y, Q.u)", "pdep(: ; | ; )", "pdep(P.x ; Q.y, R.z | Q.u ; Q.v)",
)


def load_generators():
    spec = importlib.util.spec_from_file_location(
        "perfbench_generators", ROOT / "perfbench" / "generators.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def piece_texts(rng, count):
    for _ in range(count):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12)))
        yield text + "#c" if rng.random() < 0.1 else text


def generator_texts(rng):
    gen = load_generators()
    files = {}
    files.update(gen.hospital(rng, 4))
    files.update(gen.exchange(rng))
    files.update(gen.workforce(rng, 1, 1, 1))
    files.update(gen.oracle_pairs(rng))
    texts = [text for name, text in sorted(files.items()) if name.endswith(".ptf")]
    for length in (2, 3, 5):
        for cross_sort in (False, True):
            chain = gen.implication_chain(rng, length, cross_sort, broken=False)
            texts.append(chain)
            texts.extend(chain.splitlines())
    for atoms in (1, 2, 3, 6):
        texts.append(gen.rewrite_formula(rng, atoms))
        texts.append(gen.rewrite_formula(rng, atoms, single_sorted=True, disjunctions=True))
        texts.append(gen.rewrite_formula(rng, atoms, disjunctions=True, block=2))
    return texts


def fixture_texts():
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*/*.ptf"))]
    for path in sorted((FIXTURES / "implication").glob("*.pdep")):
        texts.extend(line for line in path.read_text(encoding="utf-8").splitlines() if line)
    return texts


def mutate(rng, text):
    """Up to three edits: delete, replace or insert a piece, or cut the tail."""
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:at] + text[at + 1:]
        elif edit == 1:
            text = text[:at] + rng.choice(PIECES) + text[at + 1:]
        elif edit == 2:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        else:
            text = text[:at]
    return text


def outcome(parser, text):
    try:
        return parser(text, REGISTRY)
    except ParseError as err:
        return str(err), err.line, err.col


def test_parse_matches_the_reference_front_end():
    rng = random.Random(20261018)
    seeds = fixture_texts() + generator_texts(rng)
    texts = list(piece_texts(rng, 14000)) + seeds
    texts += [mutate(rng, rng.choice(seeds)) for _ in range(6000)]
    assert len(texts) >= 20000
    parsed = 0
    for text in texts:
        expected = outcome(reference_parse, text)
        assert outcome(parse, text) == expected, text
        parsed += not isinstance(expected, tuple)
    assert parsed >= 1000


GROUPS = ("", ":P", ":Q", "P.x", "Q.u", "P.x, P.y", "P.x, Q.u", "Q.u, Q.v")


def atom_grid_texts(rng):
    """Every pdep, pinc and pexc text over GROUPS, and seeded pind texts."""
    texts = ["pdep(%s ; %s | %s ; %s)" % g for g in itertools.product(GROUPS, repeat=4)]
    for keyword in ("pinc", "pexc"):
        texts += [f"{keyword}(%s | %s)" % g for g in itertools.product(GROUPS, repeat=2)]
    texts += ["pind((%s),(%s)/(%s) ; (%s)/(%s) ; (%s)/(%s))"
              % tuple(rng.choice(GROUPS) for _ in range(7)) for _ in range(6000)]
    return texts


def test_atoms_over_a_grid_of_groups_match_the_reference_and_print_back():
    texts = atom_grid_texts(random.Random(20261019))
    assert len(texts) == 10224
    parsed = 0
    for text in texts:
        expected = outcome(reference_parse, text)
        assert outcome(parse, text) == expected, text
        if not isinstance(expected, tuple):
            assert parse(format_formula(expected)) == expected, text
            parsed += 1
    assert parsed == 163


@pytest.mark.parametrize("text,tuples", [
    ("pdep(P.x ; P.y | Q.u ; Q.v)", (("P", ("x",)), ("P", ("y",)), ("Q", ("u",)), ("Q", ("v",)))),
    ("pinc(P.x, P.y | Q.u, Q.v)", (("P", ("x", "y")), ("Q", ("u", "v")))),
    ("pexc(:P | :Q)", (("P", ()), ("Q", ()))),
    ("pind((P.x),(Q.a)/(R.u) ; (P.y)/(R.v) ; (Q.b)/(R.w))",
     (("P", ("x",)), ("P", ("y",)), ("Q", ("a",)), ("Q", ("b",)),
      ("R", ("u",)), ("R", ("v",)), ("R", ("w",)))),
    ("atom two((P.x)(Q.u, Q.v))", (("P", ("x",)), ("Q", ("u", "v")))),
])
def test_atom_tuples_are_pinned(text, tuples):
    atom = parse(text, REGISTRY).atom
    expected = tuple((sort, tuple(Variable(sort, name) for name in names))
                     for sort, names in tuples)
    assert atom.tuples() == expected
