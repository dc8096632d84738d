"""Reference front end: the character-loop tokenizer and token-object parser.

A copy of the scanner and parser that ``polyteam.syntax`` used before its
one-regex scanner, unchanged but for ``parse`` renamed ``reference_parse``.
It is kept only for the differential test in ``test_parse_differential.py``:
the two must return equal ASTs, or raise ``ParseError`` with equal message,
line and column.
"""

from dataclasses import dataclass

from polyteam.errors import ParseError
from polyteam.model import Variable
from polyteam.syntax import (
    FRESH_PREFIX, AtomF, Eq, Exists, Forall, Formula, GeneralizedAtom, Neq,
    NegRel, OrGlobal, OrLocal, PolyDep, PolyExc, PolyInc, PolyInd, Rel, Truth,
    atom_violations, conjoin,
)


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ".": "DOT", ",": "COMMA", ";": "SEMI", "|": "PIPE",
    "=": "EQ", ":": "COLON", "/": "SLASH", "!": "BANG",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/\\", i):
            tokens.append(Token("ANDOP", "/\\", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("\\/_", i):
            tokens.append(Token("ORLOCAL", "\\/_", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("\\/", i):
            tokens.append(Token("OROP", "\\/", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("!=", i):
            tokens.append(Token("NEQ", "!=", line, col))
            i += 2
            col += 2
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_ATOM_KEYWORDS = {"pdep", "pinc", "pexc", "pind", "atom"}


class _Parser:
    def __init__(self, text: str, registry=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.registry = registry

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- variables and tuples

    def variable(self) -> Variable:
        sort_tok = self.expect("IDENT")
        self.expect("DOT")
        name_tok = self.expect("IDENT")
        if name_tok.text.startswith(FRESH_PREFIX):
            self.error(f"variable names starting with {FRESH_PREFIX!r} are reserved", name_tok)
        return Variable(sort_tok.text, name_tok.text)

    def bare_tuple(self, stop_kinds):
        """A comma-separated variable list, optionally ``:S`` or empty."""
        if self.peek().kind == "COLON":
            self.next()
            return [], self.expect("IDENT").text
        if self.peek().kind in stop_kinds:
            return [], None
        variables = [self.variable()]
        while self.peek().kind == "COMMA":
            self.next()
            variables.append(self.variable())
        return variables, None

    def paren_tuple(self):
        self.expect("LPAREN")
        variables, sort = self.bare_tuple(("RPAREN",))
        self.expect("RPAREN")
        return variables, sort

    # -- formulas

    def formula(self) -> Formula:
        # each run of one operator (for \/_{…}, one sort set) becomes one
        # node, and runs group to the left: a \/ b \/_{P} c is
        # OrLocal({P}, OrGlobal(a, b), c)
        left = self.conjunction()
        op = self.disjunction_operator()
        while op is not None:
            run, parts = op, [left]
            while op == run:
                parts.append(self.conjunction())
                op = self.disjunction_operator()
            left = OrGlobal(*parts) if run == "OROP" else OrLocal(run, *parts)
        return left

    def disjunction_operator(self):
        r"""Consume the next \/ ("OROP") or \/_{…} (its sort set); None if neither."""
        tok = self.peek()
        if tok.kind == "OROP":
            self.next()
            return "OROP"
        if tok.kind != "ORLOCAL":
            return None
        self.next()
        self.expect("LBRACE")
        sorts = {self.expect("IDENT").text}
        while self.peek().kind == "COMMA":
            self.next()
            sorts.add(self.expect("IDENT").text)
        self.expect("RBRACE")
        return frozenset(sorts)

    def conjunction(self) -> Formula:
        parts = [self.unit()]
        while self.peek().kind == "ANDOP":
            self.next()
            parts.append(self.unit())
        return conjoin(parts)

    def unit(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            inner = self.formula()
            self.expect("RPAREN")
            return inner
        if tok.kind == "BANG":
            self.next()
            name = self.expect("IDENT")
            args = self.relation_args()
            return NegRel(name.text, args)
        if tok.kind != "IDENT":
            self.error(f"expected a formula, found {tok.text!r}")
        if tok.text == "true":
            self.next()
            return Truth()
        if tok.text in ("E", "A") and self.peek(1).kind == "IDENT":
            self.next()
            var = self.variable()
            self.expect("DOT")
            body = self.formula()
            return Exists(var, body) if tok.text == "E" else Forall(var, body)
        if tok.text in _ATOM_KEYWORDS and (tok.text == "atom" or self.peek(1).kind == "LPAREN"):
            return self.atom()
        if self.peek(1).kind == "LPAREN":
            name = self.next()
            args = self.relation_args()
            return Rel(name.text, args)
        left = self.variable()
        op = self.next()
        if op.kind == "EQ":
            return Eq(left, self.variable())
        if op.kind == "NEQ":
            return Neq(left, self.variable())
        self.error(f"expected '=' or '!=' after {left}", op)

    def relation_args(self):
        self.expect("LPAREN")
        args, sort = self.bare_tuple(("RPAREN",))
        self.expect("RPAREN")
        if sort is not None or not args:
            self.error("relation literals need at least one variable")
        return tuple(args)

    # -- atoms

    def atom(self) -> Formula:
        key = self.next()
        if key.text == "pdep":
            return self.pdep_atom(key)
        if key.text in ("pinc", "pexc"):
            return self.binary_atom(key)
        if key.text == "pind":
            return self.pind_atom(key)
        return self.generalized_atom(key)

    def _group_sort(self, key, tuples, markers):
        """The shared sort of a tuple group, from its variables or markers."""
        sorts = {v.sort for tup in tuples for v in tup}
        sorts.update(m for m in markers if m is not None)
        if len(sorts) > 1:
            self.error(f"atom side mixes sorts {sorted(sorts)}", key)
        return next(iter(sorts)) if sorts else None

    @staticmethod
    def _fill_sorts(found):
        known = [s for s in found if s is not None]
        if not known:
            return None
        return [s if s is not None else known[0] for s in found]

    def pdep_atom(self, key) -> Formula:
        self.expect("LPAREN")
        x, mx = self.bare_tuple(("SEMI",))
        self.expect("SEMI")
        y, my = self.bare_tuple(("PIPE",))
        self.expect("PIPE")
        u, mu = self.bare_tuple(("SEMI",))
        self.expect("SEMI")
        v, mv = self.bare_tuple(("RPAREN",))
        self.expect("RPAREN")
        si = self._group_sort(key, (x, y), (mx, my))
        sj = self._group_sort(key, (u, v), (mu, mv))
        filled = self._fill_sorts([si, sj])
        if filled is None:
            self.error("pdep atom with no determinable sorts", key)
        atom = PolyDep(filled[0], tuple(x), tuple(y), filled[1], tuple(u), tuple(v))
        self._validate(atom, key)
        return AtomF(atom)

    def binary_atom(self, key) -> Formula:
        self.expect("LPAREN")
        x, mx = self.bare_tuple(("PIPE",))
        self.expect("PIPE")
        y, my = self.bare_tuple(("RPAREN",))
        self.expect("RPAREN")
        si = self._group_sort(key, (x,), (mx,))
        sj = self._group_sort(key, (y,), (my,))
        filled = self._fill_sorts([si, sj])
        if filled is None:
            self.error(f"{key.text} atom with no determinable sorts", key)
        cls = PolyInc if key.text == "pinc" else PolyExc
        atom = cls(filled[0], tuple(x), filled[1], tuple(y))
        self._validate(atom, key)
        return AtomF(atom)

    def pind_atom(self, key) -> Formula:
        self.expect("LPAREN")
        x, mx = self.paren_tuple()
        self.expect("COMMA")
        a, ma = self.paren_tuple()
        self.expect("SLASH")
        u, mu = self.paren_tuple()
        self.expect("SEMI")
        y, my = self.paren_tuple()
        self.expect("SLASH")
        v, mv = self.paren_tuple()
        self.expect("SEMI")
        b, mb = self.paren_tuple()
        self.expect("SLASH")
        w, mw = self.paren_tuple()
        self.expect("RPAREN")
        si = self._group_sort(key, (x, y), (mx, my))
        sj = self._group_sort(key, (a, b), (ma, mb))
        sk = self._group_sort(key, (u, v, w), (mu, mv, mw))
        filled = self._fill_sorts([si, sj, sk])
        if filled is None:
            self.error("pind atom with no determinable sorts", key)
        atom = PolyInd(filled[0], tuple(x), tuple(y), filled[1], tuple(a), tuple(b),
                       filled[2], tuple(u), tuple(v), tuple(w))
        self._validate(atom, key)
        return AtomF(atom)

    def generalized_atom(self, key) -> Formula:
        name = self.expect("IDENT")
        self.expect("LPAREN")
        args = []
        while self.peek().kind == "LPAREN":
            variables, sort = self.paren_tuple()
            if sort is not None or not variables:
                self.error(f"atom {name.text}: argument tuples must list variables", name)
            args.append(tuple(variables))
        self.expect("RPAREN")
        atom = GeneralizedAtom(name.text, tuple(args))
        if self.registry is None or name.text not in self.registry:
            self.error(f"unknown generalized atom {name.text!r}", name)
        self._validate(atom, key)
        q = self.registry[name.text]
        arities = tuple(len(t) for t in atom.args)
        if arities != tuple(q.type):
            self.error(f"atom {name.text}: arities {arities} do not match type {tuple(q.type)}",
                       name)
        return AtomF(atom)

    def _validate(self, atom, key):
        problems = atom_violations(atom)
        if problems:
            self.error("; ".join(problems), key)


def reference_parse(text: str, registry=None) -> Formula:
    """Parse a formula; raises ParseError with line:column on bad input."""
    parser = _Parser(text, registry)
    phi = parser.formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return phi
