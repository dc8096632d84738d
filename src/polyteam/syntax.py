"""Formula AST, concrete syntax, and well-formedness checks.

Concrete syntax summary (whitespace-insensitive, ``#`` starts a comment):

    variables        P.x  （``sort.name``）
    literals         P.x = P.y    P.x != P.y    R(P.x, P.y)    !R(P.x)
    connectives      a /\\ b      a \\/ b       a \\/_{S1,S2} b
    quantifiers      E P.x . body          A P.x . body
    truth            true
    atoms            pdep(xs ; ys | us ; vs)
                     pinc(xs | ys)         pexc(xs | ys)
                     pind((xs),(as)/(us) ; (ys)/(vs) ; (bs)/(ws))
                     atom NAME((t1)(t2)...)

The connectives ``And``, ``OrGlobal`` and ``OrLocal`` are n-ary: each
constructor splices in any part of the node's own shape (for ``OrLocal``,
the same sorts), so trees are flat and nest only at quantifiers and where
connectives alternate.

An empty variable tuple may be written ``:S`` to pin its sort explicitly;
bare empty tuples take their sort from the surrounding atom.  Variable names
beginning with ``_fr`` are reserved for the rewriter and rejected here.

The scanner is one compiled regex: ``findall`` yields the token texts, and a
dict lookup gives each text's kind, so the parser reads two parallel lists,
kinds and texts, by index and builds no object per token.  Line and column
are found only when a ``ParseError`` is raised, by scanning the text again up
to the failing token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from .errors import ParseError
from .model import Sort, Variable

FRESH_PREFIX = "_fr"


# ---------------------------------------------------------------------------
# Atom instances

@dataclass(frozen=True)
class PolyDep:
    """=(x ; y | u ; v): values of u determine v across teams i and j."""

    sort_i: Sort
    x: Tuple[Variable, ...]
    y: Tuple[Variable, ...]
    sort_j: Sort
    u: Tuple[Variable, ...]
    v: Tuple[Variable, ...]

    def tuples(self):
        return ((self.sort_i, self.x), (self.sort_i, self.y),
                (self.sort_j, self.u), (self.sort_j, self.v))


@dataclass(frozen=True)
class PolyInc:
    """x ⊆ y between teams of sorts i and j."""

    sort_i: Sort
    x: Tuple[Variable, ...]
    sort_j: Sort
    y: Tuple[Variable, ...]

    def tuples(self):
        return ((self.sort_i, self.x), (self.sort_j, self.y))


@dataclass(frozen=True)
class PolyExc:
    """x | y: value sets of x in team i and y in team j are disjoint."""

    sort_i: Sort
    x: Tuple[Variable, ...]
    sort_j: Sort
    y: Tuple[Variable, ...]

    def tuples(self):
        return ((self.sort_i, self.x), (self.sort_j, self.y))


@dataclass(frozen=True)
class PolyInd:
    """Poly-independence ⟨x,a/u ; y/v ; b/w⟩ over sorts (i, j, k).

    Satisfied when every pair (s in team i, s' in team j) with s(x) = s'(a)
    is witnessed by some s'' in team k with s''(u v) = s(x y), s''(w) = s'(b).
    The pure form has x, a, u all empty.
    """

    sort_i: Sort
    x: Tuple[Variable, ...]
    y: Tuple[Variable, ...]
    sort_j: Sort
    a: Tuple[Variable, ...]
    b: Tuple[Variable, ...]
    sort_k: Sort
    u: Tuple[Variable, ...]
    v: Tuple[Variable, ...]
    w: Tuple[Variable, ...]

    def tuples(self):
        return ((self.sort_i, self.x), (self.sort_i, self.y),
                (self.sort_j, self.a), (self.sort_j, self.b),
                (self.sort_k, self.u), (self.sort_k, self.v), (self.sort_k, self.w))


@dataclass(frozen=True)
class GeneralizedAtom:
    """A registered generalized quantifier applied to variable tuples."""

    name: str
    args: Tuple[Tuple[Variable, ...], ...]

    def tuples(self):
        return tuple((t[0].sort if t else None, t) for t in self.args)


ATOM_TYPES = (PolyDep, PolyInc, PolyExc, PolyInd, GeneralizedAtom)


def atom_variables(atom) -> tuple:
    out = []
    for _, tup in atom.tuples():
        out.extend(tup)
    return tuple(out)


def atom_sorts(atom) -> frozenset:
    """All sorts the atom's satisfaction may depend on (including var-free groups)."""
    sorts = {s for s, _ in atom.tuples() if s is not None}
    return frozenset(sorts)


# ---------------------------------------------------------------------------
# Formula nodes

class Formula:
    __slots__ = ()

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Truth(Formula):
    pass


@dataclass(frozen=True)
class Eq(Formula):
    left: Variable
    right: Variable


@dataclass(frozen=True)
class Neq(Formula):
    left: Variable
    right: Variable


@dataclass(frozen=True)
class Rel(Formula):
    name: str
    args: Tuple[Variable, ...]


@dataclass(frozen=True)
class NegRel(Formula):
    name: str
    args: Tuple[Variable, ...]


@dataclass(frozen=True, init=False)
class Connective(Formula):
    """At least two parts; the constructor splices in parts of the node's own shape."""

    parts: Tuple[Formula, ...]

    def __init__(self, *parts):
        flat = []
        for p in parts:
            same = type(p) is type(self) and \
                getattr(p, "sorts", None) == getattr(self, "sorts", None)
            flat.extend(p.parts if same else (p,))
        if len(flat) < 2:
            raise TypeError(f"{type(self).__name__} needs at least two parts")
        object.__setattr__(self, "parts", tuple(flat))


class And(Connective):
    pass


class OrGlobal(Connective):
    pass


@dataclass(frozen=True, init=False)
class OrLocal(Connective):
    sorts: frozenset

    def __init__(self, sorts, *parts):
        object.__setattr__(self, "sorts", sorts)
        super().__init__(*parts)


@dataclass(frozen=True)
class Exists(Formula):
    var: Variable
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Variable
    body: Formula


@dataclass(frozen=True)
class AtomF(Formula):
    atom: object


def conjoin(parts) -> Formula:
    """The conjunction of the parts: ``true`` for none, the part itself for one."""
    parts = tuple(parts)
    if not parts:
        return Truth()
    return parts[0] if len(parts) == 1 else And(*parts)


def exists_chain(variables, body: Formula) -> Formula:
    """∃v1 ∃v2 … body for the variables v1, v2, … in order."""
    for var in reversed(variables):
        body = Exists(var, body)
    return body


def walk(phi: Formula):
    """Yield every node of the formula tree, preorder."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Connective):
            stack.extend(reversed(node.parts))
        elif isinstance(node, (Exists, Forall)):
            stack.append(node.body)


# ---------------------------------------------------------------------------
# Structural queries

def free_variables(phi: Formula) -> dict:
    """Free variables per sort (quantifiers bind at their own sort only)."""

    def go(f) -> set:
        if isinstance(f, Truth):
            return set()
        if isinstance(f, (Eq, Neq)):
            return {f.left, f.right}
        if isinstance(f, (Rel, NegRel)):
            return set(f.args)
        if isinstance(f, Connective):
            return set().union(*map(go, f.parts))
        if isinstance(f, (Exists, Forall)):
            return go(f.body) - {f.var}
        if isinstance(f, AtomF):
            return set(atom_variables(f.atom))
        raise TypeError(f"not a formula node: {f!r}")

    report: dict = {}
    for v in go(phi):
        report.setdefault(v.sort, set()).add(v)
    return {sort: frozenset(vs) for sort, vs in sorted(report.items())}


def all_variables(phi: Formula) -> frozenset:
    """Every variable occurring in the formula, free or bound."""
    out = set()
    for node in walk(phi):
        if isinstance(node, (Eq, Neq)):
            out.update((node.left, node.right))
        elif isinstance(node, (Rel, NegRel)):
            out.update(node.args)
        elif isinstance(node, (Exists, Forall)):
            out.add(node.var)
        elif isinstance(node, AtomF):
            out.update(atom_variables(node.atom))
    return frozenset(out)


def mentioned_sorts(phi: Formula) -> frozenset:
    """Sorts whose teams the formula's satisfaction may depend on."""
    sorts = set()
    for node in walk(phi):
        if isinstance(node, (Eq, Neq)):
            sorts.update((node.left.sort, node.right.sort))
        elif isinstance(node, (Rel, NegRel)):
            sorts.update(a.sort for a in node.args)
        elif isinstance(node, (Exists, Forall)):
            sorts.add(node.var.sort)
        elif isinstance(node, AtomF):
            sorts.update(atom_sorts(node.atom))
    return frozenset(sorts)


def _single_sorted(tag, sort, tup, out):
    for v in tup:
        if v.sort != sort:
            out.append(f"{tag}: variable {v} is not of sort {sort!r}")


def atom_violations(atom) -> list:
    """Invariant violations of a single atom instance."""
    out = []
    if isinstance(atom, PolyDep):
        for tag, sort, tup in (("pdep left", atom.sort_i, atom.x + atom.y),
                               ("pdep right", atom.sort_j, atom.u + atom.v)):
            _single_sorted(tag, sort, tup, out)
        if len(atom.x) != len(atom.u):
            out.append(f"pdep: antecedent arities differ ({len(atom.x)} vs {len(atom.u)})")
        if len(atom.y) != len(atom.v):
            out.append(f"pdep: consequent arities differ ({len(atom.y)} vs {len(atom.v)})")
        if atom.sort_i == atom.sort_j and atom.x + atom.y != atom.u + atom.v:
            out.append("pdep: same-sort atom with differing sides is a shorthand, "
                       "not a primitive; introduce it via the rewrite rules")
    elif isinstance(atom, (PolyInc, PolyExc)):
        tag = "pinc" if isinstance(atom, PolyInc) else "pexc"
        _single_sorted(f"{tag} left", atom.sort_i, atom.x, out)
        _single_sorted(f"{tag} right", atom.sort_j, atom.y, out)
        if len(atom.x) != len(atom.y):
            out.append(f"{tag}: tuple arities differ ({len(atom.x)} vs {len(atom.y)})")
    elif isinstance(atom, PolyInd):
        _single_sorted("pind group i", atom.sort_i, atom.x + atom.y, out)
        _single_sorted("pind group j", atom.sort_j, atom.a + atom.b, out)
        _single_sorted("pind group k", atom.sort_k, atom.u + atom.v + atom.w, out)
        if not (len(atom.x) == len(atom.a) == len(atom.u)):
            out.append("pind: |x|, |a|, |u| differ")
        if len(atom.y) != len(atom.v):
            out.append("pind: |y| and |v| differ")
        if len(atom.b) != len(atom.w):
            out.append("pind: |b| and |w| differ")
    elif isinstance(atom, GeneralizedAtom):
        for idx, tup in enumerate(atom.args):
            if not tup:
                out.append(f"atom {atom.name}: argument tuple {idx} is empty")
            else:
                _single_sorted(f"atom {atom.name} argument {idx}", tup[0].sort, tup, out)
    else:
        out.append(f"unknown atom instance: {atom!r}")
    return out


def check_well_sorted(phi: Formula, registry=None) -> list:
    """All sort/arity violations in the formula; empty list iff well-formed."""
    out = []
    for node in walk(phi):
        if isinstance(node, (Eq, Neq)):
            if node.left.sort != node.right.sort:
                op = "=" if isinstance(node, Eq) else "!="
                out.append(f"{node.left} {op} {node.right}: operands of different sorts")
        elif isinstance(node, (Rel, NegRel)):
            sorts = {a.sort for a in node.args}
            if len(sorts) > 1:
                out.append(f"{node.name}(...): argument tuple mixes sorts {sorted(sorts)}")
        elif isinstance(node, OrLocal):
            if not node.sorts:
                out.append("local disjunction with empty sort set")
        elif isinstance(node, AtomF):
            out.extend(atom_violations(node.atom))
            if registry is not None and isinstance(node.atom, GeneralizedAtom):
                try:
                    q = registry[node.atom.name]
                except KeyError:
                    out.append(f"atom {node.atom.name}: not registered")
                else:
                    arities = tuple(len(t) for t in node.atom.args)
                    if arities != tuple(q.type):
                        out.append(f"atom {node.atom.name}: arities {arities} do not match "
                                   f"registered type {tuple(q.type)}")
    return out


# ---------------------------------------------------------------------------
# Printer

def _format_tuple(sort, tup):
    if not tup:
        return f":{sort}"
    return ", ".join(str(v) for v in tup)


def _format_atom(atom) -> str:
    if isinstance(atom, PolyDep):
        return ("pdep(%s ; %s | %s ; %s)"
                % (_format_tuple(atom.sort_i, atom.x), _format_tuple(atom.sort_i, atom.y),
                   _format_tuple(atom.sort_j, atom.u), _format_tuple(atom.sort_j, atom.v)))
    if isinstance(atom, PolyInc):
        return "pinc(%s | %s)" % (_format_tuple(atom.sort_i, atom.x),
                                  _format_tuple(atom.sort_j, atom.y))
    if isinstance(atom, PolyExc):
        return "pexc(%s | %s)" % (_format_tuple(atom.sort_i, atom.x),
                                  _format_tuple(atom.sort_j, atom.y))
    if isinstance(atom, PolyInd):
        g = lambda sort, tup: "(%s)" % _format_tuple(sort, tup)
        return ("pind(%s,%s/%s ; %s/%s ; %s/%s)"
                % (g(atom.sort_i, atom.x), g(atom.sort_j, atom.a), g(atom.sort_k, atom.u),
                   g(atom.sort_i, atom.y), g(atom.sort_k, atom.v),
                   g(atom.sort_j, atom.b), g(atom.sort_k, atom.w)))
    if isinstance(atom, GeneralizedAtom):
        args = "".join("(%s)" % ", ".join(str(v) for v in t) for t in atom.args)
        return f"atom {atom.name}({args})"
    raise TypeError(f"unknown atom instance: {atom!r}")


def format_formula(phi: Formula) -> str:
    if isinstance(phi, Truth):
        return "true"
    if isinstance(phi, Eq):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, Neq):
        return f"{phi.left} != {phi.right}"
    if isinstance(phi, Rel):
        return "%s(%s)" % (phi.name, ", ".join(str(a) for a in phi.args))
    if isinstance(phi, NegRel):
        return "!%s(%s)" % (phi.name, ", ".join(str(a) for a in phi.args))
    if isinstance(phi, Connective):
        if isinstance(phi, And):
            op = "/\\"
        elif isinstance(phi, OrGlobal):
            op = "\\/"
        else:
            op = "\\/_{%s}" % ",".join(sorted(phi.sorts))
        return "(" + f" {op} ".join(map(format_formula, phi.parts)) + ")"
    if isinstance(phi, Exists):
        return f"(E {phi.var} . {format_formula(phi.body)})"
    if isinstance(phi, Forall):
        return f"(A {phi.var} . {format_formula(phi.body)})"
    if isinstance(phi, AtomF):
        return _format_atom(phi.atom)
    raise TypeError(f"not a formula node: {phi!r}")


# ---------------------------------------------------------------------------
# Scanner

# Each match is one token (group 1) or one comment (group 1 is None); the
# blanks " \t\r\n" between matches are skipped.  A character that starts no
# operator, symbol or word is a one-character token, which _scan rejects.
_TOKEN = re.compile(r"#[^\n]*|(/\\|\\/_?|!=|\w+|[^ \t\r\n])")

_KINDS = {
    "/\\": "ANDOP", "\\/_": "ORLOCAL", "\\/": "OROP", "!=": "NEQ",
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ".": "DOT", ",": "COMMA", ";": "SEMI", "|": "PIPE",
    "=": "EQ", ":": "COLON", "/": "SLASH", "!": "BANG",
}


def _scan(text: str):
    """Token kinds and texts as parallel lists, each ending in two EOF entries."""
    texts = list(filter(None, _TOKEN.findall(text)))
    kinds = [_KINDS.get(tok, "IDENT") for tok in texts]
    for index, (kind, tok) in enumerate(zip(kinds, texts)):
        # \w is isalnum() or "_"; a name must also start with a letter or "_"
        if kind == "IDENT" and not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"unexpected character {tok[0]!r}", *_position(text, index))
    kinds += ("EOF", "EOF")
    texts += ("", "")
    return kinds, texts


def _position(text: str, index: int):
    """Line and column of token ``index``; past the last token, of EOF."""
    offset = len(text)
    for match in _TOKEN.finditer(text):
        if match.group(1):
            if not index:
                offset = match.start()
                break
            index -= 1
        elif match.end() == len(text):
            offset = match.start()  # EOF after a trailing comment sits at its "#"
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


# ---------------------------------------------------------------------------
# Parser

_ATOM_KEYWORDS = {"pdep", "pinc", "pexc", "pind", "atom"}


class _Parser:
    """Recursive descent over the scanned lists; tokens are named by index."""

    def __init__(self, text: str, registry=None):
        self.text = text
        self.kinds, self.texts = _scan(text)
        self.pos = 0
        self.registry = registry

    def peek(self, ahead=0) -> str:
        return self.kinds[self.pos + ahead]

    def next(self) -> int:
        self.pos += 1
        return self.pos - 1

    def expect(self, kind: str) -> str:
        """Consume a token of the kind and return its text."""
        index = self.pos
        self.pos = index + 1
        if self.kinds[index] != kind:
            self.error(f"expected {kind}, found {self.texts[index]!r}", index)
        return self.texts[index]

    def error(self, message, index=None):
        if index is None:
            index = self.pos
        raise ParseError(message, *_position(self.text, index))

    # -- variables and tuples

    def variable(self) -> Variable:
        sort = self.expect("IDENT")
        self.expect("DOT")
        name = self.expect("IDENT")
        if name.startswith(FRESH_PREFIX):
            self.error(f"variable names starting with {FRESH_PREFIX!r} are reserved",
                       self.pos - 1)
        return Variable(sort, name)

    def bare_tuple(self, stop_kinds):
        """A comma-separated variable list, optionally ``:S`` or empty."""
        if self.peek() == "COLON":
            self.next()
            return [], self.expect("IDENT")
        if self.peek() in stop_kinds:
            return [], None
        variables = [self.variable()]
        while self.peek() == "COMMA":
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
        kind = self.peek()
        if kind == "OROP":
            self.next()
            return "OROP"
        if kind != "ORLOCAL":
            return None
        self.next()
        self.expect("LBRACE")
        sorts = {self.expect("IDENT")}
        while self.peek() == "COMMA":
            self.next()
            sorts.add(self.expect("IDENT"))
        self.expect("RBRACE")
        return frozenset(sorts)

    def conjunction(self) -> Formula:
        parts = [self.unit()]
        while self.peek() == "ANDOP":
            self.next()
            parts.append(self.unit())
        return conjoin(parts)

    def unit(self) -> Formula:
        kind, text = self.peek(), self.texts[self.pos]
        if kind == "LPAREN":
            self.next()
            inner = self.formula()
            self.expect("RPAREN")
            return inner
        if kind == "BANG":
            self.next()
            name = self.expect("IDENT")
            return NegRel(name, self.relation_args())
        if kind != "IDENT":
            self.error(f"expected a formula, found {text!r}")
        if text == "true":
            self.next()
            return Truth()
        if text in ("E", "A") and self.peek(1) == "IDENT":
            self.next()
            var = self.variable()
            self.expect("DOT")
            body = self.formula()
            return Exists(var, body) if text == "E" else Forall(var, body)
        if text in _ATOM_KEYWORDS and (text == "atom" or self.peek(1) == "LPAREN"):
            return self.atom()
        if self.peek(1) == "LPAREN":
            self.next()
            return Rel(text, self.relation_args())
        left = self.variable()
        op = self.next()
        if self.kinds[op] == "EQ":
            return Eq(left, self.variable())
        if self.kinds[op] == "NEQ":
            return Neq(left, self.variable())
        self.error(f"expected '=' or '!=' after {left}", op)

    def relation_args(self):
        self.expect("LPAREN")
        args, sort = self.bare_tuple(("RPAREN",))
        self.expect("RPAREN")
        if sort is not None or not args:
            self.error("relation literals need at least one variable")
        return tuple(args)

    # -- atoms (``key`` is the index of the keyword token)

    def atom(self) -> Formula:
        key = self.next()
        word = self.texts[key]
        if word == "pdep":
            return self.pdep_atom(key)
        if word in ("pinc", "pexc"):
            return self.binary_atom(key)
        if word == "pind":
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
            self.error(f"{self.texts[key]} atom with no determinable sorts", key)
        cls = PolyInc if self.texts[key] == "pinc" else PolyExc
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
        at = self.pos
        name = self.expect("IDENT")
        self.expect("LPAREN")
        args = []
        while self.peek() == "LPAREN":
            variables, sort = self.paren_tuple()
            if sort is not None or not variables:
                self.error(f"atom {name}: argument tuples must list variables", at)
            args.append(tuple(variables))
        self.expect("RPAREN")
        atom = GeneralizedAtom(name, tuple(args))
        if self.registry is None or name not in self.registry:
            self.error(f"unknown generalized atom {name!r}", at)
        self._validate(atom, key)
        q = self.registry[name]
        arities = tuple(len(t) for t in atom.args)
        if arities != tuple(q.type):
            self.error(f"atom {name}: arities {arities} do not match type {tuple(q.type)}", at)
        return AtomF(atom)

    def _validate(self, atom, key):
        problems = atom_violations(atom)
        if problems:
            self.error("; ".join(problems), key)


def parse(text: str, registry=None) -> Formula:
    """Parse a formula; raises ParseError with line:column on bad input."""
    parser = _Parser(text, registry)
    phi = parser.formula()
    if parser.peek() != "EOF":
        parser.error(f"trailing input starting at {parser.texts[parser.pos]!r}")
    return phi
