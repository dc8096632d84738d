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

Atoms and formula nodes are ``model.Record``s, immutable and equal when of
one class with equal fields; the field tuple ``_fields`` gives the atoms'
field order to the tables below.  The nodes that every parse and rewrite
builds by the thousand (the built-in atoms, ``Eq``, ``Neq``, the
quantifiers, ``AtomF`` and the connectives) have their own ``__init__``,
at least as fast as the frozen dataclasses they replace, whose import and
per-class code generation cost about 20 ms when no bytecode is cached.

The connectives ``And``, ``OrGlobal`` and ``OrLocal`` are n-ary: each
constructor splices in any part of the node's own shape (for ``OrLocal``,
the same sorts), so trees are flat and nest only at quantifiers and where
connectives alternate.

An empty variable tuple may be written ``:S`` to pin its sort explicitly;
bare empty tuples take their sort from the surrounding atom.  Variable names
beginning with ``_fr`` are reserved for the rewriter and rejected here.

``_SHAPES`` is the one place where the built-in atoms' written form lives:
the parser, the printer, ``tuples()``, the structural queries and
``atom_violations`` read it.

Whether an atom is well-formed is decided here and nowhere else:
``atom_violations`` checks the sorts and lengths of its groups, and
``resolve_generalized`` checks a generalized atom's name and arities against a
registry.  The parser, ``check_well_sorted`` (which the evaluator runs before
evaluating), the implication engine and ``atoms.check_generalized`` call them.

The scanner is one compiled regex: ``findall`` yields the token texts, and a
dict lookup gives each text's kind, so the parser reads two parallel lists,
kinds and texts, by index and builds no object per token.  The reader of the
built-in atoms steps through each group and separator by index, with no
method call per token, and keeps one sort per sort field; it gathers sorts
only once two clash, for the error message.  A token it cannot take is
reported by ``variable`` or ``mismatch``, which hold each message once.  Line
and column are found only when a ``ParseError`` is raised, by scanning the
text again up to the failing token.
"""

from __future__ import annotations

import re
from itertools import chain, groupby, repeat
from operator import attrgetter

from .errors import ParseError
from .model import Record, Variable, _set

FRESH_PREFIX = "_fr"
_SORT = attrgetter("sort")


# ---------------------------------------------------------------------------
# Atom instances

class _BuiltinAtom(Record):
    """One of the paper's four atoms; ``_SHAPES`` gives its written form.

    The ``sort_*`` fields are sorts and the others tuples of variables.
    """

    __slots__ = ()

    def tuples(self):
        """(sort, variable group) pairs, in field order."""
        sides, groups = _FIELD_ORDER[type(self)]
        return tuple(zip(sides(self), groups(self)))


class PolyDep(_BuiltinAtom):
    """=(x ; y | u ; v): values of u determine v across teams i and j."""

    __slots__ = ("sort_i", "x", "y", "sort_j", "u", "v")

    def __init__(self, sort_i, x, y, sort_j, u, v):
        _set(self, "sort_i", sort_i)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "sort_j", sort_j)
        _set(self, "u", u)
        _set(self, "v", v)


class PolyInc(_BuiltinAtom):
    """x ⊆ y between teams of sorts i and j."""

    __slots__ = ("sort_i", "x", "sort_j", "y")

    def __init__(self, sort_i, x, sort_j, y):
        _set(self, "sort_i", sort_i)
        _set(self, "x", x)
        _set(self, "sort_j", sort_j)
        _set(self, "y", y)


class PolyExc(_BuiltinAtom):
    """x | y: value sets of x in team i and y in team j are disjoint."""

    __slots__ = ("sort_i", "x", "sort_j", "y")

    def __init__(self, sort_i, x, sort_j, y):
        _set(self, "sort_i", sort_i)
        _set(self, "x", x)
        _set(self, "sort_j", sort_j)
        _set(self, "y", y)


class PolyInd(_BuiltinAtom):
    """Poly-independence ⟨x,a/u ; y/v ; b/w⟩ over sorts (i, j, k).

    Satisfied when every pair (s in team i, s' in team j) with s(x) = s'(a)
    is witnessed by some s'' in team k with s''(u v) = s(x y), s''(w) = s'(b).
    The pure form has x, a, u all empty.
    """

    __slots__ = ("sort_i", "x", "y", "sort_j", "a", "b", "sort_k", "u", "v", "w")

    def __init__(self, sort_i, x, y, sort_j, a, b, sort_k, u, v, w):
        _set(self, "sort_i", sort_i)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "sort_j", sort_j)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "sort_k", sort_k)
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "w", w)


# The written form of each built-in atom: its keyword, whether each group
# sits in parentheses, its groups in written order, each as (field, the sort
# field it sits on, the text that follows it), and the sets of groups whose
# lengths must agree.  Each reader uses a view of it built once, below or
# next to the reader.
_SHAPES = {
    PolyDep: ("pdep", False, (("x", "sort_i", " ; "), ("y", "sort_i", " | "),
                              ("u", "sort_j", " ; "), ("v", "sort_j", ")")),
              (("x", "u"), ("y", "v"))),
    PolyInc: ("pinc", False, (("x", "sort_i", " | "), ("y", "sort_j", ")")), (("x", "y"),)),
    PolyExc: ("pexc", False, (("x", "sort_i", " | "), ("y", "sort_j", ")")), (("x", "y"),)),
    PolyInd: ("pind", True, (("x", "sort_i", ","), ("a", "sort_j", "/"),
                             ("u", "sort_k", " ; "), ("y", "sort_i", "/"),
                             ("v", "sort_k", " ; "), ("b", "sort_j", "/"),
                             ("w", "sort_k", ")")),
              (("x", "a", "u"), ("y", "v"), ("b", "w"))),
}


def _getters(groups):
    """Getters of the groups' sorts and of the groups, in the order given."""
    return (attrgetter(*(side for _, side, _ in groups)),
            attrgetter(*(field for field, _, _ in groups)))


def _in_field_order(cls, groups):
    return sorted(groups, key=lambda group: cls._fields.index(group[0]))


# per class, getters of its groups' sorts and of its groups, in field order
_FIELD_ORDER = {cls: _getters(_in_field_order(cls, shape[2])) for cls, shape in _SHAPES.items()}


class GeneralizedAtom(Record):
    """A registered generalized quantifier, by name, applied to variable tuples."""

    __slots__ = ("name", "args")

    def tuples(self):
        return tuple((t[0].sort if t else None, t) for t in self.args)


ATOM_TYPES = (PolyDep, PolyInc, PolyExc, PolyInd, GeneralizedAtom)


def atom_variables(atom) -> tuple:
    """The variables of the atom's groups, in the order of ``tuples()``."""
    groups = atom.args if isinstance(atom, GeneralizedAtom) else _FIELD_ORDER[type(atom)][1](atom)
    return tuple(chain.from_iterable(groups))


def atom_sorts(atom) -> frozenset:
    """All sorts the atom's satisfaction may depend on (including var-free groups)."""
    if isinstance(atom, GeneralizedAtom):
        return frozenset(s for s, _ in atom.tuples() if s is not None)
    return frozenset(_FIELD_ORDER[type(atom)][0](atom))


# ---------------------------------------------------------------------------
# Formula nodes

class Formula(Record):
    __slots__ = ()

    def __str__(self):
        return format_formula(self)


class Truth(Formula):
    __slots__ = ()


class Eq(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)


class Neq(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)


class Rel(Formula):
    """The relation ``name`` applied to the variable tuple ``args``."""

    __slots__ = ("name", "args")


class NegRel(Formula):
    __slots__ = ("name", "args")


class Connective(Formula):
    """At least two parts; the constructor splices in parts of the node's own shape."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        flat = []
        for p in parts:
            same = type(p) is type(self) and \
                getattr(p, "sorts", None) == getattr(self, "sorts", None)
            flat.extend(p.parts if same else (p,))
        if len(flat) < 2:
            raise TypeError(f"{type(self).__name__} needs at least two parts")
        _set(self, "parts", tuple(flat))


class And(Connective):
    __slots__ = ()


class OrGlobal(Connective):
    __slots__ = ()


class OrLocal(Connective):
    """A disjunction split only at the frozenset ``sorts``."""

    __slots__ = ("sorts",)

    def __init__(self, sorts, *parts):
        _set(self, "sorts", sorts)
        super().__init__(*parts)


class Exists(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var, body):
        _set(self, "var", var)
        _set(self, "body", body)


class Forall(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var, body):
        _set(self, "var", var)
        _set(self, "body", body)


class AtomF(Formula):
    """An atom instance (a built-in atom or a ``GeneralizedAtom``) as a formula."""

    __slots__ = ("atom",)

    def __init__(self, atom):
        _set(self, "atom", atom)


def conjoin(parts) -> Formula:
    """The conjunction of the parts: ``true`` for none, the part itself for one."""
    parts = tuple(parts)
    if not parts:
        return Truth()
    return parts[0] if len(parts) == 1 else And(*parts)


def exists_chain(variables, body: Formula, quantifier=Exists) -> Formula:
    """∃v1 ∃v2 … body for the variables v1, v2, … in order (∀ with ``Forall``)."""
    for var in reversed(variables):
        body = quantifier(var, body)
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

def node_variables(node) -> tuple:
    """The variables a node names itself, not through its parts."""
    if isinstance(node, AtomF):
        return atom_variables(node.atom)
    if isinstance(node, (Connective, Truth)):
        return ()
    if isinstance(node, (Eq, Neq)):
        return (node.left, node.right)
    if isinstance(node, (Rel, NegRel)):
        return node.args
    if isinstance(node, (Exists, Forall)):
        return (node.var,)
    raise TypeError(f"not a formula node: {node!r}")


def free_variables(phi: Formula) -> dict:
    """Free variables per sort (quantifiers bind at their own sort only)."""
    free = set()
    stack = [(phi, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, Connective):
            stack.extend(zip(node.parts, repeat(bound)))
        elif isinstance(node, (Exists, Forall)):
            stack.append((node.body, bound | {node.var}))
        else:
            found = node_variables(node)
            free.update(set(found) - bound if bound else found)
    return {sort: frozenset(vs) for sort, vs in groupby(sorted(free), _SORT)}


def all_variables(phi: Formula) -> frozenset:
    """Every variable occurring in the formula, free or bound."""
    return frozenset(chain.from_iterable(map(node_variables, walk(phi))))


def mentioned_sorts(phi: Formula) -> frozenset:
    """Sorts whose teams the formula's satisfaction may depend on."""
    sorts = set()
    for node in walk(phi):
        if isinstance(node, AtomF):
            sorts.update(atom_sorts(node.atom))
        else:
            sorts.update(map(_SORT, node_variables(node)))
    return frozenset(sorts)


def _checked(cls, keyword, groups, agree):
    """The keyword; each sort field with the groups on it, in field order; each
    group paired with the next one whose length must agree with it."""
    spans = {}
    for field, side, _ in _in_field_order(cls, groups):
        spans.setdefault(side, []).append(field)
    pairs = tuple(pair for same in agree for pair in zip(same, same[1:]))
    return keyword, tuple((side, tuple(names)) for side, names in spans.items()), pairs


_CHECKED = {cls: _checked(cls, shape[0], *shape[2:]) for cls, shape in _SHAPES.items()}


def atom_violations(atom) -> list:
    """Invariant violations of a single atom instance: a variable off its
    group's sort, lengths that ``_SHAPES`` pairs but differ, and for ``pdep``
    the same-sort shorthand."""
    out = []
    checked = _CHECKED.get(type(atom))
    if checked is None:
        if not isinstance(atom, GeneralizedAtom):
            return [f"unknown atom instance: {atom!r}"]
        for idx, tup in enumerate(atom.args):
            if not tup:
                out.append(f"atom {atom.name}: argument tuple {idx} is empty")
            for v in tup:
                if v.sort != tup[0].sort:
                    out.append(f"atom {atom.name} argument {idx}: "
                               f"variable {v} is not of sort {tup[0].sort!r}")
        return out
    keyword, spans, pairs = checked
    for side, names in spans:
        sort = getattr(atom, side)
        for name in names:
            for v in getattr(atom, name):
                if v.sort != sort:
                    out.append(f"{keyword} {name}: variable {v} is not of sort {sort!r}")
    for first, second in pairs:
        if len(getattr(atom, first)) != len(getattr(atom, second)):
            out.append(f"{keyword}: arities of {first} and {second} differ "
                       f"({len(getattr(atom, first))} vs {len(getattr(atom, second))})")
    if type(atom) is PolyDep and atom.sort_i == atom.sort_j and atom.x + atom.y != atom.u + atom.v:
        out.append("pdep: same-sort atom with differing sides is a shorthand, "
                   "not a primitive; introduce it via the rewrite rules")
    return out


def resolve_generalized(atom: GeneralizedAtom, registry):
    """The registry's quantifier for the atom (None if the name is unknown; no
    registry counts as an empty one) and what is wrong with the atom, if anything."""
    q = (registry or {}).get(atom.name)
    if q is None:
        return None, f"unknown generalized atom {atom.name!r}"
    arities = tuple(map(len, atom.args))
    if arities != tuple(q.type):
        return q, f"atom {atom.name}: arities {arities} do not match type {tuple(q.type)}"
    return q, None


def node_violations(node, registry=None) -> list:
    """The sort/arity violations of the node itself, not of its parts."""
    if isinstance(node, (Eq, Neq)):
        if node.left.sort != node.right.sort:
            op = "=" if isinstance(node, Eq) else "!="
            return [f"{node.left} {op} {node.right}: operands of different sorts"]
    elif isinstance(node, (Rel, NegRel)):
        sorts = {a.sort for a in node.args}
        if len(sorts) > 1:
            return [f"{node.name}(...): argument tuple mixes sorts {sorted(sorts)}"]
    elif isinstance(node, OrLocal):
        if not node.sorts:
            return ["local disjunction with empty sort set"]
    elif isinstance(node, AtomF):
        out = atom_violations(node.atom)
        if isinstance(node.atom, GeneralizedAtom):
            problem = resolve_generalized(node.atom, registry)[1]
            if problem:
                out.append(problem)
        return out
    return []


def check_well_sorted(phi: Formula, registry=None) -> list:
    """All sort/arity violations in the formula, in preorder; empty list iff well-formed."""
    return [problem for node in walk(phi) for problem in node_violations(node, registry)]


# ---------------------------------------------------------------------------
# Printer

def _format_tuple(sort, tup):
    if not tup:
        return f":{sort}"
    return ", ".join(map(str, tup))


def _printed(keyword, parenthesised, groups):
    group = "(%s)" if parenthesised else "%s"
    text = keyword + "(" + "".join(group + after for _, _, after in groups)
    return (text,) + _getters(groups)


_PRINTED = {cls: _printed(*shape[:3]) for cls, shape in _SHAPES.items()}


def _format_atom(atom) -> str:
    printed = _PRINTED.get(type(atom))
    if printed is not None:
        text, sides, groups = printed
        return text % tuple(map(_format_tuple, sides(atom), groups(atom)))
    if isinstance(atom, GeneralizedAtom):
        args = "".join("(%s)" % ", ".join(str(v) for v in t) for t in atom.args)
        return f"atom {atom.name}({args})"
    raise TypeError(f"unknown atom instance: {atom!r}")


def format_formula(phi: Formula) -> str:
    if isinstance(phi, AtomF):
        return _format_atom(phi.atom)
    if isinstance(phi, Truth):
        return "true"
    if isinstance(phi, (Eq, Neq)):
        return f"{phi.left} {'=' if isinstance(phi, Eq) else '!='} {phi.right}"
    if isinstance(phi, (Rel, NegRel)):
        bang = "!" if isinstance(phi, NegRel) else ""
        return "%s%s(%s)" % (bang, phi.name, ", ".join(map(str, phi.args)))
    if isinstance(phi, Connective):
        if isinstance(phi, And):
            op = "/\\"
        elif isinstance(phi, OrGlobal):
            op = "\\/"
        else:
            op = "\\/_{%s}" % ",".join(sorted(phi.sorts))
        return "(" + f" {op} ".join(map(format_formula, phi.parts)) + ")"
    if isinstance(phi, (Exists, Forall)):
        letter = "E" if isinstance(phi, Exists) else "A"
        return f"({letter} {phi.var} . {format_formula(phi.body)})"
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
    kinds = list(map(_KINDS.get, texts, repeat("IDENT")))
    # \w is isalnum() or "_"; a name must also start with a letter or "_"
    bad = {tok for tok in set(texts).difference(_KINDS)
           if not (tok[0].isalpha() or tok[0] == "_")}
    if bad:
        index = next(k for k, tok in enumerate(texts) if tok in bad)
        raise ParseError(f"unexpected character {texts[index][0]!r}", *_position(text, index))
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

def _parsed(cls, parenthesised, groups):
    """Per group, the kind of the token after it and its sort field's index; the
    number of sort fields; the constructor's arguments, indexing groups + sorts."""
    names = cls._fields
    sides = [name for name in names if name.startswith("sort_")]
    plan = tuple((_KINDS[after.strip()], sides.index(side)) for _, side, after in groups)
    written = [field for field, _, _ in groups] + sides
    return cls, parenthesised, plan, len(sides), tuple(map(written.index, names))


_PARSED = {shape[0]: _parsed(cls, *shape[1:3]) for cls, shape in _SHAPES.items()}


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
            self.mismatch(kind, index)
        return self.texts[index]

    def mismatch(self, kind: str, index: int):
        self.error(f"expected {kind}, found {self.texts[index]!r}", index)

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

    def paren_tuple(self):
        """A parenthesised comma-separated variable list, optionally ``:S`` or empty."""
        self.expect("LPAREN")
        variables, sort = [], None
        kind = self.kinds[self.pos]
        if kind == "COLON":
            self.next()
            sort = self.expect("IDENT")
        elif kind != "RPAREN":
            variables.append(self.variable())
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                variables.append(self.variable())
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
        if text == "atom" or (text in _PARSED and self.peek(1) == "LPAREN"):
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
        args, sort = self.paren_tuple()
        if sort is not None or not args:
            self.error("relation literals need at least one variable")
        return tuple(args)

    # -- atoms (``key`` is the index of the keyword token)

    def atom(self) -> Formula:
        key = self.next()
        shape = _PARSED.get(self.texts[key])
        if shape is None:
            return self.generalized_atom(key)
        cls, parenthesised, plan, sides, order = shape
        kinds, texts = self.kinds, self.texts
        at = key + 2  # unit() saw the "(" after the keyword
        groups = []
        found = [None] * sides  # per sort field, the first sort met on it
        mixed = None  # once sorts clash, every (sort field, sort) pair that did
        for after, side in plan:
            if parenthesised:
                if kinds[at] != "LPAREN":
                    self.mismatch("LPAREN", at)
                at += 1
            variables = []
            if kinds[at] == "COLON":
                if kinds[at + 1] != "IDENT":
                    self.mismatch("IDENT", at + 1)
                sort = texts[at + 1]
                at += 2
            elif kinds[at] == ("RPAREN" if parenthesised else after):
                sort = None
            else:
                sort = texts[at]
                while True:
                    if kinds[at] != "IDENT" or kinds[at + 1] != "DOT" or \
                            kinds[at + 2] != "IDENT" or texts[at + 2].startswith(FRESH_PREFIX):
                        self.pos = at
                        self.variable()  # raises the error it reports
                    if texts[at] != sort:
                        mixed = (mixed or set()) | {(side, sort), (side, texts[at])}
                    variables.append(Variable(texts[at], texts[at + 2]))
                    at += 3
                    if kinds[at] != "COMMA":
                        break
                    at += 1
            if parenthesised:
                if kinds[at] != "RPAREN":
                    self.mismatch("RPAREN", at)
                at += 1
            if kinds[at] != after:
                self.mismatch(after, at)
            at += 1
            groups.append(tuple(variables))
            if found[side] is None:
                found[side] = sort
            elif sort is not None and sort != found[side]:
                mixed = (mixed or set()) | {(side, found[side]), (side, sort)}
        self.pos = at
        if mixed:
            side = min(mixed)[0]
            self.error(f"atom side mixes sorts {sorted(s for k, s in mixed if k == side)}", key)
        known = next(filter(None, found), None)
        if known is None:
            self.error(f"{texts[key]} atom with no determinable sorts", key)
        values = groups + [sort or known for sort in found]
        atom = cls(*map(values.__getitem__, order))
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
        q, problem = resolve_generalized(atom, self.registry)
        if q is None:
            self.error(problem, at)
        self._validate(atom, key)
        if problem:
            self.error(problem, at)
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
