"""Sorted variables, assignments, teams, polyteams, and finite structures.

A team is a duplicate-free set of assignments sharing one variable domain,
all of a single sort.  A polyteam maps sorts to teams; sorts absent from the
map denote the singleton team containing only the empty assignment, so that
reading any sort from a polyteam never fails.  All values here are immutable
after construction and safe to share across concurrent evaluations.

Records.  The atoms, formula nodes and result objects of the other modules
are ``Record``s: a class names its fields once, in ``__slots__``, and the
base class gives every record its constructor, value equality, hash,
``repr`` and immutability from the class's field tuple, with no code made
per class.  It stands in for frozen dataclasses, which cost a fresh process
about 20 ms before its first query when no bytecode is cached: importing
``dataclasses`` pulls in ``inspect`` and ``ast``, and each decorator
compiles and runs five methods.  Only a record's construction is hot, so
the classes built by the thousand set their fields in an ``__init__`` of
their own.

Layout.  A ``Variable`` is a NamedTuple, equal to (and hashing like) its
``(sort, name)`` pair and ordered by it, so the dict probes, ``tuple.index``
calls and sorts that every team operation makes on variables run in C.  A
``Team`` holds its sort, its canonical domain (the variables in sorted
order) and ``tuples``: a frozenset of value tuples, each aligned position by
position with the domain.  Besides this module, only the evaluator's
compiled row tests read a row tuple by position, through ``_getter`` on a
column layout of their own; everyone else goes through ``relation``
(rel(X, x̄)), ``projector`` and the other team operations, which all take
and give row tuples.  Teams are immutable, so each keeps three caches,
filled on first use and never inherited by a team derived from it:
``relation`` per variable tuple, ``rows`` (the Assignments) and
``ordered_tuples``.  Its hash is computed on each call, from the rows'
frozenset, which keeps its own.  The canonical row order, which
``ordered_tuples`` gives and every row loop walks, is ``value_key`` order
position by position; ``value_sorted`` computes it by plain tuple
comparison, in C, when every value is a ``str``, as every value of a CSV
table is.  ``Structure`` and every other module order values with
``value_sorted``; ``value_key`` is private to this module and ``oracle``.

Assignments are built on demand only.  ``Team(sort, domain, rows)`` takes
Assignments and ``rows``, ``ordered_rows()`` and iteration give them back;
the naive oracle, implication's counterexamples, the benchmark's answer
checks and the tests use that API.  The CSV loader builds teams straight
from value tuples with ``Team.from_tuples``, and the evaluator and the atom
checkers never see an Assignment.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Union

from .errors import InvalidChoiceError, SortedDomainError

Sort = str
Value = Union[str, int]


def value_key(v: Value):
    """Deterministic ordering key for possibly mixed-type values."""
    return (type(v).__name__, str(v))


def _row_key(row: tuple) -> tuple:
    return tuple(map(value_key, row))


_STR_ONLY = frozenset((str,))


def value_sorted(items: Iterable, rows: bool = False) -> list:
    """Bare values, or with ``rows`` row tuples, as a list in ``value_key`` order.

    Row tuples compare position by position.  When every value is exactly a
    ``str``, ``value_key(v)`` is ``("str", v)``, so the items' own comparison
    gives the same order and the sort runs in C; any other value (an int, a
    bool, a ``str`` subclass) sorts the whole list by ``value_key``.
    """
    items = list(items)
    values = chain.from_iterable(items) if rows else items
    if set(map(type, values)) <= _STR_ONLY:
        items.sort()
    else:
        items.sort(key=_row_key if rows else value_key)
    return items


# A record's own ``__init__`` sets each field with this, past the
# ``__setattr__`` that refuses every later assignment.
_set = object.__setattr__


class Record:
    """An immutable record; each class names its own fields in ``__slots__``.

    ``_fields`` is every field, its base classes' first.  ``__init__`` takes
    them in that order, by position or by name, and ``repr`` prints them as
    ``Name(field=value, ...)``.  Two records are equal when they are of the
    same class and their ``_key()`` values, by default all the fields, are
    equal; the hash is that of the ``_key()``.  Assigning or deleting an
    attribute raises ``AttributeError``.  A class built on hot paths defines
    its own ``__init__``, which sets each field with ``_set``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record class {cls.__name__} must name its fields in __slots__")
        cls._fields = cls._fields + cls.__slots__

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}, "
                            f"in order or by name")
        for name, value in zip(fields, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # ``copy`` and ``pickle`` restore the slots through here, not setattr
        for name, value in state[1].items():
            _set(self, name, value)


class Variable(NamedTuple):
    """A named variable of a given sort, equal to its ``(sort, name)`` pair.

    Equality, hashing and the ``(sort, name)`` order are the tuple's own,
    done in C.  A bare variable iterates as its two strings, which no team
    domain holds, so a team operation given one where a tuple of variables
    belongs raises ``SortedDomainError``.
    """

    sort: Sort
    name: str

    def __str__(self):
        return f"{self.sort}.{self.name}"


class Assignment(Mapping):
    """Immutable mapping from variables of one sort to values."""

    __slots__ = ("_data", "_key", "_hash")

    def __init__(self, items: Union[Mapping, Iterable] = ()):
        data = dict(items)
        sorts = {v.sort for v in data}
        if len(sorts) > 1:
            raise SortedDomainError(f"assignment mixes sorts {sorted(sorts)}")
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_key", tuple(sorted(data.items(), key=lambda kv: kv[0])))
        object.__setattr__(self, "_hash", hash(self._key))

    def __getitem__(self, var: Variable) -> Value:
        try:
            return self._data[var]
        except KeyError:
            raise SortedDomainError(f"variable {var} outside assignment domain") from None

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def __eq__(self, other):
        if isinstance(other, Assignment):
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{v}={r!r}" for v, r in self._key)
        return f"{{{inner}}}"

    @classmethod
    def _trusted(cls, data: dict) -> "Assignment":
        """Internal constructor for maps already known single-sorted."""
        self = object.__new__(cls)
        object.__setattr__(self, "_data", data)
        key = tuple(sorted(data.items(), key=lambda kv: kv[0]))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        return self

    def values_of(self, variables: Iterable[Variable]) -> tuple:
        """The value tuple s(x̄) for a variable tuple x̄."""
        data = self._data
        try:
            return tuple(data[v] for v in variables)
        except KeyError as missing:
            raise SortedDomainError(
                f"variable {missing.args[0]} outside assignment domain") from None

    def extended(self, var: Variable, value: Value) -> "Assignment":
        """s(a/x): overwrite or add var with value."""
        data = self._data
        if data and var.sort != next(iter(data)).sort:
            raise SortedDomainError(f"cannot extend a {next(iter(data)).sort!r} "
                                    f"assignment at {var}")
        data = dict(data)
        data[var] = value
        return Assignment._trusted(data)

    def restricted(self, variables: Iterable[Variable]) -> "Assignment":
        return Assignment._trusted({v: self[v] for v in variables})


EMPTY_ASSIGNMENT = Assignment()


def _assignment(domain: tuple, row: tuple) -> Assignment:
    return Assignment._trusted(dict(zip(domain, row)))


def _getter(positions: tuple) -> Callable[[tuple], tuple]:
    """Row tuple -> the tuple of its values at ``positions``, in that order."""
    if len(positions) == 1:
        k = positions[0]
        return lambda row: (row[k],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


class Team:
    """A set of assignments over a fixed single-sorted variable domain.

    The empty team (no rows) is legal for any domain and is distinct from
    the singleton team containing the empty assignment.  Rows are stored as
    value tuples aligned with ``domain`` (see the module docstring).
    """

    __slots__ = ("sort", "domain", "tuples", "_relations", "_rows", "_ordered")

    def __init__(self, sort: Sort, domain: Iterable[Variable], rows: Iterable[Assignment] = ()):
        domain = _checked_domain(sort, domain)
        dom_set = set(domain)
        tuples = set()
        for row in rows:
            if set(row) != dom_set:
                raise SortedDomainError(
                    f"row domain {sorted(map(str, row))} differs from team domain "
                    f"{[str(v) for v in domain]}"
                )
            tuples.add(row.values_of(domain))
        self._fill(sort, domain, frozenset(tuples))

    @classmethod
    def from_tuples(cls, sort: Sort, variables: Iterable[Variable],
                    rows: Iterable[tuple]) -> "Team":
        """A team from value tuples aligned with ``variables``, in any order.

        The variables must be distinct; each row needs one value per
        variable.  The rows are reordered into the canonical domain order.
        """
        variables = tuple(variables)
        domain = _checked_domain(sort, variables)
        if len(domain) != len(variables):
            raise SortedDomainError(f"repeated variables in {[str(v) for v in variables]}")
        rows = frozenset(rows)
        if rows and set(map(len, rows)) != {len(domain)}:
            raise SortedDomainError(f"rows must have {len(domain)} values each")
        if variables != domain:
            rows = frozenset(map(_getter(tuple(map(variables.index, domain))), rows))
        return cls._trusted(sort, domain, rows)

    @classmethod
    def _trusted(cls, sort, domain: tuple, tuples: frozenset) -> "Team":
        """Internal constructor for a canonical domain and rows aligned with it."""
        self = object.__new__(cls)
        self._fill(sort, domain, tuples)
        return self

    def _fill(self, sort, domain, tuples):
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "tuples", tuples)
        object.__setattr__(self, "_relations", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_ordered", None)

    def with_rows(self, rows: Iterable[tuple]) -> "Team":
        """Same sort and domain, different row tuples (aligned with the domain)."""
        return Team._trusted(self.sort, self.domain, frozenset(rows))

    def __setattr__(self, *_):
        raise AttributeError("Team is immutable")

    def __eq__(self, other):
        if isinstance(other, Team):
            return (self.sort, self.domain, self.tuples) == \
                (other.sort, other.domain, other.tuples)
        return NotImplemented

    def __hash__(self):
        return hash((self.sort, self.domain, self.tuples))

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.ordered_rows())

    def __repr__(self):
        return f"Team({self.sort!r}, {[str(v) for v in self.domain]}, {len(self.tuples)} rows)"

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    @property
    def rows(self) -> frozenset:
        """The rows as Assignments, built on first use and kept."""
        got = self._rows
        if got is None:
            got = frozenset(_assignment(self.domain, row) for row in self.tuples)
            object.__setattr__(self, "_rows", got)
        return got

    def ordered_tuples(self) -> tuple:
        """Row tuples in the canonical deterministic order, sorted on first use and kept."""
        got = self._ordered
        if got is None:
            got = tuple(value_sorted(self.tuples, rows=True))
            object.__setattr__(self, "_ordered", got)
        return got

    def ordered_rows(self) -> tuple:
        """Rows as Assignments in the canonical deterministic order."""
        return tuple(_assignment(self.domain, row) for row in self.ordered_tuples())

    def _extension(self, var: Variable):
        """The domain with var, and (row, a) -> the row tuple of s(a/x) on it."""
        domain = self.domain
        if var not in domain:
            if var.sort != self.sort:
                raise SortedDomainError(f"cannot extend a {self.sort!r}-team at {var}")
            domain = tuple(sorted(domain + (var,)))
        k = domain.index(var)
        rest = k + 1 if var in self.domain else k
        return domain, lambda row, a: row[:k] + (a,) + row[rest:]

    def _positions(self, variables: tuple) -> tuple:
        """Where each variable sits in a row tuple; all must be in the domain."""
        try:
            return tuple(map(self.domain.index, variables))
        except ValueError:
            missing = set(variables) - set(self.domain)
            raise SortedDomainError(
                f"variables {sorted(map(str, missing))} outside team domain") from None

    def _projection(self, positions: tuple) -> frozenset:
        if len(positions) == 1:
            # one-tuples straight from the column, with no Python call per row
            return frozenset(zip(map(itemgetter(positions[0]), self.tuples)))
        return frozenset(map(_getter(positions), self.tuples))

    def projector(self, variables: Iterable[Variable]) -> Callable[[tuple], tuple]:
        """The map s -> s(x̄) from this team's row tuples to value tuples."""
        return _getter(self._positions(tuple(variables)))

    def relation(self, variables: Iterable[Variable]) -> frozenset:
        """rel(X, x̄): the set of value tuples s(x̄) for s in the team.

        Teams are immutable, so each result is kept per variable tuple;
        two threads racing on a new tuple at worst compute it twice.
        """
        variables = tuple(variables)
        cache = self._relations
        if cache is None:
            cache = {}
            object.__setattr__(self, "_relations", cache)
        got = cache.get(variables)
        if got is None:
            got = self._projection(self._positions(variables))
            cache[variables] = got
        return got

    def restricted(self, variables: Iterable[Variable]) -> "Team":
        """Projection onto a sub-domain, collapsing duplicate rows."""
        variables = tuple(sorted(set(variables)))
        if not set(variables) <= set(self.domain):
            missing = set(variables) - set(self.domain)
            raise SortedDomainError(
                f"restriction to {sorted(map(str, missing))} outside team domain"
            )
        return Team._trusted(self.sort, variables,
                             self._projection(tuple(map(self.domain.index, variables))))

    def expanded_all(self, var: Variable, values: Iterable[Value]) -> "Team":
        """X[A/x]: every row extended with every value of A at x."""
        values = tuple(values)
        domain, extend = self._extension(var)
        rows = frozenset(extend(row, a) for row in self.tuples for a in values)
        return Team._trusted(self.sort, domain, rows)

    def expanded_choice(self, var: Variable, choice: Callable[[tuple], Iterable[Value]]) -> "Team":
        """X[F/x]: each row extended with its own nonempty value set F(s).

        F receives each row as its value tuple, aligned with the domain.
        """
        domain, extend = self._extension(var)
        new_rows = set()
        for row in self.tuples:
            values = tuple(choice(row))
            if not values:
                raise InvalidChoiceError(
                    f"empty choice set at row {_assignment(self.domain, row)!r}")
            new_rows.update(extend(row, a) for a in values)
        return Team._trusted(self.sort, domain, frozenset(new_rows))

    def union(self, other: "Team") -> "Team":
        if self.sort != other.sort or self.domain != other.domain:
            raise SortedDomainError(
                f"union of teams with different sorts/domains: {self!r} vs {other!r}"
            )
        return Team._trusted(self.sort, self.domain, self.tuples | other.tuples)

    def is_subteam_of(self, other: "Team") -> bool:
        if self.sort != other.sort or self.domain != other.domain:
            raise SortedDomainError(
                f"subteam check on different sorts/domains: {self!r} vs {other!r}"
            )
        return self.tuples <= other.tuples


def _checked_domain(sort: Sort, variables: Iterable[Variable]) -> tuple:
    """The canonical domain tuple: sorted, duplicate-free, all of ``sort``."""
    domain = tuple(sorted(set(variables)))
    for v in domain:
        if not isinstance(v, Variable):
            raise SortedDomainError(f"{v!r} in domain of a {sort!r}-team is not a variable")
        if v.sort != sort:
            raise SortedDomainError(f"variable {v} in domain of a {sort!r}-team")
    return domain


@lru_cache(maxsize=None)
def singleton_empty_team(sort: Sort) -> Team:
    """The default team identified with absent sorts: one empty assignment."""
    return Team(sort, (), (EMPTY_ASSIGNMENT,))


class Polyteam(Mapping):
    """A finite map from sorts to teams.

    Teams equal to the singleton-empty-assignment default are normalized
    away, implementing the identification of a polyteam with its finitely
    many non-default components.  The store keeps insertion order;
    ``sorts()``, iteration and ``repr`` list the sorts in sorted order.
    """

    __slots__ = ("_teams",)

    def __init__(self, teams: Union[Mapping, Iterable[Team]] = ()):
        if isinstance(teams, Mapping):
            items = []
            for sort, team in teams.items():
                if sort != team.sort:
                    raise SortedDomainError(f"team of sort {team.sort!r} stored under key {sort!r}")
                items.append(team)
        else:
            items = list(teams)
        store = {}
        for team in items:
            if team.sort in store:
                raise SortedDomainError(f"duplicate team for sort {team.sort!r}")
            if team.domain or not team.tuples:
                store[team.sort] = team
        object.__setattr__(self, "_teams", store)

    def __setattr__(self, *_):
        raise AttributeError("Polyteam is immutable")

    def __getitem__(self, sort: Sort) -> Team:
        return self._teams[sort]

    def __iter__(self):
        return iter(self.sorts())

    def __len__(self):
        return len(self._teams)

    def __eq__(self, other):
        if isinstance(other, Polyteam):
            return self._teams == other._teams
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._teams.items()))

    def __repr__(self):
        return f"Polyteam({[self._teams[s] for s in self.sorts()]!r})"

    def sorts(self) -> tuple:
        return tuple(sorted(self._teams))

    def team(self, sort: Sort) -> Team:
        """Team at a sort; absent sorts yield the singleton-empty default."""
        got = self._teams.get(sort)
        if got is None:
            return singleton_empty_team(sort)
        return got

    def with_team(self, team: Team) -> "Polyteam":
        store = dict(self._teams)
        if not team.domain and team.tuples:
            # the only nonempty team with no columns is the default
            store.pop(team.sort, None)
        else:
            store[team.sort] = team
        self2 = object.__new__(Polyteam)
        object.__setattr__(self2, "_teams", store)
        return self2


def subteam_of(x: Polyteam, y: Polyteam) -> bool:
    """Pointwise row inclusion, defaulting absent sorts on both sides."""
    for sort in set(x.sorts()) | set(y.sorts()):
        if not x.team(sort).is_subteam_of(y.team(sort)):
            return False
    return True


def polyteam_union(x: Polyteam, y: Polyteam) -> Polyteam:
    teams = []
    for sort in set(x.sorts()) | set(y.sorts()):
        teams.append(x.team(sort).union(y.team(sort)))
    return Polyteam(teams)


def polyteam_restrict(x: Polyteam, view: Mapping) -> Polyteam:
    """Pointwise projection onto ``view[sort]``; unlisted sorts project to ()."""
    teams = []
    for sort in set(x.sorts()) | set(view):
        teams.append(x.team(sort).restricted(tuple(view.get(sort, ()))))
    return Polyteam(teams)


class Structure:
    """A finite domain together with named finite relations."""

    __slots__ = ("domain", "domain_set", "relations")

    def __init__(self, domain: Iterable[Value], relations: Mapping = ()):
        domain = tuple(value_sorted(set(domain)))
        if not domain:
            raise SortedDomainError("structure domain must be nonempty")
        rels = {}
        domain_set = frozenset(domain)
        for name, tuples in dict(relations).items():
            tuples = frozenset(tuple(t) for t in tuples)
            arities = {len(t) for t in tuples}
            if len(arities) > 1:
                raise SortedDomainError(f"relation {name!r} has mixed arities {sorted(arities)}")
            for t in tuples:
                for v in t:
                    if v not in domain_set:
                        raise SortedDomainError(f"relation {name!r} value {v!r} outside domain")
            rels[name] = tuples
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "relations", dict(sorted(rels.items())))
        object.__setattr__(self, "domain_set", domain_set)

    def __setattr__(self, *_):
        raise AttributeError("Structure is immutable")

    def __repr__(self):
        return f"Structure(|A|={len(self.domain)}, relations={list(self.relations)})"

    def relation(self, name: str) -> frozenset:
        try:
            return self.relations[name]
        except KeyError:
            raise SortedDomainError(f"unknown relation {name!r}") from None
