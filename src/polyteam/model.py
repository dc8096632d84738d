"""Sorted variables, assignments, teams, polyteams, and finite structures.

A team is a duplicate-free set of assignments sharing one variable domain,
all of a single sort.  A polyteam maps sorts to teams; sorts absent from the
map denote the singleton team containing only the empty assignment, so that
reading any sort from a polyteam never fails.  All values here are immutable
after construction and safe to share across concurrent evaluations.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Union

from .errors import InvalidChoiceError, SortedDomainError

Sort = str
Value = Union[str, int]


def value_key(v: Value):
    """Deterministic ordering key for possibly mixed-type values."""
    return (type(v).__name__, str(v))


@dataclass(frozen=True, order=True)
class Variable:
    """A named variable of a given sort; equal iff sort and name agree."""

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


class Team:
    """A set of assignments over a fixed single-sorted variable domain.

    The empty team (no rows) is legal for any domain and is distinct from
    the singleton team containing the empty assignment.
    """

    __slots__ = ("sort", "domain", "rows", "_hash")

    def __init__(self, sort: Sort, domain: Iterable[Variable], rows: Iterable[Assignment] = ()):
        domain = tuple(sorted(set(domain)))
        for v in domain:
            if v.sort != sort:
                raise SortedDomainError(f"variable {v} in domain of a {sort!r}-team")
        rows = frozenset(rows)
        dom_set = set(domain)
        for row in rows:
            if set(row) != dom_set:
                raise SortedDomainError(
                    f"row domain {sorted(map(str, row))} differs from team domain "
                    f"{[str(v) for v in domain]}"
                )
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((sort, domain, rows)))

    @classmethod
    def _trusted(cls, sort, domain: tuple, rows: frozenset) -> "Team":
        """Internal constructor for already-canonical, already-valid parts."""
        self = object.__new__(cls)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((sort, domain, rows)))
        return self

    def with_rows(self, rows) -> "Team":
        """Same sort and domain, different row set (rows must fit the domain)."""
        return Team._trusted(self.sort, self.domain, frozenset(rows))

    def __setattr__(self, *_):
        raise AttributeError("Team is immutable")

    def __eq__(self, other):
        if isinstance(other, Team):
            return (self.sort, self.domain, self.rows) == (other.sort, other.domain, other.rows)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.ordered_rows())

    def __repr__(self):
        return f"Team({self.sort!r}, {[str(v) for v in self.domain]}, {len(self.rows)} rows)"

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def ordered_rows(self) -> tuple:
        """Rows in the canonical deterministic order."""
        return tuple(sorted(self.rows, key=lambda r: tuple(map(value_key, r.values_of(self.domain)))))

    def domain_with(self, *variables: Variable) -> tuple:
        """The canonical domain tuple extended by the given variables."""
        extra = [v for v in variables if v not in self.domain]
        for v in extra:
            if v.sort != self.sort:
                raise SortedDomainError(f"cannot extend a {self.sort!r}-team at {v}")
        if not extra:
            return self.domain
        return tuple(sorted(self.domain + tuple(extra)))

    def restricted(self, variables: Iterable[Variable]) -> "Team":
        """Projection onto a sub-domain, collapsing duplicate rows."""
        variables = tuple(sorted(set(variables)))
        if not set(variables) <= set(self.domain):
            missing = set(variables) - set(self.domain)
            raise SortedDomainError(
                f"restriction to {sorted(map(str, missing))} outside team domain"
            )
        rows = frozenset(row.restricted(variables) for row in self.rows)
        return Team._trusted(self.sort, variables, rows)

    def expanded_all(self, var: Variable, values: Iterable[Value]) -> "Team":
        """X[A/x]: every row extended with every value of A at x."""
        values = tuple(values)
        new_domain = self.domain_with(var)
        rows = frozenset(row.extended(var, a) for row in self.rows for a in values)
        return Team._trusted(self.sort, new_domain, rows)

    def expanded_choice(self, var: Variable, choice: Callable[[Assignment], Iterable[Value]]) -> "Team":
        """X[F/x]: each row extended with its own nonempty value set F(s)."""
        new_domain = self.domain_with(var)
        new_rows = set()
        for row in self.rows:
            values = tuple(choice(row))
            if not values:
                raise InvalidChoiceError(f"empty choice set at row {row!r}")
            new_rows.update(row.extended(var, a) for a in values)
        return Team._trusted(self.sort, new_domain, frozenset(new_rows))

    def union(self, other: "Team") -> "Team":
        if self.sort != other.sort or self.domain != other.domain:
            raise SortedDomainError(
                f"union of teams with different sorts/domains: {self!r} vs {other!r}"
            )
        return Team(self.sort, self.domain, self.rows | other.rows)

    def is_subteam_of(self, other: "Team") -> bool:
        if self.sort != other.sort or self.domain != other.domain:
            raise SortedDomainError(
                f"subteam check on different sorts/domains: {self!r} vs {other!r}"
            )
        return self.rows <= other.rows

    def relation(self, variables: Iterable[Variable]) -> frozenset:
        """rel(X, x̄): the set of value tuples s(x̄) for s in the team."""
        variables = tuple(variables)
        if not set(variables) <= set(self.domain):
            missing = set(variables) - set(self.domain)
            raise SortedDomainError(f"variables {sorted(map(str, missing))} outside team domain")
        return frozenset(row.values_of(variables) for row in self.rows)


@lru_cache(maxsize=None)
def singleton_empty_team(sort: Sort) -> Team:
    """The default team identified with absent sorts: one empty assignment."""
    return Team(sort, (), (EMPTY_ASSIGNMENT,))


class Polyteam(Mapping):
    """A finite map from sorts to teams.

    Teams equal to the singleton-empty-assignment default are normalized
    away, implementing the identification of a polyteam with its finitely
    many non-default components.
    """

    __slots__ = ("_teams", "_hash")

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
            if team != singleton_empty_team(team.sort):
                store[team.sort] = team
        object.__setattr__(self, "_teams", dict(sorted(store.items())))
        object.__setattr__(self, "_hash", hash(tuple(self._teams.items())))

    def __setattr__(self, *_):
        raise AttributeError("Polyteam is immutable")

    def __getitem__(self, sort: Sort) -> Team:
        return self._teams[sort]

    def __iter__(self):
        return iter(self._teams)

    def __len__(self):
        return len(self._teams)

    def __eq__(self, other):
        if isinstance(other, Polyteam):
            return self._teams == other._teams
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polyteam({list(self._teams.values())!r})"

    def sorts(self) -> tuple:
        return tuple(self._teams)

    def team(self, sort: Sort) -> Team:
        """Team at a sort; absent sorts yield the singleton-empty default."""
        got = self._teams.get(sort)
        if got is None:
            return singleton_empty_team(sort)
        return got

    def with_team(self, team: Team) -> "Polyteam":
        store = dict(self._teams)
        if team == singleton_empty_team(team.sort):
            store.pop(team.sort, None)
        else:
            store[team.sort] = team
        self2 = object.__new__(Polyteam)
        object.__setattr__(self2, "_teams", dict(sorted(store.items())))
        object.__setattr__(self2, "_hash", hash(tuple(self2._teams.items())))
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


def polyteam_intersection(x: Polyteam, y: Polyteam) -> Polyteam:
    teams = []
    for sort in set(x.sorts()) | set(y.sorts()):
        a, b = x.team(sort), y.team(sort)
        if a.sort != b.sort or a.domain != b.domain:
            raise SortedDomainError(f"intersection at sort {sort!r} with differing domains")
        teams.append(Team(sort, a.domain, a.rows & b.rows))
    return Polyteam(teams)


def polyteam_restrict(x: Polyteam, view: Mapping) -> Polyteam:
    """Pointwise projection onto ``view[sort]``; unlisted sorts project to ()."""
    teams = []
    for sort in set(x.sorts()) | set(view):
        teams.append(x.team(sort).restricted(tuple(view.get(sort, ()))))
    return Polyteam(teams)


class Structure:
    """A finite domain together with named finite relations."""

    __slots__ = ("domain", "relations", "_domain_set")

    def __init__(self, domain: Iterable[Value], relations: Mapping = ()):
        domain = tuple(sorted(set(domain), key=value_key))
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
        object.__setattr__(self, "_domain_set", domain_set)

    def __setattr__(self, *_):
        raise AttributeError("Structure is immutable")

    def __repr__(self):
        return f"Structure(|A|={len(self.domain)}, relations={list(self.relations)})"

    def relation(self, name: str) -> frozenset:
        try:
            return self.relations[name]
        except KeyError:
            raise SortedDomainError(f"unknown relation {name!r}") from None

    def arity(self, name: str) -> int:
        rel = self.relation(name)
        return len(next(iter(rel))) if rel else 0
