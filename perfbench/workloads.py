"""The benchmark's workloads: generated inputs plus the CLI queries over them.

A workload is built from a seed into a working directory.  Each query is one
``polyteam`` command line with the answer its generator built in.  Stretch
queries are cases the program is known to fail today; they are kept out of
the timed workloads and run only on request (``run.py --stretch``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from perfbench import generators

# Sizes chosen so that one pass over a workload takes a few seconds on a
# small two-core machine; tests pass smaller ones.
SIZES = {
    "search": {"phi0": 6, "phi1": 20, "stretch_phi0": 32},
    "bulk": {"teams": 300, "members": 10, "projects": 6},
    "sweep": {"values": "0,1,2", "max_rows": 2},
    "reasoning": {"cross": 300, "same": 600, "atoms": 800, "block": 20, "deep": 1200},
}

RULES = ("e1", "e2", "e3", "e4", "e5", "e6", "e8")


@dataclass(frozen=True)
class Query:
    """One CLI invocation and the answer it must give.

    ``kind`` is ``check``, ``implies``, ``equiv`` or ``rewrite``.  ``expect``
    is the verdict for the first three; a rewrite is judged by properties of
    its output, for which ``rule`` names the transformation.
    """

    name: str
    kind: str
    argv: Tuple[str, ...]
    expect: Optional[bool] = None
    rule: Optional[str] = None

    def option(self, flag: str) -> Optional[str]:
        """The value following ``flag`` in the command line, if any."""
        argv = self.argv
        for k in range(len(argv) - 1):
            if argv[k] == flag:
                return argv[k + 1]
        return None

    def options(self, flag: str):
        return [self.argv[k + 1] for k in range(len(self.argv) - 1)
                if self.argv[k] == flag]


@dataclass
class Workload:
    name: str
    queries: list
    stretch: list = field(default_factory=list)

    def inputs(self) -> dict:
        """Every distinct input the timed queries read, by loader."""
        teams, structures, formulas, atoms = [], [], [], []

        def add(items, item):
            if item not in items:
                items.append(item)

        for q in self.queries:
            for spec in q.options("--team"):
                sort, _, path = spec.partition("=")
                add(teams, [sort, path])
            if q.kind == "check":
                add(structures, q.option("--structure"))
            for flag in ("--formula", "--left", "--right"):
                if q.option(flag):
                    add(formulas, q.option(flag))
            if q.option("--atoms"):
                add(atoms, q.option("--atoms"))
        return {"teams": teams, "structures": structures,
                "formulas": formulas, "atoms": atoms}


def _write(directory: Path, files: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def _check(name, expect, formula, teams, structure=None, extra=()):
    argv = ["check", "--json", "--formula", str(formula)]
    if structure is not None:
        argv += ["--structure", str(structure)]
    for sort, path in teams:
        argv += ["--team", f"{sort}={path}"]
    return Query(name, "check", tuple(argv) + tuple(extra), expect=expect)


def _hospital_query(name, expect, d: Path, formula, test="test.csv",
                    results="results.csv", extra=()):
    return _check(name, expect, d / formula,
                  [("Case", d / "case.csv"), ("Test", d / test),
                   ("Results", d / results)],
                  structure=d / "structure.json", extra=extra)


def search(rng, work: Path, sizes) -> Workload:
    small = _write(work / "hospital_phi0", generators.hospital(rng, sizes["phi0"]))
    large = _write(work / "hospital_phi1", generators.hospital(rng, sizes["phi1"]))
    stretch = _write(work / "hospital_stretch",
                     generators.hospital(rng, sizes["stretch_phi0"]))
    ex = _write(work / "exchange", generators.exchange(rng))
    exchange = [("P", ex / "projects.csv")]
    queries = [
        _hospital_query("phi0-true", True, small, "phi0.ptf"),
        _hospital_query("phi0-false", False, small, "phi0.ptf", test="test_missing.csv"),
        _hospital_query("phi1-true", True, large, "phi1.ptf"),
        _hospital_query("phi1-false", False, large, "phi1.ptf",
                        results="results_mutated.csv"),
        _check("exchange-true", True, ex / "exchange.ptf",
               exchange + [("E", ex / "employees_seed.csv")]),
        _check("exchange-false", False, ex / "exchange.ptf",
               exchange + [("E", ex / "employees_empty.csv")]),
    ]
    hard = [_hospital_query(f"phi0-n{sizes['stretch_phi0']}-timeout", True, stretch,
                            "phi0.ptf", extra=("--timeout-ms", "1000"))]
    return Workload("search", queries, hard)


def bulk(rng, work: Path, sizes) -> Workload:
    d = _write(work / "workforce", generators.workforce(
        rng, sizes["teams"], sizes["members"], sizes["projects"]))
    others = [("P", d / "projects.csv"), ("T", d / "teams.csv"), ("A", d / "archived.csv")]
    queries = [
        _check("workforce-true", True, d / "workforce.ptf",
               [("E", d / "employees.csv")] + others),
        _check("workforce-false", False, d / "workforce.ptf",
               [("E", d / "employees_missing.csv")] + others),
    ]
    return Workload("bulk", queries)


def sweep(rng, work: Path, sizes) -> Workload:
    d = _write(work / "pairs", generators.oracle_pairs(rng))
    queries = []
    for name, expect, _, _ in generators.ORACLE_PAIRS:
        argv = ("oracle", "equiv", "--use-evaluator", "--json",
                "--values", sizes["values"], "--max-rows", str(sizes["max_rows"]),
                "--min-rows", "0",
                "--left", str(d / f"{name}.left.ptf"),
                "--right", str(d / f"{name}.right.ptf"))
        queries.append(Query(f"equiv-{name}", "equiv", argv, expect=expect))
    rng.shuffle(queries)
    return Workload("sweep", queries)


def _rewrite(name, path, rule):
    return Query(name, "rewrite", ("rewrite", "--rule", rule, "--formula", str(path)),
                 rule=rule)


def reasoning(rng, work: Path, sizes) -> Workload:
    files = {}
    for kind, length in (("cross", sizes["cross"]), ("same", sizes["same"])):
        for broken in (False, True):
            files[f"{kind}-{'broken' if broken else 'chain'}.pdep"] = \
                generators.implication_chain(rng, length, kind == "cross", broken)
    atoms, block = sizes["atoms"], sizes["block"]
    files["atoms.ptf"] = generators.rewrite_formula(rng, atoms, block=block)
    files["disjunctions.ptf"] = generators.rewrite_formula(
        rng, atoms, disjunctions=True, block=block)
    files["single-sorted.ptf"] = generators.rewrite_formula(
        rng, atoms, single_sorted=True, disjunctions=True, block=block)
    files["deep.ptf"] = generators.rewrite_formula(rng, sizes["deep"])
    d = _write(work / "reasoning", files)
    queries = []
    for kind in ("cross", "same"):
        for broken in (False, True):
            label = "broken" if broken else "chain"
            argv = ("implies", "--replay", "--json", "--atoms", str(d / f"{kind}-{label}.pdep"))
            queries.append(Query(f"implies-{kind}-{label}", "implies", argv,
                                 expect=not broken))
    queries += [_rewrite(f"rewrite-{rule}", d / "atoms.ptf", rule) for rule in RULES]
    queries.append(_rewrite("rewrite-elim-or", d / "disjunctions.ptf", "elim-or"))
    queries.append(_rewrite("rewrite-decompose", d / "single-sorted.ptf", "decompose"))
    hard = [_rewrite(f"rewrite-e1-{sizes['deep']}-conjuncts", d / "deep.ptf", "e1")]
    return Workload("reasoning", queries, hard)


BUILDERS = {"search": search, "bulk": bulk, "sweep": sweep, "reasoning": reasoning}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, work: Path, sizes: Optional[dict] = None) -> Workload:
    """Generate the named workload's inputs under ``work`` from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, Path(work), sizes or SIZES[name])
