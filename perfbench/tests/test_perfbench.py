"""Tests of the benchmark itself: generators, answer gate, tracing, smoke runs.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import random
from pathlib import Path

import pytest

import polyteam.cli
from perfbench import checks, generators, run, tracing, workloads
from perfbench.tracing import Span
from perfbench.workloads import Query

TINY = {
    "search": {"phi0": 4, "phi1": 4, "stretch_phi0": 4},
    "bulk": {"teams": 3, "members": 2, "projects": 2},
    "sweep": {"values": "0,1", "max_rows": 1},
    "reasoning": {"cross": 6, "same": 6, "atoms": 8, "block": 3, "deep": 10},
}


def _files(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# Generators

@pytest.mark.parametrize("make", [
    lambda rng: generators.hospital(rng, 8),
    lambda rng: generators.workforce(rng, 4, 3, 2),
    lambda rng: generators.oracle_pairs(rng),
    lambda rng: {"chain": generators.implication_chain(rng, 20, True, True)},
    lambda rng: {"chain": generators.implication_chain(rng, 20, False, False)},
    lambda rng: {"formula": generators.rewrite_formula(rng, 30, disjunctions=True)},
])
def test_generators_are_deterministic_per_seed(make):
    assert make(random.Random(7)) == make(random.Random(7))
    assert make(random.Random(7)) != make(random.Random(8))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    workloads.build(name, 5, tmp_path / "a", TINY[name])
    workloads.build(name, 5, tmp_path / "b", TINY[name])
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first and first == second


def test_workload_inputs_list_each_file_once(tmp_path):
    workload = workloads.build("search", 1, tmp_path, TINY["search"])
    inputs = workload.inputs()
    assert len(inputs["teams"]) == len({tuple(t) for t in inputs["teams"]})
    assert None in inputs["structures"]  # the exchange queries have none
    assert all(Path(p).is_file() for p in inputs["formulas"])


# ---------------------------------------------------------------------------
# Answer gate

CHECK = Query("q", "check", ("check",), expect=True)


@pytest.mark.parametrize("query, code, stdout, error, outcome", [
    (CHECK, 0, '{"verdict": "true"}', None, checks.OK),
    (Query("q", "check", (), expect=False), 1, '{"verdict": "false"}', None, checks.OK),
    (CHECK, 2, '{"verdict": "resource_exhausted", "limit": "timeout"}', None, checks.FAILED),
    (CHECK, None, "", RecursionError("deep"), checks.FAILED),
    (CHECK, 3, "", None, checks.FAILED),
    (CHECK, 4, "", None, checks.FAILED),
    (CHECK, 1, '{"verdict": "false"}', None, checks.WRONG),
    (CHECK, 1, '{"verdict": "true"}', None, checks.WRONG),  # exit code disagrees
    (CHECK, 0, "true", None, checks.WRONG),  # not the --json answer
    (Query("q", "implies", (), expect=True), 0, '{"implied": true}', None, checks.OK),
    (Query("q", "implies", (), expect=True), 1, '{"implied": false}', None, checks.WRONG),
    (Query("q", "equiv", (), expect=False), 1, '{"equivalent": false}', None, checks.OK),
    (Query("q", "rewrite", (), rule="e1"), 0, "true\n", None, checks.OK),
    (Query("q", "rewrite", (), rule="e1"), 0, "", None, checks.WRONG),
])
def test_classify(query, code, stdout, error, outcome):
    assert checks.classify(query, code, stdout, error) == outcome


def test_classify_real_queries(tmp_path):
    workload = workloads.build("search", 2, tmp_path, TINY["search"])
    true_query = workload.queries[0]
    assert true_query.name == "phi0-true"
    seconds, code, stdout, error = run.run_query(true_query)
    assert seconds > 0 and checks.classify(true_query, code, stdout, error) == checks.OK

    flipped = Query("flipped", "check", true_query.argv, expect=False)
    assert checks.classify(flipped, *run.run_query(flipped)[1:]) == checks.WRONG

    capped = Query("capped", "check", true_query.argv + ("--max-rows", "1"), expect=True)
    _, code, stdout, error = run.run_query(capped)
    assert json.loads(stdout)["verdict"] == "resource_exhausted"
    assert checks.classify(capped, code, stdout, error) == checks.FAILED

    usage = Query("usage", "check", ("check", "--json"), expect=True)
    assert run.run_query(usage)[1] == 4
    assert checks.classify(usage, *run.run_query(usage)[1:]) == checks.FAILED


def test_ledger_counts_failures_and_names_wrong_answers():
    ledger = run.Ledger()
    queries = [CHECK, Query("crash", "check", (), expect=True),
               Query("liar", "check", (), expect=False)]
    results = [(0.1, 0, '{"verdict": "true"}', None),
               (0.1, None, "", RecursionError("deep")),
               (0.1, 0, '{"verdict": "true"}', None)]
    ledger.record(queries, results)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert ledger.failures == {"crash": "RecursionError: deep"}
    assert list(ledger.wrong) == ["liar"]


def test_output_checks_catch_bad_counterexamples_and_rewrites(tmp_path):
    atoms = tmp_path / "chain.pdep"
    atoms.write_text(generators.implication_chain(random.Random(1), 4, True, True))
    query = Query("broken", "implies", ("implies", "--json", "--atoms", str(atoms)),
                  expect=False)
    _, code, stdout, _ = run.run_query(query)
    assert checks.output_problems(query, stdout) == []
    payload = json.loads(stdout)
    for team in payload["counterexample"]["teams"].values():
        team["rows"] = []  # empty teams satisfy every pdep, conclusion included
    assert checks.output_problems(query, json.dumps(payload))

    assert checks.rewrite_problems("e1", "pdep(P.x ; P.y | Q.u ; Q.v)")
    assert checks.rewrite_problems("e1", "pdep(P.x ; P._fr0 | Q.u ; Q.v)") == []
    assert checks.rewrite_problems("elim-or", "P.x = P.y \\/ Q.u = Q.v")
    assert checks.rewrite_problems("decompose", "P: Q.u = Q.v")
    assert checks.rewrite_problems("e2", "pexc(P.x |")


# ---------------------------------------------------------------------------
# Tracing

def test_self_time_of_a_hand_built_span_tree():
    spans = [
        Span("oracle.equivalent", 0.0, 10.0, None, 0),
        Span("evaluator.holds", 1.0, 4.0, 0, 0),
        Span("atoms.check_atom", 2.0, 3.0, 1, 0),
        Span("evaluator.holds", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    metrics = tracing.layer_metrics(spans, 2, [])
    assert metrics["oracle.equivalent.s"] == 5.0
    assert metrics["oracle.self_s"] == 1.5
    assert metrics["evaluator.self_s"] == 3.0
    assert metrics["evaluator.holds.calls"] == 1.0
    assert metrics["atoms.check_atom.s"] == 0.5


def test_cpu_balanced_weighs_each_cpu_equally():
    assert run.cpu_balanced([(0, 1.0), (0, 3.0), (0, 2.0), (1, 10.0)]) == 6.0


def test_tracer_records_nested_spans_and_restores(tmp_path):
    original = polyteam.cli.eval_formula
    workload = workloads.build("bulk", 1, tmp_path, TINY["bulk"])
    with tracing.Tracer() as tracer:
        assert polyteam.cli.eval_formula is not original
        run.run_query(workload.queries[0])
    assert polyteam.cli.eval_formula is original
    names = {s.name for s in tracer.spans}
    assert {"cli.load_team_csv", "evaluator.eval_formula", "atoms.pind",
            "model.Team.relation"} <= names
    pind = next(s for s in tracer.spans if s.name == "atoms.pind")
    assert tracer.spans[pind.parent].name == "atoms.check_atom"
    rows = sum(s.count for s in tracer.spans if s.name == "cli.load_team_csv")
    assert rows == 3 * 2 * 2 + 3 * 2 + 3 * 2 + 3 * 2


# ---------------------------------------------------------------------------
# Smoke runs

@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_of_each_workload(name, tmp_path):
    workload = workloads.build(name, 3, tmp_path, TINY[name])
    ledger = run.Ledger()
    _, plain = run.measure(workload, 0, False, ledger)
    passes, traced = run.measure(workload, 0, True, ledger)
    ledger.check_outputs()
    assert ledger.wrong == {} and ledger.failed == 0
    assert passes == 2 * len(run.usable_cpus())
    assert set(plain) == {n for n, _ in run.END_TO_END} - {"setup_s"}
    assert all(m["value"] > 0 for m in plain.values())
    assert set(traced) == {n for n, _ in tracing.PER_LAYER}
    assert run.measure_setup(workload, tmp_path) > 0


def test_main_prints_the_result_line(monkeypatch, capsys):
    monkeypatch.setitem(workloads.SIZES, "reasoning", TINY["reasoning"])
    code = run.main(["--workload", "reasoning", "--seed", "4", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {n for n, _ in run.END_TO_END}


def test_main_exits_nonzero_and_names_a_wrong_answer(monkeypatch, capsys):
    build = workloads.BUILDERS["reasoning"]

    def lying(rng, work, sizes):
        workload = build(rng, work, TINY["reasoning"])
        first = workload.queries[0]
        workload.queries[0] = Query(first.name, first.kind, first.argv,
                                    expect=not first.expect)
        return workload

    monkeypatch.setitem(workloads.BUILDERS, "reasoning", lying)
    code = run.main(["--workload", "reasoning", "--seed", "4", "--seconds", "0",
                     "--trace", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "wrong answer: implies-cross-chain" in err


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
