"""Benchmark driver: one workload timed through the real CLI entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --stretch

A run is one process: a single client on a single thread in a closed loop.
It generates the workload's inputs from the seed, times set-up in fresh
interpreters, then sends each query through ``polyteam.cli.main(argv)`` one
at a time with stdout captured.  Rounds of passes, one pass pinned to each
usable CPU, repeat until ``--seconds`` have gone by.  Each metric is the
median over a CPU's passes, averaged over the CPUs; the median also keeps
the first pass's warm-up out of the figures.  Every answer is checked against
the one its generator built in, and the slower output checks run after the
timed passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics, including the tracing overhead.  ``--stretch`` instead
runs one pass that also includes the workload's known-failing stretch
queries and reports the outcome of each.  The exit code is nonzero when an
answer is wrong.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "polyteam" / "__init__.py").is_file():
    raise SystemExit(f"error: no polyteam sources under {SRC}; run from a checkout")
sys.path[:0] = [str(SRC), str(ROOT)]

from polyteam import cli  # noqa: E402
from polyteam.errors import PolyteamError  # noqa: E402
from perfbench import checks, tracing, workloads  # noqa: E402

PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_ROUNDS = 3
# two CPUs show a busy sibling thread; more would only lengthen each round
PINNED_CPUS = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("query_s.p50", "s"),
              ("query_s.max", "s"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# Running queries

def run_query(query):
    """Time one query through ``cli.main``: (seconds, exit code, stdout, error)."""
    out = io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(query.argv))
    except Exception as exc:  # a crash fails this query, not the whole run
        error = exc
    return time.perf_counter() - start, code, out.getvalue(), error


def run_pass(queries, tracer=None) -> list:
    results = []
    for index, query in enumerate(queries):
        if tracer is not None:
            tracer.query = index
        results.append(run_query(query))
    return results


def describe_failure(code, stdout, error) -> str:
    if error is not None:
        return f"{type(error).__name__}: {str(error)[:120]}"
    if code in checks.FAILED_EXIT_CODES:
        return f"exit code {code}"
    payload = json.loads(stdout)
    return f"resource_exhausted ({payload.get('limit')})"


class Ledger:
    """Outcome of every query run: counts, failures, wrong answers, outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.wrong = {}
        self.outputs = {}

    def record(self, queries, results):
        for query, (_, code, stdout, error) in zip(queries, results):
            outcome = checks.classify(query, code, stdout, error)
            self.attempted += 1
            if outcome == checks.FAILED:
                self.failed += 1
                self.failures[query.name] = describe_failure(code, stdout, error)
            elif outcome == checks.WRONG:
                self.wrong[query.name] = f"exit code {code}, output {stdout.strip()[:200]!r}"
            else:
                self.outputs.setdefault(query, set()).add(stdout)

    def check_outputs(self):
        """The slow output checks, once per distinct output of each query."""
        for query, outputs in self.outputs.items():
            for stdout in outputs:
                try:
                    problems = checks.output_problems(query, stdout)
                except (KeyError, TypeError, ValueError, PolyteamError) as err:
                    problems = [f"malformed output: {type(err).__name__}: {err}"]
                if problems:
                    self.wrong[query.name] = "; ".join(problems[:3])


# ---------------------------------------------------------------------------
# Measuring

def usable_cpus() -> list:
    """The CPUs to rotate over: up to ``PINNED_CPUS`` of those allowed.

    ``[None]`` where the platform cannot pin a process to a CPU.
    """
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))[:PINNED_CPUS]
    return [None]


@contextmanager
def pinned(cpu):
    """Run the block, and any process it starts, on one CPU."""
    if cpu is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def cpu_balanced(samples) -> float:
    """The median of each CPU's samples, averaged over the CPUs.

    On a shared machine one CPU can run this code much slower than another
    (a busy sibling thread), so a run's figure would depend on where the
    scheduler put it.  Rounds visit every CPU once, and each CPU's median
    counts equally.
    """
    per_cpu = {}
    for cpu, value in samples:
        per_cpu.setdefault(cpu, []).append(value)
    return statistics.fmean(statistics.median(v) for v in per_cpu.values())


def measure_setup(workload, work: Path) -> float:
    """Seconds to import the package and load every input once, per process."""
    inputs = work / "inputs.json"
    inputs.write_text(json.dumps(workload.inputs()), encoding="utf-8")
    samples = []
    for _ in range(SETUP_ROUNDS):
        for cpu in usable_cpus():
            with pinned(cpu):
                done = subprocess.run([sys.executable, str(PROBE), str(inputs)],
                                      cwd=ROOT, capture_output=True, text=True,
                                      timeout=120, check=True)
            samples.append((cpu, float(done.stdout.split()[-1])))
    return cpu_balanced(samples)


def pass_summary(results) -> dict:
    times = [seconds for seconds, *_ in results]
    return {"wall_s": sum(times), "query_s.p50": statistics.median(times),
            "query_s.max": max(times)}


def check_payloads(queries, results) -> list:
    payloads = []
    for query, (_, _, stdout, error) in zip(queries, results):
        if query.kind == "check" and error is None:
            try:
                payloads.append(json.loads(stdout))
            except ValueError:
                pass
    return payloads


def measure(workload, seconds: float, trace: bool, ledger: Ledger):
    """Time rounds of passes over the workload's queries for ``seconds``.

    A round runs one pass pinned to each usable CPU (with ``trace``, one
    untraced and one traced pass).  Returns the number of passes and the
    metrics: the end-to-end ones except ``setup_s`` when ``trace`` is off,
    the per-layer ones when it is on.
    """
    queries = workload.queries
    plain, traced, stats = [], [], []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        for cpu in usable_cpus():
            with pinned(cpu):
                results = run_pass(queries)
                ledger.record(queries, results)
                plain.append((cpu, pass_summary(results)))
                if trace:
                    with tracer:
                        results = run_pass(queries, tracer)
                    ledger.record(queries, results)
                    traced.append((cpu, pass_summary(results)))
                    stats += check_payloads(queries, results)
        if time.perf_counter() >= deadline:
            break

    def figure(passes, name):
        return cpu_balanced((cpu, summary[name]) for cpu, summary in passes)

    if trace:
        values = tracing.layer_metrics(tracer.spans, len(traced), stats)
        values["trace.overhead_s"] = figure(traced, "wall_s") - figure(plain, "wall_s")
        units = tracing.PER_LAYER
    else:
        values = {name: figure(plain, name) for name in plain[0][1]}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END[1:]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return len(plain) + len(traced), metrics


# ---------------------------------------------------------------------------
# Reporting

def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "nproc": cpus,
            "commit": commit_id()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stretch", action="store_true",
                        help="run one pass including the known-failing stretch queries")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ledger = Ledger()
    info = environment(args)
    result = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as work:
        workload = workloads.build(args.workload, args.seed, Path(work))
        if args.stretch:
            queries = workload.queries + workload.stretch
            ledger.record(queries, run_pass(queries))
            info["stretch"] = [q.name for q in workload.stretch]
        else:
            metrics = {}
            if not args.trace:
                metrics["setup_s"] = {"value": measure_setup(workload, Path(work)),
                                      "unit": "s"}
            info["passes"], measured = measure(workload, args.seconds, bool(args.trace),
                                               ledger)
            result["metrics"] = {**metrics, **measured}
        ledger.check_outputs()
    info["failures"] = ledger.failures
    info["failed_frac"] = ledger.failed / ledger.attempted
    for name, reason in sorted(ledger.wrong.items()):
        print(f"wrong answer: {name}: {reason}", file=sys.stderr)
    print(json.dumps({"run": info}))
    print(json.dumps({"correct": not ledger.wrong, "attempted": ledger.attempted,
                      "failed": ledger.failed, **result}))
    return 1 if ledger.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
