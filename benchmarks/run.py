"""icpseq benchmark: three workloads against the icpseq CLI, with output checks.

Usage (from the root of a source checkout)::

    python3 benchmarks/run.py --workload search-large --seed 1 --seconds 25 --trace 0

The program under test is ``src/icpseq`` of the checkout, run as
``python3 -m icpseq.cli`` with ``PYTHONPATH=src``.  Each run times one
cold import of the CLI (``setup_s``), builds its inputs from ``--seed``,
then repeats whole rounds of the workload's calls, one process at a
time, until ``--seconds`` have passed.  Untraced, the first round checks
the outputs and warms the caches, and at least two more rounds are
timed; traced, every round counts and one is enough.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of one
round (each call's median over the timed rounds, summed over the
calls), the largest peak RSS of any call, and the set-up time.
``--trace 1`` runs every call twice per round, once plain and once
through ``tracer.py``, checks that both print the same bytes, and
reports per-layer self times and counts (medians over rounds) plus the
tracing overhead.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"

LEVEL_STATISTICS = ("t1", "t2", "t3", "t4", "t5", "smooth-mean", "smooth-var", "decoupled")
MONTECARLO_REPS = 50
#: The Monte-Carlo studies draw their own data from this seed; see README.md.
MONTECARLO_SEED = 1

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

LAYER_TIMES = (
    "statistics.eval_block_s", "statistics.eval_path_s", "statistics.build_s",
    "rng.draw_s", "resampling.project_s", "resampling.test_s",
    "regression.design_s", "regression.basis_s", "regression.residuals_s",
    "environments.comparison_s", "search.self_s", "experiments.self_s",
    "generators.s", "io.load_csv_s", "io.json_dumps_s", "cli.self_s",
)
LAYER_COUNTS = (
    "statistics.eval_columns", "statistics.builds", "statistics.region_fits",
    "rng.normals", "resampling.tests", "regression.designs",
    "environments.regions", "environments.pairs", "search.subsets",
    "generators.datasets",
)
TRACE_TIMES = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")


@dataclass
class Call:
    """One program invocation of a workload and the check of its output."""

    name: str
    argv: list[str]
    check: Callable[[dict, dict], None]


@dataclass
class Invocation:
    stdout: bytes
    stderr: bytes
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{name}: {p}" for p in problems)


def _seed_int(seed: int, *tag: int) -> int:
    state = np.random.SeedSequence([seed, *tag]).generate_state(1, np.uint32)
    return int(state[0])


# ---------------------------------------------------------------------------
# workloads


def _search_calls(tag, path, series, icp_seed, search_flags, test_subsets):
    calls = [
        Call(
            f"search-{tag}",
            ["search", "--input", str(path), "--seed", str(icp_seed), *search_flags],
            lambda payload, seen, s=series: checks.check_search(payload, s),
        )
    ]
    for subset in test_subsets:
        calls.append(
            Call(
                f"test-{tag}-{subset}",
                ["test", "--input", str(path), "--seed", str(icp_seed),
                 "--subset", subset, *search_flags],
                lambda payload, seen, s=series, t=tag: checks.check_test(
                    payload, s, seen[f"search-{t}"]
                ),
            )
        )
    return calls


def search_large(work: Path, seed: int) -> list[Call]:
    wide = inputs.scm(2000, parents=2, noise=1, seed=seed, tag=1)
    wider = inputs.scm(1000, parents=2, noise=2, seed=seed, tag=2)
    var = inputs.var_shock(1000, seed=seed, tag=3)
    for name, series in (("wide", wide), ("wider", wider), ("var", var)):
        series.write(work / f"{name}.csv")
    decoupled = ["--stat", "decoupled", "-B", "499"]
    return (
        _search_calls("wide", work / "wide.csv", wide, _seed_int(seed, 11),
                      [*decoupled, "--combiner", "max"], ["X1,X2", "X1,X2,X3"])
        + _search_calls("wider", work / "wider.csv", wider, _seed_int(seed, 12),
                        [*decoupled, "--combiner", "sum"], [])
        + _search_calls("var", work / "var.csv", var, _seed_int(seed, 13),
                        [*decoupled, "--combiner", "sum", "--lag-set", "1,2",
                         "--lag-strategy", "bonferroni-union"], [])
    )


def search_kernel(work: Path, seed: int) -> list[Call]:
    series = inputs.scm(300, parents=1, noise=1, seed=seed, tag=4)
    path = work / "kernel.csv"
    series.write(path)
    icp_seed = _seed_int(seed, 14)
    return (
        _search_calls("hsic", path, series, icp_seed, ["--stat", "hsic", "-B", "199"],
                      ["X1", "X1,X2"])
        + _search_calls("hsic-fixed", path, series, icp_seed,
                        ["--stat", "hsic", "--bandwidth", "0.5", "-B", "199"], [])
        + _search_calls("smooth-mean", path, series, icp_seed,
                        ["--stat", "smooth-mean", "-B", "499"], [])
        + _search_calls("smooth-var", path, series, icp_seed,
                        ["--stat", "smooth-var", "-B", "499"], [])
    )


def montecarlo(work: Path, seed: int) -> list[Call]:
    common = ["--reps", str(MONTECARLO_REPS), "--seed", str(MONTECARLO_SEED),
              "--param", "resamples=99", "--format", "json"]
    return [
        Call(
            "level",
            ["experiment", "--kind", "level", *common,
             "--param", "statistics=" + json.dumps(list(LEVEL_STATISTICS))],
            lambda payload, seen: checks.check_level(payload, LEVEL_STATISTICS, MONTECARLO_REPS),
        ),
        Call(
            "coverage",
            ["experiment", "--kind", "coverage", *common, "--param", "ns=[200]",
             "--param", 'combiners=["max"]', "--param", "grid_points=10"],
            lambda payload, seen: checks.check_coverage(payload, MONTECARLO_REPS, 0.05),
        ),
    ]


WORKLOADS = {
    "search-large": search_large,
    "search-kernel": search_kernel,
    "montecarlo": montecarlo,
}


# ---------------------------------------------------------------------------
# running the program


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def invoke(argv: list[str], env: dict, work: Path) -> Invocation:
    """Run one process to its end; time it and read its resource usage."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
    )


def cold_import(env: dict, src: Path, work: Path) -> float:
    """Time a fresh interpreter importing the CLI; insist it is the checkout's."""
    code = "import sys, icpseq, icpseq.cli; sys.stdout.write(icpseq.__file__)"
    run = invoke([sys.executable, "-c", code], env, work)
    expected = (src / "icpseq" / "__init__.py").resolve()
    if run.returncode != 0 or Path(run.stdout.decode()).resolve() != expected:
        raise SystemExit(
            f"benchmark: cannot import icpseq from {src}: {run.stderr.decode()[-500:]}"
        )
    return run.wall_s


class Verdicts:
    """Checks each distinct output once; repeats must match it byte for byte."""

    def __init__(self) -> None:
        self.first: dict[str, bytes] = {}
        self.problems: dict[str, list[str]] = {}
        self.payloads: dict[str, dict] = {}

    def judge(self, call: Call, run: Invocation) -> list[str]:
        if run.returncode != 0:
            return [f"exit code {run.returncode}: {run.stderr.decode()[-500:]}"]
        if call.name in self.first:
            if run.stdout != self.first[call.name]:
                return ["stdout differs from the first run of the same call"]
            return self.problems[call.name]
        self.first[call.name] = run.stdout
        problems: list[str] = []
        try:
            payload = json.loads(run.stdout)
            self.payloads[call.name] = payload
            call.check(payload, self.payloads)
        except (checks.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        self.problems[call.name] = problems
        return problems


def layer_totals(spans_path: Path) -> tuple[dict, list[dict]]:
    totals = dict.fromkeys(LAYER_TIMES + LAYER_COUNTS, 0.0)
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    for span in spans:
        totals[span["layer"]] += span["self_ns"] / 1e9
        for key, value in span["counts"].items():
            totals[key] += value
    return totals, spans


def run_rounds(calls, env, work, seconds, trace, tally):
    program = [sys.executable, "-m", "icpseq.cli"]
    verdicts = Verdicts()
    rounds: list[dict] = []
    all_spans: list[dict] = []
    peak = 0.0
    # Untraced: the first round checks the outputs and warms the caches;
    # at least two more rounds are timed.
    min_rounds = 1 if trace else 3
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        row = dict.fromkeys(LAYER_TIMES + LAYER_COUNTS + TRACE_TIMES, 0.0)
        row.update({"wall_s": [], "cpu_s": []})
        for call in calls:
            run = invoke(program + call.argv, env, work)
            row["wall_s"].append(run.wall_s)
            row["cpu_s"].append(run.cpu_s)
            peak = max(peak, run.peak_rss_mib)
            tally.record(call.name, verdicts.judge(call, run))
            if not trace:
                continue
            spans_path = work / "spans.jsonl"
            traced = invoke([sys.executable, str(TRACER), str(spans_path)] + call.argv, env, work)
            problems = [] if traced.stdout == run.stdout else ["traced stdout differs from untraced"]
            if traced.returncode != run.returncode:
                problems.append(f"traced exit code {traced.returncode}")
            tally.record(f"{call.name} (traced)", problems)
            row["trace.untraced_wall_s"] += run.wall_s
            row["trace.traced_wall_s"] += traced.wall_s
            if spans_path.exists():
                totals, spans = layer_totals(spans_path)
                for key, value in totals.items():
                    row[key] += value
                all_spans.extend(dict(span, round=len(rounds), call=call.name) for span in spans)
                spans_path.unlink()
        row["trace.overhead_s"] = row["trace.traced_wall_s"] - row["trace.untraced_wall_s"]
        rounds.append(row)
    return rounds, peak, all_spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "icpseq" / "__init__.py").is_file():
        print(f"benchmark: no icpseq sources under {src}", file=sys.stderr)
        return 2
    env = child_env(src)
    results_dir = BENCH_DIR / "work"
    work = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = cold_import(env, src, work)
        calls = WORKLOADS[args.workload](work, args.seed)
        tally = Tally()
        rounds, peak, spans = run_rounds(calls, env, work, args.seconds, bool(args.trace), tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = rounds if args.trace else rounds[1:]

    def median(key):
        return statistics.median(r[key] for r in timed)

    def per_call_median(key):
        # Each call's median over the rounds, summed: one slow invocation
        # in one round does not move the figure.
        return sum(statistics.median(c) for c in zip(*(r[key] for r in timed)))

    if args.trace:
        metrics = {key: {"value": median(key), "unit": "s"} for key in LAYER_TIMES + TRACE_TIMES}
        metrics.update({key: {"value": median(key), "unit": "count"} for key in LAYER_COUNTS})
        spans_file = results_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    else:
        values = {"wall_s": per_call_median("wall_s"), "cpu_s": per_call_median("cpu_s"),
                  "peak_rss_mib": peak, "setup_s": setup_s}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for error in tally.errors:
        print(f"benchmark: check failed: {error}", file=sys.stderr)
    walls = " ".join(f"{sum(r['wall_s']):.3f}" for r in rounds)
    print(f"benchmark: {args.workload} seed {args.seed}: round walls {walls}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
