#!/usr/bin/env python3
"""Layered end-to-end benchmark of the CORP simulator.

Usage (from the root of a checkout):

    python3 e2e_bench/run.py --workload fig_sweep|busy_100k|trace_stream \\
        --seed N --seconds S --trace 0|1

Builds the driver (e2e_bench/corp_e2e.cpp, against ../src) into
.bench_build/cmake, makes the workload's inputs from the seed, runs the
driver, checks every repetition's results against e2e_bench/reference.json
and prints one JSON line last: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics (tracing off);
--trace 1 reports the per-layer metrics of traced repetitions and writes
their span tree to .bench_build/spans/. See e2e_bench/README.md.

--record stores the results of the run as the reference of its input set
(maintenance only, after a deliberate change of program output).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
DRIVER = CMAKE_DIR / "corp_e2e"
REFERENCE = BENCH_DIR / "reference.json"
FIXTURE_TOOL = ROOT / "tools" / "make_trace_fixture.py"

WORKLOADS = ("fig_sweep", "busy_100k", "trace_stream")
# --seed selects one of INPUT_SETS input sets (seed mod INPUT_SETS), each
# with its stored reference.
INPUT_SETS = 16
BUILD_JOBS = 4
FIXTURE_REPS = 3
FIXTURE_MB = 4
DRIVER_TIMEOUT_S = 170
# Workloads whose timings must measure CORP's opportunistic path.
COVERAGE_WORKLOADS = ("fig_sweep", "busy_100k")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build() -> None:
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    CMAKE_DIR.mkdir(parents=True, exist_ok=True)
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", str(BUILD_JOBS)],
                   check=True, stdout=sys.stderr)


def make_fixture(input_set: int) -> tuple[Path, float, str]:
    """Writes the trace_stream fixture FIXTURE_REPS times; returns its path,
    the median write time and its sha256 (identical every time)."""
    path = BUILD_DIR / "fixtures" / f"google-v2-{input_set}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    times: list[float] = []
    digests: set[str] = set()
    for _ in range(FIXTURE_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(FIXTURE_TOOL), "--out", str(path),
                        "--schema", "google-v2", "--mb", str(FIXTURE_MB),
                        "--seed", str(input_set)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
    if len(digests) != 1:
        raise RuntimeError("fixture generator is not deterministic")
    return path, statistics.median(times), digests.pop()


def run_driver(workload: str, input_set: int, seconds: float, trace: bool,
               fixture: Path | None) -> dict[str, Any]:
    spans = BUILD_DIR / "spans" / f"{workload}-{input_set}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(input_set),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--spans", str(spans)]
    if fixture is not None:
        cmd += ["--fixture", str(fixture)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    out: dict[str, Any] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_rep(workload: str, rep: dict[str, Any],
              expected: list[dict[str, Any]] | None) -> list[str]:
    """Correctness and coverage problems of one repetition."""
    problems = list(rep["errors"])
    if expected is not None and rep["results"] != expected:
        problems.append("results differ from the stored reference")
    if workload in COVERAGE_WORKLOADS:
        if rep["opportunistic_placements"] == 0:
            problems.append("coverage: no opportunistic placement")
        if rep["lease_promotions"] == 0:
            problems.append("coverage: no gate promotion")
        if rep["traced"]:
            counters = rep["counters"]
            for name in ("sched.opportunistic_grants", "sim.gate_promotions"):
                if counters.get(name, 0) == 0:
                    problems.append(f"coverage: {name} is 0")
    return problems


def end_to_end(workload: str, out: dict[str, Any], setup_s: float,
               ) -> dict[str, tuple[float, str]]:
    reps = [r for r in out["reps"] if not r["traced"] and r["results"]]
    results = reps[0]["results"]

    def slots_per_s(rep: dict[str, Any]) -> float:
        # The sweep runs its simulations inside the harness, out of the
        # driver's sight with tracing off: its rate is over the sweep.
        run_s = rep["run_s"] if workload != "fig_sweep" else rep["wall_s"]
        return ratio(rep["slots_ticked"], run_s)

    jobs = sum(r["jobs_completed"] for r in results)
    violated = sum(r["jobs_violated"] for r in results)
    return {
        "wall_s": (median([r["wall_s"] for r in reps]), "s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (median([r["cpu_s"] for r in reps]), "s"),
        "sim_slots_per_s": (median([slots_per_s(r) for r in reps]), "1/s"),
        "decision_ms_per_slot": (median(
            [ratio(r["compute_latency_ms"], r["slots_ticked"])
             for r in reps]), "ms"),
        "utilization": (statistics.fmean(
            r["overall_utilization"] for r in results), "ratio"),
        "slo_attainment": (1.0 - ratio(violated, jobs), "ratio"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }


def layer_values(rep: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition: (value, unit) by name."""
    c = rep["counters"]
    p = rep["phases"]

    def ms(name: str) -> float:
        return float(p.get(name, {}).get("total_ms", 0.0))

    def calls(name: str) -> float:
        return float(p.get(name, {}).get("calls", 0))

    steps = c.get("dnn.sgd_steps", 0)
    grants = c.get("sched.opportunistic_grants", 0)
    fallbacks = c.get("sched.opportunistic_fallbacks", 0)
    rows = c.get("predict.batch.rows", 0)
    ingest_ms = rep["ingest_s"] * 1e3
    return {
        "dnn.fit_ms": (ms("dnn.fit"), "ms"),
        "dnn.sgd_steps": (steps, "count"),
        "dnn.us_per_sgd_step": (ratio(ms("dnn.fit") * 1e3, steps), "us"),
        "dnn.epochs": (c.get("dnn.epochs", 0), "count"),
        "hmm.baum_welch_ms": (ms("hmm.baum_welch"), "ms"),
        "hmm.bw_iterations": (c.get("hmm.bw_iterations", 0), "count"),
        "sim.train_ms": (ms("sim.train"), "ms"),
        "sim.train_calls": (calls("sim.train"), "count"),
        "sim.train_other_ms": (rep["train_self_ms"], "ms"),
        "experiment.points": (c.get("experiment.points", 0), "count"),
        "experiment.point_ms": (ratio(ms("experiment.point"),
                                      calls("experiment.point")), "ms"),
        "sched.place_ms": (ms("sched.place"), "ms"),
        "sched.place_calls": (calls("sched.place"), "count"),
        "sched.ms_per_place_call": (ratio(ms("sched.place"),
                                          calls("sched.place")), "ms"),
        "sched.opportunistic_grants": (grants, "count"),
        "sched.opp_grant_ratio": (ratio(grants, grants + fallbacks), "ratio"),
        "sched.entities_unplaced": (c.get("sched.entities_unplaced", 0),
                                    "count"),
        "sim.gate_promotions": (c.get("sim.gate_promotions", 0), "count"),
        "predict.rows": (rows, "count"),
        "sim.predict_ms": (ms("sim.predict"), "ms"),
        "predict.us_per_row": (ratio(ms("sim.predict") * 1e3, rows), "us"),
        "sim.run_ms": (ms("sim.run"), "ms"),
        "sim.place_ms": (ms("sim.place"), "ms"),
        "sim.run_other_ms": (rep["run_self_ms"], "ms"),
        "sim.slots_ticked": (rep["slots_ticked"], "count"),
        "sim.slots_skipped": (rep["slots_skipped"], "count"),
        "trace.ingest_ms": (ingest_ms, "ms"),
        "trace.rows_parsed": (rep["rows_parsed"], "count"),
        "trace.bytes_read": (rep["bytes_read"], "bytes"),
        "trace.rows_per_s": (ratio(rep["rows_parsed"] * 1e3, ingest_ms),
                             "1/s"),
    }


def per_layer(out: dict[str, Any]) -> dict[str, tuple[float, str]]:
    traced = [r for r in out["reps"] if r["traced"] and r["results"]]
    plain = [r for r in out["reps"] if not r["traced"] and r["results"]]
    per_rep = [layer_values(r) for r in traced]
    metrics = {name: (median([float(v[name][0]) for v in per_rep]), unit)
               for name, (_, unit) in per_rep[0].items()}
    metrics["trace.generate_ms"] = (median(out["generate_ms"]), "ms")
    overhead = 100.0 * (ratio(median([r["wall_s"] for r in traced]),
                              median([r["wall_s"] for r in plain])) - 1.0)
    metrics["obs.overhead_pct"] = (overhead, "%")
    return metrics


def load_reference() -> dict[str, Any]:
    reference: dict[str, Any] = {}
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text())
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Layered end-to-end benchmark of the CORP simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's results as the reference")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    input_set = args.seed % INPUT_SETS
    try:
        build()
        fixture = None
        fixture_s = 0.0
        fixture_sha = None
        if args.workload == "trace_stream":
            fixture, fixture_s, fixture_sha = make_fixture(input_set)
        out = run_driver(args.workload, input_set, args.seconds,
                         bool(args.trace), fixture)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as exc:
        log(f"e2e_bench: error: {exc}")
        return 1

    reference = load_reference()
    key = str(input_set)
    entry = reference.get(args.workload, {}).get(key)
    if args.record:
        entry = {"results": out["reps"][0]["results"]}
        if fixture_sha is not None:
            entry["fixture_sha256"] = fixture_sha
        reference.setdefault(args.workload, {})[key] = entry
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
        log(f"recorded reference {args.workload}/{key}")

    input_problems: list[str] = []
    if entry is None:
        input_problems.append(f"no reference for input set {key}")
    elif fixture_sha not in (None, entry.get("fixture_sha256")):
        input_problems.append("fixture sha256 differs from the reference")
    failures: list[str] = []
    failed = 0
    for i, rep in enumerate(out["reps"]):
        problems = input_problems + check_rep(
            args.workload, rep, entry["results"] if entry else None)
        kind = "traced" if rep["traced"] else "untraced"
        failures += [f"repetition {i} ({kind}): {p}" for p in problems]
        failed += bool(problems)

    if not any(r["results"] and r["traced"] == bool(args.trace)
               for r in out["reps"]):
        for failure in failures:
            log(failure)
        log("e2e_bench: error: no repetition produced results")
        return 1
    setup_s = median(out["setup_s"]) + fixture_s
    if args.trace:
        metrics = per_layer(out)
    else:
        metrics = end_to_end(args.workload, out, setup_s)
    attempted = len(out["reps"])
    print(f"workload {args.workload}, seed {args.seed} (input set "
          f"{input_set}), {attempted} repetition(s), {out['threads']} "
          f"threads, error_rate {failed / attempted:g}")
    for failure in failures:
        print(f"  FAILED {failure}")
    if not failures:
        print("  checks passed: reference, invariants"
              + (", coverage" if args.workload in COVERAGE_WORKLOADS else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
