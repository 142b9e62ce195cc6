"""Repeatable benchmark of the Heard-Of reproduction: five workloads, each
repeat in a fresh process, medians with quartiles, a per-commit history.

Run from the repository root (no install, no environment variables)::

    python3 bench/run.py                    # every workload x --repeats cells,
                                            # interleaved; appends results/history.jsonl
    python3 bench/run.py --trace            # one traced cell per workload: per-layer table
    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
                                            # one cell (plus set-up probes); the last
                                            # stdout line is the JSON result
    python3 bench/run.py compare A B        # verdict per (workload, metric)
    python3 bench/run.py selftest           # the harness's own checks

``A``/``B`` are history entries (an index such as ``-1``, or a commit
prefix) or JSON files holding one entry.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HISTORY = BENCH / "results" / "history.jsonl"
WORK = BENCH / ".work"

#: Set-up probes per cell: fresh processes that stop where timing would
#: start, so ``setup_s`` is a median of PROBES + 1 samples.
PROBES = 4
#: A cell that has not finished by then is killed with its process group.
CELL_TIMEOUT = 170.0

#: The layers expected to lead each workload's self time, by the measured
#: shares (see README.md).  On the paper suite per-run MatrixPlanAdapter
#: planning and one-run batch calls measure level.  Reported, not
#: enforced: a change may legitimately move a workload's dominant layer.
DOMINANT = {
    "sweep-reliable-n40": ("simulation.batch_s",),
    "sweep-faults-n40": ("simulation.batch_s",),
    "massive-n1024": ("adversary.batch_plan_s",),
    "paper-suite": ("adversary.matrix_adapter_s", "simulation.batch_s"),
    "fleet-2w": ("fleet.execute_s",),
}
#: Seconds metrics left out of the dominance check: run_plan_s contains
#: matrix_adapter_s, and the other two are mostly waiting on other
#: processes (the pool, the fleet).
NOT_WORK = {"adversary.run_plan_s", "runner.dispatch_s", "fleet.wait_s"}


class BenchError(RuntimeError):
    """A cell could not produce a result."""


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Statistics and verdicts
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)``; q1 and q3 as ``statistics.quantiles(n=4)`` cuts."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median, q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(before: Sequence[float], after: Sequence[float], better: str, bound: float) -> str:
    """``better``/``worse``/``same``/``unresolved`` for ``after`` vs ``before``.

    Medians are compared against the relative ``bound``; when either
    side's quartile spread is wider than the bound the answer is
    ``unresolved`` unless every run of one side beats every run of the
    other.
    """
    sign = 1.0 if better == "higher" else -1.0
    if max(relative_spread(before), relative_spread(after)) > bound:
        if all(sign * (b - a) > 0 for a in before for b in after):
            return "better"
        if all(sign * (a - b) > 0 for a in before for b in after):
            return "worse"
        return "unresolved"
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / abs(base) if base else 0.0
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def failed_verdict(before: Sequence[int], after: Sequence[int]) -> str:
    """Failed runs have an absolute bound of zero: any change is a verdict."""
    if sum(after) > sum(before):
        return "worse"
    return "better" if sum(after) < sum(before) else "same"


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A private working directory inside the checkout, removed afterwards."""
    path = WORK / f"{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a cell's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_cell(
    workload: str,
    seed: int,
    seconds: float,
    work: Path,
    *flags: str,
    timeout: float = CELL_TIMEOUT,
) -> dict:
    """Run ``cell.py`` in a fresh process group; return its JSON line."""
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work)
    command = [
        sys.executable, str(BENCH / "cell.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--work", str(work), *flags,
    ]
    # Its own process group, so every process the cell starts can be reaped.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, preexec_fn=os.setpgrp
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()  # reap the cell itself before waiting for its group
        raise BenchError(f"{workload}: cell did not finish within {timeout:.0f}s") from None
    finally:
        _reap_group(process.pid)
    lines = stdout.decode("utf-8").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{workload}: cell exited with code {process.returncode}")
    return json.loads(lines[-1])


def best_rate(pairs: Sequence[dict], kind: str) -> float:
    """Runs per second of the fastest ``kind`` (cold or warm) pass.

    Other tenants of the machine only ever slow a pass down, and they do
    so in phases lasting seconds to minutes, so the fastest pass of a
    cell is the least disturbed estimate of the program's own speed.  In
    ten-seed runs on a shared 2-vCPU machine it repeated about as tightly
    as the median pass or better, and halved the spread on the fault
    sweep and the fleet.
    """
    return max(pair[f"{kind}_runs"] / pair[f"{kind}_s"] for pair in pairs)


def measure(
    benchmark: dict,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    oracle: bool = True,
    smoke: bool = False,
    probes: int = PROBES,
) -> dict:
    """One measurement: set-up probes and one cell, summarised as the
    result object (``correct``/``attempted``/``failed``/``metrics``)."""
    deadline = time.monotonic() + CELL_TIMEOUT
    flags = [flag for flag, on in (("--smoke", smoke), ("--oracle", oracle)) if on]
    with work_dir() as work:
        setups = []
        if not trace:
            for index in range(probes):
                probe = run_cell(
                    workload, seed, seconds, work / f"probe{index}", "--probe", *flags,
                    timeout=deadline - time.monotonic(),
                )
                setups.append(probe["setup_s"])
        cell = run_cell(
            workload, seed, seconds, work / "cell", *flags, *(["--trace"] if trace else []),
            timeout=deadline - time.monotonic(),
        )
    pairs = cell["pairs"]
    mismatches = list(cell["mismatches"])
    plain = [pair for pair in pairs if not pair["traced"]]
    cold_rate = best_rate(plain, "cold")
    if trace:
        traced_rate = best_rate([pair for pair in pairs if pair["traced"]], "cold")
        values = {
            spec["name"]: statistics.median(layer.get(spec["name"], 0.0) for layer in cell["layers"])
            for spec in benchmark["per_layer"]
        }
        values["trace.overhead_ratio"] = traced_rate / cold_rate
        for layer in cell["layers"]:
            if abs(layer["trace.accounted_s"] - layer["trace.wall_s"]) > 0.05 * layer["trace.wall_s"]:
                mismatches.append(
                    f"{workload}: layer self times plus the unwrapped remainder "
                    f"({layer['trace.accounted_s']:.3f}s) miss the traced wall time "
                    f"({layer['trace.wall_s']:.3f}s) by more than 5%"
                )
        specs = benchmark["per_layer"]
    else:
        values = {
            "runs_per_s": cold_rate,
            "warm_runs_per_s": best_rate(plain, "warm"),
            "setup_s": statistics.median([*setups, cell["setup_s"]]),
            "peak_rss_mb": cell["peak_rss_mb"],
        }
        specs = benchmark["end_to_end"]
    return {
        "correct": not mismatches,
        "attempted": sum(p["cold_runs"] + p["warm_runs"] for p in pairs),
        "failed": sum(p["failed"] for p in pairs),
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
        "records_sha256": cell["records_sha256"],
        "mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def history_entry(benchmark: dict, results: Dict[str, List[dict]], args) -> dict:
    """One line of ``history.jsonl``: provenance plus per-(workload, metric)
    samples, medians and quartiles."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    # The history file itself is excluded, or every second entry would be dirty.
    status = _git("status", "--porcelain", "--untracked-files=no", "--", ".",
                  f":(exclude){HISTORY.relative_to(ROOT)}")
    workloads = {}
    for name, runs in results.items():
        metrics = {}
        for spec in benchmark["end_to_end"]:
            samples = [run["metrics"][spec["name"]]["value"] for run in runs]
            median, q1, q3 = quartiles(samples)
            metrics[spec["name"]] = {
                "unit": spec["unit"], "samples": samples, "median": median, "q1": q1, "q3": q3,
            }
        workloads[name] = {
            "records_sha256": sorted({run["records_sha256"] for run in runs}),
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "metrics": metrics,
        }
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "workloads": workloads,
    }


def read_history() -> List[dict]:
    """Every entry of ``history.jsonl``, oldest first."""
    if not HISTORY.is_file():
        return []
    return [json.loads(line) for line in HISTORY.read_text(encoding="utf-8").splitlines() if line]


def resolve_entry(reference: str) -> dict:
    """A history entry by file path, list index or commit prefix."""
    path = Path(reference)
    if path.is_file():
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        return json.loads(lines[-1]) if path.suffix == ".jsonl" else json.loads("\n".join(lines))
    history = read_history()
    try:
        return history[int(reference)]
    except ValueError:
        pass
    except IndexError:
        raise BenchError(f"history has {len(history)} entries; no entry {reference}") from None
    matches = [entry for entry in history if (entry.get("commit") or "").startswith(reference)]
    if not matches:
        raise BenchError(f"no history entry or file matches {reference!r}")
    return matches[-1]


def compare_entries(benchmark: dict, before: dict, after: dict) -> List[Tuple[str, str, str]]:
    """``(workload, metric, verdict)`` for every pair both entries measured."""
    rows = []
    for workload, old in before["workloads"].items():
        new = after["workloads"].get(workload)
        if new is None:
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            if name in old["metrics"] and name in new["metrics"]:
                rows.append((workload, name, verdict(
                    old["metrics"][name]["samples"], new["metrics"][name]["samples"],
                    spec["better"], spec["bound"],
                )))
        rows.append((workload, "failed", failed_verdict(old["failed"], new["failed"])))
    return rows


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _format(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def command_one(benchmark: dict, args) -> int:
    """The single-cell form: one JSON result on the last line of stdout."""
    result = measure(benchmark, args.workload, args.seed, args.seconds, trace=bool(args.trace))
    for mismatch in result["mismatches"]:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def command_trace(benchmark: dict, args) -> int:
    """One traced cell per workload: every per-layer metric, the tracing
    overhead, the wall accounting and the dominant layer."""
    units = {spec["name"]: spec["unit"] for spec in benchmark["per_layer"]}
    failures = 0
    for workload in args.workloads:
        result = measure(benchmark, workload, args.seed, args.seconds, trace=True)
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        print(f"== {workload} (traced; per cold+warm pass pair, median over traced pairs)")
        for name, value in values.items():
            print(f"  {name:32s} {_format(value):>12s} {units[name]}")
        work = {
            name: value for name, value in values.items()
            if units[name] == "s" and not name.startswith("trace.") and name not in NOT_WORK
        }
        dominant = max(work, key=work.get)
        expected = DOMINANT.get(workload, ())
        print(
            f"  dominant layer: {dominant} "
            f"({'as expected' if dominant in expected else 'expected ' + ' or '.join(expected)}); "
            f"tracing overhead: traced/untraced runs_per_s = {values['trace.overhead_ratio']:.3f}"
        )
        for mismatch in result["mismatches"]:
            print(f"  MISMATCH {mismatch}")
        failures += bool(result["mismatches"])
    return 1 if failures else 0


def command_all(benchmark: dict, args) -> int:
    """Every workload, ``--repeats`` fresh cells each, interleaved round-robin."""
    results: Dict[str, List[dict]] = {workload: [] for workload in args.workloads}
    began = time.monotonic()
    for repeat in range(args.repeats):
        for workload in args.workloads:
            result = measure(benchmark, workload, args.seed, args.seconds, oracle=repeat == 0)
            results[workload].append(result)
            print(
                f"[{time.monotonic() - began:7.1f}s] repeat {repeat + 1}/{args.repeats} "
                f"{workload}: runs_per_s={result['metrics']['runs_per_s']['value']:.1f}",
                file=sys.stderr,
            )
    problems = []
    for workload, runs in results.items():
        print(f"== {workload}")
        for spec in benchmark["end_to_end"]:
            samples = [run["metrics"][spec["name"]]["value"] for run in runs]
            median, q1, q3 = quartiles(samples)
            print(
                f"  {spec['name']:16s} {_format(median):>10s} "
                f"[{_format(q1)}, {_format(q3)}] n={len(samples)} {spec['unit']}"
            )
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        digests = sorted({run["records_sha256"] for run in runs})
        print(f"  failed {failed} of {attempted} runs; records_sha256 {' '.join(d[:16] for d in digests)}")
        problems += [m for run in runs for m in run["mismatches"]]
        if failed:
            problems.append(f"{workload}: {failed} failed runs")
        if len(digests) > 1:
            problems.append(f"{workload}: records differ between repeats of seed {args.seed}")
    print(f"total wall time: {time.monotonic() - began:.0f}s")
    for problem in problems:
        print(f"MISMATCH {problem}")
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with HISTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(history_entry(benchmark, results, args), sort_keys=True) + "\n")
    print(f"appended to {HISTORY.relative_to(ROOT)}")
    return 1 if problems else 0


def command_compare(benchmark: dict, argv: List[str]) -> int:
    """``compare A B``: one verdict line per (workload, metric)."""
    parser = argparse.ArgumentParser(prog="run.py compare", description="Compare two results.")
    parser.add_argument("before", help="history index, commit prefix, or JSON file")
    parser.add_argument("after", help="history index, commit prefix, or JSON file")
    args = parser.parse_args(argv)
    rows = compare_entries(benchmark, resolve_entry(args.before), resolve_entry(args.after))
    for workload, metric, outcome in rows:
        print(f"{workload:20s} {metric:16s} {outcome}")
    return 0


def parse_args(argv: List[str], benchmark: dict) -> argparse.Namespace:
    """The measuring forms' options; defaults come from ``BENCHMARK.json``."""
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="measure one workload once")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="timed window per cell (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced cell",
    )
    parser.add_argument("--repeats", type=int, default=5, help="cells per workload (default 5)")
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else names
    return args


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to a command; exit 2 when there is no program to measure."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    try:
        if argv[:1] == ["compare"]:
            return command_compare(benchmark, argv[1:])
        if argv[:1] == ["selftest"]:
            from selftest import selftest

            return selftest(benchmark)
        args = parse_args(argv, benchmark)
        if args.workload:
            return command_one(benchmark, args)
        if args.trace:
            return command_trace(benchmark, args)
        return command_all(benchmark, args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
