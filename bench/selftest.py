"""The harness's own checks (``python3 bench/run.py selftest``, ~15 s).

* ``BENCHMARK.json`` keeps to its format: names, units, counts, bounds.
* Every workload at its smoke size emits exactly the declared metric
  names with their units, untraced and traced.
* A tampered record fails the correctness checks and is named.
* Self time is right on overlapping nested spans, and the wall
  accounting closes.
* ``compare`` gives the right verdicts on synthetic samples, including
  the absolute zero bound on failed runs.
"""

from __future__ import annotations

import re
import sys
from typing import List

from run import SRC, failed_verdict, measure, verdict, work_dir
from tracing import layer_metrics, self_times, unwrapped_remainder

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def contract_errors(benchmark: dict) -> List[str]:
    """Every way ``benchmark`` breaks the BENCHMARK.json format."""
    errors = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(benchmark) != expected_keys:
        errors.append(f"top-level keys {sorted(benchmark)} != {sorted(expected_keys)}")
    paths = benchmark.get("paths", [])
    if not 1 <= len(paths) <= 16 or not all(
        PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/") for p in paths
    ):
        errors.append(f"bad paths {paths}")
    command = benchmark.get("command", [])
    if not 1 <= len(command) <= 32 or any(len(c) > 200 or c.startswith("/") for c in command):
        errors.append(f"bad command {command}")
    seconds = benchmark.get("run_seconds")
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        errors.append(f"run_seconds {seconds!r} is not a whole number in 1..60")
    limits = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    keys = {
        "workloads": {"name", "why"},
        "end_to_end": {"name", "unit", "better", "bound"},
        "per_layer": {"name", "unit", "better"},
    }
    names = []
    for section, (low, high) in limits.items():
        entries = benchmark.get(section, [])
        if not low <= len(entries) <= high:
            errors.append(f"{section}: {len(entries)} entries, allowed {low}..{high}")
        for entry in entries:
            if set(entry) != keys[section]:
                errors.append(f"{section} entry {entry.get('name')}: keys {sorted(entry)}")
            names.append(entry.get("name", ""))
            if not NAME.fullmatch(entry.get("name", "")):
                errors.append(f"{section}: bad name {entry.get('name')!r}")
            if "unit" in entry and not UNIT.fullmatch(entry["unit"]):
                errors.append(f"{entry['name']}: bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("higher", "lower"):
                errors.append(f"{entry['name']}: better must be higher or lower")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                errors.append(f"{entry['name']}: bound {entry['bound']} outside (0, 0.25]")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                errors.append(f"{entry['name']}: why is not one line of at most 200 characters")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        errors.append(f"names used twice: {duplicates}")
    setup = [e for e in benchmark.get("end_to_end", []) if e.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] != max(e["bound"] for e in benchmark["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    return errors


def check_smoke_metrics(benchmark: dict) -> List[str]:
    """Each workload at smoke size emits exactly the declared metrics."""
    errors = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(
                benchmark, workload, seed=0, seconds=0, trace=trace, oracle=False,
                smoke=True, probes=1,
            )
            expected = {spec["name"]: spec["unit"] for spec in benchmark[section]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != expected:
                errors.append(f"{workload} trace={trace}: metrics {sorted(got)} != declared")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                errors.append(f"{workload} trace={trace}: {result['mismatches']} "
                              f"attempted={result['attempted']} failed={result['failed']}")
            values = [entry["value"] for entry in result["metrics"].values()]
            if not all(isinstance(v, (int, float)) for v in values):
                errors.append(f"{workload} trace={trace}: a metric value is not a number")
            if not trace and min(values) <= 0:
                errors.append(f"{workload}: an end-to-end metric reads 0")
    return errors


def check_tampering() -> List[str]:
    """A changed record fails the oracle; differing pass digests are caught."""
    sys.path.insert(0, str(SRC))
    from cell import pass_mismatches
    from workloads import WORKLOADS

    errors = []
    workload = WORKLOADS["sweep-faults-n40"]
    workload.setup(seed=3, smoke=True)
    with work_dir() as work:
        result = workload.run(workload.prepare(work), warm=False)
        if workload.oracle(result, work, sample=result.runs):
            errors.append("untampered records failed the oracle")
        result.records[1].decided_count += 1
        found = workload.oracle(result, work, sample=result.runs)
        if len(found) != 1 or "run 1 " not in found[0]:
            errors.append(f"tampered run 1 was not named exactly once: {found}")
    pair = {"cold_sha256": "a", "warm_sha256": "a"}
    if pass_mismatches("w", [pair, pair]):
        errors.append("identical digests were reported as a mismatch")
    if not pass_mismatches("w", [pair, {"cold_sha256": "a", "warm_sha256": "b"}]):
        errors.append("a warm pass with other records was not reported")
    return errors


def check_self_time() -> List[str]:
    """Self time and the wall remainder on overlapping nested spans."""

    def span(id_, start, end, parent=None, name="cache.get", thread=1):
        return {"id": id_, "name": name, "start": start, "end": end,
                "parent": parent, "pid": 7, "thread": thread}

    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 3.0, 6.0, parent=1, thread=2),   # overlaps 2 (another thread)
        span(4, 8.0, 12.0, parent=1, thread=2),  # outlives its parent
        span(5, 2.0, 3.0, parent=2),
        span(6, 20.0, 21.0),
        {**span(1, 0.0, 5.0), "pid": 8},         # same id, other process
    ]
    own = self_times(spans)
    expected = {(7, 1): 3.0, (7, 2): 2.0, (7, 3): 3.0, (7, 4): 4.0,
                (7, 5): 1.0, (7, 6): 1.0, (8, 1): 5.0}
    errors = [f"self time of {key}: {own[key]} != {value}"
              for key, value in expected.items() if abs(own[key] - value) > 1e-9]
    remainder = unwrapped_remainder(spans, 0.0, 25.0, pid=7, thread=1)
    if abs(remainder - 14.0) > 1e-9:
        errors.append(f"unwrapped remainder {remainder} != 14.0")
    # On one thread spans nest properly, so self times plus the remainder
    # must add up to the wall interval exactly.
    single = [s for s in spans if s["pid"] == 7 and s["thread"] == 1]
    closed = sum(self_times(single).values()) + unwrapped_remainder(single, 0.0, 25.0, 7, 1)
    if abs(closed - 25.0) > 1e-9:
        errors.append(f"single-thread self times plus remainder give {closed}, not 25.0")
    metrics = layer_metrics(
        [span(1, 0.0, 2.0, name="adversary.matrix_adapter"), span(2, 2.0, 3.0, name="adversary.run_plan")],
        {"simulation.edge_rounds": 0.0},
    )
    if metrics["adversary.run_plan_s"] != 3.0 or metrics["adversary.matrix_adapter_calls"] != 1:
        errors.append(f"run_plan_s must include the adapter: {metrics}")
    return errors


def check_verdicts() -> List[str]:
    """``compare`` verdicts on synthetic samples, failures included."""
    cases = [
        ([100, 101, 99, 100, 100], [100, 102, 99, 101, 100], "higher", 0.1, "same"),
        ([100, 101, 99, 100, 100], [130, 131, 129, 130, 130], "higher", 0.1, "better"),
        ([100, 101, 99, 100, 100], [70, 71, 69, 70, 70], "higher", 0.1, "worse"),
        ([1.0, 1.01, 0.99, 1.0, 1.0], [0.7, 0.71, 0.69, 0.7, 0.7], "lower", 0.1, "better"),
        ([60, 140, 100, 80, 120], [65, 135, 95, 85, 125], "higher", 0.1, "unresolved"),
        ([60, 70, 80, 90, 100], [200, 210, 220, 230, 240], "higher", 0.1, "better"),
        ([100, 100, 100], [108, 108, 108], "lower", 0.1, "same"),
        ([100, 100, 100], [111, 111, 111], "lower", 0.1, "worse"),
    ]
    errors = [
        f"verdict({before}, {after}, {better}, {bound}) = {got}, expected {want}"
        for before, after, better, bound, want in cases
        if (got := verdict(before, after, better, bound)) != want
    ]
    for before, after, want in (([0, 0], [0, 0], "same"), ([0, 0], [0, 1], "worse"),
                                ([2, 0], [0, 0], "better")):
        if failed_verdict(before, after) != want:
            errors.append(f"failed_verdict({before}, {after}) != {want}")
    return errors


def selftest(benchmark: dict) -> int:
    """Run every check, print ok/FAIL per check; 1 if any failed."""
    checks = [
        ("BENCHMARK.json format", lambda: contract_errors(benchmark)),
        ("self-time arithmetic", check_self_time),
        ("compare verdicts", check_verdicts),
        ("tampered records", check_tampering),
        ("smoke metrics per workload", lambda: check_smoke_metrics(benchmark)),
    ]
    failed = 0
    for label, check in checks:
        errors = check()
        print(f"{'ok  ' if not errors else 'FAIL'} {label}")
        for error in errors:
            print(f"     {error}")
        failed += bool(errors)
    return 1 if failed else 0
