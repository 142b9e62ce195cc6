"""One benchmark cell: a fresh process that sets up a workload, times pass
pairs for a fixed window, checks the records, and prints one JSON line.

Started by ``run.py``; the interface is internal::

    python3 bench/cell.py --workload NAME --seed S --seconds T --work DIR
        [--trace] [--oracle] [--smoke] [--probe]

``--probe`` stops after set-up and reports only ``setup_s``.  With
``--trace`` the pairs alternate between untraced and traced (wrappers
installed), starting untraced, and at least two pairs run.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    """The cell's options (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def traced_pair(tracer, spans, counts, start, end):
    """Per-layer metrics of one traced pair, plus its wall accounting."""
    from tracing import layer_metrics, self_times, unwrapped_remainder

    metrics = layer_metrics(spans, counts)
    thread = threading.main_thread().ident
    own = self_times(spans)
    main_self = sum(
        own[(s["pid"], s["id"])]
        for s in spans
        if s["pid"] == tracer.main_pid and s["thread"] == thread
    )
    remainder = unwrapped_remainder(spans, start, end, tracer.main_pid, thread)
    metrics["trace.unwrapped_s"] = remainder
    metrics["trace.wall_s"] = end - start
    metrics["trace.accounted_s"] = main_self + remainder
    return metrics


def main(argv=None):
    """Set up, time pass pairs for the window, check, print the JSON line."""
    args = parse_args(argv)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cell: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.setup(args.seed, args.smoke)
    args.work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.work / "spool")

    setup_s = None
    pairs = []
    layers = []
    timed = 0.0
    last_cold = None
    min_pairs = 2 if args.trace else 1
    while len(pairs) < min_pairs or timed < args.seconds:
        pass_dir = args.work / f"pair{len(pairs)}"
        prepared = workload.prepare(pass_dir)
        if setup_s is None:
            setup_s = time.perf_counter() - STARTED
            if args.probe:
                print(json.dumps({"setup_s": setup_s}))
                return 0
        traced = tracer is not None and len(pairs) % 2 == 1
        if traced:
            tracer.install()
        started = time.perf_counter()
        cold = workload.run(prepared, warm=False)
        middle = time.perf_counter()
        warm = workload.run(prepared, warm=True)
        ended = time.perf_counter()
        if traced:
            tracer.uninstall()
            spans, counts = tracer.take()
            metrics = traced_pair(tracer, spans, counts, started, ended)
            if hasattr(workload, "fleet_counts"):
                metrics.update(workload.fleet_counts(prepared, cold, middle - started))
            layers.append(metrics)
        pairs.append(
            {
                "traced": traced,
                "cold_runs": cold.runs,
                "cold_s": middle - started,
                "warm_runs": warm.runs,
                "warm_s": ended - middle,
                "failed": cold.failed + warm.failed,
                "cold_sha256": cold.records_sha256,
                "warm_sha256": warm.records_sha256,
            }
        )
        timed += ended - started
        last_cold = cold
        shutil.rmtree(pass_dir, ignore_errors=True)

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    mismatches = pass_mismatches(args.workload, pairs)
    if args.oracle:
        mismatches += workload.oracle(last_cold, args.work)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "setup_s": setup_s,
                "peak_rss_mb": usage / 1024.0,
                "records_sha256": last_cold.records_sha256,
                "pairs": pairs,
                "layers": layers,
                "mismatches": mismatches,
            },
            allow_nan=False,
        )
    )
    return 0


def pass_mismatches(workload, pairs):
    """Every pass of one cell ran the same seed, so every digest must agree."""
    digests = {pair[key] for pair in pairs for key in ("cold_sha256", "warm_sha256")}
    if len(digests) <= 1:
        return []
    return [
        f"{workload}: records differ between passes of one seed "
        f"({len(digests)} distinct digests over {len(pairs)} cold/warm pairs)"
    ]


if __name__ == "__main__":
    sys.exit(main())
