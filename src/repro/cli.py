"""Command-line interface.

``repro-ho`` (or ``python -m repro.cli``) exposes eight subcommands:

* ``run``        — run one consensus instance (algorithm, scenario or
  custom fault environment) and print the outcome;
* ``experiment`` — run one of the paper-reproduction experiments
  (E1-E12) and print its report table;
* ``campaign``   — run experiments (or a declarative ``--spec`` grid)
  through the parallel campaign runner, with worker processes
  (``--jobs``), per-run timeouts and an incremental on-disk result
  cache; with ``--distributed --queue-dir`` the campaign is submitted
  to a shared-store work queue and executed by a worker fleet instead
  (add ``--autoscale`` to spawn and retire local workers automatically
  while the campaign runs);
* ``worker``     — join a worker fleet: claim batch intervals from a
  shared queue directory (lease-based, crash-safe, work-stealing) and
  execute them;
* ``supervise``  — auto-scale a local worker fleet against a queue
  directory from observed queue depth;
* ``status``     — render a live observability view of a fleet (queue
  depth plus every worker's deposited metric snapshot), once, in a
  ``--watch`` loop, or as ``--json`` for scrapers;
* ``table``      — print the analytic tables (Table 1, the related-work
  comparison and the resilience table) without running simulations;
* ``lint``       — run the ``repro-lint`` static-analysis rules
  (determinism, store-seam, schema and registry discipline) over the
  source tree; exit codes and the baseline flow are documented in its
  ``--help`` epilog.

``campaign`` exits non-zero when any run of the campaign failed or
timed out, printing the failure counts and (for distributed campaigns)
the per-worker stats summary.

The full generated reference lives at ``docs/reference/cli.md`` (kept
in sync by a test); :func:`cli_reference_markdown` is its generator.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Dict, List, Optional

from repro.adversary import (
    BlockFaultAdversary,
    PeriodicGoodRoundAdversary,
    RandomCorruptionAdversary,
    RandomOmissionAdversary,
    ReliableAdversary,
    StaticByzantineAdversary,
)
from repro.algorithms import accepted_kwargs, available_algorithms, make_algorithm
from repro.analysis.comparison import related_work_rows, render_table, table1_rows
from repro.analysis.feasibility import resilience_table
from repro.experiments import ALL_EXPERIMENTS
from repro.runner import (
    CampaignRunner,
    CampaignSpec,
    DistributedCampaignRunner,
    ResultCache,
    RunTimeoutError,
    Supervisor,
    WorkQueue,
    campaign_report,
    fleet_status,
    make_reducer,
    reduced_campaign_report,
    run_worker,
)
from repro.runner.factories import build_predicate
from repro.simulation.backends import available_backends, get_backend, run_simulation
from repro.simulation.engine import SimulationConfig
from repro.workloads import generators


def _build_adversary(args: argparse.Namespace):
    if args.adversary == "reliable":
        return ReliableAdversary()
    if args.adversary == "omission":
        return RandomOmissionAdversary(drop_probability=args.drop_probability, seed=args.seed)
    if args.adversary == "corruption":
        inner = RandomCorruptionAdversary(
            alpha=args.alpha, value_domain=(0, 1), seed=args.seed
        )
        return PeriodicGoodRoundAdversary(inner=inner, period=args.good_round_period)
    if args.adversary == "blocks":
        inner = BlockFaultAdversary(
            faults_per_round=args.n // 2, value_domain=(0, 1), seed=args.seed
        )
        return PeriodicGoodRoundAdversary(inner=inner, period=args.good_round_period)
    if args.adversary == "byzantine":
        return StaticByzantineAdversary(
            byzantine=range(args.f), value_domain=(0, 1), seed=args.seed
        )
    raise ValueError(f"unknown adversary {args.adversary!r}")


def _build_initial_values(args: argparse.Namespace):
    if args.workload == "unanimous":
        return generators.unanimous(args.n, value=0)
    if args.workload == "split":
        return generators.split(args.n)
    if args.workload == "random":
        return generators.uniform_random(args.n, seed=args.seed)
    if args.workload == "distinct":
        return generators.distinct(args.n)
    raise ValueError(f"unknown workload {args.workload!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    # Only forward the kwargs the chosen algorithm's factory accepts
    # (the registry rejects unknown ones instead of swallowing them).
    candidates = {"alpha": args.alpha, "f": args.f}
    kwargs = {k: v for k, v in candidates.items() if k in accepted_kwargs(args.algorithm)}
    algorithm = make_algorithm(args.algorithm, n=args.n, **kwargs)
    adversary = _build_adversary(args)
    initial_values = _build_initial_values(args)
    result = run_simulation(
        algorithm=algorithm,
        initial_values=initial_values,
        adversary=adversary,
        config=SimulationConfig(max_rounds=args.max_rounds, record_states=False),
        backend=args.backend,
    )
    print(result.summary())
    if args.verbose:
        print(f"corruptions per round: {result.collection.corruption_profile()}")
        print(f"metrics: {result.metrics.as_dict()}")
        for violation in result.outcome.violations:
            print(f"violation: {violation}")
    return 0 if result.outcome.safe else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiment_id = args.id.upper()
    if experiment_id == "ALL":
        for key in sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:])):
            print(ALL_EXPERIMENTS[key]().render())
            print()
        return 0
    driver = ALL_EXPERIMENTS.get(experiment_id)
    if driver is None:
        print(
            f"unknown experiment {args.id!r}; available: "
            f"{', '.join(sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:])))} or 'all'",
            file=sys.stderr,
        )
        return 2
    report = driver()
    print(report.render())
    if args.json:
        report.to_json(args.json)
        print(f"\nwrote {args.json}")
    return 0


def _experiment_ids(requested: List[str]) -> List[str]:
    """Normalise/validate experiment ids, expanding the 'all' keyword."""
    ordered = sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:]))
    if any(token.lower() == "all" for token in requested):
        return ordered
    ids = []
    for token in requested:
        experiment_id = token.upper()
        if experiment_id not in ALL_EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {token!r}; available: {', '.join(ordered)} or 'all'"
            )
        ids.append(experiment_id)
    return ids


def _driver_overrides(driver, args: argparse.Namespace) -> dict:
    """CLI overrides (runs/seed/n/max_rounds) the driver actually accepts."""
    accepted = inspect.signature(driver).parameters
    candidates = {
        "runs": args.runs,
        "seed": args.seed,
        "n": args.n,
        "max_rounds": args.max_rounds,
    }
    return {
        name: value
        for name, value in candidates.items()
        if value is not None and name in accepted
    }


def _spec_reducer(name: str, spec: CampaignSpec):
    """Build the in-worker reducer requested by ``--reduce``.

    ``predicate`` evaluates every (non-null) predicate of the spec's
    grid inside the worker; ``decision`` and ``fault-profile`` take no
    configuration.
    """
    if name != "predicate":
        return make_reducer(name)
    predicates = {}
    for predicate_spec in spec.predicates or ():
        if predicate_spec is None:
            continue
        # The registry predicates are n-independent, so n=0 is fine here.
        predicate = build_predicate(predicate_spec, n=0)
        predicates[predicate.name] = predicate
    if not predicates:
        raise ValueError(
            "--reduce predicate needs at least one non-null predicate in the spec"
        )
    return make_reducer("predicate", predicates)


def _print_worker_stats(runner) -> None:
    """Per-worker stats lines for distributed runners (fleet summary)."""
    for worker_id in sorted(getattr(runner, "worker_stats", {})):
        print(f"worker[{worker_id}]: {runner.worker_stats[worker_id].summary()}")


def _failure_summary(label: str, records) -> int:
    """Print the failure/timeout summary; returns the exit code (0/1).

    A campaign with any failed or timed-out run must exit non-zero so
    CI and fleet submitters cannot mistake a partial sweep for a green
    one.
    """
    failed = [record for record in records if not record.ok]
    if not failed:
        return 0
    timeouts = sum(1 for record in failed if record.timed_out)
    print(
        f"campaign[{label}]: {len(failed)} of {len(records)} runs failed "
        f"({timeouts} timed out)",
        file=sys.stderr,
    )
    for record in failed[:10]:
        print(
            f"  run_index={record.run_index} seed={record.seed}: {record.error}",
            file=sys.stderr,
        )
    if len(failed) > 10:
        print(f"  ... and {len(failed) - 10} more", file=sys.stderr)
    return 1


def _make_campaign_runner(args: argparse.Namespace, backend: str):
    """The runner the campaign command drives: local pool or fleet submitter."""
    if args.distributed:
        return DistributedCampaignRunner(
            queue_dir=args.queue_dir,
            batch_size=args.batch_size,
            backend=backend,
            wait_timeout=args.wait_timeout,
        )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return CampaignRunner(jobs=args.jobs, timeout=args.timeout, cache=cache, backend=backend)


def _autoscale_supervisor(args: argparse.Namespace, backend: str):
    """The background Supervisor for ``--autoscale`` (``None`` without it)."""
    if not args.autoscale:
        return None
    return Supervisor(
        queue=args.queue_dir,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        jobs=args.jobs,
        backend=backend,
        poll_interval=0.5,
        worker_poll_interval=0.1,
        idle_grace=2.0,
    )


def _status_printer():
    """A Supervisor ``on_status`` callback printing scaling transitions."""
    last: dict = {}

    def emit(status) -> None:
        key = (status["workers"], status["target"])
        if key != last.get("key"):
            last["key"] = key
            print(
                f"supervise: workers={status['workers']} target={status['target']} "
                f"unclaimed={status['unclaimed_units']} "
                f"pending_batches={status['pending_batches']}",
                flush=True,
            )

    return emit


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print(f"--batch-size must be >= 1, got {args.batch_size}", file=sys.stderr)
        return 2
    if args.submit_only and not (args.distributed and args.spec):
        print("--submit-only requires --distributed and --spec", file=sys.stderr)
        return 2
    if args.autoscale and not args.distributed:
        print("--autoscale requires --distributed", file=sys.stderr)
        return 2
    if args.distributed and (args.no_cache or args.cache_dir != ".repro_cache"):
        print(
            "--distributed ignores --no-cache/--cache-dir: the fleet "
            "coordinates through the shared cache inside the queue dir "
            f"({args.queue_dir}/cache)",
            file=sys.stderr,
        )
    backend = args.backend or "reference"
    if args.distributed and not get_backend(backend).equivalent_to_reference:
        print(
            f"--distributed requires a backend that is result-identical to the "
            f"reference engine; {backend!r} is not (its records would depend on "
            f"which worker ran them)",
            file=sys.stderr,
        )
        return 2

    try:
        supervisor = _autoscale_supervisor(args, backend)
    except ValueError as exc:  # bad --min-workers/--max-workers bounds
        print(str(exc), file=sys.stderr)
        return 2
    if supervisor is None:
        return _run_campaign_command(args, backend)
    # --autoscale: spawn/retire local workers while the campaign runs;
    # the fleet is always retired on the way out, success or not.
    supervisor.start()
    try:
        return _run_campaign_command(args, backend)
    finally:
        supervisor.stop()


def _run_campaign_command(args: argparse.Namespace, backend: str) -> int:
    """The campaign body: a ``--spec`` grid or a list of experiment ids."""
    if args.spec:
        try:
            spec = CampaignSpec.from_json(args.spec)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load campaign spec {args.spec!r}: {exc}", file=sys.stderr)
            return 2
        if args.backend:
            # The CLI flag overrides the spec's backend field.
            spec.backend = args.backend
        reducer = None
        if args.reduce:
            try:
                reducer = _spec_reducer(args.reduce, spec)
            except (KeyError, ValueError) as exc:
                print(f"cannot build reducer {args.reduce!r}: {exc}", file=sys.stderr)
                return 2
        if args.submit_only:
            runner = _make_campaign_runner(args, backend)
            campaign_id = runner.submit_campaign(spec, reducer)
            if campaign_id is None:
                print(f"campaign[{spec.campaign_id}]: every run already cached")
            else:
                print(
                    f"campaign[{spec.campaign_id}]: submitted as {campaign_id} "
                    f"to {args.queue_dir} (run 'repro-ho worker --queue-dir "
                    f"{args.queue_dir}' on the fleet)"
                )
            return 0
        try:
            with _make_campaign_runner(args, backend) as runner:
                if reducer is not None:
                    result = runner.run_reduced_campaign(spec, reducer)
                    report = reduced_campaign_report(spec, reducer, result.records)
                else:
                    result = runner.run_campaign(spec)
                    report = campaign_report(spec, result.records)
        except RunTimeoutError as exc:
            # --distributed --wait-timeout expired before the fleet
            # finished; the campaign stays queued for late workers.
            print(f"campaign {spec.campaign_id} timed out: {exc}", file=sys.stderr)
            return 1
        print(report.render())
        if args.json:
            report.to_json(args.json)
            print(f"wrote {args.json}")
        print(f"runner[{spec.campaign_id}]: jobs={args.jobs} {result.stats.summary()}")
        _print_worker_stats(runner)
        return _failure_summary(spec.campaign_id, result.records)

    if args.reduce:
        print("--reduce requires --spec (experiment drivers pick their own reducers)", file=sys.stderr)
        return 2

    if not args.ids:
        print("campaign needs experiment ids (or 'all'), or --spec FILE", file=sys.stderr)
        return 2

    # One experiment failing must not skip the remaining ones: finish
    # the whole list, then report failure through the exit code.
    exit_code = 0
    for experiment_id in _experiment_ids(args.ids):
        driver = ALL_EXPERIMENTS[experiment_id]
        # One runner per experiment so the printed stats are per-experiment;
        # the cache is shared across all of them.
        runner = _make_campaign_runner(args, backend)
        try:
            report = driver(runner=runner, **_driver_overrides(driver, args))
        except RuntimeError as exc:
            # Timed-out/failed runs cannot be folded into rate tables on
            # the experiment-driver path.
            print(f"experiment {experiment_id} failed: {exc}", file=sys.stderr)
            if args.timeout is not None:
                print("hint: raise or drop --timeout", file=sys.stderr)
            exit_code = 1
            continue
        finally:
            runner.close()
        print(report.render())
        if args.json:
            from pathlib import Path

            json_path = Path(args.json) / f"{experiment_id}.json"
            report.to_json(json_path)
            print(f"wrote {json_path}")
        print(f"runner[{experiment_id}]: jobs={args.jobs} {runner.stats.summary()}")
        _print_worker_stats(runner)
        if runner.stats.failures or runner.stats.timeouts:
            print(
                f"campaign[{experiment_id}]: {runner.stats.failures} failures, "
                f"{runner.stats.timeouts} timeouts",
                file=sys.stderr,
            )
            exit_code = 1
        print()
    return exit_code


def _cmd_worker(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        executed = _run_worker_loop(args)
    except ValueError as exc:  # e.g. a non-result-identical backend
        print(str(exc), file=sys.stderr)
        return 2
    print(f"worker: executed {executed} batch(es) from {args.queue_dir}")
    return 0


def _run_worker_loop(args: argparse.Namespace) -> int:
    return run_worker(
        queue_dir=args.queue_dir,
        worker_id=args.worker_id,
        jobs=args.jobs,
        backend=args.backend or "reference",
        timeout=args.timeout,
        ttl=args.ttl,
        poll_interval=args.poll_interval,
        max_idle=args.max_idle,
    )


def _cmd_supervise(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        supervisor = Supervisor(
            queue=args.queue_dir,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            jobs=args.jobs,
            backend=args.backend or "reference",
            ttl=args.ttl,
            timeout=args.timeout,
            poll_interval=args.poll_interval,
            idle_grace=args.idle_grace,
            on_status=_status_printer(),
        )
    except ValueError as exc:  # bad bounds or a non-result-identical backend
        print(str(exc), file=sys.stderr)
        return 2
    stats = supervisor.run(
        exit_when_drained=args.exit_on_drain, max_runtime=args.max_runtime
    )
    print(f"supervisor: {stats.summary()}")
    return 0


def _counter(totals: Dict[str, float], name: str) -> int:
    return int(totals.get(name, 0))


def render_fleet_status(status: Dict[str, object]) -> str:
    """Pure text rendering of a :func:`repro.runner.fleet_status` dict.

    Deterministic given its input (no clocks, no terminal queries), so
    the output is golden-tested; ``repro-ho status`` prints it.
    """
    queue: Dict[str, object] = dict(status.get("queue", {}))  # type: ignore[arg-type]
    workers: List[Dict[str, object]] = list(status.get("workers", []))  # type: ignore[arg-type]
    totals: Dict[str, float] = dict(status.get("totals", {}))  # type: ignore[arg-type]
    lines = [
        "queue: pending_batches={0} claimable_units={1} unclaimed_units={2} "
        "deposited_parts={3}".format(
            queue.get("pending_batches", 0),
            queue.get("claimable_units", 0),
            queue.get("unclaimed_units", 0),
            queue.get("deposited_parts", 0),
        )
    ]
    live = dict(queue.get("live_leases", {}) or {})  # type: ignore[arg-type]
    if live:
        held = " ".join(f"{worker}={count}" for worker, count in sorted(live.items()))
        lines.append(f"leases: {held}")
    else:
        lines.append("leases: none")
    lines.append(
        "totals: units={0} claims={1} deposits={2} steals={3} requeues={4} "
        "lease_breaks={5} cache_corrupt={6}".format(
            _counter(totals, "repro_worker_units_total"),
            _counter(totals, "repro_queue_claims_total"),
            _counter(totals, "repro_queue_deposits_total"),
            _counter(totals, "repro_worker_steals_total"),
            _counter(totals, "repro_queue_requeues_total"),
            _counter(totals, "repro_queue_lease_breaks_total"),
            _counter(totals, "repro_cache_corrupt_total"),
        )
    )
    if not workers:
        lines.append("workers: no metric snapshots yet")
        return "\n".join(lines)
    lines.append(f"workers: {len(workers)} snapshot(s)")
    name_width = max(6, max(len(str(entry.get("worker", ""))) for entry in workers))
    lines.append(
        f"  {'worker':<{name_width}}  {'age':>8}  {'units':>6}  {'runs':>6}  {'hit%':>6}"
    )
    for entry in workers:
        counters: Dict[str, float] = dict(entry.get("counters", {}))  # type: ignore[arg-type]
        age = entry.get("age_seconds")
        age_text = "?" if age is None else f"{float(age):.1f}s"  # type: ignore[arg-type]
        ratio = entry.get("cache_hit_ratio")
        ratio_text = "-" if ratio is None else f"{100.0 * float(ratio):.1f}"  # type: ignore[arg-type]
        runs = _counter(counters, 'repro_runner_runs_total{counter="total"}')
        units = int(float(entry.get("units", 0)))  # type: ignore[arg-type]
        lines.append(
            f"  {str(entry.get('worker', '')):<{name_width}}  {age_text:>8}  "
            f"{units:>6}  {runs:>6}  {ratio_text:>6}"
        )
    return "\n".join(lines)


def _cmd_status(args: argparse.Namespace) -> int:
    if args.interval <= 0:
        print(f"--interval must be > 0, got {args.interval}", file=sys.stderr)
        return 2
    queue = WorkQueue(args.queue_dir)
    try:
        while True:
            status = fleet_status(queue)
            if args.json:
                print(json.dumps(status, allow_nan=False, sort_keys=True), flush=True)
            else:
                print(render_fleet_status(status), flush=True)
            if not args.watch:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive watch mode
        return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which in ("table1", "all"):
        print("Table 1 — summary of results")
        print(render_table([row.as_dict() for row in table1_rows()]))
        print()
    if args.which in ("related-work", "all"):
        print(f"Related-work comparison at n={args.n}")
        print(render_table(related_work_rows(args.n)))
        print()
    if args.which in ("resilience", "all"):
        rows = [
            {
                "n": row.n,
                "A max alpha": row.ate_max_alpha,
                "U max alpha": row.ute_max_alpha,
                "SW faults/round": row.santoro_widmayer_per_round,
                "Byzantine f": row.byzantine_static_max_f,
                "fast Byzantine f": row.fast_byzantine_max_f,
            }
            for row in resilience_table(iter(args.ns))
        ]
        print("Resilience across system sizes")
        print(render_table(rows))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter is devtooling and none of its modules
    # should load for ordinary run/campaign invocations.
    from repro.devtools.lint.cli import run_lint

    return run_lint(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ho",
        description="Reproduction of 'Tolerating Corrupted Communication' (PODC 2007).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one consensus instance")
    run_parser.add_argument("--algorithm", choices=available_algorithms(), default="ate")
    run_parser.add_argument("--n", type=int, default=9)
    run_parser.add_argument(
        "--alpha",
        type=int,
        default=1,
        help=(
            "corruption bound: configures the ate/ute thresholds (ignored by "
            "algorithms without an alpha, e.g. one-third-rule) and the "
            "corruption adversary's per-receiver budget"
        ),
    )
    run_parser.add_argument(
        "--f",
        type=int,
        default=1,
        help=(
            "Byzantine f: configures phase-king (ignored by other algorithms) "
            "and the byzantine adversary"
        ),
    )
    run_parser.add_argument(
        "--adversary",
        choices=["reliable", "omission", "corruption", "blocks", "byzantine"],
        default="corruption",
    )
    run_parser.add_argument("--workload", choices=["unanimous", "split", "random", "distinct"], default="random")
    run_parser.add_argument("--drop-probability", type=float, default=0.1)
    run_parser.add_argument("--good-round-period", type=int, default=4)
    run_parser.add_argument("--max-rounds", type=int, default=60)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="reference",
        help="engine backend (fast falls back to reference when unsupported)",
    )
    run_parser.add_argument("--verbose", action="store_true")
    run_parser.set_defaults(func=_cmd_run)

    exp_parser = subparsers.add_parser("experiment", help="run a paper-reproduction experiment")
    exp_parser.add_argument("id", help="experiment id E1..E12, or 'all'")
    exp_parser.add_argument("--json", help="also write the report to this JSON file")
    exp_parser.set_defaults(func=_cmd_experiment)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run experiments through the parallel campaign runner",
        description=(
            "Run paper experiments (E1..E12, or 'all'), or a declarative --spec grid, "
            "through the campaign runner: worker processes, per-run timeouts and an "
            "incremental on-disk result cache keyed by stable config hashes."
        ),
    )
    campaign_parser.add_argument(
        "ids", nargs="*", help="experiment ids E1..E12, or 'all' (omit when using --spec)"
    )
    campaign_parser.add_argument("--spec", help="JSON CampaignSpec file to run instead of ids")
    campaign_parser.add_argument(
        "--reduce",
        choices=["decision", "predicate", "fault-profile"],
        help=(
            "with --spec: apply this reducer inside the workers and ship back "
            "only compact reduced records (cacheable under reducer-fingerprinted "
            "keys). 'predicate' evaluates every spec predicate on every run, so "
            "keep the spec's predicate grid to a single entry to avoid redundant "
            "cells"
        ),
    )
    campaign_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help=(
            "engine backend for every run (default: the spec's backend, or "
            "reference); reference and fast produce identical results and share "
            "the cache, async runs the asyncio engine (never cached: its fault "
            "schedules can differ)"
        ),
    )
    campaign_parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    campaign_parser.add_argument(
        "--timeout", type=float, default=None, help="per-run timeout in seconds"
    )
    campaign_parser.add_argument(
        "--cache-dir", default=".repro_cache", help="result cache directory (default .repro_cache)"
    )
    campaign_parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    campaign_parser.add_argument(
        "--json",
        help="with --spec: report JSON path; with ids: directory for per-experiment JSON",
    )
    campaign_parser.add_argument("--runs", type=int, help="override runs per cell")
    campaign_parser.add_argument("--seed", type=int, help="override the base seed")
    campaign_parser.add_argument("--n", type=int, help="override the system size n")
    campaign_parser.add_argument("--max-rounds", type=int, help="override the round horizon")
    campaign_parser.add_argument(
        "--distributed",
        action="store_true",
        help=(
            "submit the campaign to a shared-store work queue and wait for a "
            "worker fleet ('repro-ho worker') to execute it; results are "
            "byte-identical to serial runs and land in the fleet-shared cache"
        ),
    )
    campaign_parser.add_argument(
        "--queue-dir",
        default=".repro_queue",
        help="shared queue directory for --distributed (default .repro_queue)",
    )
    campaign_parser.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="runs per claimable batch for --distributed (default 8)",
    )
    campaign_parser.add_argument(
        "--submit-only",
        action="store_true",
        help="with --distributed --spec: enqueue the campaign and exit without waiting",
    )
    campaign_parser.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        help="with --distributed: give up waiting for the fleet after this many seconds",
    )
    campaign_parser.add_argument(
        "--autoscale",
        action="store_true",
        help=(
            "with --distributed: run an auto-scaling supervisor alongside the "
            "campaign, spawning local workers ('repro-ho worker') from queue "
            "depth between --min-workers and --max-workers and retiring them "
            "when the queue drains"
        ),
    )
    campaign_parser.add_argument(
        "--min-workers",
        type=int,
        default=0,
        help="with --autoscale: fleet floor (default 0)",
    )
    campaign_parser.add_argument(
        "--max-workers",
        type=int,
        default=4,
        help="with --autoscale: fleet ceiling (default 4)",
    )
    campaign_parser.set_defaults(func=_cmd_campaign)

    worker_parser = subparsers.add_parser(
        "worker",
        help="join a distributed campaign worker fleet",
        description=(
            "Claim batches from a shared queue directory (lease files with TTL + "
            "heartbeat; a crashed worker's leases expire and its batches are "
            "re-claimed) and execute them through the campaign runner. Results "
            "land in the fleet-shared cache, byte-identical to serial runs."
        ),
    )
    worker_parser.add_argument(
        "--queue-dir",
        default=".repro_queue",
        help="shared queue directory to poll (default .repro_queue)",
    )
    worker_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for batch execution (default 1)"
    )
    worker_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="engine backend for claimed runs (default reference)",
    )
    worker_parser.add_argument(
        "--timeout", type=float, default=None, help="per-run timeout in seconds"
    )
    worker_parser.add_argument(
        "--ttl",
        type=float,
        default=60.0,
        help="lease time-to-live in seconds; peers may re-claim a batch whose "
        "lease heartbeat is older than this (default 60)",
    )
    worker_parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="seconds between queue scans when idle (default 0.5)",
    )
    worker_parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        help="exit after this many consecutive idle seconds (default: run forever; "
        "set it above --ttl so crashed peers' batches can still be reclaimed). "
        "Independently of --max-idle, the worker exits as soon as a supervisor "
        "writes a retire marker for its id (see docs/distributed-queue.md)",
    )
    worker_parser.add_argument(
        "--worker-id", default=None, help="fleet-unique id (default host-pid)"
    )
    worker_parser.set_defaults(func=_cmd_worker)

    supervise_parser = subparsers.add_parser(
        "supervise",
        help="auto-scale a local worker fleet against a queue directory",
        description=(
            "Poll a shared queue directory's depth (unclaimed batch intervals, "
            "live leases, deposit volume) and spawn or retire local "
            "'repro-ho worker' processes between --min-workers and "
            "--max-workers. Workers are retired through marker files — they "
            "finish and deposit their current interval before exiting."
        ),
    )
    supervise_parser.add_argument(
        "--queue-dir",
        default=".repro_queue",
        help="shared queue directory to supervise (default .repro_queue)",
    )
    supervise_parser.add_argument(
        "--min-workers", type=int, default=0, help="fleet floor (default 0)"
    )
    supervise_parser.add_argument(
        "--max-workers", type=int, default=4, help="fleet ceiling (default 4)"
    )
    supervise_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes per spawned worker (default 1)"
    )
    supervise_parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="engine backend for spawned workers (default reference)",
    )
    supervise_parser.add_argument(
        "--timeout", type=float, default=None, help="per-run timeout for spawned workers"
    )
    supervise_parser.add_argument(
        "--ttl",
        type=float,
        default=60.0,
        help="lease time-to-live for spawned workers in seconds (default 60)",
    )
    supervise_parser.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between supervisor depth polls (default 1)",
    )
    supervise_parser.add_argument(
        "--idle-grace",
        type=float,
        default=3.0,
        help="scale down only after the queue has been drained this long (default 3)",
    )
    supervise_parser.add_argument(
        "--exit-on-drain",
        action="store_true",
        help="exit once the queue is drained and every spawned worker retired",
    )
    supervise_parser.add_argument(
        "--max-runtime",
        type=float,
        default=None,
        help="hard stop after this many seconds (default: run until interrupted)",
    )
    supervise_parser.set_defaults(func=_cmd_supervise)

    status_parser = subparsers.add_parser(
        "status",
        help="render a live observability view of a worker fleet",
        description=(
            "Merge one queue-depth scan with every worker's deposited metric "
            "snapshot (the metrics/ namespace of the queue directory) into a "
            "fleet view: pending/claimable/unclaimed units, live leases, and "
            "per-worker counters with snapshot age and cache hit ratio."
        ),
    )
    status_parser.add_argument(
        "--queue-dir",
        default=".repro_queue",
        help="shared queue directory to inspect (default .repro_queue)",
    )
    status_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the merged status as one JSON document per refresh",
    )
    status_parser.add_argument(
        "--watch",
        action="store_true",
        help="refresh every --interval seconds until interrupted",
    )
    status_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period for --watch in seconds (default 2)",
    )
    status_parser.set_defaults(func=_cmd_status)

    table_parser = subparsers.add_parser("table", help="print the analytic tables")
    table_parser.add_argument(
        "which", choices=["table1", "related-work", "resilience", "all"], default="all", nargs="?"
    )
    table_parser.add_argument("--n", type=int, default=12)
    table_parser.add_argument("--ns", type=int, nargs="*", default=[4, 8, 12, 16, 20, 40])
    table_parser.set_defaults(func=_cmd_table)

    from repro.devtools.lint.cli import LINT_EPILOG, add_lint_arguments

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the repro-lint static-analysis rules",
        description=(
            "AST-based invariant linter: machine-checks the determinism (D), "
            "store-seam (A), serialisation/schema (S) and registry (R) rules "
            "the distributed runner's correctness rests on."
        ),
        epilog=LINT_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=_cmd_lint)

    return parser


def cli_reference_markdown() -> str:
    """The generated CLI reference page (``docs/reference/cli.md``).

    Renders ``--help`` for the top-level parser and every subcommand
    into one markdown document.  Formatting is pinned to an 80-column
    terminal so the output is deterministic; a test asserts the
    committed page matches this function, so the reference can never
    drift from the argparse definitions.  Regenerate with
    ``PYTHONPATH=src python docs/build.py --write-cli-reference``.
    """
    import os

    columns_before = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        lines = [
            "# CLI reference",
            "",
            "<!-- AUTOGENERATED by repro.cli.cli_reference_markdown(); do not edit.",
            "     Regenerate: PYTHONPATH=src python docs/build.py --write-cli-reference -->",
            "",
            "`repro-ho` (or `python -m repro.cli`) is the command-line surface of",
            "this reproduction.  This page is generated from the argparse",
            "definitions and kept in sync by `tests/docs/test_docs_site.py`.",
            "",
            "## `repro-ho`",
            "",
            "```text",
            parser.format_help().rstrip(),
            "```",
            "",
        ]
        for name, subparser in subparsers.choices.items():
            lines += [
                f"## `repro-ho {name}`",
                "",
                "```text",
                subparser.format_help().rstrip(),
                "```",
                "",
            ]
        return "\n".join(lines)
    finally:
        if columns_before is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = columns_before


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
