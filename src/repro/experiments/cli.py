"""Command-line entry point: ``repro-experiments [name ...]``.

Without arguments the full suite runs; with names, only the selected
experiments.  ``--list`` shows the registry; ``--f`` and ``--seeds``
re-parameterize the experiments that sweep over fault counts and seeds
(unsupported options are ignored per experiment, with a notice);
``--workers`` and ``--cache-dir`` are forwarded to every experiment
that rides the sweep engine, parallelizing and memoizing their runs.

``repro-experiments sweep [options]`` enters the scenario-sweep engine
instead: a cartesian grid over models/f/n/algorithms/movements/attacks/
epsilons/seeds, executed through a pluggable backend -- serially or
over worker processes, whole or as one deterministic shard of a
multi-host run (``--shard I/N`` into a shared ``--cache-dir``) --
optionally against a content-addressed cell cache (``--cache-dir``),
reported as summary tables and diameter series.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from collections.abc import Sequence
from pathlib import Path

from .base import ExperimentResult
from .runner import EXPERIMENTS, render_report

__all__ = [
    "main",
    "run_with_options",
    "sweep_main",
    "cache_gc_main",
    "serve_main",
    "submit_main",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables, theorems and figures of 'Approximate "
            "Agreement under Mobile Byzantine Faults' (ICDCS 2016)."
        ),
        epilog=(
            "Use 'repro-experiments sweep --help' for the scenario-sweep "
            "engine (grid execution over models/f/adversaries/seeds)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="NAME",
        help="experiment names to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--f",
        dest="f",
        type=int,
        default=None,
        metavar="F",
        help="number of mobile Byzantine agents for sweeping experiments",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="K",
        help="number of seeds per configuration (seeds 0..K-1)",
    )
    parser.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="FAM",
        help=(
            "protocol families for experiments that compare algorithm "
            "families (e.g. 'families'): bonomi, tseng"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="W",
        help=(
            "worker processes for sweep-based experiments "
            "(results are identical to serial runs)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cell-cache directory for sweep-based experiments",
    )
    return parser


def run_with_options(
    names: Sequence[str],
    f: int | None = None,
    seeds: int | None = None,
    workers: int | None = None,
    cache=None,
    families: Sequence[str] | None = None,
) -> list[ExperimentResult]:
    """Run experiments, forwarding options where supported.

    Experiments expose different parameter spellings (``f`` vs
    ``fault_counts``; ``seeds`` as an explicit tuple); this adapter
    inspects each runner's signature and forwards what fits.
    ``workers``/``cache`` reach every sweep-based experiment.
    """
    results = []
    for name in names:
        try:
            runner = EXPERIMENTS[name]
        except KeyError:
            known = ", ".join(sorted(EXPERIMENTS))
            raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
        parameters = inspect.signature(runner).parameters
        kwargs: dict[str, object] = {}
        if f is not None:
            if "f" in parameters:
                kwargs["f"] = f
            elif "fault_counts" in parameters:
                kwargs["fault_counts"] = (f,)
        if seeds is not None and "seeds" in parameters:
            kwargs["seeds"] = tuple(range(seeds))
        if workers is not None and "workers" in parameters:
            kwargs["workers"] = workers
        if cache is not None and "cache" in parameters:
            kwargs["cache"] = cache
        if families is not None and "families" in parameters:
            kwargs["families"] = tuple(families)
        results.append(runner(**kwargs))
    return results


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description=(
            "Run a scenario sweep: the cartesian product of the given axes, "
            "each cell one simulation, executed serially, across worker "
            "processes, or as one deterministic shard of a multi-host run, "
            "on the trace-lite fast path."
        ),
    )
    parser.add_argument("--models", nargs="+", default=["M1", "M2", "M3"])
    parser.add_argument("--f", dest="fs", nargs="+", type=int, default=[1])
    parser.add_argument(
        "--n",
        dest="ns",
        nargs="+",
        type=int,
        default=None,
        help="system sizes (default: each model's Table 2 minimum)",
    )
    parser.add_argument("--algorithms", nargs="+", default=["ftm"])
    parser.add_argument(
        "--families",
        nargs="+",
        default=["bonomi"],
        help=(
            "protocol families to sweep (bonomi, tseng, witness); every "
            "other axis is crossed with each family, so e.g. "
            "'--families bonomi tseng' runs head-to-head comparisons "
            "(comma-separated lists are accepted too)"
        ),
    )
    parser.add_argument(
        "--topologies",
        nargs="+",
        default=["complete"],
        help=(
            "communication graphs to sweep, by spec (complete, ring:K, "
            "torus[:RxC], random-regular:D[:SEED]); combinations a "
            "family cannot run (complete-graph families on partial "
            "graphs) are pruned from the grid, so '--topologies "
            "complete,ring:2 --families bonomi,witness' compares "
            "witness-on-ring against bonomi-on-complete in one sweep"
        ),
    )
    parser.add_argument("--movements", nargs="+", default=["round-robin"])
    parser.add_argument("--attacks", nargs="+", default=["split"])
    parser.add_argument("--epsilons", nargs="+", type=float, default=[1e-3])
    parser.add_argument(
        "--seeds",
        type=int,
        default=4,
        metavar="K",
        help="seeds 0..K-1 per configuration (default: 4)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="fixed round count (default: oracle epsilon termination)",
    )
    parser.add_argument("--max-rounds", type=int, default=1_000)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; results are identical)",
    )
    parser.add_argument(
        "--cross-run",
        action="store_true",
        help=(
            "advance compatible cells (same shape, differing only in "
            "seed) together as one stacked (R, n) state array -- the "
            "cross-run vectorized engine; fastest for grids of many "
            "seeds per scenario (results are identical; pooled sweeps "
            "always run cross-run groups)"
        ),
    )
    parser.add_argument(
        "--detail",
        choices=["full", "lite"],
        default="lite",
        help="trace detail; 'lite' is the fast path (default)",
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "multiprocessing"],
        default=None,
        help=(
            "execution backend (default: serial, or multiprocessing -- "
            "the shared-memory work-stealing pool of cross-run groups -- "
            "when --workers > 1)"
        ),
    )
    parser.add_argument(
        "--dispatch",
        choices=["auto", "serial", "pool"],
        default="auto",
        help=(
            "override the pool heuristic: 'serial' forces in-process "
            "execution, 'pool' forces the shared-memory work-stealing "
            "pool of cross-run groups even on one usable CPU (with a "
            "warning); results are identical under every mode, this is "
            "a testing/benchmarking knob"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print one line per finished cell as results stream in "
            "(per batch under --cross-run)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "journal completed cells to DIR and replay them on re-run: "
            "an interrupted sweep restarted with the same --resume DIR "
            "skips every finished cell and produces bit-identical "
            "aggregates"
        ),
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help=(
            "run only shard I of N (0-based) of the grid, with any "
            "backend and worker count, into --cache-dir (required); "
            "invocations sharing the cache dir compute disjoint subsets, "
            "and one that finds every grid cell cached reports the whole "
            "sweep"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed cell cache: results are looked up before "
            "executing and written through after, so re-runs of "
            "overlapping grids are near-free and interrupted sweeps resume"
        ),
    )
    parser.add_argument(
        "--probe",
        default=None,
        metavar="NAME",
        help=(
            "attach a trace probe to every cell: a registered name "
            "(e.g. send-classification) or an importable entry point "
            "'package.module:attribute' -- shards and workers resolve "
            "it by import, nothing is pickled"
        ),
    )
    parser.add_argument(
        "--cells", action="store_true", help="also print the per-cell table"
    )
    parser.add_argument(
        "--series", action="store_true", help="also print diameter trajectories"
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help=(
            "trace the sweep into DIR: JSON-lines span traces (one "
            "trace-<pid>.jsonl per process), sampled kernel timings, "
            "flight-recorder dumps on error cells, and a metrics.json "
            "snapshot; render it afterwards with 'sweep stats DIR' "
            "(results are identical with or without)"
        ),
    )
    return parser


def build_cache_gc_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep cache-gc",
        description=(
            "Evict stale entries from a long-lived cell-cache directory: "
            "entries under superseded schema versions, entries older than "
            "a cutoff, and orphaned temp files from interrupted writes."
        ),
    )
    parser.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="the CellStore root to compact",
    )
    parser.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help=(
            "also evict entries last written more than DAYS days ago "
            "(default: keep all current-schema entries)"
        ),
    )
    parser.add_argument(
        "--keep-schema",
        type=int,
        nargs="+",
        default=None,
        metavar="V",
        help=(
            "schema versions to keep (default: only the current "
            "version; older versions can never be read again)"
        ),
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="B",
        help=(
            "cap the store at B bytes of current entries: after the "
            "schema/age filters, the oldest surviving entries are "
            "evicted until the total fits (size-based eviction for "
            "long-lived caches on shared runners)"
        ),
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    return parser


def cache_gc_main(argv: Sequence[str] | None = None) -> int:
    """``sweep cache-gc`` subcommand entry point."""
    from ..sweep import CellStore

    args = build_cache_gc_parser().parse_args(argv)
    store = CellStore(args.cache_dir)
    report = store.gc(
        older_than=None if args.older_than is None else args.older_than * 86_400,
        keep_versions=None if args.keep_schema is None else set(args.keep_schema),
        dry_run=args.dry_run,
        max_bytes=args.max_bytes,
    )
    print(f"{report.describe()} ({store.root})")
    return 0


def _parse_shard(text: str) -> tuple[int, int]:
    """Parse ``I/N`` into a (shard_index, shard_count) pair."""
    try:
        index_text, count_text = text.split("/", 1)
        return int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"--shard expects I/N (e.g. 0/4), got {text!r}"
        ) from None


def _run_shard(cells, index, count, store, **options):
    """Sweep shard ``index`` of ``count`` of ``cells`` into ``store``.

    The shard runs only its own cells (:func:`repro.sweep.shard_cells`),
    through whatever backend ``options`` select, writing through to the
    shared store.  It then checks that every grid cell has an entry,
    reading no payload and never computing a sibling's cell: if every
    entry exists -- this is the last shard to finish -- the whole
    grid's result is served warm from the store, which is then the
    only read of each entry; otherwise this shard's own result (fewer
    cells than the grid) is returned.  A sibling entry that exists but
    is corrupt reads as a miss in the warm sweep, so the completing
    shard recomputes that cell.
    """
    from ..sweep import run_sweep, shard_cells

    own = run_sweep(shard_cells(cells, index, count), cache=store, **options)
    detail, probe = own.trace_detail, options.get("probe")
    if all(store.path_for(cell, detail, probe).is_file() for cell in cells):
        return run_sweep(cells, trace_detail=detail, cache=store, probe=probe)
    return own


def _progress_printer():
    """Per-result progress line: streamed as early as the backend allows."""

    def progress(result, done, total):
        if result.error is not None:
            status = "error"
        elif result.satisfied:
            status = "ok"
        else:
            status = "VIOLATED"
        print(
            f"[{done}/{total}] {result.spec.describe()}: {status} "
            f"({result.rounds} rounds)",
            flush=True,
        )

    return progress


def sweep_main(argv: Sequence[str] | None = None) -> int:
    """``sweep`` subcommand entry point; returns a process exit code."""
    from ..analysis import render_series
    from ..sweep import CellStore, GridSpec, SweepJournal, run_sweep
    from ..telemetry import get_registry, snapshot_delta

    args = build_sweep_parser().parse_args(argv)
    store = CellStore(args.cache_dir) if args.cache_dir else None
    journal = SweepJournal(args.resume) if args.resume else None
    metrics_before = get_registry().snapshot()

    def split_axis(raw: Sequence[str]) -> list[str]:
        # Both '--families a b' and '--families a,b' are accepted; specs
        # never contain commas, so splitting is unambiguous.
        return [item for chunk in raw for item in chunk.split(",") if item]

    try:
        grid = GridSpec(
            models=args.models,
            fs=args.fs,
            ns=args.ns,
            algorithms=args.algorithms,
            movements=args.movements,
            attacks=args.attacks,
            epsilons=args.epsilons,
            seeds=tuple(range(args.seeds)),
            rounds=args.rounds,
            max_rounds=args.max_rounds,
            families=split_axis(args.families),
            topologies=split_axis(args.topologies),
        )
        if args.shard is not None:
            shard_index, shard_count = _parse_shard(args.shard)
            if store is None:
                raise ValueError(
                    "--shard needs --cache-dir: shards meet in a shared "
                    "cell cache"
                )
        cells = list(grid.cells())
        options = dict(
            workers=args.workers,
            trace_detail=args.detail,
            backend=args.backend,
            probe=args.probe,
            dispatch=args.dispatch,
            progress=_progress_printer() if args.progress else None,
            journal=journal,
            cross_run=args.cross_run,
            telemetry=args.telemetry,
        )
        print(grid.describe())
        try:
            if args.shard is None:
                result = run_sweep(cells, cache=store, **options)
            else:
                result = _run_shard(
                    cells, shard_index, shard_count, store, **options
                )
        finally:
            if journal is not None:
                journal.close()
    except (ValueError, TypeError, KeyError) as exc:
        # KeyError: unknown probe / family / algorithm names surface
        # here with their "known: ..." guidance.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"sweep error: {message}", file=sys.stderr)
        return 2
    partial = len(result) < len(cells)
    if partial:
        print(
            f"shard {args.shard}: {len(result)} cells done; sibling shards "
            "outstanding (the last shard to finish reports the whole grid)"
        )
    if args.cells:
        print(result.cell_table())
        print()
    print(result.summary_table())
    # The dispatch label is the evidence of *how* cells actually ran
    # (serial, pool, cross-run batches, shm + steal count); CI smoke
    # steps grep it, and identity checks diff it out.
    print(f"dispatch: {result.dispatch}")
    if args.series:
        print()
        print(render_series(result.diameter_series(), title="mean diameter"))
    if store is not None:
        stats = result.cache_stats
        rendered = stats.describe() if stats is not None else store.stats()
        print(f"cache: {rendered} ({store.root})")
    for cell in result.errors():
        print(f"ERROR {cell.spec.describe()}: {cell.error}")
    # One-line warning summary: silent conversions (error cells,
    # forced-pool dispatches on one CPU) must not vanish in the
    # aggregate tables.
    delta = snapshot_delta(metrics_before, get_registry().snapshot())
    warn_parts = []
    errors = len(result.errors())
    if errors:
        warn_parts.append(f"{errors} error cell(s)")
    forced = int(delta["counters"].get("sweep.pool.forced_one_cpu", 0))
    if forced:
        warn_parts.append(
            f"{forced} forced pool dispatch(es) on one usable cpu"
        )
    if warn_parts:
        print(f"warnings: {', '.join(warn_parts)}")
    if args.telemetry:
        print(f"telemetry: {args.telemetry}")
    if partial:
        # A partial shard succeeded if its own cells did -- vacuously
        # so when the shard owns no cells (shard_count > grid size).
        return 0 if all(cell.satisfied for cell in result.cells) else 1
    return 0 if result.all_satisfied else 1


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep stats",
        description=(
            "Render a telemetry directory (produced by 'sweep "
            "--telemetry DIR' or 'sweep serve --telemetry DIR') as "
            "human-readable tables: merged counters and histograms, "
            "per-span rollups, and any flight-recorder dumps."
        ),
    )
    parser.add_argument(
        "telemetry_dir",
        metavar="DIR",
        help="the telemetry directory to summarize",
    )
    return parser


def stats_main(argv: Sequence[str] | None = None) -> int:
    """``sweep stats`` subcommand: render a telemetry directory."""
    from ..telemetry import render_stats

    args = build_stats_parser().parse_args(argv)
    if not Path(args.telemetry_dir).is_dir():
        print(
            f"stats error: {args.telemetry_dir} is not a directory",
            file=sys.stderr,
        )
        return 2
    try:
        report = render_stats(args.telemetry_dir)
    except ValueError as exc:
        print(f"stats error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep serve",
        description=(
            "Run the sweep daemon: a JSON-over-HTTP service that answers "
            "warm-cache grid queries straight from the cell store and "
            "runs cold cells through the cross-run engine on the "
            "shared-memory work-stealing pool."
        ),
    )
    parser.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="the shared CellStore root backing the serving tier",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default: 0, an OS-assigned free port)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for cold cells (results are identical)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log each HTTP request to stderr",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help=(
            "trace every hosted sweep into DIR for the daemon's "
            "lifetime; /metrics then includes the sampled kernel "
            "counters merged back from pool workers"
        ),
    )
    return parser


def serve_main(argv: Sequence[str] | None = None) -> int:
    """``sweep serve`` subcommand: run the daemon until shut down."""
    from ..sweep import SweepServer

    args = build_serve_parser().parse_args(argv)
    server = SweepServer(
        args.cache_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=not args.verbose,
        telemetry_dir=args.telemetry,
    )
    print(f"sweep serve: listening on {server.address}", flush=True)
    print(f"cache: {server.cache_root}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    print("sweep serve: shut down")
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep submit",
        description=(
            "Submit one grid to a running 'sweep serve' daemon and report "
            "its answer (including the serving tier: cache, compute, or "
            "mixed)."
        ),
    )
    parser.add_argument(
        "--url",
        required=True,
        metavar="URL",
        help="the daemon's base URL, e.g. http://127.0.0.1:8437",
    )
    parser.add_argument("--models", nargs="+", default=["M1", "M2", "M3"])
    parser.add_argument("--f", dest="fs", nargs="+", type=int, default=[1])
    parser.add_argument("--n", dest="ns", nargs="+", type=int, default=None)
    parser.add_argument("--algorithms", nargs="+", default=["ftm"])
    parser.add_argument("--families", nargs="+", default=["bonomi"])
    parser.add_argument("--topologies", nargs="+", default=["complete"])
    parser.add_argument("--movements", nargs="+", default=["round-robin"])
    parser.add_argument("--attacks", nargs="+", default=["split"])
    parser.add_argument("--epsilons", nargs="+", type=float, default=[1e-3])
    parser.add_argument("--seeds", type=int, default=4, metavar="K")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--max-rounds", type=int, default=1_000)
    parser.add_argument("--detail", choices=["full", "lite"], default="lite")
    parser.add_argument("--probe", default=None, metavar="NAME")
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds to wait for the daemon's answer",
    )
    return parser


def submit_main(argv: Sequence[str] | None = None) -> int:
    """``sweep submit`` subcommand: one grid request to the daemon."""
    from ..sweep import submit_sweep

    args = build_submit_parser().parse_args(argv)
    grid: dict = {
        "models": args.models,
        "fs": args.fs,
        "algorithms": args.algorithms,
        "families": args.families,
        "topologies": args.topologies,
        "movements": args.movements,
        "attacks": args.attacks,
        "epsilons": args.epsilons,
        "seeds": args.seeds,
        "max_rounds": args.max_rounds,
    }
    if args.ns is not None:
        grid["ns"] = args.ns
    if args.rounds is not None:
        grid["rounds"] = args.rounds
    try:
        response = submit_sweep(
            args.url,
            grid,
            trace_detail=args.detail,
            probe=args.probe,
            timeout=args.timeout,
        )
    except (RuntimeError, OSError) as exc:
        print(f"submit error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{response['cells']} cells: {response['satisfied']} ok, "
        f"{response['errors']} errors | tier={response['tier']} "
        f"(cached={response['cached']} computed={response['computed']}) "
        f"dispatch={response['dispatch']} "
        f"elapsed={response['elapsed_seconds']:.2f}s"
    )
    for row in response["summary"]:
        print("  " + " | ".join(row))
    return 0 if response["all_satisfied"] else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        if argv[1:2] == ["cache-gc"]:
            return cache_gc_main(list(argv[2:]))
        if argv[1:2] == ["serve"]:
            return serve_main(list(argv[2:]))
        if argv[1:2] == ["submit"]:
            return submit_main(list(argv[2:]))
        if argv[1:2] == ["stats"]:
            return stats_main(list(argv[2:]))
        return sweep_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = args.experiments if args.experiments else list(EXPERIMENTS)
    results = run_with_options(
        names,
        f=args.f,
        seeds=args.seeds,
        workers=args.workers,
        cache=args.cache_dir,
        families=args.families,
    )
    print(render_report(results))
    return 0 if all(result.ok for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
