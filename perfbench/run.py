"""TSOtool pipeline benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload paper_scale --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
scaling each unit's time to a nominal host speed by the reference runs
on either side of it when the unit runs in this process (see
``reference.py``; the unscaled figures are in the line before the
result).
``--trace 1`` gives the per-layer split from traced one-worker units
(see ``tracer.py``), each next to an untraced one-worker run of the
same input, whose difference is the tracing overhead.  The last line
of standard output is the result object; the line before it describes
the host and the run.  Workloads, metrics and the held-out inputs are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = os.path.join(HERE, "pinned.json")
#: Scratch space for result stores, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench-work")

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5

#: Share of ``--seconds`` the traced and untraced one-worker pairs of
#: ``--trace 1`` may use; the pooled replay takes most of the rest.
TRACED_SHARE = 0.7


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_scale", "campaign", "service_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--profile", choices=["full", "tiny"], default="full")
    parser.add_argument("--held-out", action="store_true",
                        help="run the held-out inputs instead of the pool")
    parser.add_argument("--out", help="also write the full record here (JSON)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def host_descriptor() -> dict:
    """What a comparison must hold fixed: results from hosts that
    differ here are never compared (see ``compare.py``)."""
    from repro.core.api import DEFAULT_ENGINE
    from repro.core.kernels import HAVE_NUMPY

    numpy_version = None
    if HAVE_NUMPY:
        import numpy

        numpy_version = numpy.__version__
    return {
        "nproc": nproc(),
        "numpy": numpy_version,
        "python": platform.python_version(),
        "engine": DEFAULT_ENGINE,
    }


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Largest RSS of this process and of any child it has reaped
    (pool workers, setup probes)."""
    scale = 1.0 / (1024 * 1024) if sys.platform == "darwin" else 1.0 / 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * scale


def use_sources() -> bool:
    """Put the library's sources on the path; False when they are absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # Telemetry stays off: the benchmark measures the library as shipped.
    os.environ.pop("TSOTOOL_METRICS_OUT", None)
    return True


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass  # another run still works there


def load_pinned() -> dict:
    if not os.path.exists(PINNED):
        return {}
    with open(PINNED) as fh:
        return json.load(fh)


def make_workload(args, workdir: str):
    from workloads import WORKLOADS

    pinned = load_pinned().get(args.profile, {})
    workload = WORKLOADS[args.workload](args.profile, pinned, workdir)
    if args.held_out:
        order = workload.held_out()
    else:
        order = workload.pool()
        random.Random(args.seed).shuffle(order)
    return workload, order


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import the library and
    build this run's inputs, then exit.  Not scaled: start-up is file
    reading and unmarshalling, which the reference does not track."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--profile", args.profile,
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_units(order, step, seconds: float = 0.0, count=None) -> list:
    """Call ``step`` on members in order until the next call would
    overrun ``seconds`` (always at least once), or exactly ``count``
    times; return the results."""
    results, took = [], []
    start = time.perf_counter()
    for member in itertools.cycle(order):
        # Each unit starts from a collected heap, so garbage left by the
        # previous one is not charged to it.
        gc.collect()
        begin = time.perf_counter()
        results.append(step(member))
        took.append(time.perf_counter() - begin)
        if count is not None:
            if len(results) == count:
                break
        elif time.perf_counter() - start + statistics.median(took) > seconds:
            break
    return results


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, workload, order):
    """End-to-end metrics.  A unit that runs in this process has its
    time scaled by the reference runs on either side of it (see
    ``reference.py``); one that runs in pool workers on every core does
    not follow the speed of the core the reference runs on."""
    import reference

    setup_s = measure_setup(args)
    workload.workers = nproc()
    refs = [reference.measure()]

    def step(member):
        unit = workload.run_unit(member)
        refs.append(reference.measure())
        return unit

    units = run_units(order, step, args.seconds)
    walls = [u.wall for u in units]
    scaled = [
        wall if workload.uses_pool else wall * reference.scale(before, after)
        for wall, before, after in zip(walls, refs, refs[1:])
    ]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "tests_per_s": metric(
            statistics.median(u.tests / t for u, t in zip(units, scaled)), "1/s"
        ),
        "unit_p50_s": metric(statistics.median(scaled), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    raw = {
        "tests_per_s": statistics.median(u.tests / u.wall for u in units),
        "unit_p50_s": statistics.median(walls),
        "reference_s": statistics.median(refs),
    }
    return units, metrics, {"raw": raw}


def traced_unit(tracer, workload, member):
    """Run one unit under ``tracer``; its counts land in a fresh slot."""
    tracer.begin_unit()
    with tracer.span("bench.unit"):
        unit = workload.run_unit(member)
    tracer.count("tests", unit.tests)
    tracer.count("hunts", unit.hunts)
    unit.counts["trace"] = dict(tracer.unit_counts[-1])
    return unit


def traced_run(args, workload, order):
    """Traced and untraced one-worker units in pairs on the same member,
    so both see the same host conditions; then, for the pool-backed
    workloads, the same members untraced at ``workers = nproc``."""
    import layers
    from tracer import PoolTap, Tracer
    from workloads import no_span

    tracer = Tracer()
    workload.workers = 1
    members, window = [], 0.0

    def pair(member):
        nonlocal window
        members.append(member)
        workload.span = tracer.span
        tracer.install()
        begin = time.perf_counter()
        try:
            traced = traced_unit(tracer, workload, member)
        finally:
            window += time.perf_counter() - begin
            tracer.uninstall()
            workload.span = no_span
        record = workload.expected(member)
        if record is not None and record["trace"] != traced.counts["trace"]:
            traced.failed = traced.ops
        gc.collect()
        return traced, workload.run_unit(member)

    pairs = run_units(order, pair, TRACED_SHARE * args.seconds)
    traced = [t for t, _ in pairs]
    untraced = [u for _, u in pairs]

    pooled, tap = [], PoolTap()
    if workload.uses_pool:
        workload.workers = nproc()
        tap.install()
        try:
            pooled = run_units(members, workload.run_unit, count=len(members))
        finally:
            tap.uninstall()
    metrics, table = layers.per_layer(
        tracer, traced, untraced, pooled, tap.stats, window, nproc()
    )
    return traced + untraced + pooled, metrics, {
        "layers": table, "spans": tracer.spans,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, order = make_workload(args, workdir)
        if args.setup_probe:
            return 0
        runner = traced_run if args.trace else timed_run
        units, metrics, detail = runner(args, workload, order)
    finally:
        remove_workdir(workdir)
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "host": host_descriptor(),
        "workload": args.workload,
        "seed": args.seed,
        "profile": args.profile,
        "held_out": args.held_out,
        "trace": args.trace,
        "units": [
            {"member": u.member, "wall": u.wall, "tests": u.tests,
             "hunts": u.hunts, "failed": u.failed}
            for u in units
        ],
    }
    if "raw" in detail:
        info["raw"] = detail["raw"]
    if "layers" in detail:
        info["layers"] = detail["layers"]
        print(layers_text(detail["layers"]), file=sys.stderr)
    if args.out:
        record = dict(info, result=result,
                      counts=[{"member": u.member, **u.counts} for u in units],
                      spans=detail.get("spans", []))
        with open(args.out, "w") as fh:
            json.dump(record, fh)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def layers_text(table: dict) -> str:
    rows = [f"{'span':<22}{'calls':>9}{'self s':>11}{'share':>8}"]
    for name, row in table["spans"].items():
        rows.append(
            f"{name:<22}{row['calls']:>9}{row['self_s']:>11.4f}"
            f"{100 * row['share']:>7.1f}%"
        )
    rows.append(
        f"{'(residual)':<22}{'':>9}{table['residual_s']:>11.4f}"
        f"{100 * table['residual_s'] / table['wall_s']:>7.1f}%"
    )
    rows.append(f"{'traced wall':<22}{'':>9}{table['wall_s']:>11.4f}")
    rows.append(f"tracing overhead vs untraced one-worker run: "
                f"{100 * table['overhead']:+.1f}%")
    return "\n".join(rows)


if __name__ == "__main__":
    sys.exit(main())
