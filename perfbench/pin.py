"""Record the counts every run must repeat exactly, into ``pinned.json``.

    python3 perfbench/pin.py --profile full     # about ten minutes
    python3 perfbench/pin.py --profile tiny

For every pool and held-out member of every workload this runs one
traced unit with one worker and stores:

* ``counts`` — the outputs the untraced runs check: for paper_scale the
  verdict, analysis nodes, edges, iterations and closure rebuilds, and
  the simulated cycles and records; for campaign the per-hunt digests
  (``repro.service.store.hunt_digest``) in campaign order and the exit
  code; for service_pipeline the exit code (its hunts are checked
  against the campaign digests of its two seeds);
* ``trace`` — the per-unit counts of the traced run: simulations,
  cycles, records, generator calls, expanded nodes, checks with their
  nodes, edges, iterations and closure rebuilds, streamed sessions and
  flagged ones, recording runs, pool starts, tests and hunts.

A change that only makes a layer faster must leave this file as it is;
re-pin only for a change that is meant to alter what is simulated or
checked, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def pin(profile: str, workdir: str) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS, member_key

    pinned: dict = {}
    tracer = Tracer()
    tracer.install()
    try:
        # campaign first: service_pipeline checks against its digests.
        for name in ("campaign", "paper_scale", "service_pipeline"):
            workload = WORKLOADS[name](profile, pinned, workdir)
            workload.span = tracer.span
            records = {}
            for member in workload.pool() + workload.held_out():
                unit = run.traced_unit(tracer, workload, member)
                if unit.failed or unit.counts.get("exit_code", 0) != 0:
                    raise SystemExit(
                        f"{name} member {member_key(member)} failed its "
                        f"own check: {unit}"
                    )
                trace = unit.counts.pop("trace")
                records[member_key(member)] = {"counts": unit.counts, "trace": trace}
                print(f"{name} {member_key(member)}: {unit.tests} tests, "
                      f"{unit.wall:.2f}s", file=sys.stderr)
            pinned[name] = records
    finally:
        tracer.uninstall()
    return pinned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=["full", "tiny"], required=True)
    args = parser.parse_args()
    if not run.use_sources():
        print(f"pin: no library sources under {run.SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(run.WORK, f"pin-{os.getpid()}")
    os.makedirs(workdir)
    try:
        records = pin(args.profile, workdir)
    finally:
        run.remove_workdir(workdir)
    pinned = run.load_pinned()
    pinned[args.profile] = records
    with open(run.PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
