"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper and records
its rows under ``benchmarks/results/`` (also echoed to stdout, visible
with ``pytest -s``), so EXPERIMENTS.md can be refreshed from the files.
Every file starts with one ``#`` line naming the commit and host it was
rendered on.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess

import pytest

from repro.analysis.campaign import CampaignConfig, run_campaign

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=RESULTS_DIR.parent, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def provenance() -> str:
    """``# commit <short sha>[+dirty] | nproc <n> | Python <version>``.

    ``+dirty`` means tracked files other than the results themselves
    differed from that commit when the artifact was rendered.
    """
    commit = _git("rev-parse", "--short", "HEAD") or "unknown"
    if _git("status", "--porcelain", "--untracked-files=no", "--",
            ":(top)", ":(top,exclude)benchmarks/results"):
        commit += "+dirty"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count()
    return (
        f"# commit {commit} | nproc {nproc} | "
        f"Python {platform.python_version()}"
    )


@pytest.fixture(scope="session")
def record():
    """Write a named result artifact, headed by its provenance line,
    and echo it."""
    header = provenance()

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(f"{header}\n{text}\n")
        print(f"\n--- {name} ---\n{text}\n")

    return _record


@pytest.fixture(scope="session")
def campaign_result():
    """One full six-CPU campaign, shared by the Table 1 and Table 2 benches."""
    return run_campaign(config=CampaignConfig(tests_per_bug=10))
