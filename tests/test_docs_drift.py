"""The docs name what the code registers and emits.

Two tables drift whenever an engine or a checker counter is added or
retired: the engine table in ``docs/engines.md`` must list exactly the
registered engines, and ``docs/telemetry.md`` must name every ``check.*``
metric that :func:`repro.telemetry.record_check` emits and every
``sim.*``, ``pool.*`` and ``service.*`` metric name the code passes to a
telemetry call.
"""

import dataclasses
import pathlib
import re

from repro.core.api import ENGINES
from repro.core.result import CheckStats
from repro.telemetry import registry

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
SRC = ROOT / "src" / "repro"


def _engine_table_names():
    """First-column names of the engine table rows (``| `name` | ...``)."""
    text = (DOCS / "engines.md").read_text()
    return re.findall(r"^\| `([^`]+)` +\|", text, flags=re.MULTILINE)


def _documented_metrics():
    """Every backticked metric-like name in ``docs/telemetry.md``."""
    return set(
        re.findall(r"`([a-z_.<>]+)`", (DOCS / "telemetry.md").read_text())
    )


def _layer_metric_literals():
    """Every ``"sim.*"``, ``"pool.*"`` and ``"service.*"`` literal under
    ``src/repro/`` passed as the name of a telemetry call (``count``,
    ``observe``, ``record``, ``span``, ``event``) — the counters,
    histograms, timers and spans those layers emit by name.  Other
    strings with those prefixes, such as a ``"sim.machine"`` module
    path, are not metric names."""
    pattern = re.compile(
        r'\.(?:count|observe|record|span|event)\(\s*'
        r'"((?:sim|pool|service)\.[a-z_.]+)"'
    )
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(pattern.findall(path.read_text()))
    return names


def _emitted_check_metrics():
    """Every counter and histogram ``record_check`` emits, one run per
    registered engine, with every stats field non-zero so conditional
    metrics fire too."""
    stats = CheckStats(**{
        field.name: 1 for field in dataclasses.fields(CheckStats)
    })
    previous = registry.get_telemetry()
    active = registry.set_telemetry(registry.Telemetry(enabled=True))
    try:
        for engine in ENGINES:
            registry.record_check(stats, engine)
        names = set(active.counters) | set(active.histograms)
    finally:
        registry.set_telemetry(previous)
    return names


def test_engine_table_matches_registry():
    assert sorted(_engine_table_names()) == sorted(ENGINES)


def test_every_emitted_check_metric_is_documented():
    documented = _documented_metrics()
    emitted = _emitted_check_metrics()
    assert {f"check.engine.{engine}" for engine in ENGINES} <= emitted
    missing = sorted(
        name for name in emitted
        if re.sub(r"^check\.engine\..+$", "check.engine.<name>", name)
        not in documented
    )
    assert not missing, f"undocumented in docs/telemetry.md: {missing}"


def test_every_sim_pool_and_service_metric_is_documented():
    literals = _layer_metric_literals()
    # The scan must see each layer, or an empty scan would pass vacuously.
    assert {
        "sim.runs", "pool.batch_size", "pool.retry", "pool.hung",
        "service.hunts",
    } <= literals
    missing = sorted(literals - _documented_metrics())
    assert not missing, f"undocumented in docs/telemetry.md: {missing}"
