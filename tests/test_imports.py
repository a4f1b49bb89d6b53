"""What importing the library loads.

Package ``__init__``s re-export their public names lazily
(``repro._lazy``): a name's submodule is imported the first time the
name is read.  Each probe runs in a fresh interpreter, because a module
imported anywhere in-process stays imported.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.emit",
    "repro.generator",
    "repro.model",
    "repro.sched",
    "repro.service",
    "repro.sim",
    "repro.telemetry",
]

#: What a campaign or service worker never needs.
NOT_FOR_HUNTS = [
    "repro.cli",
    "repro.emit",
    "repro.service.daemon",
    "repro.service.status",
    "repro.analysis.minimize",
    "repro.core.complete",
    "http.server",
]

#: The only submodules a package import loads: the lazy-export helper,
#: and the bring-up module, whose function shares its name (see
#: repro/analysis/__init__.py).
EAGER = {
    "repro": ["repro._lazy"],
    "repro.analysis": ["repro.analysis.bringup"],
}


def _probe(source: str):
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_hunt_modules_leave_the_rest_unloaded():
    loaded = _probe(
        f"""
        import json, sys
        import repro.analysis.campaign, repro.service.queue, repro.service.store
        print(json.dumps([m for m in {NOT_FOR_HUNTS!r} if m in sys.modules]))
        """
    )
    assert loaded == []


@pytest.mark.parametrize("package", PACKAGES)
def test_package_import_defers_its_submodules(package):
    loaded = _probe(
        f"""
        import json, sys
        before = set(sys.modules)
        import {package}
        print(json.dumps(sorted(
            m for m in set(sys.modules) - before
            if m.startswith("{package}.")
        )))
        """
    )
    assert loaded == EAGER.get(package, [])


def test_every_public_name_resolves():
    report = _probe(
        f"""
        import importlib, json, types
        report = {{}}
        for package in {PACKAGES!r}:
            module = importlib.import_module(package)
            by_attribute = {{n: getattr(module, n) for n in module.__all__}}
            star = {{}}
            exec(f"from {{package}} import *", star)
            listed = set(dir(module))
            report[package] = {{
                "modules": [n for n, v in by_attribute.items()
                            if isinstance(v, types.ModuleType)],
                "star_differs": [n for n in module.__all__
                                 if star.get(n) is not by_attribute[n]],
                "not_in_dir": [n for n in module.__all__ if n not in listed],
                "count": len(module.__all__),
            }}
        print(json.dumps(report))
        """
    )
    for package in PACKAGES:
        entry = report[package]
        assert entry["count"] > 0, package
        assert entry["modules"] == [], package
        assert entry["star_differs"] == [], package
        assert entry["not_in_dir"] == [], package


def test_bringup_stays_the_function_after_its_module_loads():
    kinds = _probe(
        """
        import json, types
        import repro.analysis.bringup
        from repro.analysis import bringup
        import repro.analysis
        print(json.dumps([
            callable(bringup) and not isinstance(bringup, types.ModuleType),
            repro.analysis.bringup is bringup,
        ]))
        """
    )
    assert kinds == [True, True]


def test_unknown_name_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.core.nonexistent  # noqa: B018
