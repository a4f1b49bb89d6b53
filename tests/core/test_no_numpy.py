"""The library is stdlib-only: numpy is neither needed nor imported.

Two interpreters are probed.  One has numpy blocked before any repro
import (the standard ``sys.modules[name] = None`` import blocker, which
makes every ``import numpy`` raise like an uninstalled package): it
must see the full engine registry, and every engine must still flag
the paper's Fig. 3 violation.  The other is a normal interpreter that
imports the checker, the campaign layer and the service queue: numpy
must not appear in its ``sys.modules``.  Both run fresh, because once
numpy is imported anywhere in-process it cannot be un-imported.
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.core import kernels
from repro.core.api import ENGINES

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

_BLOCKED_PROBE = textwrap.dedent(
    """
    import json
    import sys

    sys.modules["numpy"] = None

    from repro.core.api import ENGINES, check_litmus

    FIG3 = '''
        P0: S[B]#91 ; S[A]#1 ; L[A]=2
        P1: S[A]#2
        P2: S[B]#92 ; L[A]=2 ; L[B]=92
        P3: L[B]=92 ; L[B]=91
    '''

    print(json.dumps({
        "engines": sorted(ENGINES),
        "fig3": {
            engine: check_litmus(FIG3, engine=engine).ok
            for engine in sorted(ENGINES)
        },
    }))
    """
)

_IMPORT_PROBE = textwrap.dedent(
    """
    import json
    import sys

    import repro.core.api
    import repro.analysis.campaign
    import repro.service.queue

    print(json.dumps({"numpy_loaded": "numpy" in sys.modules}))
    """
)


def _probe(source: str) -> dict:
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_engine_runs_with_numpy_blocked():
    report = _probe(_BLOCKED_PROBE)
    assert report["engines"] == ["baseline", "vc"]
    assert report["engines"] == sorted(ENGINES)
    assert report["fig3"] == {engine: False for engine in report["engines"]}


def test_library_imports_never_load_numpy():
    assert _probe(_IMPORT_PROBE) == {"numpy_loaded": False}


def test_have_numpy_reports_installation():
    try:
        import numpy  # noqa: F401
    except ImportError:
        installed = False
    else:
        installed = True
    assert kernels.HAVE_NUMPY is installed
