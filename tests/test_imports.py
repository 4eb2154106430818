"""The package runs on numpy alone: scipy is for the test oracles only."""

import os
import subprocess
import sys

import ptshannon


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ptshannon.__file__)))
    code = ("import sys, ptshannon, ptshannon.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
