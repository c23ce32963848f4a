"""The runtime package is stdlib-only: importing its entry points must not
pull in numpy (the Pauli and decomposition tests use it as a test-only
reference)."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_entry_points_import_without_numpy():
    code = (
        "import sys, repro, repro.cli, repro.gateway, repro.experiments.headline; "
        "print('numpy' in sys.modules)"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
