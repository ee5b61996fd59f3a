"""The packaging metadata names the package an install carries."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]


def test_setup_names_the_repro_package_and_its_version():
    out = subprocess.run([sys.executable, "setup.py", "--name", "--version"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["repro", repro.__version__] \
        == ["repro", "1.0.0"]
