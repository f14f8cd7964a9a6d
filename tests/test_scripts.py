"""The scripts under scripts/ run and print what they printed before."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT_STDOUT_SHA256 = {
    "tower_demo.py": "50048db446e1ce4ddda85552518d5a3623a271fa97b1e13822276a98c2538513",
    "dimension_tables.py": "e8a2eb4ba9c48b3f34be98181084eb435b2b35c4cb6bcfbae72862a975651d34",
}


@pytest.mark.parametrize("script", sorted(SCRIPT_STDOUT_SHA256))
def test_script_output_is_pinned(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == SCRIPT_STDOUT_SHA256[script]
