"""``tools/fingerprints.py`` prints the same hash for the same ops."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprints.py"


def _run(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    out = subprocess.run(
        [sys.executable, str(TOOL), "--ops", "3"],
        capture_output=True, text=True, check=True, timeout=120, env=env, cwd=ROOT,
    ).stdout
    m = re.fullmatch(r"ops 3  seconds \d+\.\d{3}  sha256 ([0-9a-f]{16})\n", out)
    assert m, out
    return m.group(1)


def test_two_runs_print_one_hash():
    # set iteration order varies with the hash seed; the answers must not
    assert _run(0) == _run(1)
