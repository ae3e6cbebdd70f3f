"""``tools/ab_relations.py`` runs two trees interleaved in one process."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_relations.py"


def test_the_repo_against_itself():
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--ops", "3", "--rounds", "1"],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    ).stdout
    lines = out.splitlines()
    assert re.fullmatch(
        r"round 1  old first  old \d+\.\d{3} s  new \d+\.\d{3} s  new/old \d+\.\d{3}"
        r"  sha256 [0-9a-f]{16}",
        lines[0],
    ), out
    assert re.fullmatch(r"median new/old \d+\.\d{3} over 1 rounds; new faster in [01] of 1", lines[1])
    assert lines[2].split() == ["curve", "field", "ops", "old", "ms/op", "new", "ms/op", "new/old"]
    rows = [line.split() for line in lines[3:]]
    assert sum(int(row[1]) for row in rows) == 3, out
