"""The answers of the first relations ops stay byte-stable.

The first 30 ops of seed 701 cycle twice through the 15 configs of the
relations workload (every base field and pair of tags), and
``tools/fingerprints.py`` hashes their fingerprints.  A change to the
arithmetic that changes any answer changes this hash.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprints.py"

HASH_30_OPS_SEED_701 = "243a18cd4e19df5c"


def test_first_30_ops_of_seed_701():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--ops", "30", "--seed", "701"],
        capture_output=True, text=True, check=True, timeout=300, cwd=ROOT,
    ).stdout
    m = re.fullmatch(r"ops 30  seconds \d+\.\d{3}  sha256 ([0-9a-f]{16})\n", out)
    assert m, out
    assert m.group(1) == HASH_30_OPS_SEED_701
