"""Fingerprint hash of the first ops of the relations workload.

    python tools/fingerprints.py [--ops 300] [--seed 701]

Runs the first ``--ops`` ops of the relations workload of ``--seed`` through
``bench/workloads.py``, in this process and in order, and prints one line:
the op count, the seconds spent in the ops (their inputs are generated
untimed, as in ``bench/run.py``) and the first 16 hex digits of the sha256
of the concatenated fingerprints.  Two trees that print the same hash gave
the same answers on every op.  An op whose answer is not correct, or that
raises, ends the run with exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fingerprint_hash(ops, seed):
    """(seconds, hash prefix) of the first ``ops`` relations ops of ``seed``."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import workloads

    wl = workloads.setup("relations")
    inputs = wl.ops(seed)
    digest = hashlib.sha256()
    seconds = 0.0
    for i in range(ops):
        x = next(inputs)
        t0 = time.perf_counter()
        correct, fingerprint = wl.run(x)
        seconds += time.perf_counter() - t0
        if not correct:
            raise SystemExit(f"op {i} of seed {seed} is not correct")
        digest.update(fingerprint.encode())
    return seconds, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", type=int, default=300)
    ap.add_argument("--seed", type=int, default=701)
    args = ap.parse_args()
    seconds, digest = fingerprint_hash(args.ops, args.seed)
    print(f"ops {args.ops}  seconds {seconds:.3f}  sha256 {digest}")


if __name__ == "__main__":
    main()
