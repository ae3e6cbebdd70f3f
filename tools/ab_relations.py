"""Interleaved A/B timing of two checkouts on the relations workload.

    python tools/ab_relations.py OLD NEW [--ops 300] [--rounds 6] [--seed 701]

OLD and NEW are the roots of two checkouts.  Each round imports the
``src/modsym`` and ``bench/workloads.py`` of both afresh into this one
process, keeping each tree's modules aside (``modsym*`` and ``workloads``
leave ``sys.modules`` whenever the other tree runs), and then runs op i of
both trees back to back for the first ``--ops`` ops of ``--seed``.  The
tree that goes first alternates by round.  Each op is timed by
``time.process_time`` (its input is generated untimed, as in
``bench/run.py``), so the comparison measures this process rather than the
drift of the machine between two runs.

Prints one line per round (the total op seconds of each tree, their ratio
and the fingerprint hash of ``tools/fingerprints.py``), the median ratio,
and one row per curve field of the ops.  Ends with exit status 1 if an op
is not correct or raises, or if the two trees' answers differ.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


def _is_tree_module(name):
    return name in ("workloads", "modsym") or name.startswith("modsym.")


class Tree:
    """One checkout's modules, installed in ``sys.modules`` while entered."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.modules = {}
        self.seconds = 0.0
        self.by_field = defaultdict(float)
        self.ops_by_field = defaultdict(int)
        self.digest = hashlib.sha256()
        self.inputs = None

    def __enter__(self):
        sys.modules.update(self.modules)
        sys.path[:0] = [str(self.root / "bench"), str(self.root / "src")]
        return self

    def __exit__(self, *exc):
        del sys.path[:2]
        for name in [n for n in sys.modules if _is_tree_module(n)]:
            self.modules[name] = sys.modules.pop(name)

    def start(self, seed):
        import workloads

        self.workload = workloads.setup("relations")
        self.inputs = self.workload.ops(seed)

    def run_op(self, i):
        """Run the next op; return its fingerprint."""
        x = next(self.inputs)
        t0 = time.process_time()
        correct, fingerprint = self.workload.run(x)
        dt = time.process_time() - t0
        if not correct:
            raise SystemExit(f"{self.root}: op {i} is not correct")
        self.seconds += dt
        self.by_field[repr(x[0])] += dt
        self.ops_by_field[repr(x[0])] += 1
        self.digest.update(fingerprint.encode())
        return fingerprint


def run_round(old, new, ops, seed, old_first):
    """(old, new) ``Tree``s after running the first ``ops`` ops of both."""
    trees = [Tree(old), Tree(new)]
    for tree in trees:
        with tree:
            tree.start(seed)
    order = trees if old_first else trees[::-1]
    for i in range(ops):
        answers = []
        for tree in order:
            with tree:
                answers.append(tree.run_op(i))
        if answers[0] != answers[1]:
            raise SystemExit(f"op {i}: the two trees' answers differ")
    return trees


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--ops", type=int, default=300)
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--seed", type=int, default=701)
    args = ap.parse_args(argv)
    ratios, wins = [], 0
    field_ops = defaultdict(int)
    field_seconds = (defaultdict(float), defaultdict(float))
    for r in range(args.rounds):
        old_first = r % 2 == 0
        old, new = run_round(args.old, args.new, args.ops, args.seed, old_first)
        if old.digest.digest() != new.digest.digest():
            raise SystemExit(f"round {r + 1}: the fingerprint hashes differ")
        ratio = new.seconds / old.seconds
        ratios.append(ratio)
        wins += new.seconds < old.seconds
        print(
            f"round {r + 1}  {'old' if old_first else 'new'} first  "
            f"old {old.seconds:.3f} s  new {new.seconds:.3f} s  new/old {ratio:.3f}  "
            f"sha256 {new.digest.hexdigest()[:16]}"
        )
        for name, n in new.ops_by_field.items():
            field_ops[name] += n
        for tree, acc in zip((old, new), field_seconds):
            for name, s in tree.by_field.items():
                acc[name] += s
    print(
        f"median new/old {statistics.median(ratios):.3f} over {args.rounds} rounds; "
        f"new faster in {wins} of {args.rounds}"
    )
    print(f"{'curve field':<16}{'ops':>6}{'old ms/op':>12}{'new ms/op':>12}{'new/old':>9}")
    for name in sorted(field_ops):
        n = field_ops[name]
        o, w = field_seconds[0][name], field_seconds[1][name]
        print(f"{name:<16}{n // args.rounds:>6}{1000 * o / n:>12.2f}{1000 * w / n:>12.2f}"
              f"{(w / o if o else float('nan')):>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
