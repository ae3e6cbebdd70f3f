"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. The reciprocity candidate stream with its default seed starts with
   exactly the 200 (field, form, f) inputs of acceptance 1: the acceptance
   test is run with ``reciprocity_sum`` replaced by a recorder.
2. Two traced runs of each workload (``run.py --trace 1`` with the
   workload's default seed) report the same value for every ``*.calls``
   metric, and each is correct, which includes its traced results matching
   its untraced ones.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

from workloads import BENCH, DEFAULT_SEEDS, ROOT, SRC

sys.path[:0] = [str(SRC), str(ROOT / "tests")]


class _Zero:
    def is_zero(self):
        return True


def acceptance_inputs():
    import test_acceptance

    seen = []

    def record(R, form, f, prec=None):
        seen.append((R, form, f))
        return _Zero()

    test_acceptance.reciprocity_sum = record
    with redirect_stdout(io.StringIO()):
        test_acceptance.test_acceptance_1_weil_reciprocity()
    return seen


def check_default_seed():
    import workloads

    expected = acceptance_inputs()
    stream = workloads.Reciprocity().ops(DEFAULT_SEEDS["reciprocity"])
    got = [next(stream) for _ in range(len(expected))]
    return len(expected) == 200 and got == expected


def run_json(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check_traced_counts(workload):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", "1"]
    results = [run_json(cmd, ROOT)[1] for _ in range(2)]
    if any(r is None or not r["correct"] for r in results):
        return False
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in results]
    return calls[0] == calls[1] and any(calls[0].values())


def check_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"]
    code, result = run_json(cmd, bare)
    shutil.rmtree(bare)
    return code != 0 and result is None


def main():
    checks = [("reciprocity default seed = acceptance 1 inputs", check_default_seed)]
    for w in ("reciprocity", "relations", "cli"):
        checks.append((f"{w}: traced calls repeat, traced = untraced", lambda w=w: check_traced_counts(w)))
    checks.append(("no result without the sources", check_bare_directory))
    ok = True
    for name, fn in checks:
        passed = fn()
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}: {name}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
