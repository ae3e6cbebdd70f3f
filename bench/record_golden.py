"""Record the exit code and stdout of every benchmark CLI command.

    python3 bench/record_golden.py

Writes ``golden/cli.json``; the cli workload fails any op whose exit code
or stdout bytes differ from it.  Record only at a commit whose output is
known to be right.
"""

import json

from workloads import COMMANDS, GOLDEN, run_cli


def main():
    golden = {}
    for name, argv in COMMANDS:
        code, out = run_cli(argv)
        golden[name] = {"argv": argv, "exit": code, "stdout": out.decode()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} commands recorded in {GOLDEN}")


if __name__ == "__main__":
    main()
