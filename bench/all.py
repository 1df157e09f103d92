"""Run every workload, each in its own fresh interpreter, and print one table.

    python3 bench/all.py --seed 1 --seconds 40 --trace 0

The last line of standard output is a JSON object holding each workload's
result line from `run.py`.  The exit code is 0 only when every workload
ran and was correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok &= results[name]["correct"]
        print(f"== {name}")
        for line in lines[:-1]:
            if not line.startswith("env "):
                print(line)
    print(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
