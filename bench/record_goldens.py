#!/usr/bin/env python3
"""Record the ``--format table`` output of every catalog scene as a golden.

    python3 bench/record_goldens.py

Run it only at a commit whose output is known to be right: the scenes
workload compares every run against these bytes.  The exit code of each
scene is checked against the documented contract before anything is written.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from lnlab.catalog import example_names  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    for name in example_names():
        code, text = workloads.run_scene(name)
        expected = 1 if name in workloads.FAILING_SCENES else 0
        if code != expected:
            print(f"{name}: exit {code}, expected {expected}", file=sys.stderr)
            return 1
        with open(os.path.join(workloads.GOLDEN_DIR, name + ".txt"), "wb") as fh:
            fh.write(text)
        print(f"{name}: {len(text)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
