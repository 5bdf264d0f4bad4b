"""Every catalog scene at ``--max-degree`` 1 to 7 against a recorded table.

A tight degree limit stops a check at the first product past it, so the
output at each limit depends on the order in which products are formed as
well as on the verdicts.  ``max_degree_sweep.json`` holds, for each scene
and limit, the exit code of ``lnlab --max-degree D examples run SCENE
--format table`` and the SHA-256 digests of its stdout and stderr.  A change
that means to alter any of them prints the new table with

    PYTHONPATH=src python tests/test_max_degree_sweep.py > tests/max_degree_sweep.json
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from lnlab.catalog import example_names
from lnlab.cli import main

TABLE = pathlib.Path(__file__).resolve().parent / "max_degree_sweep.json"
DEGREES = range(1, 8)


def sweep() -> dict:
    """{scene: {degree: [exit code, stdout digest, stderr digest]}}."""
    table = {}
    for name in example_names():
        row = table[name] = {}
        for d in DEGREES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--max-degree", str(d), "examples", "run", name,
                             "--format", "table"])
            row[str(d)] = [code] + [hashlib.sha256(s.getvalue().encode()).hexdigest()
                                    for s in (out, err)]
    return table


def test_every_scene_at_every_degree_matches_the_table():
    want, got = json.loads(TABLE.read_text()), sweep()
    assert sorted(got) == sorted(want)
    bad = []
    for name in want:
        for d, row in want[name].items():
            differ = [part for part, x, y in zip(("exit code", "stdout", "stderr"),
                                                 got[name][d], row) if x != y]
            if differ:
                bad.append(f"{name} at --max-degree {d}: {', '.join(differ)}")
    assert not bad, "differs from the table:\n" + "\n".join(bad)


def test_the_table_has_bounded_and_failing_runs():
    """The sweep reaches the resource bound (exit 3) and a failing verdict
    (exit 1), not only passes."""
    codes = [row[0] for scene in json.loads(TABLE.read_text()).values()
             for row in scene.values()]
    assert len(codes) == 9 * len(DEGREES)
    assert {0, 1, 3} <= set(codes)


if __name__ == "__main__":
    json.dump(sweep(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
