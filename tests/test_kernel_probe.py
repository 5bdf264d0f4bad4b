"""Smoke test of ``tools/kernel_probe.py``: every case runs and prints a
positive time.  No assertion is made on the timings themselves."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "kernel_probe.py"
_spec = importlib.util.spec_from_file_location("kernel_probe", TOOL)
kernel_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_probe)


def test_every_case_prints_a_positive_time(capsys):
    assert kernel_probe.main(number=3, repeat=1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(": ", 1)[0] for line in lines] == [
        name for name, _ in kernel_probe.cases()]
    for line in lines:
        value, unit = line.rsplit(": ", 1)[1].split()
        assert unit == "ns/call" and float(value) > 0
