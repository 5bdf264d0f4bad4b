"""The code-only line count of ``tools/src_lines.py``, the measure of how much
code the package takes."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = '''"""Module docstring
over two lines."""

# a comment


def f(x):
    """Function docstring."""
    # another comment
    return x  # a trailing comment

"a statement of string literals" "alone"
'''
    assert src_lines.code_lines(source) == 2  # the def line and the return line


def test_each_line_of_a_multi_line_call_counts():
    source = '''total = sum(
    [1,
     2],
)
'''
    assert src_lines.code_lines(source) == 4


def test_a_string_inside_a_statement_is_code():
    source = 'x = """two\nlines"""\n'
    assert src_lines.code_lines(source) == 2


def test_main_prints_each_module_before_the_totals(capsys):
    assert src_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(p.name for p in (TOOL.parents[1] / "src" / "lnlab").glob("*.py"))
    assert [line.split(":")[0].strip() for line in lines[:-1]] == modules
    code = [int(line.split(", ")[1].split()[0]) for line in lines]
    assert lines[-1].startswith("lnlab: ") and code[-1] == sum(code[:-1])
