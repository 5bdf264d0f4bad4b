"""Count the lines of the ``lnlab`` package: all lines, and code-only lines.

A code-only line is a physical line that holds part of a token other than a
comment or layout (newlines, indentation), found with ``tokenize``.  A
statement made of string literals alone (a docstring) is not code.  Blank
lines hold no token.  Standard library only.

It prints one line per module, then the package totals on the last line.

Usage: python tools/src_lines.py
"""

from __future__ import annotations

import io
import sys
import token
import tokenize
from pathlib import Path

_LAYOUT = {token.NEWLINE, token.NL, token.INDENT, token.DEDENT, token.COMMENT,
           token.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of physical lines of ``source`` that carry code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # significant tokens of the logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (token.NEWLINE, token.ENDMARKER) and statement:
            if any(t.type != token.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parents[1] / "src" / "lnlab"
    total = code = 0
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, code_only = len(text.splitlines()), code_lines(text)
        print(f"  {path.name}: {lines} lines, {code_only} code-only lines")
        total += lines
        code += code_only
    print(f"{root.name}: {total} lines, {code} code-only lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
