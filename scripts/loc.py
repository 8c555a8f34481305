#!/usr/bin/env python3
"""Count the lines of each module of src/mvspoly.

Usage:
    python3 scripts/loc.py [PACKAGE_DIR]

For every .py file it prints the `wc -l` count and the code-only count,
then the totals.  A code-only line holds a token other than a comment,
NL, NEWLINE, INDENT or DEDENT, and is not a line of a bare
string-expression statement (a docstring).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "mvspoly"
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        print(f"{path.name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{total_wc:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
