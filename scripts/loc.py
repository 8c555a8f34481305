#!/usr/bin/env python3
"""Count the lines and the defaulted parameters of each module of src/mvspoly.

Usage:
    python3 scripts/loc.py [PACKAGE_DIR]

For every .py file it prints the `wc -l` count, the code-only count and the
number of parameters that have a default, then the totals.  A code-only line
holds a token other than a comment, NL, NEWLINE, INDENT or DEDENT, and is
not a line of a bare string-expression statement (a docstring).  A defaulted
parameter is one of a function, method or lambda, positional or
keyword-only; dataclass field defaults are not parameters.
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


def defaulted_params(text: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "mvspoly"
    totals = [0, 0, 0]
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}{'defaults':>10}")
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        counts = (text.count("\n"), code_lines(text), defaulted_params(text))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>8}{counts[1]:>8}{counts[2]:>10}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}{totals[2]:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
