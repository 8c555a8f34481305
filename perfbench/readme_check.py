"""Byte-compare the stdout of every README command with its golden copy.

    python3 perfbench/readme_check.py

`readme_golden.json` holds, for each command of the README's "Command line"
section, its exit code and stdout as produced by the seed commit through
`cli.main`.  Each command runs once in this process, outside any timed phase.
Prints one JSON object: the number of commands and those that differ.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
from pathlib import Path

from common import load_mvspoly

GOLDEN = Path(__file__).resolve().parent / "readme_golden.json"


def main():
    cli = load_mvspoly().cli
    golden = json.loads(GOLDEN.read_text())
    mismatched = []
    for case in golden:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(shlex.split(case["command"]))
        if rc != case["exit"] or out.getvalue().encode() != case["stdout"].encode():
            mismatched.append(case["command"])
    print(json.dumps({"commands": len(golden), "mismatched": mismatched}))


if __name__ == "__main__":
    main()
