"""Regenerate the golden CLI documents under ``tests/golden/``.

Each case runs ``splinequant.cli.main`` in process, with the package imported
from this checkout's ``src``, and records what the command printed:
``<case>.stdout`` holds its stdout byte for byte, and ``index.json`` holds
every case's argv, exit code and stderr.  ``tests/test_cli.py`` reruns the
cases and compares against these files.

Run it only when a change alters a document on purpose, and commit the result
with that change, so that the diff of ``tests/golden/`` shows in review what
moved::

    python3 tools/cli_golden.py

It is never run to make a failing golden test pass: that failure means an
output moved, and the cause belongs in the program, not in the goldens.
Stdlib only, besides the package under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# case name -> argv of ``splinequant``
CASES = {
    "design-16-fixed": ("design", "--levels", "16", "--x1", "1.68"),
    "design-64-auto": ("design", "--levels", "64", "--x1", "auto", "--grid-step", "0.05"),
    "design-32-csv": ("design", "--levels", "32", "--x1", "2.25", "--format", "csv"),
    "sweep-16-csv": ("sweep", "--levels", "16", "--grid-step", "0.05", "--format", "csv"),
    "table1": ("table1", "--grid-step", "0.05"),
    "validate-16": ("validate", "--levels", "16", "--x1", "1.68", "--samples", "100000", "--seed", "42"),
    "lloyd-max-16": ("lloyd-max", "--levels", "16"),
    "design-1024-auto": ("design", "--levels", "1024", "--x1", "auto"),
    "table1-csv": ("table1", "--grid-step", "0.05", "--format", "csv"),
    "validate-16-csv": (
        "validate", "--levels", "16", "--x1", "1.68", "--samples", "100000", "--seed", "42",
        "--format", "csv",
    ),
    "lloyd-max-16-csv": ("lloyd-max", "--levels", "16", "--format", "csv"),
}


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    from splinequant import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    index = {}
    for name, argv in CASES.items():
        code, out, err = run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode("utf-8"))
        index[name] = {"argv": list(argv), "exit_code": code, "stderr": err}
        print(f"{name}: exit {code}, {len(out)} chars", file=sys.stderr)
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
