"""Regenerate ``tests/golden/sweep-bits.json``, the bit fingerprint of the
threshold sweep.

For each N = 8, 16, ..., 2048 at the default grid step it records three
sha256 digests, with the package imported from this checkout's ``src``:

* ``moments``: the bytes of the fit moments that ``sweep(N)`` gets from its
  one quadrature pass (``target_moments`` over every candidate's knots);
* ``candidates``: the repr of every candidate's ``(x1, sqnr_db, valid,
  failure)``, or of the ``SweepError`` when no candidate builds (N >= 1024);
* ``refine``: the repr of ``refine(sweep(N))``, null when the sweep fails.

``tests/test_sweep_bits.py`` recomputes them and compares.  They pin the
adaptive quadrature and everything downstream of it bit for bit, so a speedup
of those layers has to leave every bit where it was.

Run it only when a change alters the sweep's bits on purpose -- computing the
fit moments in closed form instead of by quadrature, or a new root formula for
the grid inversion, is such a change -- and commit the result with that
change, so that review sees what moved::

    python3 tools/sweep_bits.py

It is never run to make a failing test pass: that failure means a bit moved,
and the cause belongs in the program, not in this file.  Stdlib only, besides
the package under test.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "sweep-bits.json"
LEVELS = tuple(2**e for e in range(3, 12))  # 8 ... 2048


def _digest(data: bytes | str) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def fingerprint(n_levels: int) -> dict[str, str | None]:
    """The three digests of ``sweep(n_levels)`` described above."""
    from splinequant import threshold_optimizer as opt
    from splinequant.spline_fit import target_moments

    seen = []

    def recording(target, knots):  # sweep's one quadrature pass, passed through
        seen.append(target_moments(target, knots))
        return seen[-1]

    with mock.patch.object(opt, "target_moments", recording):
        try:
            result = opt.sweep(n_levels)
        except opt.SweepError as exc:
            result, candidates = None, repr(exc)
        else:
            candidates = repr([(c.x1, c.sqnr_db, c.valid, c.failure) for c in result.candidates])
    (moments,) = seen
    # refine fits through the same pass, up to eight points per call: not recorded
    refined = None if result is None else _digest(repr(opt.refine(result)))
    return {
        "moments": _digest(moments.tobytes()),
        "candidates": _digest(candidates),
        "refine": refined,
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    bits = {str(n): fingerprint(n) for n in LEVELS}
    GOLDEN.write_text(json.dumps(bits, indent=2) + "\n", encoding="utf-8")
    print(f"{GOLDEN.name}: {len(bits)} levels", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
