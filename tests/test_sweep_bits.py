"""The threshold sweep is pinned bit for bit for N = 8 ... 2048.

``tests/golden/sweep-bits.json`` holds, per N, sha256 digests of the sweep's
fit moments, of every candidate's (x1, sqnr_db, valid, failure) and of
``refine(sweep(N))``; ``tools/sweep_bits.py`` wrote it and computes the same
digests here.  A speedup of the quadrature or of any layer after it must
leave them unchanged.  A change that alters the arithmetic on purpose moves
them: computing the fit moments in closed form instead of by adaptive
quadrature (ROADMAP item 2) does, and so did inverting the grid with the
one-branch root of ``spline_fit.segment_inverse``.  Such a change
regenerates the file with the tool and commits it alongside.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "sweep_bits.py"
_SPEC = importlib.util.spec_from_file_location("sweep_bits", _TOOL)
sweep_bits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_bits)
GOLDEN = json.loads(sweep_bits.GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_level():
    assert sorted(GOLDEN, key=int) == [str(n) for n in sweep_bits.LEVELS]


@pytest.mark.parametrize("n_levels", sweep_bits.LEVELS)
def test_sweep_and_refine_bits_unchanged(n_levels):
    assert sweep_bits.fingerprint(n_levels) == GOLDEN[str(n_levels)]
