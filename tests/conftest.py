import time
from types import SimpleNamespace

import pytest

import splinequant as sq


@pytest.fixture(scope="session")
def model():
    return sq.SourceModel()


@pytest.fixture(scope="session")
def sweep16():
    return sq.sweep(16)


@pytest.fixture(scope="session")
def sweep32():
    return sq.sweep(32)


@pytest.fixture(scope="session")
def lloyd16(model):
    return sq.lloyd_max(model, 16)


@pytest.fixture(scope="session")
def lloyd32(model):
    return sq.lloyd_max(model, 32)


@pytest.fixture(scope="session")
def designs(model, sweep16, sweep32):
    """The four reference quantizers: midpoint and swept optimum for N in {16, 32}."""
    return {
        (16, "mid"): sq.evaluate_candidate(16, sweep16.x_max / 2, model),
        (16, "opt"): sq.evaluate_candidate(16, sweep16.best_x1, model),
        (32, "mid"): sq.evaluate_candidate(32, sweep32.x_max / 2, model),
        (32, "opt"): sq.evaluate_candidate(32, sweep32.best_x1, model),
    }


@pytest.fixture(scope="session")
def candidate_builds(model, sweep16, sweep32):
    """Refit and rebuild every sweep candidate; invalid ones carry quantizer=None."""
    out = {}
    for result in (sweep16, sweep32):
        rows = []
        for cand in result.candidates:
            config = sq.standard_config(result.n_levels, (cand.x1,), model)
            target = lambda x, x_max=config.x_max: sq.compressor(model, x_max, x)
            spline = sq.fit(target, config.knots)
            try:
                quantizer = sq.build(spline, config)
            except sq.DesignError:
                quantizer = None
            rows.append(SimpleNamespace(x1=cand.x1, target=target, spline=spline, quantizer=quantizer))
        out[result.n_levels] = rows
    return out


@pytest.fixture(scope="session")
def table1_run():
    from splinequant.cli import _table1_rows

    start = time.monotonic()
    rows = _table1_rows(0.01)
    elapsed = time.monotonic() - start
    return SimpleNamespace(rows={r["n_levels"]: r for r in rows}, elapsed=elapsed)
