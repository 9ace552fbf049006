"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see them inline).

Criteria 1, 2 and 4 pin published figures (NUM16 = 20.04 dB, argmax x1 = 1.68
and 2.25, a peak-over-midpoint gap >= 0.3 dB) that the documented companding
model does not give: its best N=16 grid candidate is 19.8212 dB at x1 = 2.1373,
and at x1 = 1.68 it gives 19.764 dB (20.317 dB with the exact overload term,
20.183 dB from per-cell true distortion).  The N=16 argmax puts no level in the
outer segment (counts (7, 0)); excluding empty segments moves it to 1.6673 but
leaves NUM16 at 19.767 dB and the gap at 0.117 dB.  The paper's Table 1, SQNR
formula and per-segment level-count rule are needed to settle these three, so
they keep their targets and fail; their printed figures are regression signals.

Criterion 9 checks that the closed-form overload term is the leading
asymptotic of the exact tail integral, against 50-digit mpmath references.
The remaining criteria must pass.
"""

import math

import numpy as np
import pytest

import splinequant as sq
from splinequant import mc_distortion, overload_distortion_closed, overload_distortion_exact, true_distortion

from _oracles import (
    make_spline,
    mp_overload_closed,
    mp_tail_second_moment,
    perturbed_objectives,
    residual_moments,
    segment_rows,
    uniform_midpoint_quantizer,
)


def verdict(criterion: int, ok: bool, detail: str) -> str:
    line = f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_headline_sqnr_table(table1_run):
    rows = table1_run.rows
    targets = {16: (19.69, 20.04), 32: (25.80, 25.99)}
    checks = []
    for n, (equ, num) in targets.items():
        checks.append((f"EQU{n}", rows[n]["sqnr_equ_db"], equ))
        checks.append((f"NUM{n}", rows[n]["sqnr_num_db"], num))
    misses = [f"{name} {got:.4f} vs {want:.2f}" for name, got, want in checks if abs(got - want) > 0.1]
    fast_enough = table1_run.elapsed < 60.0
    detail = (
        ", ".join(f"{name}={got:.4f} (target {want:.2f}±0.1)" for name, got, want in checks)
        + f"; runtime {table1_run.elapsed:.1f}s"
    )
    ok = not misses and fast_enough
    line = verdict(1, ok, detail)
    assert fast_enough, line
    assert not misses, line


def test_criterion_2_optimal_thresholds(sweep16, sweep32):
    got16, got32 = sweep16.best_x1, sweep32.best_x1
    ok = abs(got16 - 1.68) <= 0.02 and abs(got32 - 2.25) <= 0.02
    line = verdict(
        2, ok, f"argmax x1: N=16 {got16:.4f} (target 1.68±0.02), N=32 {got32:.4f} (target 2.25±0.02)"
    )
    assert ok, line


def test_criterion_3_lloyd_max_reference(lloyd16, lloyd32):
    ok16 = abs(lloyd16.sqnr_db - 20.22) <= 0.05
    ok32 = abs(lloyd32.sqnr_db - 26.01) <= 0.05
    line = verdict(
        3,
        ok16 and ok32,
        f"Lloyd-Max N=16 {lloyd16.sqnr_db:.4f} (20.22±0.05), N=32 {lloyd32.sqnr_db:.4f} (26.01±0.05)",
    )
    assert ok16 and ok32, line


def test_criterion_4_sweep_curve_shape(sweep16):
    midpoint = sweep16.candidates[0]
    valid = [c for c in sweep16.candidates if c.valid]
    interior = valid[0].x1 < sweep16.best_x1 < valid[-1].x1
    gap = sweep16.best_sqnr_db - midpoint.sqnr_db
    ok = interior and gap >= 0.3
    line = verdict(
        4,
        ok,
        f"N=16 peak at {sweep16.best_x1:.4f} (interior={interior}), "
        f"gap over midpoint {gap:.4f} dB (target >= 0.3)",
    )
    assert ok, line


def test_criterion_5_variant_ordering(table1_run):
    rows = table1_run.rows
    ok = all(
        rows[n]["sqnr_equ_db"] <= rows[n]["sqnr_num_db"] <= rows[n]["sqnr_opt_db"]
        for n in (16, 32)
    )
    detail = "; ".join(
        f"N={n}: {rows[n]['sqnr_equ_db']:.4f} <= {rows[n]['sqnr_num_db']:.4f} <= {rows[n]['sqnr_opt_db']:.4f}"
        for n in (16, 32)
    )
    line = verdict(5, ok, detail)
    assert ok, line


def test_criterion_6_monte_carlo_oracle(designs):
    zs = {}
    for key, q in designs.items():
        analytic = true_distortion(q)
        est = mc_distortion(q, 10_000_000, 42)
        zs[key] = (est.mean_distortion - analytic) / est.std_error
    ok = all(abs(z) <= 3.0 for z in zs.values())
    detail = ", ".join(f"N={n} {tag}: z={z:+.2f}" for (n, tag), z in zs.items()) + " (|z| <= 3)"
    line = verdict(6, ok, detail)
    assert ok, line


def test_criterion_7_fit_optimality_everywhere(candidate_builds, model):
    worst_orth = 0.0
    improvements = 0
    n_checked = 0
    for n_levels, rows in candidate_builds.items():
        for row in rows:
            base, perturbed = perturbed_objectives(row.target, row.spline, 1e-3, 100, seed=1234)
            improvements += int((perturbed < base).sum())
            for seg in segment_rows(row.spline):
                for moment in residual_moments(row.target, seg):
                    worst_orth = max(worst_orth, abs(moment) / (seg[4] - seg[3]))
            n_checked += 1
    ok = improvements == 0 and worst_orth <= 1e-8
    line = verdict(
        7,
        ok,
        f"{n_checked} candidates x 100 perturbations: {improvements} improvements; "
        f"worst residual moment per unit length {worst_orth:.2e} (<= 1e-8)",
    )
    assert ok, line


def test_criterion_8_structural_invariants(candidate_builds, designs):
    # level budget conservation across the whole sweep range
    budget_ok = True
    for n_levels, rows in candidate_builds.items():
        for row in rows:
            if row.quantizer is not None and sum(row.quantizer.counts) != (n_levels - 2) // 2:
                budget_ok = False

    # interleaving of thresholds and levels on the four reference designs
    interleave_ok = True
    for q in designs.values():
        seq = [0.0]
        for y, t in zip(q.levels, q.thresholds):
            seq += [y, t]
        seq.append(q.overload_level)
        if not all(a < b for a, b in zip(seq, seq[1:])):
            interleave_ok = False

    # odd symmetry of the codec under random drive
    rng = np.random.default_rng(99)
    q = designs[(16, "opt")]
    n = q.config.n_levels
    sym_ok = True
    for x in rng.standard_normal(10_000):
        i = sq.encode(q, float(x))
        if sq.encode(q, float(-x)) != n - 1 - i or sq.decode(q, n - 1 - i) != -sq.decode(q, i):
            sym_ok = False
            break

    # identity compressor curve must reproduce the textbook uniform quantizer
    x_max = sq.support_threshold(sq.SourceModel(), 8)
    ident = make_spline((0.0, 1.0, 0.0, 0.0, x_max))
    q8 = sq.build(ident, sq.DesignConfig(8, sq.KnotVector((0.0, x_max)), sq.SourceModel()))
    step, levels, thresholds = uniform_midpoint_quantizer(8, x_max)
    uniform_ok = (
        math.isclose(q8.step, step, rel_tol=1e-14)
        and np.allclose(q8.levels, levels, rtol=0, atol=1e-13)
        and np.allclose(q8.thresholds, thresholds, rtol=0, atol=1e-13)
        and all(sq.decode(q8, sq.encode(q8, y)) == y for y in q8.all_levels)
    )

    ok = budget_ok and interleave_ok and sym_ok and uniform_ok
    line = verdict(
        8,
        ok,
        f"count sums={budget_ok}, interleaving={interleave_ok}, "
        f"odd symmetry={sym_ok}, identity->uniform (N=8)={uniform_ok}",
    )
    assert ok, line


def test_criterion_9_overload_asymptotics(designs):
    """The closed-form overload term is the leading asymptotic of the exact
    tail integral: closed/exact = 1 + 7/x^2 - 10/x^4 + O(x^-6).  Both library
    terms are checked against 50-digit mpmath values, then the gap between
    them is pinned between the first two terms of that expansion."""
    pytest.importorskip("mpmath")
    published = {16: 0.15, 32: 0.10}

    # (a), (b): each library term against its mpmath value on the swept designs
    rows = {}
    for n in published:
        q = designs[(n, "opt")]
        x_max = q.config.x_max
        closed, exact = overload_distortion_closed(x_max), overload_distortion_exact(q)
        exact_err = abs(exact / (2.0 * mp_tail_second_moment(x_max, q.overload_level)) - 1.0)
        closed_err = abs(closed / mp_overload_closed(x_max) - 1.0)
        rows[n] = (closed, exact, closed / exact - 1.0, exact_err, closed_err)
    terms_ok = all(e <= 1e-8 and c <= 1e-13 for _, _, _, e, c in rows.values())

    # (c): gap = closed/exact - 1 over support edges for N = 2^4..2^40 and
    # beyond, up to x = 30 (the closed form underflows to 0 past about 37)
    edges = [sq.support_threshold(sq.SourceModel(), 2**k) for k in range(4, 41)]
    xs = sorted(edges + [10.0, 15.0, 20.0, 25.0, 30.0])
    gaps = [overload_distortion_closed(x) / (2.0 * mp_tail_second_moment(x)) - 1.0 for x in xs]
    positive_decreasing = all(g > 0.0 for g in gaps) and all(a > b for a, b in zip(gaps, gaps[1:]))
    bracketed = all(0.0 < 7.0 / x**2 - g < 10.0 / x**4 for x, g in zip(xs, gaps))
    second = [(7.0 - g * x * x) * x * x for x, g in zip(xs, gaps)]

    ok = terms_ok and positive_decreasing and bracketed
    detail = (
        ", ".join(
            f"N={n}: closed={c:.3e} exact={e:.3e} gap={g:.1%} (published <= {published[n]:.0%}), "
            f"exact vs mpmath {ee:.1e} (<= 1e-8), closed vs mpmath {ce:.1e} (<= 1e-13)"
            for n, (c, e, g, ee, ce) in rows.items()
        )
        + f"; {len(xs)} edges x in [{xs[0]:.4f}, {xs[-1]:.0f}]: gap positive and decreasing={positive_decreasing}, "
        f"0 < 7/x^2 - gap < 10/x^4={bracketed}, (7 - gap*x^2)*x^2 from {second[0]:.2f} to {second[-1]:.2f}"
    )
    line = verdict(9, ok, detail)
    assert ok, line
