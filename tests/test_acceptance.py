"""Acceptance gate: one test per headline capability, one printed line each.

Run with plain pytest; the pass/fail lines bypass output capture so the
gate is readable even in quiet mode. Tolerances are stated inline next to
each check.
"""

import math
import time

import numpy as np
import pytest

from mdiqkd import (
    SETTINGS,
    ChannelParams,
    FrequencyRange,
    LossRange,
    ModulationErrors,
    SideChannelParams,
    SweepConfig,
    build_bsm_povm,
    build_estimation_inputs,
    build_S_matrix,
    build_virtual,
    estimate,
    frequency_table,
    g_lower,
    g_upper,
    loss_table,
    make_reference_state,
    reference_yields,
    transmission_rates,
)
from mdiqkd.channel import PSI_MINUS
from oracles import fock_povm, omega_ref_direct, random_bounded_operator, random_pure_state

BENCHMARK_CHANNEL = ChannelParams(eta_d=0.145, p_d=6.02e-6, e_d=0.015)


def _report(capsys, ok, label):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _cutoff(table):
    (summary,) = table.summaries()
    assert not summary["revival"]
    return summary["cutoff"]


def _estimate_at(loss_db, delta, eps_value, channel=BENCHMARK_CHANNEL):
    deltas = ModulationErrors(delta, delta, delta)
    ref = [make_reference_state(s, deltas) for s in SETTINGS]
    povm = build_bsm_povm(channel.replace(loss_db=loss_db))
    yields = reference_yields(build_S_matrix(ref, ref), transmission_rates(povm))
    inputs = build_estimation_inputs(
        ref, ref, yields, SideChannelParams.uniform(eps_value)
    )
    return estimate(inputs)


def test_criterion_1_positive_rate_cutoff(capsys):
    config = SweepConfig(
        channel=BENCHMARK_CHANNEL,
        eps_values=(1e-6,),
        delta_values=(0.0,),
        loss_range=LossRange(0.0, 12.0, 0.05),
    )
    t0 = time.perf_counter()
    table = loss_table(config)
    runtime = time.perf_counter() - t0
    cutoff = _cutoff(table)
    ok = 6.5 <= cutoff <= 9.5 and runtime < 10.0
    _report(
        capsys, ok,
        f"criterion 1: positive-rate cutoff {cutoff:.2f} dB in [6.5, 9.5] "
        f"(swept 0-12 dB in {runtime:.2f} s < 10 s)",
    )


def test_criterion_2_robust_to_modulation_errors(capsys):
    eps_value = 1e-8
    worst_ratio = 1.0
    for loss in np.arange(0.0, 5.0 + 1e-9, 0.25):
        r0 = _estimate_at(loss, 0.0, eps_value).key_rate
        r1 = _estimate_at(loss, 0.126, eps_value).key_rate
        assert r0 > 0.0 and r1 > 0.0
        ratio = max(r1 / r0, r0 / r1)
        worst_ratio = max(worst_ratio, ratio)

    config = SweepConfig(
        channel=BENCHMARK_CHANNEL,
        eps_values=(eps_value,),
        delta_values=(0.0,),
        loss_range=LossRange(20.0, 34.0, 0.05),
    )
    cut0 = _cutoff(loss_table(config))
    cut1 = _cutoff(loss_table(config.replace(delta_values=(0.126,))))
    shift = abs(cut0 - cut1)
    ok = worst_ratio < 2.0 and shift < 1.0
    _report(
        capsys, ok,
        f"criterion 2: delta=0.126 vs 0 at eps=1e-8 stays within factor "
        f"{worst_ratio:.3f} < 2 on [0, 5] dB; cutoff shift {shift:.2f} dB < 1",
    )


def test_criterion_3_side_channel_ordering(capsys):
    eps_values = (0.0, 1e-8, 1e-7, 1e-6)
    losses = np.arange(0.0, 12.0 + 1e-9, 0.5)
    curves = {
        e: [_estimate_at(loss, 0.0, e).key_rate for loss in losses]
        for e in eps_values
    }
    ordered = True
    for small, large in zip(eps_values, eps_values[1:]):
        for r_small, r_large in zip(curves[small], curves[large]):
            if r_small > 0.0 and r_large > 0.0 and not r_small > r_large:
                ordered = False
    _report(
        capsys, ordered,
        "criterion 3: key rate strictly decreases with eps across "
        "{0, 1e-8, 1e-7, 1e-6} wherever curves are positive",
    )


def test_criterion_4_interior_clock_optimum(capsys):
    # stated working point for the frequency scan: 5 dB transmission loss
    config = SweepConfig(
        channel=BENCHMARK_CHANNEL,
        frequency_range=FrequencyRange(0.1, 4.0, 0.05, loss_db=5.0),
    )
    points = frequency_table(config).rows()
    per_second = [p.key_per_second for p in points]
    best = int(np.argmax(per_second))
    ok = 0 < best < len(points) - 1 and per_second[best] > 0.0
    _report(
        capsys, ok,
        f"criterion 4: per-second rate at 5 dB peaks at "
        f"{points[best].coordinate:.2f} GHz, interior to [0.1, 4.0]",
    )


def test_criterion_5_estimation_routes_agree(capsys):
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for _ in range(500):
        da, db = rng.uniform(-0.3, 0.3, size=(2, 3))
        ref_a = [make_reference_state(s, ModulationErrors(*da)) for s in SETTINGS]
        ref_b = [make_reference_state(s, ModulationErrors(*db)) for s in SETTINGS]
        channel = ChannelParams(
            eta_d=rng.uniform(0.05, 1.0),
            p_d=rng.uniform(0.0, 1e-3),
            e_d=rng.uniform(0.0, 0.1),
            loss_db=rng.uniform(0.0, 10.0),
        )
        povm = build_bsm_povm(channel)
        yields = reference_yields(
            build_S_matrix(ref_a, ref_b), transmission_rates(povm)
        )
        inputs = build_estimation_inputs(
            ref_a, ref_b, yields, SideChannelParams.uniform(0.0)
        )
        p_vir, s_vir = build_virtual(ref_a[:2], ref_b[:2])
        diff = abs(estimate(inputs).omega_ref - omega_ref_direct(p_vir, s_vir, povm))
        worst = max(worst, diff)
    ok = worst < 1e-10
    _report(
        capsys, ok,
        f"criterion 5: tomography route matches direct trace over 500 random "
        f"configurations, worst |diff| = {worst:.2e} < 1e-10",
    )


def test_criterion_6_deviation_bound_sandwich(capsys):
    rng = np.random.default_rng(60)
    worst_violation = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(2, 9))
        m = random_bounded_operator(rng, dim)
        a = random_pure_state(rng, dim)
        r = random_pure_state(rng, dim)
        x = min(max(float(np.real(a.conj() @ m @ a)), 0.0), 1.0)
        y = min(float(abs(a.conj() @ r)), 1.0)
        target = float(np.real(r.conj() @ m @ r))
        worst_violation = max(
            worst_violation, g_lower(x, y) - target, target - g_upper(x, y)
        )

    grids_ok = True
    xs = np.linspace(0.0, 1.0, 21)
    ys = np.linspace(0.0, 1.0, 41)
    for x in xs:
        lows = [g_lower(x, y) for y in ys]
        ups = [g_upper(x, y) for y in ys]
        grids_ok &= all(b - a >= -1e-12 for a, b in zip(lows, lows[1:]))
        grids_ok &= all(b - a <= 1e-12 for a, b in zip(ups, ups[1:]))
    for y in (0.1, 0.3, 0.7, 0.9, 0.999):
        for x1 in xs:
            for x2 in xs:
                mid = 0.5 * (x1 + x2)
                hi = 0.5 * (g_upper(x1, y) + g_upper(x2, y))
                lo = 0.5 * (g_lower(x1, y) + g_lower(x2, y))
                grids_ok &= g_upper(mid, y) >= hi - 1e-12
                grids_ok &= g_lower(mid, y) <= lo + 1e-12

    ok = worst_violation <= 1e-10 and bool(grids_ok)
    _report(
        capsys, ok,
        f"criterion 6: 10^4 random sandwich trials hold (worst violation "
        f"{worst_violation:.2e} <= 1e-10); monotonicity and concavity grids pass",
    )


def test_criterion_7_ideal_limit_zeroes_errors(capsys):
    channel = ChannelParams(eta_d=0.145, p_d=0.0, e_d=0.0)
    worst_err = worst_gap = 0.0
    for loss in np.arange(0.0, 20.0 + 1e-9, 2.0):
        result = _estimate_at(loss, 0.0, 0.0, channel=channel)
        worst_err = max(worst_err, result.e_zz, result.e_xx)
        worst_gap = max(worst_gap, abs(result.key_rate - result.zeta_obs))
    ok = worst_err < 1e-9 and worst_gap < 1e-9
    _report(
        capsys, ok,
        f"criterion 7: ideal source and detectors give error rates < 1e-9 "
        f"and R = Y_ZZ within {worst_gap:.2e} at every loss",
    )


def test_criterion_8_zero_eps_collapses_bound(capsys):
    worst = 0.0
    for loss in (0.0, 4.0, 8.0):
        deltas = ModulationErrors(0.126, 0.126, 0.126)
        ref = [make_reference_state(s, deltas) for s in SETTINGS]
        povm = build_bsm_povm(BENCHMARK_CHANNEL.replace(loss_db=loss))
        yields = reference_yields(
            build_S_matrix(ref, ref), transmission_rates(povm)
        )
        inputs = build_estimation_inputs(ref, ref, yields, SideChannelParams.uniform(0.0))
        r = estimate(inputs)
        diff = abs(r.omega_ref_upper - r.omega_ref)
        worst = max(worst, diff)
    ok = worst <= 1e-12
    _report(
        capsys, ok,
        f"criterion 8: at eps=0 the deviation bound collapses onto the "
        f"tomography value, worst |diff| = {worst:.2e} <= 1e-12",
    )


def test_criterion_9_announcement_operator_sanity(capsys):
    shape_ok = True
    for loss in (0.0, 4.0, 10.0):
        for e_d in (0.0, 0.015, 0.3):
            for p_d in (0.0, 6.02e-6, 1e-3):
                povm = build_bsm_povm(
                    ChannelParams(eta_d=0.145, p_d=p_d, e_d=e_d, loss_db=loss)
                )
                shape_ok &= bool(np.allclose(povm.m, povm.m.T, rtol=0, atol=1e-12))
                eig = np.linalg.eigvalsh(povm.m)
                shape_ok &= eig[0] >= -1e-12 and eig[-1] <= 1.0 + 1e-12

    ideal = build_bsm_povm(ChannelParams(eta_d=1.0, p_d=0.0, e_d=0.0))
    target = 0.5 * np.outer(PSI_MINUS, PSI_MINUS)
    ideal_dev = float(np.abs(ideal.m - target).max())

    oracle_dev = 0.0
    for loss in (0.0, 4.0):
        ours = build_bsm_povm(BENCHMARK_CHANNEL.replace(loss_db=loss)).m
        ref = fock_povm(0.145, 6.02e-6, 0.015, loss)
        oracle_dev = max(oracle_dev, float(np.abs(ours - ref).max()))

    ok = shape_ok and ideal_dev < 1e-12 and oracle_dev < 1e-12
    _report(
        capsys, ok,
        f"criterion 9: announcement operator Hermitian and bounded on a "
        f"parameter grid; ideal limit is the halved singlet projector "
        f"(dev {ideal_dev:.1e}); matches Fock-space oracle (dev {oracle_dev:.1e})",
    )
