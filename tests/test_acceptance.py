"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 10 spot-checks two
entries of the threshold tables.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from hypoexp_oracle import characteristic_reference, exp_integral_e1, hypoexp_cdf, hypoexp_pdf
from mcmimo.allocation import (
    PROFILE_COEFFICIENTS,
    downlink_alloc,
    equal_alloc,
    uplink_alloc_approx,
    uplink_alloc_lower_bound,
    uplink_alloc_upper_bound,
)
from mcmimo.cli import (
    GainThresholdQuery,
    _cell0_rows,
    _gains,
    db_to_linear,
    derive_seed,
    find_max_ratio,
)
from mcmimo.closedform import (
    InterferenceProfile,
    downlink_profile,
    uplink_approximation,
    uplink_lower_bound,
    uplink_profile,
    uplink_upper_bound,
)
from mcmimo.mcrate import uplink_rate_mc
from mcmimo.network import run_joint, run_scheduled
from mcmimo.topology import NetworkConfig, build_topology


def report(num, name, ok, detail):
    print(f"criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_sandwich():
    """lower <= approximation <= upper over 1000 randomised profiles."""
    rng = np.random.default_rng(1234)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(n + 1, 257))
        L = int(rng.integers(0, 7))
        prof = InterferenceProfile(  # a stack of one row
            10.0 ** rng.uniform(-6, 0, (1, n)),
            10.0 ** rng.uniform(-1, 2, (1, n * L)),
            10.0 ** rng.uniform(-6, 0, (1, n * L)),
        )
        p = 10.0 ** rng.uniform(-1, 2, n)
        lo = uplink_lower_bound(prof, m, n, p)
        ap = uplink_approximation(prof, m, n, p)
        up = uplink_upper_bound(prof, m, n, p)
        worst = min(worst, float(np.min(ap - lo)), float(np.min(up - ap)))
    report(1, "sandwich ordering", worst >= -1e-12, f"worst slack {worst:.3e}")


def test_criterion_02_approximation_accuracy():
    """per-user |MC - approx|/MC < 2% at M=128, N=10, 19 cells, 20 dB.

    Seed 0 is a typical drop: 95% of seeds meet the 2% tolerance (the rare
    misses pair a deeply shadowed user with one dominant interferer, where
    the mean-ratio step itself costs var(v)/(1+E v)^2 relatively).
    """
    cfg = NetworkConfig(users_per_cell=10, bs_antennas=128, seed=0)
    top = build_topology(cfg)
    allocs = np.tile(equal_alloc(10, db_to_linear(20.0)), (19, 1))
    mc, _ = uplink_rate_mc(top, allocs, 0, trials=10_000, seed=91)
    prof = uplink_profile(top, allocs, 0)
    approx = uplink_approximation(prof, 128, 10, allocs[0])
    rel = float(np.max(np.abs(mc - approx) / mc))
    report(2, "approximation vs MC", rel < 0.02, f"max per-user rel err {rel:.4f}")


def test_criterion_03_exact_rate_oracle():
    """M=2, N=1, no interference, p=beta=1: MC rate = 1/ln 2 within 99% CI."""
    cfg = NetworkConfig(
        users_per_cell=1, bs_antennas=2, cell_count=1,
        path_loss_exponent=0.0, shadow_std_db=0.0, seed=7,
    )
    top = build_topology(cfg)
    (rate,), (ci,) = uplink_rate_mc(
        top, np.ones((1, 1)), 0,
        trials=100_000, seed=11, confidence=0.99,
    )
    target = 1.0 / math.log(2.0)
    err = abs(rate - target)
    report(
        3, "exact-rate oracle", err <= ci,
        f"|{rate:.5f} - {target:.5f}| = {err:.5f} vs CI {ci:.5f}",
    )


def test_criterion_04_waterfill_vs_grid():
    """waterfill surrogate sum rate beats the P/100 grid on 100 instances."""
    rng = np.random.default_rng(44)
    ij = np.array([(i, j) for i in range(101) for j in range(101 - i)])
    strategies = [("lower", uplink_alloc_lower_bound), ("upper", uplink_alloc_upper_bound),
                  ("approx", uplink_alloc_approx), ("downlink", downlink_alloc)]
    worst = np.inf
    for inst in range(100):
        cfg = NetworkConfig(users_per_cell=3, bs_antennas=12, cell_count=7,
                            seed=int(rng.integers(0, 2**31)))
        top = build_topology(cfg)
        budget = float(10.0 ** rng.uniform(0, 2))
        up_int = np.array([10.0 ** rng.uniform(-1, 1.5, 3) for _ in range(7)])
        dl_int = np.array([10.0 ** rng.uniform(0, 2.5, 3) for _ in range(7)])
        grid = np.column_stack([ij * (budget / 100), budget - ij.sum(axis=1) * (budget / 100)])
        for name, strategy in strategies:
            if strategy.direction == "uplink":
                prof = uplink_profile(top, up_int, 0)
            else:
                prof = downlink_profile(top, dl_int, 0)
            c = PROFILE_COEFFICIENTS[name](prof, 12, 3)
            powers = strategy(prof, 12, 3, budget)
            values = np.log2(1.0 + np.vstack([powers, grid]) * c).sum(axis=1)
            worst = min(worst, float(values[0] - values[1:].max()))
    # grid corners reconstruct the budget as budget - i*step - j*step, which
    # can land an ulp above it; ties then show as O(1e-16) rounding, not as
    # an optimality violation (checked against 40-digit arithmetic)
    report(4, "waterfill vs grid", worst >= -1e-12, f"min margin over grid {worst:.3e} bits")


def test_criterion_05_hypoexponential():
    """50 random rate sets: pdf integrates to 1, CDF matches 1e5-sample MC."""
    rng = np.random.default_rng(55)
    worst_pdf, worst_cdf = 0.0, 0.0
    for trial in range(50):
        k = int(rng.integers(1, 6))
        z = 10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0), k)
        if trial % 3 == 0:
            z = np.concatenate([z, z[: max(1, k // 2)]])  # repeated values
        spec = characteristic_reference(z)
        val, _ = integrate.quad(lambda v: float(hypoexp_pdf(spec, v)), 0, np.inf, limit=300)
        worst_pdf = max(worst_pdf, abs(val - 1.0))
        samples = np.zeros(100_000)
        for zz in z:
            samples += rng.exponential(zz, 100_000)
        samples.sort()
        emp = (np.arange(100_000) + 0.5) / 100_000
        worst_cdf = max(worst_cdf, float(np.max(np.abs(hypoexp_cdf(spec, samples) - emp))))
    ok = worst_pdf <= 1e-8 and worst_cdf < 0.01
    report(5, "hypoexponential law", ok,
           f"max |1-integral| {worst_pdf:.2e}, max CDF dev {worst_cdf:.4f}")


def test_criterion_06_e1_accuracy():
    """|E1 - quadrature oracle| < 1e-10 on a log grid over [1e-3, 50]."""
    xs = np.logspace(-3, math.log10(50.0), 120)
    worst = 0.0
    for x in xs:
        oracle, _ = integrate.quad(
            lambda t: math.exp(-x * t) / t, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13
        )
        worst = max(worst, abs(exp_integral_e1(float(x)) - oracle))
    report(6, "E1 accuracy", worst < 1e-10, f"max abs err {worst:.2e}")


def test_criterion_07_asymptotic_equal_power():
    """deviation from P/N shrinks along M in {32,128,512,2048}, <5% at 2048.

    The criterion fixes the M grid but not P/N/drop; this pins N=5, P=30 dB
    and drop seed 7 (a typical drop at that power; see the decisions ledger).
    """
    cfg = NetworkConfig(users_per_cell=5, bs_antennas=32, seed=7)
    top = build_topology(cfg)
    budget = db_to_linear(30.0)
    ul = np.full((19, 5), db_to_linear(10.0))
    dl = np.full((19, 5), db_to_linear(30.0) / 5)
    ok = True
    finals = []
    up, down = uplink_profile(top, ul, 0), downlink_profile(top, dl, 0)  # the same at every M
    for name, strategy, prof in [
        ("lower", uplink_alloc_lower_bound, up),
        ("upper", uplink_alloc_upper_bound, up),
        ("approx", uplink_alloc_approx, up),
        ("downlink", downlink_alloc, down),
    ]:
        devs = []
        for m in (32, 128, 512, 2048):
            out = strategy(prof, m, 5, budget)
            devs.append(float(np.max(np.abs(out - budget / 5)) / (budget / 5)))
        ok = ok and all(b <= a + 1e-12 for a, b in zip(devs, devs[1:])) and devs[-1] < 0.05
        finals.append(f"{name}:{devs[-1]:.4f}")
    report(7, "asymptotic equal power", ok, "dev@M=2048 " + ", ".join(finals))


def test_criterion_08_relative_gain():
    """uplink gain at M=100, N=10, P=20 dB, 19 cells: 14% +- 5 pp (50 drops)."""
    base = NetworkConfig(users_per_cell=10, bs_antennas=100, seed=2024)
    drops = [build_topology(replace(base, seed=derive_seed(2024, 1, d))) for d in range(50)]
    rows, _ = _cell0_rows(drops, "uplink", db_to_linear(10.0))  # cell 0's profile in every drop
    gains, = _gains(rows, [100], [db_to_linear(20.0)])  # one probe's gain in every drop
    eta = float(np.mean(gains))
    report(8, "relative gain", 0.09 <= eta <= 0.19, f"eta = {eta:.4f}")


def test_criterion_09_scheduled_vs_joint():
    """scheduled allocation within 2% of the joint benchmark from slot 3 on."""
    budget = 50.0
    gaps = []
    for s in range(10):
        cfg = NetworkConfig(users_per_cell=5, bs_antennas=20, seed=derive_seed(909, 5, s))
        top = build_topology(cfg)
        sched = run_scheduled(top, uplink_alloc_approx, budget, 10.0, 6)
        joint = run_joint(top, budget, max_iters=2000, tolerance=1e-12)
        gaps.append([(joint.objective - h) / joint.objective for h in sched.history[2:]])
    mean_gap = np.mean(gaps, axis=0)
    report(9, "scheduled vs joint", float(np.max(mean_gap)) < 0.02,
           f"mean gap slots 3..6: {np.array2string(mean_gap, precision=4)}")


def test_criterion_10_threshold_table_spot_checks():
    """max antennas-per-user ratios for 10% gain at 20 dB and 25 dB."""
    base = NetworkConfig(users_per_cell=10, bs_antennas=128, seed=2024)
    q20 = GainThresholdQuery("uplink", 0.10, 20.0, (2, 40), drops=30)
    v20, _ = find_max_ratio(q20, base)
    q25 = GainThresholdQuery("uplink", 0.10, 25.0, (2, 40), drops=30)
    v25, _ = find_max_ratio(q25, base)
    ok = (12 - 3 <= v20 <= 12 + 3) and (4 - 2 <= v25 <= 4 + 2)
    report(10, "threshold table spot checks", ok, f"20dB/10% -> {v20}, 25dB/10% -> {v25}")
