"""Acceptance criteria for the full analysis chain.

Each test prints one `[PASS]`/`[FAIL]` line with the measured numbers
and the tolerance it was held to; run with `-s` to see the lines for
passing tests too. Tolerances and runtime budgets are asserted, not just
reported.
"""

from __future__ import annotations

import importlib.util
import py_compile
import time
import warnings
from pathlib import Path

import numpy as np

import aspill.fred as fred
from aspill.cli import main as cli_main
from aspill.connectedness import (
    build_table,
    compute_fevd,
    net_measures,
    table_from_percent,
)
from aspill.decomposition import ShockSide, TrendSpec, component_panel, decompose_panel
from aspill.rolling import RollingConfig, rolling_tables
from aspill.var_engine import VarSpec, estimate_var, ma_coefficients
from test_connectedness import gfevd_oracle, random_ma, random_table
from test_pipeline import tree_digest, write_walk_csv
from test_var_engine import companion_power_block, exact_var1_path
from varsim import (
    asymmetric_walks,
    make_panel,
    monthly_dates,
    random_stable_coefficients,
    random_walk_panel,
    simulate_var,
)

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "asymmetry_demo.py"


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_reconstruction_identity():
    rng = np.random.default_rng(2024)
    specs = list(TrendSpec)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        T = int(rng.integers(50, 501))
        g = np.cumsum(rng.standard_normal(T) + rng.normal(0.0, 0.2)) + 100.0
        decomposed = decompose_panel(make_panel(g), specs[i % len(specs)])
        recon = decomposed.plus_panel.matrix + decomposed.minus_panel.matrix
        err = float(np.max(np.abs(recon[:, 0] - g)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    check(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"reconstruction of 1000 random walks from component pairs, "
        f"max error {worst:.3e} < 1e-9, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_ma_recursion_matches_companion_powers():
    rng = np.random.default_rng(2025)
    horizon = 12
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        y = simulate_var(rng, random_stable_coefficients(rng, m, p), 80)
        fit = estimate_var(make_panel(y), VarSpec(p=p))
        ma = ma_coefficients(fit, horizon)
        for i in range(horizon + 1):
            oracle = companion_power_block(list(fit.B), i)
            worst = max(worst, float(np.max(np.abs(ma[i] - oracle))))
    elapsed = time.perf_counter() - start
    check(
        2,
        worst < 1e-10 and elapsed < 2.0,
        f"moving-average terms of 100 fitted systems vs companion powers, "
        f"max error {worst:.3e} < 1e-10, {elapsed:.2f}s < 2s",
    )


def test_criterion_3_share_matrix_matches_scalar_oracle():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(0, 21))
        ma, gamma = random_ma(rng, m, int(rng.integers(1, 3)), n)
        diff = compute_fevd(ma, gamma, n).raw - gfevd_oracle(list(ma), gamma, n)
        worst = max(worst, float(np.max(np.abs(diff))))
    corr_worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        _, gamma = random_ma(rng, m, 1, 0)
        raw = compute_fevd(np.eye(m)[np.newaxis], gamma, 0).raw
        d = np.sqrt(np.diag(gamma))
        rho2 = (gamma / np.outer(d, d)) ** 2
        corr_worst = max(corr_worst, float(np.max(np.abs(raw - rho2))))
    elapsed = time.perf_counter() - start
    check(
        3,
        worst < 1e-12 and corr_worst < 1e-12 and elapsed < 5.0,
        f"variance shares vs triple-loop oracle on 100 instances, max error "
        f"{worst:.3e} < 1e-12; horizon-0 shares vs squared correlations, max error "
        f"{corr_worst:.3e} < 1e-12; {elapsed:.2f}s < 5s",
    )


def test_criterion_4_covariance_scale_invariance():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(20):
        ma, gamma = random_ma(rng, 3, 2, 10)
        base = compute_fevd(ma, gamma, 10).raw
        for c in (1e-4, 1.0, 1e4):
            scaled = compute_fevd(ma, c * gamma, 10).raw
            worst = max(worst, float(np.max(np.abs(scaled - base))))
    check(
        4,
        worst < 1e-12,
        f"shares invariant to covariance scaling by 1e-4, 1, 1e4; "
        f"max deviation {worst:.3e} < 1e-12",
    )


def test_criterion_5_published_table_margins():
    labels = ("China", "Euro", "US")
    cases = {
        "positive": (
            [[99.9, 0.0, 0.1], [0.6, 97.9, 1.4], [3.3, 65.6, 31.2]],
            [0.1, 2.1, 68.8],
            [3.9, 65.6, 1.5],
            [103.8, 163.5, 32.7],
            23.70,
        ),
        "negative": (
            [[64.3, 18.5, 17.3], [5.3, 50.6, 44.1], [10.0, 38.4, 51.6]],
            [35.7, 49.4, 48.4],
            [15.4, 56.9, 61.4],
            [79.6, 107.4, 112.9],
            44.50,
        ),
        "symmetric": (
            [[75.5, 13.2, 11.3], [3.3, 54.3, 42.3], [6.8, 38.9, 54.3]],
            [24.5, 45.7, 45.7],
            [10.2, 52.0, 53.6],
            [85.7, 106.4, 107.9],
            38.60,
        ),
    }
    worst = 0.0
    indices = []
    for matrix, from_others, to_others, including_own, index in cases.values():
        table = table_from_percent(np.array(matrix), labels)
        for got, printed in (
            (table.from_others, from_others),
            (table.to_others, to_others),
            (table.including_own, including_own),
            (np.array([table.total_spillover]), [index]),
        ):
            worst = max(worst, float(np.max(np.abs(np.asarray(got) - np.asarray(printed)))))
        indices.append(f"{table.total_spillover:.2f}")
    check(
        5,
        worst <= 0.1 + 1e-9,
        f"margins and indices recomputed from the three published one-decimal "
        f"share tables (indices {', '.join(indices)}), max deviation {worst:.3f} <= 0.1",
    )


def test_criterion_6_normalization_and_bounds():
    row_worst = 0.0
    net_worst = 0.0
    antisymmetric = True
    bounded = True
    for seed in range(10):
        rng = np.random.default_rng(3100 + seed)
        table = random_table(rng)
        row_worst = max(
            row_worst, float(np.max(np.abs(table.matrix.sum(axis=1) / 100.0 - 1.0)))
        )
        bounded = bounded and 0.0 <= table.total_spillover <= 100.0
        net = net_measures(table)
        antisymmetric = antisymmetric and np.array_equal(
            net.net_pairwise_simple, -net.net_pairwise_simple.T
        )
        net_worst = max(net_worst, abs(float(net.net_directional.sum())))
    check(
        6,
        row_worst < 1e-9 and bounded and antisymmetric and net_worst < 1e-6,
        f"on 10 random fits: row sums within {row_worst:.3e} of 1 (< 1e-9), index "
        f"within [0, 100], pairwise nets exactly antisymmetric, net directional "
        f"sums within {net_worst:.3e} of 0 (< 1e-6)",
    )


def test_criterion_7_var_recovery():
    B1 = np.array([[0.5, 0.1], [0.0, 0.3]])
    rng = np.random.default_rng(11)
    fit = estimate_var(make_panel(simulate_var(rng, [B1], 5000)), VarSpec(p=1))
    mc_err = float(np.max(np.abs(fit.B[0] - B1)))

    B_exact = np.array([[0.8, 0.3], [-0.2, 0.5]])
    intercept = np.array([1.0, -0.5])
    y = exact_var1_path(B_exact, intercept, np.array([10.0, -7.0]), 20)
    exact_fit = estimate_var(make_panel(y), VarSpec(p=1))
    exact_err = float(np.max(np.abs(exact_fit.B[0] - B_exact)))
    check(
        7,
        mc_err < 0.05 and exact_err < 1e-10,
        f"coefficients of a seeded T=5000 simulation within {mc_err:.4f} of truth "
        f"(< 0.05); noise-free system recovered within {exact_err:.3e} (< 1e-10)",
    )


def test_criterion_8_asymmetry_demo_script():
    py_compile.compile(str(SCRIPT), doraise=True)
    print(
        "[INFO] criterion 8: the claim that negative-shock spillovers exceed "
        "positive-shock spillovers on real monthly stock-index data is exercised by "
        f"{SCRIPT.relative_to(SCRIPT.parent.parent)}; it needs network access and "
        "user-supplied series ids, so it is a documented demonstration, not a CI gate."
    )


def spillover_gap(levels: np.ndarray) -> float:
    """Negative-side minus positive-side total spillover: drift split, VAR(2), h=10, jj."""
    panel = make_panel(levels)
    decomposed = decompose_panel(panel, TrendSpec.DRIFT)
    index = {}
    for side in (ShockSide.POSITIVE, ShockSide.NEGATIVE):
        side_panel = component_panel(decomposed, panel, side)
        fit = estimate_var(side_panel, VarSpec(p=2))
        fevd = compute_fevd(ma_coefficients(fit, 10), fit.Gamma, 10, "jj")
        index[side] = build_table(fevd.normalized, side_panel.names).total_spillover
    return index[ShockSide.NEGATIVE] - index[ShockSide.POSITIVE]


def test_criterion_8_planted_asymmetry_is_measured():
    # Markets 1 and 2 load 0.5 on market 0's lagged shocks of one sign only.
    # Over seeds 0..999 the gap per seed stayed above +1.19 when negative
    # shocks were planted, below -0.76 for positive ones, and within
    # [-1.33, +1.80] with none; medians of 20 consecutive seeds stayed above
    # +3.30, below -3.58 and within +-0.16.
    start = time.perf_counter()
    with warnings.catch_warnings():
        # Components are integrated, so the fitted radius sits near 1.
        warnings.simplefilter("ignore")
        gaps = {
            planted: np.array([
                spillover_gap(asymmetric_walks(np.random.default_rng(seed), planted)) for seed in range(20)
            ])
            for planted in (ShockSide.NEGATIVE, ShockSide.POSITIVE, None)
        }
    elapsed = time.perf_counter() - start
    neg, pos, none = gaps[ShockSide.NEGATIVE], gaps[ShockSide.POSITIVE], gaps[None]
    check(
        8,
        neg.min() > 0.0 and np.median(neg) > 2.5
        and pos.max() < 0.0 and np.median(pos) < -2.5
        and np.abs(none).max() < 2.5 and abs(np.median(none)) < 0.5
        and elapsed < 5.0,
        f"neg - pos total spillover on 20 seeded 1500 x 3 panels: planted on negative "
        f"shocks {neg.min():+.2f} to {neg.max():+.2f} (> 0, median {np.median(neg):+.2f} > +2.5); "
        f"planted on positive shocks {pos.min():+.2f} to {pos.max():+.2f} (< 0, median "
        f"{np.median(pos):+.2f} < -2.5); none planted {none.min():+.2f} to {none.max():+.2f} "
        f"(within +-2.5, median {np.median(none):+.2f} within +-0.5); {elapsed:.2f}s < 5s",
    )


def rolling_gaps(levels: np.ndarray, per_window: bool) -> np.ndarray:
    """Negative-side minus positive-side index per window: 600 rows, step 50, drift split, VAR(2), h=10."""
    panel = make_panel(levels)
    index = {}
    for side in (ShockSide.POSITIVE, ShockSide.NEGATIVE):
        cfg = RollingConfig(window=600, horizon=10, var_spec=VarSpec(p=2), shock_side=side, step=50)
        index[side] = rolling_tables(panel, cfg, per_window).index_values
    return index[ShockSide.NEGATIVE] - index[ShockSide.POSITIVE]


def test_criterion_8_rolling_gap_changes_sign_at_a_planted_break():
    # 3000 x 3 log levels planted on negative shocks, then on positive ones
    # from row 1500. Per seed, take the median gap over the 19 windows wholly
    # before the break and over the 19 wholly after it. Over seeds 0..999,
    # anchored (re-anchored per window): before stayed above +0.25 (+0.11),
    # before minus after above +2.50 (+1.65), and after fell below 0 in all
    # but 2 (0) seeds; medians of 20 consecutive seeds stayed above +3.35
    # (+3.17) before and below -3.81 (-3.58) after.
    T = 3000
    starts = np.arange(0, T - 600 + 1, 50)
    before, after = starts + 600 <= T // 2, starts >= T // 2
    start = time.perf_counter()
    medians = {}
    with warnings.catch_warnings():
        # Components are integrated, so the fitted radius sits near 1.
        warnings.simplefilter("ignore")
        for per_window in (False, True):
            gaps = [
                rolling_gaps(
                    asymmetric_walks(np.random.default_rng(seed), ShockSide.NEGATIVE, T, ShockSide.POSITIVE),
                    per_window,
                )
                for seed in range(20)
            ]
            medians[per_window] = (
                np.array([np.median(gap[before]) for gap in gaps]),
                np.array([np.median(gap[after]) for gap in gaps]),
            )
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    detail = []
    for per_window, (pre, post) in medians.items():
        ok = ok and pre.min() > 0.0 and (pre - post).min() > 1.0
        ok = ok and np.median(pre) > 2.5 and np.median(post) < -2.5
        detail.append(
            f"{'re-anchored' if per_window else 'anchored'}: before {pre.min():+.2f} to {pre.max():+.2f} "
            f"(> 0, median {np.median(pre):+.2f} > +2.5), after {post.min():+.2f} to {post.max():+.2f} "
            f"(median {np.median(post):+.2f} < -2.5), before - after from {(pre - post).min():+.2f} (> +1)"
        )
    check(
        8,
        bool(ok),
        "median neg - pos rolling index before and after a planted neg-to-pos break on 20 seeded "
        f"3000 x 3 panels, window 600, step 50; {'; '.join(detail)}; {elapsed:.2f}s < 10s",
    )


def test_asymmetry_demo_script_runs_from_a_warm_cache(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("asymmetry_demo", SCRIPT)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRED_API_KEY", raising=False)

    def refuse(url):
        raise AssertionError("a warm cache must not reach the network")

    monkeypatch.setattr(fred, "_default_transport", refuse)
    start, end = demo.RANGE
    dates = monthly_dates((end.year - start.year + 1) * 12, start_year=start.year)
    rng = np.random.default_rng(2029)
    ids = ["USIDX", "EUIDX", "CNIDX"]
    cache_dir = Path(fred.DEFAULT_CACHE_DIR)
    cache_dir.mkdir()
    for series_id in ids:
        levels = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, size=len(dates))))
        lines = [f"# {series_id}"] + [f"{d.isoformat()} {float(v)!r}" for d, v in zip(dates, levels)]
        fred._cache_path(cache_dir, series_id, demo.RANGE).write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = demo.main(ids)
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out.count("total spillover index") == 3


def test_criterion_9_rolling_consistency():
    rng = np.random.default_rng(2028)
    cfg = RollingConfig(
        window=201, horizon=10, var_spec=VarSpec(p=2), shock_side=ShockSide.SYMMETRIC
    )
    panel = random_walk_panel(rng, T=500, m=3)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dense = rolling_tables(panel, cfg)
    elapsed = time.perf_counter() - start

    single_cfg = RollingConfig(window=500, horizon=10, var_spec=VarSpec(p=2))
    single = rolling_tables(panel, single_cfg)
    fit = estimate_var(panel, VarSpec(p=2))
    fevd = compute_fevd(ma_coefficients(fit, 10), fit.Gamma, 10)
    full = build_table(fevd.normalized, panel.names).total_spillover
    single_exact = single.index_values[0] == full

    strided = rolling_tables(
        panel, RollingConfig(window=201, horizon=10, var_spec=VarSpec(p=2), step=25)
    )
    positions = [dense.window_end_dates.index(d) for d in strided.window_end_dates]
    stride_exact = np.array_equal(strided.index_values, dense.index_values[positions])
    check(
        9,
        len(dense) == 300 and elapsed < 10.0 and single_exact and stride_exact,
        f"300 windows over 500 observations in {elapsed:.2f}s < 10s; single-window "
        f"index equals the full-sample index exactly; stride-25 output equals the "
        f"stride-1 output subsampled exactly",
    )


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    csv_path = tmp_path / "walk.csv"
    write_walk_csv(csv_path)
    out = tmp_path / "out"
    args = [
        "analyze",
        "--input", str(csv_path),
        "--columns", "aa,bb,cc",
        "--lags", "2",
        "--window", "220",
        "--out", str(out),
    ]
    assert cli_main(args) == 0
    first = tree_digest(out)
    assert cli_main(args) == 0
    second = tree_digest(out)
    capsys.readouterr()
    check(
        10,
        first == second and "manifest.json" in first and len(first) == 19,
        f"two identical analyze runs produced byte-identical output trees "
        f"({len(first)} files including tables, nets, rolling outputs, manifest)",
    )
