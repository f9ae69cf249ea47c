"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints exactly one pass/fail line (visible with pytest -s or in
captured output) and asserts the same condition, so the suite is both a
human-readable checklist and a hard gate.
"""

import math
import time

import numpy as np

from dsi_lab import (
    StationaryGrid,
    covariance_V,
    covariance_W,
    inverse_quasi_lamperti,
    invert_spectrum,
    markov_covfn,
    model_from_sbm,
    quasi_lamperti,
    sample_points,
    sbm_covariance_exact,
    simulate_paths,
    estimate_R,
    spectral_markov,
    spectral_sbm,
    spectral_series,
    split_index,
    validate_scheme,
)
from dsi_lab.cli import main as cli_main
from conftest import make_scheme, random_stable_model

TWO_PI = 2.0 * math.pi


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {criterion} {name}: {detail}"


def test_01_flat_covariance_matches_exact_reference():
    start = time.perf_counter()
    worst = 0.0
    for H in (0.5, 0.75, 1.0):
        sch = make_scheme(H=H)
        model = model_from_sbm(sch)
        for kappa in range(11):
            for tau in range(13):
                got = covariance_W(model, kappa, tau)
                want = sbm_covariance_exact(sch, kappa + tau, kappa)
                worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(
        1,
        "factorized covariance vs exact reference",
        ok,
        f"max rel err {worst:.3e} <= 1e-10, {elapsed:.3f}s < 1s",
    )


def test_02_block_matrix_assembly_and_scale_ladder():
    sch = make_scheme(H=1.0)
    model = model_from_sbm(sch)
    a2 = sch.alpha ** (2 * sch.T * sch.H)
    worst_asm = 0.0
    worst_ladder = 0.0
    for n in range(-2, 3):
        for tau in range(7):
            mat = covariance_V(model, n, tau)
            base = covariance_V(model, 0, tau)
            for u in range(sch.q):
                for v in range(sch.q):
                    assembled = a2 ** n * covariance_W(model, v, tau * sch.q + u - v)
                    denom = max(abs(assembled), 1e-300)
                    worst_asm = max(worst_asm, abs(mat[u, v] - assembled) / denom)
                    ladder = a2 ** n * base[u, v]
                    worst_ladder = max(
                        worst_ladder, abs(mat[u, v] - ladder) / max(abs(ladder), 1e-300)
                    )
    ok = worst_asm <= 1e-12 and worst_ladder <= 1e-12
    report(
        2,
        "block matrices assemble from flat covariance",
        ok,
        f"assembly rel err {worst_asm:.3e} <= 1e-12, "
        f"scale ladder rel err {worst_ladder:.3e} <= 1e-12",
    )


def test_03_series_matches_closed_form_on_random_models():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    omegas = np.arange(256) * (TWO_PI / 256)
    worst = 0.0
    n_models = 0
    for q in (1, 2, 3, 5):
        for _ in range(5):
            model = random_stable_model(rng, q)
            closed = spectral_markov(model, omegas)
            series = spectral_series(
                markov_covfn(model),
                model.scheme,
                omegas,
                tol=1e-10,
                tail_ratio=model.stability_ratio,
            )
            worst = max(worst, float(np.max(np.abs(closed.matrices - series.matrices))))
            n_models += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and n_models == 20 and elapsed < 10.0
    report(
        3,
        "geometric series vs closed form (20 random stable models)",
        ok,
        f"max abs diff {worst:.3e} <= 1e-8, {elapsed:.2f}s < 10s",
    )


def test_04_reference_specialization_and_hand_value():
    sch = make_scheme(H=1.0)
    omegas = np.arange(256) * (TWO_PI / 256)
    ref = spectral_sbm(sch, omegas)
    gen = spectral_markov(model_from_sbm(sch), omegas)
    diff = float(np.max(np.abs(ref.matrices - gen.matrices)))
    # independent hand computation of the (0, 0) entry at omega = 0:
    # scalar geometric sums with ratio 2**-0.5 on both sides
    a = 2.0 ** -0.5
    hand = (1.0 / (1.0 - a) - 1.0 / (1.0 - 1.0 / a)) / math.pi
    spot = float(ref.matrices[0][0, 0].real)
    ok = diff <= 1e-12 and abs(spot - hand) <= 1e-12 and abs(hand - 1.8554) <= 1e-3
    report(
        4,
        "reference-process density specializes the closed form",
        ok,
        f"max abs diff {diff:.3e} <= 1e-12, "
        f"g00(0) = {spot:.6f} within 1e-3 of hand value {hand:.6f}",
    )


def test_05_inversion_recovers_covariance():
    sch = make_scheme(H=1.0)
    model = model_from_sbm(sch)
    M = 16384
    omegas = np.arange(M) * (TWO_PI / M)
    ev = spectral_markov(model, omegas)
    rec = invert_spectrum(ev, sch, range(5))
    worst = 0.0
    for i, tau in enumerate(rec.taus):
        want = covariance_V(model, 0, tau)
        worst = max(worst, float(np.max(np.abs(rec.matrices[i] - want) / np.abs(want))))
    ok = worst <= 1e-6 and rec.imag_residue <= 1e-8
    report(
        5,
        "frequency inversion recovers block covariances",
        ok,
        f"max rel err {worst:.3e} <= 1e-6, imag residue {rec.imag_residue:.3e} <= 1e-8",
    )


def test_06_monte_carlo_moments_and_verify_runtime(tmp_path):
    sch = make_scheme(H=1.0)
    model = model_from_sbm(sch)
    ensemble = simulate_paths(sch, (0, 9), 20000, 42)
    worst_z = 0.0
    for lag, est in enumerate(estimate_R(ensemble)):
        want = covariance_W(model, np.arange(sch.q), lag)
        worst_z = max(worst_z, float(np.max(np.abs(est.value - want) / est.std_error)))
    start = time.perf_counter()
    rc = cli_main(["verify", "--out", str(tmp_path / "report.csv")])
    elapsed = time.perf_counter() - start
    ok = worst_z <= 3.0 and rc == 0 and elapsed < 60.0
    report(
        6,
        "Monte Carlo moments within three standard errors",
        ok,
        f"max |z| {worst_z:.3f} <= 3, verify exit {rc}, {elapsed:.1f}s < 60s",
    )


def test_07_structural_invariants():
    # frame round trip
    rng = np.random.default_rng(99)
    worst_rt = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 25))
        times = np.sort(rng.uniform(-15.0, 15.0, size=n))
        times = times[np.concatenate([[True], np.diff(times) > 1e-6])]
        grid = StationaryGrid(times=times, values=rng.standard_normal(times.size))
        H = float(rng.uniform(0.1, 2.0))
        alpha = float(rng.uniform(1.2, 6.0))
        back = inverse_quasi_lamperti(quasi_lamperti(grid, H, alpha), H, alpha)
        scale_t = 1.0 + float(np.max(np.abs(grid.times)))
        scale_v = 1.0 + float(np.max(np.abs(grid.values)))
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(back.times - grid.times))) / scale_t,
            float(np.max(np.abs(back.values - grid.values))) / scale_v,
        )

    # index bijection over the pinned range, on the sampling grid
    bijection_ok = True
    for q in range(1, 9):
        grid = sample_points(make_scheme(s=[1.0 + u / q for u in range(q)]), -1000, 1000)
        split = [split_index(k, q) for k in grid.kappa.tolist()]
        bijection_ok &= bool(
            (grid.kappa == grid.n * q + grid.u).all()
            and ((0 <= grid.u) & (grid.u < q)).all()
            and split == list(zip(grid.n.tolist(), grid.u.tolist()))
        )

    # Hermitian density matrices across evaluation styles
    rng2 = np.random.default_rng(101)
    omegas = np.arange(64) * (TWO_PI / 64)
    sch = make_scheme(H=1.0)
    defect = spectral_sbm(sch, omegas).hermitian_defect()
    for _ in range(3):
        model = random_stable_model(rng2)
        defect = max(defect, spectral_markov(model, omegas).hermitian_defect())
        defect = max(
            defect,
            spectral_series(
                markov_covfn(model), model.scheme, omegas, tol=1e-9,
                tail_ratio=model.stability_ratio,
            ).hermitian_defect(),
        )

    # one-step factorization telescopes through intermediate indices
    rng3 = np.random.default_rng(103)
    worst_pr = 0.0
    for _ in range(5):
        model = random_stable_model(rng3)
        for kappa in range(0, 13, 3):
            for tau1 in range(0, 9, 2):
                for tau2 in range(0, 9, 2):
                    lhs = covariance_W(model, kappa, tau1 + tau2) * covariance_W(
                        model, kappa + tau1, 0
                    )
                    rhs = covariance_W(model, kappa, tau1) * covariance_W(
                        model, kappa + tau1, tau2
                    )
                    worst_pr = max(worst_pr, abs(lhs - rhs) / max(abs(rhs), 1e-300))

    ok = worst_rt <= 1e-12 and bijection_ok and defect <= 1e-10 and worst_pr <= 1e-10
    report(
        7,
        "structural invariants (round trip, bijection, Hermitian, product rule)",
        ok,
        f"roundtrip {worst_rt:.3e} <= 1e-12, bijection {bijection_ok}, "
        f"Hermitian defect {defect:.3e} <= 1e-10, product rule {worst_pr:.3e} <= 1e-10",
    )


def test_08_verify_outputs_are_reproducible(tmp_path):
    d1 = tmp_path / "first"
    d2 = tmp_path / "second"
    d1.mkdir()
    d2.mkdir()
    rc1 = cli_main(["verify", "--out", str(d1 / "report.csv")])
    rc2 = cli_main(["verify", "--out", str(d2 / "report.csv")])
    same_report = (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
    same_estimates = (
        d1 / "report_estimates.csv"
    ).read_bytes() == (d2 / "report_estimates.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same_report and same_estimates
    report(
        8,
        "verify outputs byte-identical across runs",
        ok,
        f"exit codes ({rc1}, {rc2}), report identical {same_report}, "
        f"estimates identical {same_estimates}",
    )
