"""Correctness checks of one invocation's output files.

Each ``check_<workload>(files, params)`` returns ``None`` when the output
is correct and otherwise a one-line reason; run.py counts a reason as a
failed invocation.  The references are independent of the command that
wrote the file where the package has one: ``spectrum`` (computed by
``spectral_markov``) is checked against the closed form ``spectral_sbm``
and the ``simulate`` ensemble against the exact ``covariance_W`` moments.
All workloads run the canonical scheme H=1, alpha=2, T=1, s=1,1.5.
"""

from __future__ import annotations

import math

import numpy as np

from dsi_lab import covariance_W, model_from_sbm, spectral_sbm, validate_scheme

SCHEME = validate_scheme(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5))

SPECTRUM_REL_TOL = 1e-12
# |z| above 5 has probability about 6e-7 per moment for a correct simulator
ENSEMBLE_Z_MAX = 5.0


def _load(path, header: str, columns: int) -> np.ndarray | str:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            return f"header {first!r} is not {header!r}"
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != columns:
        return f"{data.shape[1]} columns, expected {columns}"
    if not np.all(np.isfinite(data)):
        return "non-finite values"
    return data


def _block_index(n_blocks: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected (block, u, v) columns of a table of q x q matrices."""
    block = np.repeat(np.arange(n_blocks), q * q)
    u = np.tile(np.repeat(np.arange(q), q), n_blocks)
    v = np.tile(np.arange(q), n_blocks * q)
    return block, u, v


def check_ensemble(files, params) -> str | None:
    paths, tau_max = params["paths"], params["tau_max"]
    data = _load(files[0], "path_id,kappa,n,u,time,value", 6)
    if isinstance(data, str):
        return data
    q = SCHEME.q
    K = max(q, (tau_max + 1) * q - 1) + 1
    if data.shape[0] != paths * K:
        return f"{data.shape[0]} rows, expected {paths * K}"
    kappa = np.arange(K)
    n, u = np.divmod(kappa, q)
    times = np.array([SCHEME.alpha ** (int(c) * SCHEME.T) * SCHEME.s[j] for c, j in zip(n, u)])
    grid = np.column_stack([kappa, n, u, times])
    if not np.array_equal(data[:, 0].reshape(paths, K), np.broadcast_to(np.arange(paths)[:, None], (paths, K))):
        return "path_id column is not 0..P-1 with K rows each"
    if not np.array_equal(data[:, 1:5].reshape(paths, K, 4), np.broadcast_to(grid, (paths, K, 4))):
        return "kappa,n,u,time columns differ from the sampling grid"
    values = data[:, 5].reshape(paths, K)
    model = model_from_sbm(SCHEME)
    for j in range(q):
        for lag in (0, 1):
            prod = values[:, j + lag] * values[:, j]
            z = (prod.mean() - covariance_W(model, j, lag)) / (prod.std(ddof=1) / math.sqrt(paths))
            if not abs(z) <= ENSEMBLE_Z_MAX:
                return f"R{lag}[{j}] moment z-score {z:.2f} exceeds {ENSEMBLE_Z_MAX}"
    return None


def check_spectrum(files, params) -> str | None:
    omega_points = params["omega_points"]
    data = _load(files[0], "omega,u,v,re,im", 5)
    if isinstance(data, str):
        return data
    q = SCHEME.q
    if data.shape[0] != omega_points * q * q:
        return f"{data.shape[0]} rows, expected {omega_points * q * q}"
    k, u, v = _block_index(omega_points, q)
    if not (np.array_equal(data[:, 1], u) and np.array_equal(data[:, 2], v)):
        return "u,v columns out of order"
    omegas = np.arange(omega_points) * (2.0 * math.pi / omega_points)
    if not np.allclose(data[:, 0], omegas[k], rtol=0.0, atol=1e-12):
        return "omega column is not the uniform grid 2*pi*k/M"
    got = data[:, 3] + 1j * data[:, 4]
    want = spectral_sbm(SCHEME, omegas).matrices.reshape(-1)
    rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    if not rel <= SPECTRUM_REL_TOL:
        return f"density differs from spectral_sbm by {rel:.3e} (relative)"
    return None


def check_verify(files, params) -> str | None:
    report, estimates = files
    with open(report, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "check_name,status,observed,expected,tolerance":
        return "verify report header is wrong"
    if len(lines) < 2:
        return "verify report has no checks"
    rows = [line.split(",") for line in lines[1:]]
    failed = [row[0] for row in rows if len(row) != 5 or row[1] != "PASS"]
    if failed:
        return f"verify checks not PASS: {', '.join(failed)}"
    with open(estimates, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "j_or_uv,lag,estimate,std_error,analytic,z_score":
        return "verify estimates header is wrong"
    if len(lines) < 2:
        return "verify estimates file has no rows"
    return None
