"""Command line front end.

Five subcommands over one flat configuration surface:

- ``simulate``: draw reference-process paths, write the ensemble as CSV.
- ``covariance``: write block covariance matrices Q(0, tau) as CSV.
- ``spectrum``: write the density matrix on a uniform frequency grid.
- ``invert``: recover covariances from the density, write them as CSV.
- ``verify``: run the full cross-check suite and write a pass/fail report.

Configuration comes from an optional ``key=value`` file (one pair per
line, ``#`` comments allowed) overridden by command line flags.  Every
data table is formatted block by block (one block per path, tau or omega)
through one row template per table; ``verify``'s two small tables are
written row by row.  A large table is split into contiguous parts of
blocks, one per CPU the process may use: this process writes the first
part while one forked worker per other part formats it into a pipe, and
the pipes are copied into the file in part order, so the output bytes do
not depend on the CPU count.  Floats are written in shortest round-trip
form and the simulator uses counter-based per-path streams, so repeated
runs of one configuration produce byte-identical files.

Exit codes: 0 success (verify: all checks passed), 1 verify check failed,
2 configuration or domain error, 3 unstable model, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from dataclasses import dataclass, replace
from typing import BinaryIO

import numpy as np

from .core import SamplingScheme, validate_scheme
from .errors import ConfigError, DsiLabError, ModelUnstable
from .lamperti import StationaryGrid, inverse_quasi_lamperti, quasi_lamperti
from .markov_cov import (
    MarkovCovarianceModel,
    covariance_V,
    covariance_W,
    model_from_sbm,
)
from .sbm_sim import PathEnsemble, estimate_R, sbm_covariance_exact, simulate_paths
from .spectral import invert_spectrum, markov_covfn, spectral_markov, spectral_sbm, spectral_series

_COMMANDS = ("simulate", "covariance", "spectrum", "invert", "verify")
_CONFIG_KEYS = (
    "H", "alpha", "T", "q", "s", "R0", "R1",
    "paths", "seed", "tau_max", "omega_points", "tol", "out",
)
_DEFAULT_OUT = {
    "simulate": "ensemble.csv",
    "covariance": "covariance.csv",
    "spectrum": "spectrum.csv",
    "invert": "inverted.csv",
    "verify": "verify_report.csv",
}
# reference grid for the inversion cross-check, fine enough for 1e-6 recovery
_VERIFY_INVERT_M = 16384
# every part of a table formatted on its own CPU has at least this many
# values, so tables below twice this size never fork
_MIN_PART_VALUES = 25_000
# values converted and formatted per string handed to the file or pipe; this
# bounds the Python floats and lists alive at once, and so the peak memory
_CHUNK_VALUES = 16_384


@dataclass(frozen=True)
class RunConfig:
    """Materialized run configuration: one validated scheme plus knobs."""

    command: str
    scheme: SamplingScheme
    R0: tuple[float, ...] | None
    R1: tuple[float, ...] | None
    paths: int
    seed: int
    tau_max: int
    omega_points: int
    tol: float
    out: str


def _parse_float_list(text: str, key: str) -> tuple[float, ...]:
    try:
        items = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated float list, got {text!r}")
    if not items:
        raise ConfigError(f"{key} must list at least one value, got {text!r}")
    return items


def _parse_scalar(text: str, key: str, kind):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} must be a {kind.__name__}, got {text!r}")


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; unknown keys are rejected."""
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value
    return pairs


def build_config(command: str, args: argparse.Namespace) -> RunConfig:
    """Merge config file and flags (flags win), validate, materialize."""
    raw = read_config_file(args.config) if args.config else {}

    def pick(key: str, flag_value):
        return flag_value if flag_value is not None else raw.get(key)

    H = pick("H", args.H)
    alpha = pick("alpha", args.alpha)
    T = pick("T", args.T)
    s_text = args.s if args.s is not None else raw.get("s")

    H = 1.0 if H is None else _parse_scalar(str(H), "H", float)
    alpha = 2.0 if alpha is None else _parse_scalar(str(alpha), "alpha", float)
    T = 1 if T is None else _parse_scalar(str(T), "T", int)
    s = (1.0, 1.5) if s_text is None else _parse_float_list(str(s_text), "s")

    q = None
    if "q" in raw:
        q = _parse_scalar(raw["q"], "q", int)
        if q != len(s):
            raise ConfigError(f"q = {q} does not match the {len(s)} offsets in s")
    scheme = validate_scheme(H=H, alpha=alpha, T=T, s=s, q=q)

    R0 = R1 = None
    if "R0" in raw or "R1" in raw:
        if command in ("simulate", "verify"):
            raise ConfigError(
                f"{command} is tied to the reference process; R0/R1 overrides "
                "apply to covariance, spectrum and invert only"
            )
        if not ("R0" in raw and "R1" in raw):
            raise ConfigError("R0 and R1 must be given together")
        R0 = _parse_float_list(raw["R0"], "R0")
        R1 = _parse_float_list(raw["R1"], "R1")
        if len(R0) != scheme.q or len(R1) != scheme.q:
            raise ConfigError(
                f"R0 and R1 must each have q = {scheme.q} entries, "
                f"got {len(R0)} and {len(R1)}"
            )

    paths = pick("paths", args.paths)
    seed = pick("seed", args.seed)
    tau_max = pick("tau_max", getattr(args, "tau_max", None))
    omega_points = pick("omega_points", getattr(args, "omega_points", None))
    tol = pick("tol", getattr(args, "tol", None))
    out = pick("out", args.out)

    paths = 20000 if paths is None else _parse_scalar(str(paths), "paths", int)
    seed = 42 if seed is None else _parse_scalar(str(seed), "seed", int)
    tau_max = 4 if tau_max is None else _parse_scalar(str(tau_max), "tau_max", int)
    omega_points = (
        256 if omega_points is None else _parse_scalar(str(omega_points), "omega_points", int)
    )
    tol = 1e-10 if tol is None else _parse_scalar(str(tol), "tol", float)
    out = _DEFAULT_OUT[command] if out is None else str(out)

    if paths < 1:
        raise ConfigError(f"paths must be >= 1, got {paths}")
    if tau_max < 0:
        raise ConfigError(f"tau_max must be >= 0, got {tau_max}")
    if omega_points < 2:
        raise ConfigError(f"omega_points must be >= 2, got {omega_points}")
    if tol <= 0:
        raise ConfigError(f"tol must be > 0, got {tol}")
    if not (0 <= seed < 2 ** 64):
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")

    return RunConfig(
        command=command,
        scheme=scheme,
        R0=R0,
        R1=R1,
        paths=paths,
        seed=seed,
        tau_max=tau_max,
        omega_points=omega_points,
        tol=tol,
        out=out,
    )


def _build_model(cfg: RunConfig) -> MarkovCovarianceModel:
    if cfg.R0 is not None:
        return MarkovCovarianceModel(
            scheme=cfg.scheme, R0=np.array(cfg.R0), R1=np.array(cfg.R1)
        )
    return model_from_sbm(cfg.scheme)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_blocks(row_format, keys, flat, lo: int, hi: int):
    """Yield the encoded rows of blocks lo..hi-1, about _CHUNK_VALUES values at a time.

    Each key is formatted once per block, not once per row.
    """
    step = max(1, _CHUNK_VALUES // flat.shape[1])
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        yield "".join([
            row_format(key, *block)
            for key, block in zip(map(repr, keys[start:stop]), flat[start:stop].tolist())
        ]).encode()


def _fork_part(chunks, open_pipes: list[BinaryIO]) -> tuple[int, BinaryIO]:
    """Fork a worker that writes ``chunks`` to a pipe; return (pid, read end).

    The worker holds its whole part in memory, because the parent reads the
    pipe only after its own part, and ends with ``os._exit``: it never
    returns into the caller, runs no ``atexit`` hooks and flushes no stdio.
    It formats Python objects only, so no lock held by another thread of
    the parent (numpy's BLAS pool, say) is ever taken in the worker.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        # the worker must not outlive this block, whatever it raises
        status = 1
        try:
            os.close(r)
            for pipe in open_pipes:
                pipe.close()
            part = list(chunks)
            with open(w, "wb") as pipe:
                pipe.writelines(part)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _write_blocks(path: str, header: str, keys, prefixes: list[str], values) -> int:
    """Write one block of rows per key to a CSV table; return the row count.

    Row r of block b is ``repr(keys[b])``, then ``prefixes[r]`` (its fields
    with their leading commas), then ``values[b, r, ...]`` flattened.  One
    ``str.format`` template per table bakes the prefixes in; ``{0}`` is the
    block key and each value slot is ``{i!r}``, the shortest round-trip float.

    The blocks are cut into contiguous parts, one per usable CPU with at
    least _MIN_PART_VALUES values each, so smaller tables stay in-process.
    This process streams part 0 to the file while one forked worker per
    other part formats it with the same template into a pipe; the pipes are
    then copied into the file in part order.  The bytes written do not
    depend on the CPU count.  A worker that fails, or a failed write here,
    raises OSError once every worker has been reaped.
    """
    n_blocks, rows = len(values), len(prefixes)
    flat = values.reshape(n_blocks, -1)
    width = flat.shape[1] // rows
    row_format = "".join(
        f"{{0}}{prefix}" + "".join(f",{{{1 + r * width + c}!r}}" for c in range(width)) + "\n"
        for r, prefix in enumerate(prefixes)
    ).format
    n_parts = max(1, min(_usable_cpus(), n_blocks, values.size // _MIN_PART_VALUES))
    bounds = [n_blocks * i // n_parts for i in range(n_parts + 1)]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        workers: list[tuple[int, BinaryIO]] = []
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                chunks = _format_blocks(row_format, keys, flat, lo, hi)
                workers.append(_fork_part(chunks, [pipe for _, pipe in workers]))
            fh.writelines(_format_blocks(row_format, keys, flat, 0, bounds[1]))
            for _, pipe in workers:
                shutil.copyfileobj(pipe, fh)
        finally:
            # closing every pipe first lets a worker blocked on a full pipe exit
            for _, pipe in workers:
                pipe.close()
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
    failed = [code for code in codes if code]
    if failed:
        raise OSError(f"{len(failed)} of {len(codes)} CSV workers failed (exit codes {failed})")
    return n_blocks * rows


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _uv_prefixes(q: int) -> list[str]:
    return [f",{u},{v}" for u in range(q) for v in range(q)]


def _uniform_grid(M: int) -> np.ndarray:
    return np.arange(M) * (2.0 * math.pi / M)


def _simulate(cfg: RunConfig) -> PathEnsemble:
    # flat indices 0..(tau_max + 1)*q - 1, and at least 0..q for estimate_R
    q = cfg.scheme.q
    kappa_max = max(q, (cfg.tau_max + 1) * q - 1)
    return simulate_paths(cfg.scheme, (0, kappa_max), cfg.paths, cfg.seed)


def cmd_simulate(cfg: RunConfig) -> int:
    q = cfg.scheme.q
    ensemble = _simulate(cfg)
    # one block per path; kappa, n, u and time are the same in every block
    prefixes = [
        f",{kappa},{kappa // q},{kappa % q},{t!r}"
        for kappa, t in enumerate(ensemble.times.tolist())
    ]
    header = "path_id,kappa,n,u,time,value"
    _write_blocks(cfg.out, header, range(cfg.paths), prefixes, ensemble.paths)
    print(f"wrote {cfg.paths} paths x {ensemble.times.size} samples to {cfg.out}")
    return 0


def cmd_covariance(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    taus = range(cfg.tau_max + 1)
    mats = np.stack([covariance_V(model, 0, tau).matrix for tau in taus])
    rows = _write_blocks(cfg.out, "tau,u,v,value", taus, _uv_prefixes(cfg.scheme.q), mats)
    print(f"wrote {rows} covariance entries to {cfg.out}")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    ev = spectral_markov(model, _uniform_grid(cfg.omega_points))
    rows = _write_blocks(
        cfg.out, "omega,u,v,re,im", ev.omegas.tolist(),
        _uv_prefixes(cfg.scheme.q), np.stack([ev.matrices.real, ev.matrices.imag], -1),
    )
    print(f"wrote {rows} density entries to {cfg.out}")
    return 0


def cmd_invert(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    ev = spectral_markov(model, _uniform_grid(cfg.omega_points))
    rec = invert_spectrum(ev, cfg.scheme, list(range(cfg.tau_max + 1)))
    residue = np.full_like(rec.matrices, rec.imag_residue)
    rows = _write_blocks(
        cfg.out, "tau,u,v,value,imag_residue", rec.taus,
        _uv_prefixes(cfg.scheme.q), np.stack([rec.matrices, residue], -1),
    )
    print(f"wrote {rows} recovered entries to {cfg.out}")
    return 0


@dataclass
class _Check:
    name: str
    observed: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.observed - self.expected) <= self.tolerance


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _verify_checks(cfg: RunConfig):
    checks: list[_Check] = []
    scheme = cfg.scheme

    # factorized covariance against the exact reference closed form
    for h in (0.5, 0.75, 1.0):
        sch = replace(scheme, H=h)
        model = model_from_sbm(sch)
        worst = 0.0
        for kappa in range(11):
            for tau in range(13):
                got = covariance_W(model, kappa, tau)
                want = sbm_covariance_exact(sch, kappa + tau, kappa)
                worst = max(worst, _rel_err(got, want))
        checks.append(_Check(f"flat_covariance_vs_exact_H{h}", worst, 0.0, 1e-10))

    # block matrices: assembly identity and the scale ladder
    model = model_from_sbm(scheme)
    worst_asm = 0.0
    worst_ladder = 0.0
    a2 = scheme.alpha ** (2 * scheme.T * scheme.H)
    for n in range(-2, 3):
        for tau in range(7):
            mat = covariance_V(model, n, tau).matrix
            base = covariance_V(model, 0, tau).matrix
            for u in range(scheme.q):
                for v in range(scheme.q):
                    assembled = a2 ** n * covariance_W(
                        model, v, tau * scheme.q + u - v
                    )
                    worst_asm = max(worst_asm, _rel_err(mat[u, v], assembled))
                    worst_ladder = max(
                        worst_ladder, _rel_err(mat[u, v], a2 ** n * base[u, v])
                    )
    checks.append(_Check("block_matrix_assembly", worst_asm, 0.0, 1e-12))
    checks.append(_Check("block_scale_ladder", worst_ladder, 0.0, 1e-12))

    # geometric series against the closed form
    omegas = _uniform_grid(cfg.omega_points)
    closed = spectral_markov(model, omegas)
    series = spectral_series(
        markov_covfn(model),
        scheme,
        omegas,
        tol=min(cfg.tol, 1e-10),
        tail_ratio=model.stability_ratio,
    )
    diff = float(np.max(np.abs(closed.matrices - series.matrices)))
    checks.append(_Check("series_vs_closed_form", diff, 0.0, 1e-8))

    # reference-process specialization of the closed form
    ref = spectral_sbm(scheme, omegas)
    diff = float(np.max(np.abs(ref.matrices - closed.matrices)))
    checks.append(_Check("reference_specialization", diff, 0.0, 1e-12))

    # Hermitian residue across all three density evaluations
    herm = max(e.hermitian_defect() for e in (closed, series, ref))
    checks.append(_Check("hermitian_defect", herm, 0.0, 1e-10))

    # frequency-domain inversion recovers the covariance
    fine = spectral_markov(model, _uniform_grid(_VERIFY_INVERT_M))
    taus = list(range(5))
    rec = invert_spectrum(fine, scheme, taus)
    worst = 0.0
    for i, tau in enumerate(taus):
        want = covariance_V(model, 0, tau).matrix
        worst = max(worst, float(np.max(np.abs(rec.matrices[i] - want) / np.abs(want))))
    checks.append(_Check("inversion_roundtrip", worst, 0.0, 1e-6))
    checks.append(_Check("inversion_imag_residue", rec.imag_residue, 0.0, 1e-8))

    # frame change round trip on a deterministic grid
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    grid = StationaryGrid(
        times=np.linspace(-3.0, 3.0, 41), values=rng.standard_normal(41)
    )
    back = inverse_quasi_lamperti(
        quasi_lamperti(grid, scheme.H, scheme.alpha), scheme.H, scheme.alpha
    )
    rt = max(
        float(np.max(np.abs(back.times - grid.times))),
        float(np.max(np.abs(back.values - grid.values))),
    )
    checks.append(_Check("frame_roundtrip", rt, 0.0, 1e-12))

    # Monte Carlo moments within three standard errors
    q = scheme.q
    ensemble = _simulate(cfg)
    r0_hat, r1_hat = estimate_R(ensemble)
    worst_z = 0.0
    estimates_rows: list[str] = []
    for j in range(q):
        for lag, est in ((0, r0_hat[j]), (1, r1_hat[j])):
            analytic = covariance_W(model, j, lag)
            z = (est.value - analytic) / est.std_error
            worst_z = max(worst_z, abs(z))
            estimates_rows.append(f"{j},{lag},{est.value!r},{est.std_error!r},{analytic!r},{z!r}")
    checks.append(_Check("monte_carlo_moments_zmax", worst_z, 0.0, 3.0))

    return checks, estimates_rows


def _estimates_path(report_path: str) -> str:
    stem, dot, ext = report_path.rpartition(".")
    if not dot:
        return report_path + "_estimates"
    return f"{stem}_estimates.{ext}"


def cmd_verify(cfg: RunConfig) -> int:
    checks, estimates_rows = _verify_checks(cfg)
    lines = ["check_name,status,observed,expected,tolerance"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name},{status},{float(c.observed)!r},{c.expected!r},{c.tolerance!r}")
        print(f"{status:4s} {c.name}: observed {c.observed:.3e} (tol {c.tolerance:.1e})")
    _write_lines(cfg.out, lines)
    est_path = _estimates_path(cfg.out)
    _write_lines(est_path, ["j_or_uv,lag,estimate,std_error,analytic,z_score"] + estimates_rows)
    n_fail = sum(not c.passed for c in checks)
    print(f"report: {cfg.out}; estimates: {est_path}")
    if n_fail:
        print(f"{n_fail} of {len(checks)} checks FAILED")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--seed", type=int, help="ensemble seed (64-bit unsigned)")
    sub.add_argument("--alpha", type=float, help="scale base, > 1")
    sub.add_argument("--T", type=int, help="cycle width, integer >= 1")
    sub.add_argument("--H", type=float, help="self-similarity index, > 0")
    sub.add_argument("--s", help="comma-separated offsets, e.g. 1,1.5")
    sub.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    sub.add_argument("--tau-max", dest="tau_max", type=int, help="largest block lag")
    sub.add_argument(
        "--omega-points", dest="omega_points", type=int, help="frequency grid size"
    )
    sub.add_argument("--tol", type=float, help="series truncation tolerance")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsi-lab",
        description="covariance and spectral toolkit for discretely "
        "scale-invariant processes on geometric sampling grids",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "draw reference-process paths and write the ensemble CSV",
        "covariance": "write block covariance matrices as CSV",
        "spectrum": "write the spectral density matrix on a uniform grid",
        "invert": "recover covariances from the density and write them",
        "verify": "run the cross-check suite and write a report",
    }
    for name in _COMMANDS:
        _add_common_flags(subs.add_parser(name, help=helps[name]))
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "covariance": cmd_covariance,
    "spectrum": cmd_spectrum,
    "invert": cmd_invert,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args.command, args)
        return _DISPATCH[args.command](cfg)
    except ModelUnstable as exc:
        print(f"error: ModelUnstable: {exc}", file=sys.stderr)
        return 3
    except DsiLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
