"""Command line front end.

One parser: a positional command, one of the ``cmd_*`` functions of
``_DISPATCH``, and one flat configuration surface whose flags may come
before or after it (``dsi-lab --help`` lists the commands):

- ``simulate``: draw reference-process paths, write the ensemble as CSV.
- ``covariance``: write block covariance matrices Q(0, tau) as CSV.
- ``spectrum``: write the density matrix on a uniform frequency grid.
- ``invert``: recover covariances from the density, write them as CSV.
- ``verify``: run the full cross-check suite and write a pass/fail report;
  its series tolerance is fixed at 1e-10.

Every setting is one row of ``_SETTINGS``: parser, default and flag help.
A value comes from an optional ``key=value`` file (one pair per line, ``#``
comments allowed) or from its flag, which wins; ``R0`` and ``R1`` have
no flag.  Each value is parsed once, and a malformed one from either
place is a ConfigError.  Every table, ``verify``'s report and estimates
included, is formatted block by block (one block per path, tau, omega,
check or offset) by one formatter: the rows of a chunk are one uint8
matrix of key, prefix, comma, value and newline bytes, written with its NUL
padding dropped.  Each key and each value is converted to text once; a
float, float keys included, by the array kernel of ``_floattext``, whose
bytes are those of ``repr``: the shortest text that reads back as the same
double, and a range of integer keys by one digit pass.  A large table is
split into contiguous parts of blocks, one per CPU the process may use,
and ``_in_parts`` runs them: this process runs the first part while one
forked worker per other part writes it into a pipe, and the pipes are
read in part order, so the output bytes do not depend on the CPU count.
``verify``'s parts are its random half (the frame round trip and the
Monte Carlo estimates), run here, and its spectral half (closed forms,
series, reference density and inversion), whose checks a worker sends
back pickled; on one CPU one part runs both here, with the same bytes and
the same errors.  The simulator draws each block of 4096 paths from one
counter-based stream keyed by (seed, block), so repeated runs of one
configuration produce byte-identical files.

Fork safety: the ``dsi-lab`` console script (``dsi_lab.main``) starts
numpy with one BLAS thread unless ``OPENBLAS_NUM_THREADS`` is set, so its
forks come from a single-threaded process.  Forks stay safe for callers of
``main`` whose numpy runs BLAS threads (the tests, a benchmark) because a
worker makes no BLAS call: it formats text or computes elementwise
forms, reductions and one ``numpy.fft`` (pocketfft) transform, so it never
takes a lock a BLAS thread of the parent may hold.

Worker placement: a worker starts on a usable CPU other than the one this
process runs on, one CPU per worker while they last, and may then run on
any CPU this process may use.  Linux forks a child onto its parent's CPU
and leaves it there where no scheduler domain balances the CPUs (a cpuset
with ``sched_load_balance`` 0, as in some containers).  There an unplaced
worker shared one CPU with this process, and the two parts took about as
long as the whole table in one process.  A worker stays where the kernel
put it where the C library has no ``sched_getcpu`` or the move fails.

Idle BLAS workers: where this module is what loads numpy (the console
script, ``python -m dsi_lab.cli``, a driver that imports it first), it
defaults ``OPENBLAS_THREAD_TIMEOUT`` to 4, the least exponent OpenBLAS
accepts, before that import.  No command gives BLAS a job, and an idle
worker then sleeps after 2**4 cycles instead of spinning for about 2**28,
which cost about 0.1 s of CPU per command on a 2-vCPU host.  The thread
count stays the user's or numpy's, a user's ``OPENBLAS_THREAD_TIMEOUT``
wins, and a process that loaded numpy first keeps its environment.  A
sleeping worker holds no lock, so forks are at least as safe as before.

Freed heap: before a command runs, ``main`` sets two of glibc's
``mallopt`` thresholds, ``M_MMAP_THRESHOLD`` to 32 MiB (the ceiling of
glibc's own dynamic threshold on 64-bit hosts) and ``M_TRIM_THRESHOLD`` to
64 MiB (twice that, glibc's dynamic rule).  With the dynamic thresholds,
each chunk's temporaries in ``_floattext.text`` went back to the kernel
when freed and were faulted in again on the next chunk, about 1,600 page
faults per 16,384 values; the command and the CSV and ``verify`` workers
it forks now reuse their freed heap.  Nothing is set where ``mallopt`` does not
exist (a C library other than glibc may accept and ignore it) or where
the user set ``MALLOC_TRIM_THRESHOLD_``, ``MALLOC_MMAP_THRESHOLD_`` or
``GLIBC_TUNABLES``, whose setting wins.  A program that calls ``main``
keeps these thresholds for the rest of its process.  The output bytes do
not depend on them.

Frozen start-up heap: ``main`` first moves every object the cyclic garbage
collector tracks, the roughly 21,000 that start-up left (``site``, numpy
and this package), into its permanent generation with ``gc.freeze()``.
No later collection walks them: not the full collections the interpreter
runs when it finalizes, which took about 15 ms of every command's exit,
and not a collection in a forked CSV or ``verify`` worker, which would
write to pages the worker shares with this process.  This happens once
per process: a later call of ``main``, or a host program that froze its
own heap first, freezes nothing more.  A program that calls ``main`` keeps
these objects out of the cyclic collector for the rest of its process.
The output bytes do not depend on it.

Exit codes: 0 success (verify: all checks passed), 1 verify check failed,
2 configuration or domain error, 3 unstable model, 4 I/O failure, a stdout
that cannot be flushed (a closed pipe) included, or an allocation that
fails (``simulate --paths 100000000000``, say).
"""

from __future__ import annotations

import argparse
import gc
import os
import pickle
import stat
import sys
from contextlib import closing, nullcontext, suppress
from dataclasses import replace
from itertools import chain
from typing import BinaryIO, NamedTuple

# see "Idle BLAS workers" above
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

from . import _floattext
from .core import SamplingScheme, powers
from .errors import ConfigError, DsiLabError, ModelUnstable
from .lamperti import StationaryGrid, inverse_quasi_lamperti, quasi_lamperti
from .markov_cov import (
    MarkovCovarianceModel,
    covariance_V,
    covariance_W,
    model_from_sbm,
)
from .sbm_sim import PathEnsemble, estimate_R, sbm_covariance_exact, simulate_paths
from .spectral import (
    _uniform_grid, invert_spectrum, markov_covfn, spectral_markov, spectral_sbm, spectral_series,
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
# values formatted per bytes object handed to the file or pipe; this sizes
# the kernel's arrays and the row matrix of one chunk, not the peak memory,
# which the table's values and a worker's whole part (see _fork_part) set
_CHUNK_VALUES = 16_384
# glibc's mallopt parameters and the environment that overrides them; see
# "Freed heap" above
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_ENVIRONMENT = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")


def _floats(text: str) -> tuple[float, ...]:
    # empty items are skipped, so "1,1.5," lists two values
    return tuple(float(part) for part in text.split(",") if part.strip() != "")


# what a malformed value of each parser is named as in its ConfigError
_KINDS = {int: "an integer", float: "a float", _floats: "a comma-separated float list"}

# key: (parser, default, flag help); a help of None marks a key that only a
# config file can set.  The flag of a key is --<key> with - for _.
_SETTINGS = {
    "H": (float, 1.0, "self-similarity index, > 0"),
    "alpha": (float, 2.0, "scale base, > 1"),
    "T": (int, 1, "cycle width, integer >= 1"),
    "s": (_floats, (1.0, 1.5), "comma-separated offsets, e.g. 1,1.5"),
    "R0": (_floats, None, None),
    "R1": (_floats, None, None),
    "paths": (int, 20000, "number of Monte Carlo paths"),
    "seed": (int, 42, "ensemble seed (64-bit unsigned)"),
    "tau_max": (int, 4, "largest block lag"),
    "omega_points": (int, 256, "frequency grid size"),
    "out": (str, None, "output file path"),
}


class RunConfig(NamedTuple):
    """Materialized run configuration: one validated scheme plus knobs."""

    scheme: SamplingScheme
    R0: tuple[float, ...] | None
    R1: tuple[float, ...] | None
    paths: int
    seed: int
    tau_max: int
    omega_points: int
    out: str


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})")
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def build_config(command: str, args: argparse.Namespace) -> RunConfig:
    """Merge config file and flags (flags win), parse each value once, validate."""
    texts = read_config_file(args.config) if args.config else {}
    texts.update(
        (key, text) for key, text in vars(args).items() if key in _SETTINGS and text is not None
    )
    values = {}
    for key, (parse, default, _) in _SETTINGS.items():
        text = texts.get(key)
        try:
            values[key] = default if text is None else parse(text)
        except ValueError:
            raise ConfigError(f"{key} must be {_KINDS[parse]}, got {text!r}")
        if values[key] == ():
            raise ConfigError(f"{key} must list at least one value, got {text!r}")

    scheme = SamplingScheme(**{key: values.pop(key) for key in ("H", "alpha", "T", "s")})

    R0, R1 = values["R0"], values["R1"]
    if R0 is not None or R1 is not None:
        if command in ("simulate", "verify"):
            raise ConfigError(
                f"{command} is tied to the reference process; R0/R1 overrides "
                "apply to covariance, spectrum and invert only"
            )
        if R0 is None or R1 is None:
            raise ConfigError("R0 and R1 must be given together")

    if values["paths"] < 1:
        raise ConfigError(f"paths must be >= 1, got {values['paths']}")
    if values["tau_max"] < 0:
        raise ConfigError(f"tau_max must be >= 0, got {values['tau_max']}")
    if values["omega_points"] < 2:
        raise ConfigError(f"omega_points must be >= 2, got {values['omega_points']}")
    # one complex q x q matrix per frequency, or per lag 0..tau_max, in one array
    largest = np.iinfo(np.intp).max // (16 * scheme.q ** 2)
    for key, extra in (("omega_points", 0), ("tau_max", 1)):
        if values[key] + extra > largest:
            raise ConfigError(
                f"{key} = {values[key]} needs an array past the largest numpy can index"
            )
    if not (0 <= values["seed"] < 2 ** 64):
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {values['seed']}")
    if values["out"] is None:
        values["out"] = _DEFAULT_OUT[command]
    return RunConfig(scheme=scheme, **values)


def _build_model(cfg: RunConfig) -> MarkovCovarianceModel:
    if cfg.R0 is not None:
        return MarkovCovarianceModel(scheme=cfg.scheme, R0=cfg.R0, R1=cfg.R1)
    return model_from_sbm(cfg.scheme)


def _keep_freed_heap() -> None:
    """Set glibc's fixed heap thresholds, unless the user set their own."""
    if os.name != "posix" or any(name in os.environ for name in _MALLOC_ENVIRONMENT):
        return
    # numpy has already imported ctypes
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_cpus(n: int) -> list[int | None]:
    """CPUs to start ``n`` forked workers on, None where none is left.

    See "Worker placement" above.
    """
    here = -1
    if n and hasattr(os, "sched_setaffinity"):
        # numpy has already imported ctypes
        import ctypes

        getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
        here = -1 if getcpu is None else getcpu()
    others = sorted(os.sched_getaffinity(0) - {here}) if here >= 0 else []
    return (others + [None] * n)[:n]


def _key_text(keys, lo: int, hi: int) -> np.ndarray:
    """The ``str`` of each of ``keys[lo:hi]`` as one NUL-padded uint8 row.

    A ``range`` of keys (path ids, lags, offsets) is written by one digit
    pass over a uint64 array, last digit first, its digits right-aligned
    after NUL; this needs step 1 and keys in [0, 2**64), which holds as
    every caller passes ``range(n)`` with n a count of paths, lags or
    estimates.  Any other key goes through ``str``.
    """
    part = keys[lo:hi]
    if not isinstance(part, range):
        text = np.array([str(key).encode() for key in part])
        return text.view(np.uint8).reshape(len(part), -1)
    number = np.arange(len(part), dtype=np.uint64) + np.uint64(part.start)
    ten = np.uint64(10)
    text = np.zeros((len(part), len(str(part.stop - 1))), dtype=np.uint8)
    text[:, -1] = number % ten + ord("0")
    for column in range(text.shape[1] - 2, -1, -1):
        number //= ten
        text[:, column] = (number % ten + ord("0")) * (number != 0)
    return text


def _format_blocks(keys, prefixes: list[str], flat, lo: int, hi: int):
    """Yield the encoded rows of blocks lo..hi-1, about _CHUNK_VALUES values at a time.

    Row r of a block is its key, ``prefixes[r]``, a comma before each of its
    values, then a newline.  A chunk is one uint8 matrix of such rows, each
    field in a slot as wide as its widest text and padded with NUL, and is
    written with the NUL bytes dropped; no key, prefix or value holds one.
    Values and float64-array keys go through ``_floattext.text``, chunk by
    chunk; other keys go through ``_key_text``, all at once.  The constant
    bytes are filled in once per call.
    """
    rows = len(prefixes)
    width = flat.shape[1] // rows
    step = max(1, _CHUNK_VALUES // flat.shape[1])
    float_keys = isinstance(keys, np.ndarray) and keys.dtype == np.float64
    if not float_keys:
        key_text = _key_text(keys, lo, hi)
    key_end = _floattext.WIDTH if float_keys else key_text.shape[1]
    prefix_text = np.array([prefix.encode() for prefix in prefixes])
    values_start = key_end + prefix_text.itemsize
    row_bytes = values_start + width * (1 + _floattext.WIDTH) + 1
    matrix = np.zeros((min(step, hi - lo), rows, row_bytes), dtype=np.uint8)
    matrix[:, :, key_end:values_start] = prefix_text.view(np.uint8).reshape(rows, -1)
    values = matrix[:, :, values_start:-1].reshape(len(matrix), rows, width, -1)
    values[..., 0] = ord(",")
    matrix[:, :, -1] = ord("\n")
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        chunk = matrix[: stop - start]
        chunk[:, :, :key_end] = (
            _floattext.text(keys[start:stop]) if float_keys else key_text[start - lo : stop - lo]
        )[:, None]
        values[: stop - start, ..., 1:] = _floattext.text(flat[start:stop]).reshape(
            stop - start, rows, width, -1
        )
        yield chunk[chunk != 0].tobytes()


def _fork_part(chunks, open_pipes: list[BinaryIO], cpu: int | None) -> tuple[int, BinaryIO]:
    """Fork a worker that writes ``chunks`` to a pipe; return (pid, read end).

    ``chunks``, a part of ``_in_parts`` (an iterable of bytes), runs in the
    worker, which first moves to ``cpu`` unless it is None and closes
    ``open_pipes``, the earlier workers' read ends.  It holds its whole
    output in memory, because the parent reads the pipe only after the
    parts before it, and ends with ``os._exit``: it never returns into the
    caller, runs no ``atexit`` hooks and flushes no stdio.  Why the fork is
    safe is stated once, under "Fork safety" in this module's docstring.
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
            if cpu is not None:
                allowed = os.sched_getaffinity(0)
                # the first call moves this process, the second frees it
                with suppress(OSError):
                    os.sched_setaffinity(0, {cpu})
                    os.sched_setaffinity(0, allowed)
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


def _in_parts(what: str, parts):
    """Yield the bytes of every iterable of bytes in ``parts``, in order.

    Part 0 runs here as it is read; each other part runs in a ``_fork_part``
    worker on one of ``_worker_cpus``, whose pipe is read in 64 KiB pieces
    after the parts before it.  At the end every pipe is closed, which frees
    a worker blocked on a full one, and every worker is reaped.  If part 0
    or the reader (closing this early) raised, the workers are killed first;
    otherwise a nonzero exit raises OSError.
    """
    first, *rest = parts
    workers: list[tuple[int, BinaryIO]] = []
    try:
        for part, cpu in zip(rest, _worker_cpus(len(rest))):
            workers.append(_fork_part(part, [pipe for _, pipe in workers], cpu))
        yield from first
        for _, pipe in workers:
            while piece := pipe.read(1 << 16):
                yield piece
    except BaseException:
        # imported here: its import costs about 1 ms that every run would pay
        import signal

        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe in workers:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
    failed = [code for code in codes if code]
    if failed:
        raise OSError(f"{len(failed)} of {len(codes)} {what} workers failed (exit codes {failed})")


def _write_blocks(fh: BinaryIO, header: str, keys, prefixes: list[str], values) -> int:
    """Write a CSV table, one block of rows per key, to ``fh``; return the row count.

    Row r of block b is the text of ``keys[b]`` (its ``repr`` if ``keys`` is
    a float64 array, else its ``str``, see ``_key_text``), then
    ``prefixes[r]`` (its fields with their leading commas), then
    ``values[b, r, ...]`` flattened, each value a comma and its ``repr``,
    the shortest round-trip float.  The rows are laid out in byte matrices
    by ``_format_blocks``.

    The blocks are cut into contiguous parts, one per usable CPU with at
    least _MIN_PART_VALUES values each, so smaller tables stay in-process.
    ``_in_parts`` runs the parts, part 0 here and each other on a forked
    worker, with the same formatter; the bytes written do not depend on the
    CPU count.  A worker that fails, or a failed write here, raises OSError
    once every worker has been reaped.
    """
    n_blocks, rows = len(values), len(prefixes)
    flat = values.reshape(n_blocks, -1)
    n_parts = max(1, min(_usable_cpus(), n_blocks, values.size // _MIN_PART_VALUES))
    bounds = [n_blocks * i // n_parts for i in range(n_parts + 1)]
    parts = [_format_blocks(keys, prefixes, flat, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    fh.write(header.encode() + b"\n")
    with closing(_in_parts("CSV", parts)) as chunks:
        fh.writelines(chunks)
    return n_blocks * rows


def _uv_prefixes(q: int) -> list[str]:
    return [f",{u},{v}" for u in range(q) for v in range(q)]


def _simulate(cfg: RunConfig) -> PathEnsemble:
    # flat indices 0..(tau_max + 1)*q - 1, and at least 0..q for estimate_R
    q = cfg.scheme.q
    kappa_max = max(q, (cfg.tau_max + 1) * q - 1)
    return simulate_paths(cfg.scheme, (0, kappa_max), cfg.paths, cfg.seed)


def cmd_simulate(cfg: RunConfig) -> int:
    """draw reference-process paths and write the ensemble CSV"""
    ensemble = _simulate(cfg)
    grid = ensemble.grid
    # one block per path; kappa, n, u and time are the same in every block
    prefixes = [
        f",{kappa},{n},{u},{t!r}"
        for kappa, n, u, t in zip(*(column.tolist() for column in grid))
    ]
    header = "path_id,kappa,n,u,time,value"
    with open(cfg.out, "wb") as fh:
        _write_blocks(fh, header, range(cfg.paths), prefixes, ensemble.paths)
    print(f"wrote {cfg.paths} paths x {grid.times.size} samples to {cfg.out}")
    return 0


def cmd_covariance(cfg: RunConfig) -> int:
    """write block covariance matrices as CSV"""
    model = _build_model(cfg)
    taus = range(cfg.tau_max + 1)
    mats = covariance_V(model, 0, taus)
    with open(cfg.out, "wb") as fh:
        rows = _write_blocks(fh, "tau,u,v,value", taus, _uv_prefixes(cfg.scheme.q), mats)
    print(f"wrote {rows} covariance entries to {cfg.out}")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    """write the spectral density matrix on a uniform grid"""
    model = _build_model(cfg)
    ev = spectral_markov(model, _uniform_grid(cfg.omega_points))
    with open(cfg.out, "wb") as fh:
        rows = _write_blocks(
            fh, "omega,u,v,re,im", ev.omegas, _uv_prefixes(cfg.scheme.q),
            ev.matrices.view(np.float64).reshape(cfg.omega_points, cfg.scheme.q ** 2, 2),
        )
    print(f"wrote {rows} density entries to {cfg.out}")
    return 0


def cmd_invert(cfg: RunConfig) -> int:
    """recover covariances from the density and write them"""
    model = _build_model(cfg)
    ev = spectral_markov(model, _uniform_grid(cfg.omega_points))
    rec = invert_spectrum(ev, cfg.scheme, list(range(cfg.tau_max + 1)))
    residue = np.full_like(rec.matrices, rec.imag_residue)
    with open(cfg.out, "wb") as fh:
        rows = _write_blocks(
            fh, "tau,u,v,value,imag_residue", rec.taus,
            _uv_prefixes(cfg.scheme.q), np.stack([rec.matrices, residue], -1),
        )
    print(f"wrote {rows} recovered entries to {cfg.out}")
    return 0


def _rel_err(got, want) -> np.ndarray:
    return np.abs(got - want) / np.maximum(np.abs(want), 1e-300)


def _verify_spectral(cfg: RunConfig) -> list[tuple[str, float, float]]:
    # (name, observed, tolerance): a check passes when |observed| <= tolerance
    checks: list[tuple[str, float, float]] = []
    scheme = cfg.scheme

    # factorized covariance against the exact reference closed form
    kappa, tau = np.ix_(range(11), range(13))
    for h in (0.5, 0.75, 1.0):
        sch = replace(scheme, H=h)
        got = covariance_W(model_from_sbm(sch), kappa, tau)
        want = sbm_covariance_exact(sch, kappa + tau, kappa)
        checks.append((f"flat_covariance_vs_exact_H{h}", _rel_err(got, want).max(), 1e-10))

    # block matrices: assembly identity and the scale ladder
    model = model_from_sbm(scheme)
    q = scheme.q
    n, tau = np.ix_(range(-2, 3), range(7))
    u, v = np.ix_(range(q), range(q))
    mats = covariance_V(model, n, tau)
    ladder = powers(scheme.alpha ** (2 * scheme.T * scheme.H), n)[..., None, None]
    assembled = ladder * covariance_W(model, v, tau[..., None, None] * q + u - v)
    base = covariance_V(model, 0, tau)
    checks.append(("block_matrix_assembly", _rel_err(mats, assembled).max(), 1e-12))
    checks.append(("block_scale_ladder", _rel_err(mats, ladder * base).max(), 1e-12))

    # geometric series against the closed form
    omegas = _uniform_grid(cfg.omega_points)
    closed = spectral_markov(model, omegas)
    series = spectral_series(
        markov_covfn(model), scheme, omegas, tol=1e-10, tail_ratio=model.stability_ratio
    )
    diff = float(np.max(np.abs(closed.matrices - series.matrices)))
    checks.append(("series_vs_closed_form", diff, 1e-8))

    # reference-process specialization of the closed form
    ref = spectral_sbm(scheme, omegas)
    diff = float(np.max(np.abs(ref.matrices - closed.matrices)))
    checks.append(("reference_specialization", diff, 1e-12))

    # Hermitian residue across all three density evaluations
    herm = max(e.hermitian_defect() for e in (closed, series, ref))
    checks.append(("hermitian_defect", herm, 1e-10))

    # frequency-domain inversion recovers the covariance
    fine = spectral_markov(model, _uniform_grid(_VERIFY_INVERT_M))
    taus = range(5)
    rec = invert_spectrum(fine, scheme, taus)
    want = covariance_V(model, 0, taus)
    worst = np.max(np.abs(rec.matrices - want) / np.abs(want))
    checks.append(("inversion_roundtrip", worst, 1e-6))
    checks.append(("inversion_imag_residue", rec.imag_residue, 1e-8))
    return checks


def _verify_random(cfg: RunConfig) -> tuple[list[tuple[str, float, float]], np.ndarray]:
    # the checks that draw random numbers, and the (q, 2, 4) estimates: per
    # offset j and lag, estimate, standard error, analytic value and z-score
    scheme = cfg.scheme

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

    # Monte Carlo moments against the analytic R_j(0), R_j(1), as (q, 2)
    # arrays of offset j by lag
    estimates = estimate_R(_simulate(cfg))
    value, std_error = (np.stack(field, axis=1) for field in zip(*estimates))
    analytic = covariance_W(model_from_sbm(scheme), np.arange(scheme.q)[:, None], (0, 1))
    z = (value - analytic) / std_error
    checks = [
        ("frame_roundtrip", rt, 1e-12),
        # Monte Carlo moments within three standard errors
        ("monte_carlo_moments_zmax", float(np.abs(z).max()), 3.0),
    ]
    return checks, np.stack([value, std_error, analytic, z], axis=-1)


def _pickled_spectral_half(cfg: RunConfig):
    # one pickle of _verify_spectral's checks or of the exception it raised,
    # the same bytes whether it runs in a worker or in this process
    try:
        result = _verify_spectral(cfg)
    except Exception as exc:
        result = exc
    yield pickle.dumps(result)


def _verify_checks(cfg: RunConfig):
    """The report's checks, in report order, and the estimates array.

    With more than one usable CPU the halves are two parts of ``_in_parts``:
    the random half runs here and sends no bytes, so its outcome stays an
    object, and a worker runs the spectral half.  On one CPU one part runs
    the spectral half, then the random half.  Errors keep that order: the
    spectral half's error wins, re-raised here with its class and message,
    then the random half's.  A worker that dies without sending its result
    raises OSError, as does one whose error cannot be pickled (on one CPU
    that pickling error propagates instead).
    """
    random_outcome = []

    def random_half():
        try:
            random_outcome.append(_verify_random(cfg))
        except Exception as exc:
            random_outcome.append(exc)
        yield from ()

    spectral = _pickled_spectral_half(cfg)
    parts = [random_half(), spectral] if _usable_cpus() > 1 else [chain(spectral, random_half())]
    checks = pickle.loads(b"".join(_in_parts("verify", parts)))
    for outcome in (checks, random_outcome[0]):
        if isinstance(outcome, Exception):
            raise outcome
    random_checks, estimates = random_outcome[0]
    return checks + random_checks, estimates


def _estimates_path(out: str) -> str:
    """Where ``verify`` writes its estimates, given its report path ``out``.

    A companion ``<stem>_estimates<ext>`` beside the report, unless ``out``
    exists and is not a regular file (a device or a FIFO, such as
    ``/dev/null``): then ``out`` itself, so no file is made beside it.
    """
    with suppress(OSError):
        if not stat.S_ISREG(os.stat(out).st_mode):
            return out
    stem, ext = os.path.splitext(out)
    return f"{stem}_estimates{ext}"


def cmd_verify(cfg: RunConfig) -> int:
    """run the cross-check suite and write a report"""
    checks, estimates = _verify_checks(cfg)
    keys = []
    n_fail = 0
    for name, observed, tolerance in checks:
        passed = abs(observed) <= tolerance
        n_fail += not passed
        status = "PASS" if passed else "FAIL"
        keys.append(f"{name},{status}")
        print(f"{status:4s} {name}: observed {observed:.3e} (tol {tolerance:.1e})")
    # one block per check, keyed by name and status, and one per offset j
    report = np.array([[[observed, 0.0, tolerance]] for _, observed, tolerance in checks])
    est_path = _estimates_path(cfg.out)
    est_header = "j_or_uv,lag,estimate,std_error,analytic,z_score"
    with open(cfg.out, "wb") as fh:
        _write_blocks(fh, "check_name,status,observed,expected,tolerance", keys, [""], report)
        # a shared target takes both tables through one open, so a FIFO's
        # reader sees no end of file between them
        with nullcontext(fh) if est_path == cfg.out else open(est_path, "wb") as est:
            _write_blocks(est, est_header, range(len(estimates)), [",0", ",1"], estimates)
    print(f"report: {cfg.out}; estimates: {est_path}")
    if n_fail:
        print(f"{n_fail} of {len(checks)} checks FAILED")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


_DISPATCH = {
    "simulate": cmd_simulate,
    "covariance": cmd_covariance,
    "spectrum": cmd_spectrum,
    "invert": cmd_invert,
    "verify": cmd_verify,
}


def make_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {name:<12}{cmd.__doc__}" for name, cmd in _DISPATCH.items())
    parser = argparse.ArgumentParser(
        prog="dsi-lab",
        description="covariance and spectral toolkit for discretely scale-invariant\n"
        "processes on geometric sampling grids",
        epilog="commands:" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_DISPATCH, help="one of the commands below")
    parser.add_argument("--config", help="key=value configuration file")
    for key, (_, _, flag_help) in _SETTINGS.items():
        if flag_help is not None:
            parser.add_argument("--" + key.replace("_", "-"), help=flag_help)
    return parser


def _flush_stdout() -> None:
    """Flush stdout, if any; where that fails (a closed pipe, say), point fd
    1 at ``os.devnull`` before raising, so that the interpreter's own flush
    at exit writes nowhere instead of failing again with exit code 120."""
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        raise


def main(argv: list[str] | None = None) -> int:
    # see "Frozen start-up heap" above
    if not gc.get_freeze_count():
        gc.freeze()
    args = make_parser().parse_args(argv)
    _keep_freed_heap()
    try:
        cfg = build_config(args.command, args)
        code = _DISPATCH[args.command](cfg)
        _flush_stdout()
        return code
    except ModelUnstable as exc:
        print(f"error: ModelUnstable: {exc}", file=sys.stderr)
        return 3
    except DsiLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
