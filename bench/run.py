"""dsi-lab benchmark: each operation is one fresh ``dsi-lab <command>`` process.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the children import ``dsi_lab``
from its ``src/``.  One untimed invocation warms the page cache and the
bytecode; then load is a closed loop with one client: invocations run one
after another from this process until ``--seconds`` have passed (at least
two).  Every output is checked by ``oracle.py`` outside the timed
interval, or found byte-identical to one that passed earlier in the run; a
nonzero exit code or a failed check counts as a failed invocation.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the run's samples:

- ``run_s``: spawn to exit, what the user waits for;
- ``cmd_s``: ``dsi_lab.cli.main(argv)`` inside the child, until it returns
  with the CSV closed;
- ``setup_s``: spawn until ``dsi_lab.cli`` is imported;
- ``cpu_s``: user + system CPU of the child;
- ``peak_rss_mb``: peak resident memory of the child.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics (see spans.py) as medians over the traced ones, with
``trace.overhead_s`` = traced ``cmd_s`` - untraced ``cmd_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable report goes to stderr and the full
run record (machine, versions, thread environment, every sample, output
digests) to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

MIN_INVOCATIONS = 2
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = (
    "DSI_LAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
# work counts derived from arguments, results and file sizes, not timed
COMPUTED = (*spans.COUNT_NAMES, "cli.rows_written", "cli.bytes_written")


@dataclass(frozen=True)
class Workload:
    """One CLI command line; ``oracle.check_<name>`` judges its output."""

    name: str
    command: str
    params: dict = field(default_factory=dict)
    seeded: bool = False

    @property
    def outputs(self) -> list[Path]:
        out = WORK / f"{self.name}.csv"
        if self.command == "verify":
            return [out, WORK / f"{self.name}_estimates.csv"]
        return [out]

    def argv(self, seed: int) -> list[str]:
        args = [self.command]
        for key, value in self.params.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        if self.seeded:
            args += ["--seed", str(seed)]
        return args + ["--out", str(self.outputs[0])]


# Each invocation takes about a second or less, so that a run's medians rest
# on dozens of samples; the inversion kernel is timed only inside ``verify``.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble", "simulate", {"paths": 20000, "tau_max": 4}, seeded=True),
        Workload("spectrum", "spectrum", {"omega_points": 16384}),
        Workload("verify", "verify", seeded=True),
    )
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_oracle():
    """Import the output checks against the checkout's own ``src/dsi_lab``."""
    if not (SRC / "dsi_lab" / "cli.py").is_file():
        raise SystemExit(f"error: no dsi_lab source under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oracle

    if not Path(sys.modules["dsi_lab"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: dsi_lab was not imported from {SRC}")
    return oracle


def child_env() -> dict[str, str]:
    """Child environment: this checkout's ``src`` and every thread count at nproc."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, str(len(os.sched_getaffinity(0)))))
    return env


def spawn(mode: str, cli_args: list[str], env: dict[str, str]) -> dict:
    """Run one child process to completion and return its timings."""
    WORK.mkdir(parents=True, exist_ok=True)
    result_path = WORK / "child.json"
    result_path.unlink(missing_ok=True)
    with open(WORK / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(result_path), mode, *cli_args],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t_end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr_tail = err.read()[-400:].decode(errors="replace").strip()
    sample = {
        "mode": mode,
        "exit": proc.returncode,
        "run_s": t_end - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }
    if proc.returncode != 0 or not result_path.is_file():
        sample["reason"] = f"child exited with code {proc.returncode}: {stderr_tail}"
        return sample
    rec = json.loads(result_path.read_text())
    sample["setup_s"] = rec["ready"] - t0
    sample["rc"] = rec["rc"]
    sample["cmd_s"] = rec["return"] - rec["call"]
    if mode == "trace":
        sample["wrapped"] = rec["wrapped"]
        sample["spans"] = rec["spans"]
        sample["counts"] = rec["counts"]
    return sample


def judge(
    oracle, workload: Workload, sample: dict, baseline: dict[str, str], seed: int, passed: set[str]
) -> None:
    """Check, digest and delete an invocation's outputs; mark the sample ok or not.

    ``passed`` holds the digests of outputs that passed the oracle earlier in
    the run; a byte-identical output is correct without parsing it again.
    """
    files = workload.outputs
    present = all(f.is_file() for f in files)
    if present:
        digest = hashlib.sha256()
        sample["rows"] = sample["bytes"] = 0
        for f in files:
            data = f.read_bytes()
            digest.update(data)
            sample["rows"] += data.count(b"\n") - 1
            sample["bytes"] += len(data)
        sample["sha256"] = digest.hexdigest()
        key = f"{workload.name} seed={seed}" if workload.seeded else workload.name
        sample["baseline_match"] = (
            sample["sha256"] == baseline[key] if key in baseline else None
        )
    if "reason" not in sample:
        try:
            if not present:
                reason = "output file missing"
            elif sample["sha256"] in passed:
                reason = None
            else:
                reason = getattr(oracle, f"check_{workload.name}")(files, workload.params)
        except (ValueError, OSError, IndexError) as exc:
            reason = f"unreadable output: {exc}"
        if sample["rc"] != 0:
            reason = f"dsi-lab exited with code {sample['rc']}" + (f"; {reason}" if reason else "")
        if reason is not None:
            sample["reason"] = reason
    sample["ok"] = "reason" not in sample
    if sample["ok"]:
        passed.add(sample["sha256"])
    for f in files:
        f.unlink(missing_ok=True)


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed-loop run of one workload; returns its invocation samples."""
    oracle = load_oracle()
    baseline = json.loads((BENCH / "baseline_sha256.json").read_text())["outputs"]
    env = child_env()
    warm = spawn("run", workload.argv(seed), env)  # users rarely start cold
    for f in workload.outputs:
        f.unlink(missing_ok=True)
    if "reason" in warm:
        raise SystemExit(f"error: the child cannot start: {warm['reason']}")
    samples = []
    passed: set[str] = set()
    start = time.perf_counter()
    while len(samples) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        mode = "trace" if trace and len(samples) % 2 else "run"
        sample = spawn(mode, workload.argv(seed), env)
        judge(oracle, workload, sample, baseline, seed, passed)
        samples.append(sample)
    for f in (WORK / "child.json", WORK / "child.err"):
        f.unlink(missing_ok=True)
    return samples


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(spec: dict, samples: list[dict]) -> dict[str, float]:
    timed = [s for s in samples if "cmd_s" in s]
    values = {
        "run_s": _median([s["run_s"] for s in timed]),
        "cmd_s": _median([s["cmd_s"] for s in timed]),
        "setup_s": _median([s["setup_s"] for s in timed]),
        "cpu_s": _median([s["cpu_s"] for s in timed]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in timed]),
    }
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}


def layer_values(sample: dict) -> dict[str, float]:
    """Per-layer values of one traced invocation, keyed by metric name."""
    summary = spans.summarize(sample["spans"])
    modules = spans.module_self_s(summary)
    wrapped = set(sample["wrapped"]) | {spans.ROOT}
    cmd_s = sample["cmd_s"]
    values = dict(sample["counts"])
    values["cli.rows_written"] = sample.get("rows", 0)
    values["cli.bytes_written"] = sample.get("bytes", 0)
    values["cli.emit_mb_per_s"] = values["cli.bytes_written"] / 1e6 / modules["cli"]
    sim_s = summary.get("sbm_sim.simulate_paths", {}).get("total_s", 0.0)
    values["sbm_sim.simulate_paths.paths_per_s"] = (
        values["sbm_sim.streams_built"] / sim_s if sim_s else 0.0
    )
    values["trace.cmd_s"] = cmd_s
    for module, self_s in modules.items():
        values[f"{module}.self_s"] = self_s
        values[f"{module}.share"] = 100.0 * self_s / cmd_s
    for fn in wrapped:
        rec = summary.get(fn, {"calls": 0, "self_s": 0.0})
        values[f"{fn}.calls"] = rec["calls"]
        values[f"{fn}.self_s"] = rec["self_s"]
    return values


def per_layer(spec: dict, samples: list[dict]) -> dict[str, float]:
    traced = [s for s in samples if s["mode"] == "trace" and "cmd_s" in s]
    plain = [s["cmd_s"] for s in samples if s["mode"] == "run" and "cmd_s" in s]
    rows = [layer_values(s) for s in traced]
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = _median([s["cmd_s"] for s in traced]) - _median(plain)
        else:
            values[name] = _median([row[name] for row in rows])
    return values


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def report(args, workload: Workload, samples: list[dict], metrics: dict, units: dict) -> None:
    failed = [s for s in samples if not s["ok"]]
    mode = "trace" if args.trace else "run"
    n_median = sum(s["mode"] == mode and "cmd_s" in s for s in samples)
    lines = [
        f"dsi-lab benchmark  workload={workload.name}  seed={args.seed}  "
        f"seconds={args.seconds}  trace={args.trace}",
        f"  dsi-lab {' '.join(workload.argv(args.seed)[:-2])}",
        f"  invocations: {len(samples)} attempted, {len(failed)} failed, "
        f"fail_share {len(failed) / len(samples):.3f}",
        f"  medians over {n_median} {'traced' if args.trace else 'untraced'} invocations",
    ]
    for s in failed:
        lines.append(f"  FAILED invocation: {s['reason']}")
    for name, value in metrics.items():
        computed = "  (computed)" if name in COMPUTED else ""
        lines.append(f"  {name:40s} {value:>16.6g} {units[name]}{computed}")
    print("\n".join(lines), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be in [0, 2**64)")

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    samples = measure(workload, args.seed, args.seconds, bool(args.trace))
    if not any("cmd_s" in s for s in samples):
        print(f"error: no invocation completed: {samples[0]['reason']}", file=sys.stderr)
        return 1
    metrics = per_layer(spec, samples) if args.trace else end_to_end(spec, samples)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    n_failed = sum(not s["ok"] for s in samples)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    for s in samples:
        s.pop("wrapped", None)
    trace_spans = [
        {"invocation": i, "spans": s.pop("spans")} for i, s in enumerate(samples) if "spans" in s
    ]
    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "argv": workload.argv(args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "machine": machine(),
        "child_threads": {k: child_env()[k] for k in THREAD_VARS},
        "load": "closed loop, one client, one fresh process per invocation",
        "computed_counts": list(COMPUTED),
        "attempted": len(samples),
        "failed": n_failed,
        "fail_share": n_failed / len(samples),
        "metrics": metrics,
        "samples": samples,
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace_spans:
        Path(f"{stem}-spans.json").write_text(json.dumps(trace_spans))
    report(args, workload, samples, metrics, units)
    print(f"  record: {stem.relative_to(ROOT)}.json", file=sys.stderr)
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": len(samples),
        "failed": n_failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
