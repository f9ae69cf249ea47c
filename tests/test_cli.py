"""Command line behavior: config handling, output schemas, exit codes."""

import ast
import ctypes
import hashlib
import math
import os
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dsi_lab import DsiLabError, RangeOverflow, _floattext, cli, covariance_V, model_from_sbm
from dsi_lab import validate_scheme
from dsi_lab.cli import main
from conftest import python_env, run_python


def run(argv):
    return main(argv)


# a q = 3 scheme whose times and densities are not dyadic
Q3_FLAGS = ["--alpha", "3", "--s", "1,1.7,2.2", "--H", "0.7"]


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child():
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    """Let ``os.fork`` work, and return a list that grows by one per fork."""
    forks = []
    if not hasattr(os, "fork"):
        return forks
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def no_fork(monkeypatch):
    """Many CPUs, but any fork fails: the table must be written in-process."""

    def fork():
        raise AssertionError("a small table forked a CSV worker")

    set_cpus(monkeypatch, 64)
    monkeypatch.setattr(os, "fork", fork)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# the settings that have a flag, and values for them: numbers, lists and
# malformed text, never NaN (which no RunConfig equals)
FLAGGED_KEYS = [key for key, (_, _, flag_help) in cli._SETTINGS.items() if flag_help]
SETTING_TEXTS = st.one_of(
    st.integers(min_value=-5, max_value=30000).map(str),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["1,1.5", "1, 2.5,3,", "tall", ",", "1.5", "1e400", "out.csv"]),
)


class TestConfigHandling:
    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "cov.csv"
        cfg.write_text(
            "# canonical geometry\n"
            "H = 1.0\n"
            "alpha = 2.0\n"
            "T = 1\n"
            "s = 1.0,1.5\n"
            "tau_max = 2\n"
            f"out = {out}\n"
        )
        assert run(["covariance", "--config", str(cfg)]) == 0
        header, rows = read_rows(out)
        assert header == ["tau", "u", "v", "value"]
        assert len(rows) == 3 * 4
        got = {
            (int(r[0]), int(r[1]), int(r[2])): float(r[3]) for r in rows
        }
        sch = validate_scheme(H=1.0, alpha=2.0, T=1, s=(1.0, 1.5))
        model = model_from_sbm(sch)
        for tau in range(3):
            want = covariance_V(model, 0, tau)
            for u in range(2):
                for v in range(2):
                    assert got[(tau, u, v)] == pytest.approx(want[u, v], rel=1e-15)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("H = 1.0\nalpha = 2.0\ntau_max = 1\n")
        out = tmp_path / "c.csv"
        assert (
            run(
                ["covariance", "--config", str(cfg), "--H", "0.5",
                 "--tau-max", "0", "--out", str(out)]
            )
            == 0
        )
        _, rows = read_rows(out)
        assert len(rows) == 4
        # H = 0.5 from the flag: variance of the first offset is min(1,1) = 1
        got = {(int(r[1]), int(r[2])): float(r[3]) for r in rows}
        assert got[(0, 0)] == pytest.approx(1.0)
        assert got[(1, 1)] == pytest.approx(1.5)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("H = 1.0\nwavelets = 3\n")
        assert run(["covariance", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_offsets_exit_two_with_reason(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("s = 1.5,1\n")
        assert run(["covariance", "--config", str(cfg),
                    "--out", str(tmp_path / "x.csv")]) == 2
        assert "NonIncreasingOffsets" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("H = 1.0\nH = 2.0\n")
        assert run(["covariance", "--config", str(cfg)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("H 1.0\n")
        assert run(["covariance", "--config", str(cfg)]) == 2
        want = f"error: ConfigError: {cfg}:1: expected key=value, got 'H 1.0'\n"
        assert capsys.readouterr().err == want

    def test_q_mismatch_rejected(self, tmp_path, capsys):
        # q is len(s), so a file cannot set it
        cfg = tmp_path / "q.cfg"
        cfg.write_text("q = 3\ns = 1.0,1.5\n")
        assert run(["covariance", "--config", str(cfg)]) == 2
        assert "unknown key 'q'" in capsys.readouterr().err

    def test_model_keys_must_come_together(self, tmp_path, capsys):
        cfg = tmp_path / "half.cfg"
        cfg.write_text("R0 = 1.0,1.0\n")
        assert run(["covariance", "--config", str(cfg)]) == 2
        assert "together" in capsys.readouterr().err

    def test_model_keys_rejected_for_simulate_and_verify(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("R0 = 1.0,1.0\nR1 = 0.5,0.5\n")
        for command in ("simulate", "verify"):
            assert run([command, "--config", str(cfg)]) == 2

    def test_bad_numeric_values(self, tmp_path, capsys):
        cfg = tmp_path / "n.cfg"
        cfg.write_text("H = tall\n")
        assert run(["covariance", "--config", str(cfg)]) == 2
        assert run(["covariance", "--paths", "0",
                    "--out", str(tmp_path / "z.csv")]) == 2
        # the series tolerance of verify is fixed, not a setting
        cfg.write_text("tol = 1e-12\n")
        assert run(["covariance", "--config", str(cfg),
                    "--out", str(tmp_path / "w.csv")]) == 2
        assert "unknown key 'tol'" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["covariance", "--T", "1.5"], "T must be an integer, got '1.5'"),
            (["simulate", "--seed", "abc"], "seed must be an integer, got 'abc'"),
        ],
        ids=["T", "seed"],
    )
    def test_malformed_flag_is_config_error(self, capsys, argv, err):
        # the same path as a malformed file value: an exit code, not SystemExit
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {err}\n"

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"H = 1\xff\n")
        assert run(["covariance", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and str(cfg) in err

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        text = "H = 0.75\nalpha = 3\ns = 1,2.5\ntau_max = 3\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        parser = cli.make_parser()
        plain_cfg, bom_cfg = (
            cli.build_config("covariance", parser.parse_args(["covariance", "--config", str(p)]))
            for p in (plain, bom)
        )
        assert bom_cfg == plain_cfg
        assert bom_cfg.scheme.H == 0.75

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert run(["covariance", "--config", str(tmp_path / "absent.cfg")]) == 4

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        settings_text=st.dictionaries(
            st.sampled_from(FLAGGED_KEYS), SETTING_TEXTS, min_size=1, max_size=4
        )
    )
    def test_flag_and_file_agree(self, tmp_path, settings_text):
        # one value, set by flag or by config-file line: the same RunConfig,
        # or the same error
        cfg = tmp_path / "k.cfg"
        cfg.write_text("".join(f"{key} = {text}\n" for key, text in settings_text.items()))
        flags = [f"--{key.replace('_', '-')}={text}" for key, text in settings_text.items()]
        parser = cli.make_parser()
        results = []
        for argv in (flags, ["--config", str(cfg)]):
            args = parser.parse_args(["covariance", *argv])
            try:
                results.append(cli.build_config("covariance", args))
            except DsiLabError as exc:
                results.append((type(exc), str(exc)))
        assert results[0] == results[1]


# cli.main on argv with the address space capped at 4 GiB before dsi_lab loads
CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
import dsi_lab.cli
sys.exit(dsi_lab.cli.main(sys.argv[1:]))
"""


class TestExitCodes:
    def test_unstable_model_exit_three(self, tmp_path, capsys):
        # boundary wrap correlation: |ftilde(q-1)| equals alpha**(T*H) exactly
        cfg = tmp_path / "unstable.cfg"
        cfg.write_text("R0 = 1.0,1.0\nR1 = 1.0,2.0\n")
        assert run(["spectrum", "--config", str(cfg),
                    "--out", str(tmp_path / "s.csv")]) == 3
        assert "ModelUnstable" in capsys.readouterr().err

    def test_inadmissible_model_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "inadm.cfg"
        cfg.write_text("R0 = 1.0,1.0\nR1 = 1.1,0.5\n")
        assert run(["spectrum", "--config", str(cfg),
                    "--out", str(tmp_path / "s.csv")]) == 2

    def test_model_length_exit_two(self, tmp_path, capsys):
        # the model, not the CLI, checks that R0 and R1 have q = len(s) entries
        cfg = tmp_path / "long.cfg"
        cfg.write_text("R0 = 1.0,1.0,1.0\nR1 = 0.5,0.5,0.5\n")
        out = tmp_path / "c.csv"
        assert run(["covariance", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: InvalidModel: ")
        assert not out.exists()

    def test_covariance_overflow_exit_two(self, tmp_path, capsys):
        # ftilde(q-1)**tau leaves double range long before tau = 100000
        out = tmp_path / "c.csv"
        assert run(["covariance", "--tau-max", "100000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: RangeOverflow: ")
        assert not out.exists()

    def test_density_overflow_exit_two(self, tmp_path, capsys):
        # admissible and strictly stable, but the density at omega = 0 is
        # about 1e300 / 5e-11, past the largest double
        cfg = tmp_path / "big.cfg"
        cfg.write_text("R0 = 1e300,1e300\nR1 = 1e300,1.9999999999e300\n")
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--config", str(cfg), "--omega-points", "8",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: RangeOverflow: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--T", "3000"],
            ["covariance", "--alpha", "1e300", "--T", "2"],
            ["simulate", "--T", "1024"],
            ["invert", "--T", "700"],
            ["invert", "--T", "300"],
            ["invert", "--T", "600"],
        ],
        ids=[
            "scale_T", "scale_alpha", "scale_edge", "reference_model",
            "invert_growth_T300", "invert_growth_T600",
        ],
    )
    def test_scheme_overflow_exit_two(self, tmp_path, capsys, argv):
        # alpha**T, the reference model's band powers, or the inversion's
        # growth alpha**(tau*T*H), past double range
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: RangeOverflow: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--omega-points", "100000000000000000000"],
            ["invert", "--omega-points", "100000000000000000000"],
            ["verify", "--omega-points", "100000000000000000000"],
            ["spectrum", "--omega-points", "9223372036854775807"],
            ["verify", "--omega-points", "9223372036854775807"],
            ["invert", "--tau-max", "9223372036854775807"],
            ["invert", "--tau-max", "100000000000000000000"],
        ],
        ids=[
            "spectrum_1e20", "invert_1e20", "verify_1e20", "spectrum_intp_max",
            "verify_intp_max", "invert_tau_intp_max", "invert_tau_1e20",
        ],
    )
    def test_size_past_largest_array_exit_two(self, tmp_path, capsys, argv):
        # refused in build_config, before any array is allocated
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_coarse_grid_names_the_bound_it_checks(self, tmp_path, capsys):
        # lag 0 still needs four frequency points
        out = tmp_path / "i.csv"
        argv = ["invert", "--tau-max", "0", "--omega-points", "2", "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: GridTooCoarse: M = 2 frequency points cannot resolve lag 0; need M >= 4\n"
        )
        assert not out.exists()

    def test_help_lists_commands_and_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        # whitespace-normalized, so that line wrapping does not matter
        text = " ".join(capsys.readouterr().out.split())
        for name, command in cli._DISPATCH.items():
            assert f" {name} {command.__doc__} " in f"{text} "
        for key in FLAGGED_KEYS:
            flag = "--" + key.replace("_", "-")
            assert f" {flag} {key.upper()} {cli._SETTINGS[key][2]} " in f"{text} "

    def test_unwritable_output_exit_four(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run(["covariance", "--out", str(out)]) == 4
        assert "I/O" in capsys.readouterr().err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS enforced")
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--paths", "100000000000"],
            ["verify", "--paths", "100000000000"],
            ["spectrum", "--omega-points", "100000000000"],
            ["spectrum", "--omega-points", "144115188075855871"],
        ],
        ids=["simulate", "verify", "spectrum", "spectrum_below_size_rule"],
    )
    def test_failed_allocation_exit_four(self, tmp_path, argv):
        # a child whose address space is capped, so that the allocation is
        # refused whatever the host's overcommit setting; 144115188075855871
        # complex 2 x 2 matrices are the most one array can index
        done = subprocess.run(
            [sys.executable, "-c", CAPPED_CHILD, *argv, "--out", str(tmp_path / "x.csv")],
            stderr=subprocess.PIPE, env=python_env(OPENBLAS_NUM_THREADS="1"), text=True,
            timeout=120,
        )
        assert done.returncode == 4, done.stderr
        assert done.stderr.startswith("error: MemoryError: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr


# the console entry run on argv, then its exit code, the BLAS thread setting
# it left and, where /proc exists, the process's thread count
ENTRY_CHILD = """
import os, dsi_lab
code = dsi_lab.main()
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(repr((code, os.environ["OPENBLAS_NUM_THREADS"], threads)))
"""


class TestConsoleEntry:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
    def test_one_blas_thread_by_default(self, tmp_path):
        # numpy is loaded by then, with its BLAS pool started
        out = run_python(
            ENTRY_CHILD, "covariance", "--out", str(tmp_path / "c.csv"), OPENBLAS_NUM_THREADS=None
        )
        assert ast.literal_eval(out.splitlines()[-1]) == (0, "1", 1)

    def test_user_setting_wins(self, tmp_path):
        # the variable, not the thread count: OpenBLAS caps its pool at the
        # CPUs it may use, which may be one
        out = run_python(
            ENTRY_CHILD, "covariance", "--out", str(tmp_path / "c.csv"), OPENBLAS_NUM_THREADS="2"
        )
        assert ast.literal_eval(out.splitlines()[-1])[:2] == (0, "2")


# imports numpy first when its argument says so, then the cli module, and
# prints the OpenBLAS idle timeout the process was left with
TIMEOUT_CHILD = """
import os, sys
if sys.argv[1] == "numpy_first":
    import numpy
import dsi_lab.cli
print(repr(os.environ.get("OPENBLAS_THREAD_TIMEOUT")))
"""

# cli.main on argv in a process whose numpy the cli module loads
MAIN_CHILD = """
import sys, dsi_lab.cli
sys.exit(dsi_lab.cli.main(sys.argv[1:]))
"""


# the bytes of the file argv[1], read up to its first end of file
READ_CHILD = """
import sys
with open(sys.argv[1], "rb") as fh:
    sys.stdout.buffer.write(fh.read())
"""

# the console script, dsi_lab.main, on argv
CONSOLE_CHILD = """
import sys, dsi_lab
sys.exit(dsi_lab.main())
"""


class TestClosedStdout:
    @pytest.mark.parametrize("child", [CONSOLE_CHILD, MAIN_CHILD], ids=["console", "main"])
    def test_closed_stdout_exit_four(self, tmp_path, child):
        # a fresh child with buffered stdout, a pipe whose read end is closed:
        # the summary line fails at main's flush, and the interpreter's own
        # flush at exit must not fail again, which gave exit code 120 and two
        # more stderr lines
        r, w = os.pipe()
        os.close(r)
        try:
            done = subprocess.run(
                [sys.executable, "-c", child, "covariance", "--out", str(tmp_path / "c.csv")],
                stdout=w, stderr=subprocess.PIPE, env=python_env(PYTHONUNBUFFERED=None),
                text=True, timeout=120,
            )
        finally:
            os.close(w)
        assert done.returncode == 4
        assert done.stderr == "error: I/O failure: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="closes fd 1 through sh")
    def test_no_stdout_exit_zero(self, tmp_path):
        # with fd 1 closed at startup, sys.stdout is None and print writes
        # nothing: there is nothing to flush, and nothing fails
        done = subprocess.run(
            ["/bin/sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-c", MAIN_CHILD,
             "covariance", "--out", str(tmp_path / "c.csv")],
            stderr=subprocess.PIPE, env=python_env(PYTHONUNBUFFERED=None), text=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")


class TestIdleBlasWorkers:
    @pytest.mark.parametrize(
        "order, user, left",
        [("cli_first", None, "4"), ("cli_first", "28", "28"), ("numpy_first", None, None)],
        ids=["default", "user_value_wins", "numpy_loaded_first"],
    )
    def test_timeout_default(self, order, user, left):
        out = run_python(TIMEOUT_CHILD, order, OPENBLAS_THREAD_TIMEOUT=user)
        assert ast.literal_eval(out.splitlines()[-1]) == left

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["spectrum", "--omega-points", "64"], ["t.csv"]),
            (["verify", "--paths", "200"], ["t.csv", "t_estimates.csv"]),
        ],
        ids=["spectrum", "verify"],
    )
    def test_bytes_do_not_depend_on_the_timeout(self, tmp_path, argv, names):
        outputs = []
        for timeout in (None, "28"):
            out = tmp_path / str(timeout)
            out.mkdir()
            run_python(
                MAIN_CHILD, *argv, "--out", str(out / "t.csv"),
                OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=timeout,
            )
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]


# the C library's malloc is glibc's, whose thresholds main sets
ON_GLIBC = os.name == "posix" and hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
# what turns the heap policy off: any of these variables, here one that
# sets glibc's default
MALLOC_UNSET = dict.fromkeys(cli._MALLOC_ENVIRONMENT)
POLICY_OFF = {**MALLOC_UNSET, "GLIBC_TUNABLES": "glibc.malloc.perturb=0"}

# cli.main on a small table, then the minor page faults of five more float
# kernel calls on one chunk of values, after one to fill its tables
FAULTS_CHILD = """
import resource, sys
import numpy as np
import dsi_lab.cli
from dsi_lab import _floattext
dsi_lab.cli.main(["covariance", "--out", sys.argv[1]])
values = np.random.default_rng(0).standard_normal(dsi_lab.cli._CHUNK_VALUES)
_floattext.text(values)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    _floattext.text(values)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# cli.main with a C library whose mallopt records its calls, then the calls
MALLOPT_CHILD = """
import ctypes, sys
import dsi_lab.cli
calls = []

class Library:
    def __init__(self, name):
        self.mallopt = lambda *args: calls.append(args)

ctypes.CDLL = Library
dsi_lab.cli.main(sys.argv[1:])
print(repr(calls))
"""

# cli.main on argv[2:] with argv[1] usable CPUs
CPUS_CHILD = """
import os, sys, dsi_lab.cli
cpus = int(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(cpus))
sys.exit(dsi_lab.cli.main(sys.argv[2:]))
"""


class TestFreedHeap:
    @pytest.mark.skipif(not ON_GLIBC, reason="needs glibc's malloc")
    def test_chunks_reuse_freed_heap(self, tmp_path):
        # about 7,000 faults with glibc's dynamic thresholds
        out = run_python(FAULTS_CHILD, str(tmp_path / "c.csv"), **MALLOC_UNSET)
        assert int(out.splitlines()[-1]) <= 100

    @pytest.mark.parametrize(
        "env, calls",
        [
            (MALLOC_UNSET, [(-3, 32 << 20), (-1, 64 << 20)]),
            ({**MALLOC_UNSET, "MALLOC_TRIM_THRESHOLD_": "131072"}, []),
            ({**MALLOC_UNSET, "MALLOC_MMAP_THRESHOLD_": "131072"}, []),
            ({**MALLOC_UNSET, "GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}, []),
        ],
        ids=["default", "trim_threshold", "mmap_threshold", "tunables"],
    )
    def test_user_setting_wins(self, tmp_path, env, calls):
        out = run_python(MALLOPT_CHILD, "covariance", "--out", str(tmp_path / "c.csv"), **env)
        assert ast.literal_eval(out.splitlines()[-1]) == calls

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--paths", "20000", "--tau-max", "4"],
            ["spectrum", "--omega-points", "16384"],
        ],
        ids=["simulate", "spectrum"],
    )
    def test_bytes_do_not_depend_on_the_policy(self, tmp_path, argv, cpus):
        outputs = []
        for name, env in (("on", MALLOC_UNSET), ("off", POLICY_OFF)):
            out = tmp_path / f"{name}.csv"
            run_python(CPUS_CHILD, str(cpus), *argv, "--out", str(out), **env)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# the objects the cyclic collector tracks before and after cli.main on a
# small table, and the freeze count it leaves
FROZEN_CHILD = """
import gc, sys, dsi_lab.cli
before = len(gc.get_objects())
dsi_lab.cli.main(["covariance", "--out", sys.argv[1]])
print(repr((before, len(gc.get_objects()), gc.get_freeze_count())))
"""

# gc.freeze wrapped by a counter, frozen first by this child when argv[1]
# says so, then cli.main twice on a small table; prints main's freezes
FREEZE_CALLS_CHILD = """
import gc, sys, dsi_lab.cli
calls = []
freeze = gc.freeze
def counted():
    calls.append(None)
    freeze()
gc.freeze = counted
if sys.argv[1] == "host_froze":
    freeze()
for _ in range(2):
    dsi_lab.cli.main(["covariance", "--out", sys.argv[2]])
print(len(calls))
"""


class TestFrozenHeap:
    def test_start_up_heap_is_frozen(self, tmp_path):
        # about 21,400 tracked objects before, a few hundred after
        out = run_python(FROZEN_CHILD, str(tmp_path / "c.csv"))
        before, after, frozen = ast.literal_eval(out.splitlines()[-1])
        assert after < before / 10
        assert frozen > 0

    @pytest.mark.parametrize(
        "host, calls", [("main_only", 1), ("host_froze", 0)], ids=["once", "host_froze_first"]
    )
    def test_freezes_once_per_process(self, tmp_path, host, calls):
        out = run_python(FREEZE_CALLS_CHILD, host, str(tmp_path / "c.csv"))
        assert int(out.splitlines()[-1]) == calls


class TestOutputs:
    def test_simulate_schema_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        argv = ["simulate", "--paths", "6", "--seed", "9", "--tau-max", "1"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_rows(out1)
        assert header == ["path_id", "kappa", "n", "u", "time", "value"]
        assert len(rows) == 6 * 4  # kappa = 0..(tau_max+1)*q-1
        assert [r[1] for r in rows[:4]] == ["0", "1", "2", "3"]
        assert [r[4] for r in rows[:4]] == ["1.0", "1.5", "2.0", "3.0"]
        # shortest round-trip float formatting
        assert all(repr(float(r[5])) == r[5] for r in rows)

    @pytest.mark.parametrize(
        "scheme_flags, digest",
        [
            ([], "99c0077f29a9835ea6cb1b9fed13a303f73e321ae9b6902fd33625e932a67c9b"),
            # times such as 15.299999999999999 are not dyadic
            (
                ["--alpha", "3", "--s", "1,1.7", "--H", "0.7"],
                "ba04678ef19fd24bf84823fe52152d7fd159e322d76cc61b553aeb1d10f27294",
            ),
            # band 5's factor 3**(5 * -0.15) is one where numpy's vectorised
            # power and Python's ** differ in the last bit; the paths follow
            # Python's, as the exact covariance does
            (
                ["--alpha", "3", "--H", "0.35"],
                "5a4cab50dacecad75c8eb469d41d715fe3cc514d3a260298844723ca5302e6fc",
            ),
        ],
        ids=["canonical", "non_dyadic_times", "band_power"],
    )
    def test_simulate_bytes_pinned(self, tmp_path, capsys, no_fork, scheme_flags, digest):
        # frozen sha256 of the whole ensemble CSV: streams, path synthesis
        # and row formatting must all stay bit-for-bit stable
        out = tmp_path / "e.csv"
        argv = ["simulate", "--paths", "50", "--tau-max", "4", "--seed", "3"]
        assert run(argv + scheme_flags + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["covariance", "--tau-max", "6"],
                "5ee827d0ebf234cb66ea78c65781a94b113783bc21df4ffdd83210b306115241",
            ),
            # the omega = 0 rows carry -0.0 imaginary parts
            (
                ["spectrum", "--omega-points", "64"],
                "2bea5d3c6b0095d6b834928a14ae1d579fc9cf089f28b08cd682b33a4332544a",
            ),
            (
                ["invert", "--omega-points", "512", "--tau-max", "8"],
                "7a98e5ce10c24cdef3192ffc71c581eea8975d6fe18db94cd035b4ec573f9193",
            ),
            (
                ["covariance", "--tau-max", "6", *Q3_FLAGS],
                "97a9d966fe94a9958299f2dad4150c5ca5d6ead546a0b89e7a70b2649bd5a1e6",
            ),
            (
                ["spectrum", "--omega-points", "64", *Q3_FLAGS],
                "67eec5944b754f5de5e3207d683a8b602266e2223e5a6ee93f7d93155e708779",
            ),
            (
                ["invert", "--omega-points", "512", "--tau-max", "8", *Q3_FLAGS],
                "25c324791b4e9e4cd2231c1dd92070003474d63bcc33cc210b47e00f9299c55b",
            ),
        ],
        ids=[
            "covariance", "spectrum", "invert",
            "covariance_q3", "spectrum_q3", "invert_q3",
        ],
    )
    def test_table_bytes_pinned(self, tmp_path, capsys, no_fork, argv, digest):
        # frozen sha256 of the whole table: values and row formatting must
        # stay bit-for-bit stable
        out = tmp_path / "t.csv"
        assert run(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, converted",
        [
            # 64 float keys (omega) and 2 q**2 values per key
            (["spectrum", "--omega-points", "64"], 64 + 64 * 8),
            (["spectrum", "--omega-points", "64", *Q3_FLAGS], 64 + 64 * 18),
            # integer keys (path_id) go through str; 10 values per path
            (["simulate", "--paths", "200"], 200 * 10),
        ],
        ids=["spectrum", "spectrum_q3", "simulate"],
    )
    def test_values_reach_the_kernel_once(
        self, tmp_path, capsys, monkeypatch, no_fork, argv, converted
    ):
        # every float key and value is converted once, by the float kernel
        sizes = []
        text = _floattext.text

        def counted_text(values):
            sizes.append(values.size)
            return text(values)

        monkeypatch.setattr(_floattext, "text", counted_text)
        assert run(argv + ["--out", str(tmp_path / "t.csv")]) == 0
        assert sum(sizes) == converted

    def test_model_file_spectrum_bytes_pinned(self, tmp_path, capsys, no_fork):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(
            "H = 0.8\nalpha = 1.9\nT = 1\ns = 1.0,1.4\n"
            "R0 = 2.0,1.0\nR1 = 0.7,-0.4\n"
        )
        out = tmp_path / "cs.csv"
        assert run(["spectrum", "--config", str(cfg), "--omega-points", "64",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3f34030651388d21710debf20459bc173771de0c313f106dea025619698e8da1"
        )

    def test_spectrum_row_count_and_values(self, tmp_path):
        out = tmp_path / "density.csv"
        assert run(["spectrum", "--omega-points", "64", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["omega", "u", "v", "re", "im"]
        assert len(rows) == 64 * 4
        # first row is omega = 0, entry (0, 0): frozen hand value
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][3]) == pytest.approx(1.8552459747084786, rel=1e-12)
        assert float(rows[0][4]) == pytest.approx(0.0, abs=1e-15)

    def test_invert_consistent_with_covariance(self, tmp_path):
        cov_out = tmp_path / "cov.csv"
        inv_out = tmp_path / "inv.csv"
        assert run(["covariance", "--tau-max", "3", "--out", str(cov_out)]) == 0
        assert run(
            ["invert", "--tau-max", "3", "--omega-points", "4096",
             "--out", str(inv_out)]
        ) == 0
        _, cov_rows = read_rows(cov_out)
        _, inv_rows = read_rows(inv_out)
        assert len(inv_rows) == len(cov_rows)
        for c, i in zip(cov_rows, inv_rows):
            assert c[:3] == i[:3]
            assert float(i[3]) == pytest.approx(float(c[3]), rel=1e-6)
            assert float(i[4]) < 1e-8  # reported imaginary residue

    def test_custom_model_spectrum(self, tmp_path):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(
            "H = 0.8\nalpha = 1.9\nT = 1\ns = 1.0,1.4\n"
            "R0 = 2.0,1.0\nR1 = 0.7,-0.4\n"
        )
        out = tmp_path / "cs.csv"
        assert run(["spectrum", "--config", str(cfg), "--omega-points", "16",
                    "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 16 * 4


# hand-picked edges and any double argparse accepts
WIDE_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, -1e300]), st.floats()
)


def offsets(values):
    # ascending lists, so that most draws reach the model
    return st.lists(values, min_size=1, max_size=3, unique=True).map(sorted)


# each scheme flag: a mostly valid range and a wide one
SCHEME_FLAGS = {
    "--alpha": (st.floats(1.1, 4.0), WIDE_FLOATS),
    "--H": (st.floats(0.1, 3.0), WIDE_FLOATS),
    "--T": (st.integers(1, 3000), st.integers(-3000, 3000)),
    "--s": (offsets(st.floats(1.0, 4.0)), offsets(WIDE_FLOATS)),
    "--seed": (st.integers(0, 2 ** 64 - 1), st.integers(-1, 2 ** 64)),
}


@st.composite
def cli_argv(draw):
    """One command with optional scheme flags, at most one of them drawn
    from its wide range, and small size flags: no table reaches the
    forking threshold.  The command goes before, between or after the
    flags.  Each flag is one --name=value token, so that a value like
    -1e+300 is not read as a flag."""
    flags = []
    wide = draw(st.sampled_from([None, *SCHEME_FLAGS]))
    for name, (usual, wide_values) in SCHEME_FLAGS.items():
        if name == wide or draw(st.booleans()):
            value = draw(wide_values if name == wide else usual)
            text = ",".join(map(repr, value)) if name == "--s" else repr(value)
            flags.append(f"{name}={text}")
    flags.append(f"--paths={draw(st.integers(-1, 200))}")
    flags.append(f"--omega-points={draw(st.integers(-1, 512))}")
    flags.append(f"--tau-max={draw(st.integers(-1, 8))}")
    at = draw(st.integers(0, len(flags)))
    return flags[:at] + [draw(st.sampled_from(tuple(cli._DISPATCH)))] + flags[at:]


class TestCliProperty:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=cli_argv())
    # alpha**(tau*T*H) past double range in the inversion
    @example(argv=["invert", "--T=600", "--paths=1", "--omega-points=64", "--tau-max=4"])
    # the product s_u * s_v past double range in the density prefactor
    @example(argv=["spectrum", "--T=700", "--H=0.5", "--s=1.0,1e200", "--paths=1",
                   "--omega-points=8", "--tau-max=0"])
    def test_main_returns_an_exit_code(self, tmp_path, capsys, argv):
        # every input argparse accepts ends in an exit code: no exception,
        # and no numpy warning (an error under this suite's warning filter),
        # from this process or re-raised from a verify worker; the output is
        # writable, so no run ends in an I/O failure (4)
        code = main(argv + ["--out", str(tmp_path / "out.csv")])
        assert_no_child()
        assert code in ({0, 1, 2, 3} if "verify" in argv else {0, 2, 3})


def template_rows(keys, prefixes, values):
    """The rows of one table as the earlier ``str.format`` row template wrote
    them: the prefixes baked into one template per table, the block key in
    ``{0}`` and each value in an ``{i!r}`` slot."""
    flat = values.reshape(len(values), -1)
    width = flat.shape[1] // len(prefixes)
    row_format = "".join(
        f"{{0}}{prefix}" + "".join(f",{{{1 + r * width + c}!r}}" for c in range(width)) + "\n"
        for r, prefix in enumerate(prefixes)
    ).format
    return "".join(
        row_format(repr(key), *block) for key, block in zip(keys, flat.tolist())
    ).encode()


# the doubles whose shortest round-trip form is least regular
MAX_FLOAT = 1.7976931348623157e308
EDGE_VALUES = [0.0, -0.0, 1e16, 1e-5, 5e-324, MAX_FLOAT, -MAX_FLOAT]


@st.composite
def tables(draw):
    """Keys, row prefixes and a (blocks, rows, width) value array: int or
    float keys, 1-9 rows with prefixes like the commands' own, widths 1-3.
    The values are picked from the edge values and a few drawn doubles
    (drawing each of up to a thousand values would dominate the run).  Some
    value columns are a copy or a negation of an earlier column."""
    rows = draw(st.integers(1, 9))
    width = draw(st.integers(1, 3))
    n_blocks = draw(st.integers(1, 40))
    key = st.integers(-(2 ** 64), 2 ** 64) if draw(st.booleans()) else st.floats()
    keys = draw(st.lists(key, min_size=n_blocks, max_size=n_blocks))
    fields = st.lists(st.one_of(st.integers(-5, 99), st.floats(allow_nan=False)), max_size=4)
    prefixes = [
        "".join(f",{field!r}" for field in draw(fields)) for _ in range(rows)
    ]
    pool = np.array(EDGE_VALUES + draw(st.lists(st.floats(), max_size=8)))
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        len(pool), size=(n_blocks, rows, width)
    )
    values = pool[picks]
    flat = values.reshape(n_blocks, -1)
    for column in range(1, flat.shape[1]):
        if draw(st.booleans()):
            source = flat[:, draw(st.integers(0, column - 1))]
            flat[:, column] = np.negative(source) if draw(st.booleans()) else source
    return keys, prefixes, values


# columns that repeat or negate earlier ones: zeros of both signs, the
# smallest subnormal, the largest doubles and NaN of both signs, which repr
# writes alike
REPEATS_TABLE = (
    [0, 1, 2],
    [",a", ",b"],
    np.array([
        [[0.0, -0.0, -0.0], [-1.5, 1.5, -1.5]],
        [[5e-324, -5e-324, 5e-324], [MAX_FLOAT, -MAX_FLOAT, MAX_FLOAT]],
        [[-MAX_FLOAT, MAX_FLOAT, -MAX_FLOAT], [math.nan, -math.nan, math.nan]],
    ]),
)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="CSV workers are forked")
class TestParallelWriter:
    @settings(max_examples=150, deadline=None)
    @given(
        table=tables(),
        chunk_values=st.integers(1, 60),
        min_part_values=st.integers(1, 60),
        cpus=st.sampled_from([1, 3]),
    )
    @example(table=REPEATS_TABLE, chunk_values=4, min_part_values=1, cpus=1)
    @example(table=REPEATS_TABLE, chunk_values=4, min_part_values=1, cpus=3)
    def test_rows_match_the_row_template(
        self, tmp_path_factory, table, chunk_values, min_part_values, cpus
    ):
        # small chunk and part sizes, so that block counts fall on either
        # side of both boundaries; the bytes are those of the old template
        keys, prefixes, values = table
        out = tmp_path_factory.mktemp("rows") / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            set_cpus(mp, cpus)
            mp.setattr(cli, "_CHUNK_VALUES", chunk_values)
            mp.setattr(cli, "_MIN_PART_VALUES", min_part_values)
            with open(out, "wb") as fh:
                rows = cli._write_blocks(fh, "key,a,b", keys, prefixes, values)
        assert_no_child()
        assert rows == len(keys) * len(prefixes)
        assert out.read_bytes() == b"key,a,b\n" + template_rows(keys, prefixes, values)


    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["simulate", "--paths", "20000", "--tau-max", "4", "--seed", "3"],
                "1b0d3adc6454ae197816ba71e29b23b2be0d8f9ac8b9b84e313a09e2c24e9237",
            ),
            (
                ["spectrum", "--omega-points", "16384"],
                "333290e187d46ff7c752b1e18645843ec0b96f02b1d680292ff70a37f33ed988",
            ),
        ],
        ids=["simulate", "spectrum"],
    )
    @pytest.mark.parametrize("cpus", [None, 1, 2, 3, 5], ids=lambda n: f"cpus{n}")
    def test_bytes_do_not_depend_on_cpu_count(
        self, tmp_path, capsys, monkeypatch, argv, digest, cpus
    ):
        # digests of the single-process writer; None keeps the real affinity
        forks = count_forks(monkeypatch)
        if cpus is not None:
            set_cpus(monkeypatch, cpus)
        out = tmp_path / "t.csv"
        assert run(argv + ["--out", str(out)]) == 0
        assert_no_child()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        if cpus is not None:
            assert len(forks) == cpus - 1

    def test_full_device_exit_four(self, capsys, monkeypatch):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        set_cpus(monkeypatch, 3)
        assert run(["simulate", "--paths", "20000", "--out", "/dev/full"]) == 4
        assert capsys.readouterr().err.startswith("error: I/O failure")
        assert_no_child()

    def test_failed_worker_exit_four(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        format_blocks = cli._format_blocks

        def fail_in_worker(*args):
            for chunk in format_blocks(*args):
                if os.getpid() != parent:
                    raise RuntimeError("worker fault")
                yield chunk

        monkeypatch.setattr(cli, "_format_blocks", fail_in_worker)
        set_cpus(monkeypatch, 3)
        out = tmp_path / "e.csv"
        assert run(["simulate", "--paths", "20000", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: I/O failure") and "2 of 2 CSV workers failed" in err
        assert_no_child()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="workers are placed by affinity")
class TestWorkerPlacement:
    @pytest.mark.parametrize(
        "here, n, want",
        [(2, 3, [0, 1, 3]), (2, 5, [0, 1, 3, None, None]), (0, 1, [1]), (3, 0, [])],
    )
    def test_workers_start_off_this_cpu(self, monkeypatch, here, n, want):
        set_cpus(monkeypatch, 4)
        libc = SimpleNamespace(sched_getcpu=lambda: here)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert cli._worker_cpus(n) == want

    @pytest.mark.parametrize(
        "libc",
        [SimpleNamespace(), SimpleNamespace(sched_getcpu=lambda: -1)],
        ids=["absent", "failing"],
    )
    def test_unknown_cpu_places_nothing(self, monkeypatch, libc):
        set_cpus(monkeypatch, 4)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert cli._worker_cpus(2) == [None, None]

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--omega-points", "16384"], ["verify", "--paths", "2000"]],
        ids=["csv", "verify"],
    )
    def test_worker_moves_then_is_freed(self, tmp_path, monkeypatch, argv):
        # the worker's own calls, logged to a file because they run in the fork
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            pytest.skip("one usable CPU: nothing forks")
        log = tmp_path / "moves"
        set_affinity = os.sched_setaffinity

        def record(pid, cpus):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {sorted(cpus)}\n")
            set_affinity(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", record)
        assert run(argv + ["--out", str(tmp_path / "t.csv")]) == 0
        assert_no_child()
        calls = [line.split(" ", 1) for line in log.read_text().splitlines()]
        assert len(calls) == 2 and calls[0][0] == calls[1][0] != str(os.getpid())
        first, second = (ast.literal_eval(cpus) for _, cpus in calls)
        assert len(first) == 1 and first[0] in allowed
        assert second == sorted(allowed)

    def test_failed_move_keeps_the_bytes(self, tmp_path, monkeypatch):
        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(sched_getcpu=lambda: 0))
        set_cpus(monkeypatch, 2)
        out = tmp_path / "t.csv"
        assert run(["spectrum", "--omega-points", "16384", "--out", str(out)]) == 0
        assert_no_child()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "333290e187d46ff7c752b1e18645843ec0b96f02b1d680292ff70a37f33ed988"
        )


class TestVerify:
    def test_verify_passes_and_reports(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert run(["verify", "--paths", "4000", "--seed", "11",
                    "--out", str(report)]) == 0
        stdout = capsys.readouterr().out
        assert "all" in stdout and "passed" in stdout
        header, rows = read_rows(report)
        assert header == ["check_name", "status", "observed", "expected", "tolerance"]
        assert len(rows) >= 10
        assert all(r[1] == "PASS" for r in rows)
        for r in rows:
            assert abs(float(r[2]) - float(r[3])) <= float(r[4])
        est = tmp_path / "report_estimates.csv"
        eheader, erows = read_rows(est)
        assert eheader == [
            "j_or_uv", "lag", "estimate", "std_error", "analytic", "z_score",
        ]
        assert len(erows) == 4  # q = 2 offsets x lags {0, 1}
        for r in erows:
            z = (float(r[2]) - float(r[4])) / float(r[3])
            assert z == pytest.approx(float(r[5]), rel=1e-12)

    def test_estimates_next_to_report_in_dotted_directory(self, tmp_path, capsys):
        # the estimates name splits the file name's extension, not the path's
        report = tmp_path / "x.d" / "report"
        report.parent.mkdir()
        assert run(["verify", "--paths", "4000", "--seed", "11", "--out", str(report)]) == 0
        assert (tmp_path / "x.d" / "report_estimates").is_file()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_estimates_share_a_target_that_is_not_a_regular_file(self, tmp_path):
        # a device or a FIFO takes both tables, so nothing is made beside it;
        # neither is opened here
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        assert cli._estimates_path(str(fifo)) == str(fifo)
        assert cli._estimates_path(os.devnull) == os.devnull
        report = tmp_path / "report.csv"
        assert cli._estimates_path(str(report)) == str(tmp_path / "report_estimates.csv")
        report.write_text("")
        assert cli._estimates_path(str(report)) == str(tmp_path / "report_estimates.csv")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_reader_gets_both_tables(self, tmp_path):
        # the reader stops at its first end of file, so the two tables must
        # come through one open; a second open would wait for a new reader
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        reader = subprocess.Popen(
            [sys.executable, "-c", READ_CHILD, str(fifo)], stdout=subprocess.PIPE
        )
        try:
            run_python(MAIN_CHILD, "verify", "--paths", "200", "--out", str(fifo))
            text = reader.communicate(timeout=60)[0].decode()
        finally:
            reader.kill()
            reader.communicate()
        assert text.startswith("check_name,status,")
        assert "\nj_or_uv,lag,estimate," in text
        assert os.listdir(tmp_path) == ["pipe.csv"]

    def test_verify_outputs_byte_identical(self, tmp_path, capsys):
        r1 = tmp_path / "a" / "report.csv"
        r2 = tmp_path / "b" / "report.csv"
        r1.parent.mkdir()
        r2.parent.mkdir()
        argv = ["verify", "--paths", "3000", "--seed", "5"]
        assert run(argv + ["--out", str(r1)]) == 0
        assert run(argv + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert (
            r1.parent / "report_estimates.csv"
        ).read_bytes() == (r2.parent / "report_estimates.csv").read_bytes()

    @pytest.mark.parametrize(
        "scheme_flags, report_digest, estimates_digest",
        [
            (
                [],
                "595b0e96b93d5e4a5bed5356d2de63382965b700ecf2816af9f83d54ffacc28f",
                "b2b35aef8e877bdb8a2fa81b17f7bf5e1d8027f21a4a2e5061e95987f33629be",
            ),
            (
                Q3_FLAGS,
                "518fe52f51ba3697d322f0ad3e3b6485b6cf185c67cfe564096c2a173d82ba66",
                "a7ab55163ea53db2c1aca910c9cf21b742dabfc749475bcc51ef4c6ac04924f0",
            ),
        ],
        ids=["canonical", "q3"],
    )
    @pytest.mark.parametrize("cpus", [None, 1, 2, 3], ids=lambda n: f"cpus{n}")
    def test_verify_bytes_pinned(
        self, tmp_path, capsys, monkeypatch, scheme_flags, report_digest, estimates_digest, cpus
    ):
        # frozen sha256 of both files: every check's observed value, the
        # Monte Carlo estimates and the analytic moments must stay
        # bit-for-bit stable, whether or not a worker runs the random half
        forks = count_forks(monkeypatch)
        if cpus is not None:
            set_cpus(monkeypatch, cpus)
        report = tmp_path / "report.csv"
        argv = ["verify", "--seed", "5", "--paths", "2000", *scheme_flags]
        assert run(argv + ["--out", str(report)]) == 0
        assert_no_child()
        assert len(forks) == (cli._usable_cpus() > 1)
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
        estimates = tmp_path / "report_estimates.csv"
        assert hashlib.sha256(estimates.read_bytes()).hexdigest() == estimates_digest

    @pytest.mark.parametrize("cpus", [None, 1], ids=lambda n: f"cpus{n}")
    def test_verify_bytes_pinned_at_default_paths(self, tmp_path, capsys, monkeypatch, cpus):
        # the default 20000 paths span five 4096-path blocks of the random
        # streams, so the estimates read every block, the last one partial
        if cpus is not None:
            set_cpus(monkeypatch, cpus)
        report = tmp_path / "report.csv"
        assert run(["verify", "--out", str(report)]) == 0
        assert_no_child()
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "58c8f934fb68b4eb05101437ad5406b1302ab5b84c5d00386b1e112c6d239194"
        )
        estimates = tmp_path / "report_estimates.csv"
        assert hashlib.sha256(estimates.read_bytes()).hexdigest() == (
            "880e3a6c0a3447c55a0154bf2c806aedcf4d75b46f6e55542bb09ed552f60902"
        )

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--paths", "1"], "RangeTooSmall"),
            (["--tau-max", "100000000000"], "RangeOverflow"),
            (["--alpha", "1e200", "--s", "1,2", "--paths", "200"], "RangeOverflow"),
        ],
        ids=["random_too_few_paths", "random_overflow", "spectral_overflow"],
    )
    def test_errors_do_not_depend_on_cpu_count(self, tmp_path, capsys, monkeypatch, argv, error):
        # the first two fail in the random half, the last in the spectral
        # half: one stderr line, the serial order's
        results = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            code = run(["verify", *argv, "--out", str(tmp_path / "r.csv")])
            assert_no_child()
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        code, err = results[0]
        assert code == 2 and err.startswith(f"error: {error}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cpus", [1, 2], ids=lambda n: f"cpus{n}")
    def test_spectral_error_wins(self, tmp_path, capsys, monkeypatch, cpus):
        # both halves fail; the spectral half ran first in the serial order
        def spectral_fault(cfg):
            raise RangeOverflow("spectral fault")

        monkeypatch.setattr(cli, "_verify_spectral", spectral_fault)
        set_cpus(monkeypatch, cpus)
        out = tmp_path / "r.csv"
        assert run(["verify", "--paths", "1", "--out", str(out)]) == 2
        assert_no_child()
        assert capsys.readouterr().err == "error: RangeOverflow: spectral fault\n"
        assert not out.exists()

    def test_other_errors_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        # an error that is not a DsiLabError (a bug, a MemoryError, a numpy
        # warning made an error) leaves main with its class and message,
        # whichever process ran the half that raised it
        def spectral_fault(*args, **kwargs):
            raise RuntimeError("spectral fault")

        monkeypatch.setattr(cli, "spectral_series", spectral_fault)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            with pytest.raises(RuntimeError, match="^spectral fault$"):
                run(["verify", "--paths", "2000", "--out", str(tmp_path / "r.csv")])
            assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the spectral half runs in a fork")
    def test_dead_worker_exit_four(self, tmp_path, capfd, monkeypatch):
        # a worker killed before it sends its checks (by the OOM killer,
        # say); capfd, not capsys, so that the worker's own stderr is seen too
        def killed(cfg):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli, "_verify_spectral", killed)
        set_cpus(monkeypatch, 2)
        assert run(["verify", "--paths", "2000", "--out", str(tmp_path / "r.csv")]) == 4
        assert_no_child()
        err = capfd.readouterr().err
        assert err == "error: I/O failure: 1 of 1 verify workers failed (exit codes [-9])\n"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the spectral half runs in a fork")
    def test_interrupt_kills_the_worker(self, tmp_path, monkeypatch):
        # the spectral half's checks will not be read, so its worker is
        # killed, not waited for
        kills = []
        real_kill = os.kill

        def interrupted(cfg):
            raise KeyboardInterrupt

        def kill(pid, sig):
            kills.append(sig)
            real_kill(pid, sig)

        monkeypatch.setattr(cli, "_verify_random", interrupted)
        monkeypatch.setattr(os, "kill", kill)
        set_cpus(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run(["verify", "--out", str(tmp_path / "r.csv")])
        assert_no_child()
        assert len(kills) == 1
