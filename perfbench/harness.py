"""Closed-loop runner, statistics and run records for the torvdw benchmark.

Standard library only: the ``cli`` workload's parent process must stay
small while it spawns its children, because a child's peak RSS as the
kernel reports it can include the memory of the process that forked it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: BLAS threads for the run and for every child.  One client in one process
#: with single-threaded BLAS: the LU is timed as a plain serial baseline and
#: never competes with the client for the machine's cores.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Samples that must lie above the reported tail percentile.
TAIL_BEYOND = 10

SETUP_REPEATS = 9


def pin_threads() -> None:
    """Cap BLAS threads in this process and its children; call before numpy."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def require_source() -> None:
    """Fail unless the checkout holds the package sources the benchmark runs."""
    if not os.path.isfile(os.path.join(SRC, "torvdw", "__init__.py")):
        raise SystemExit(f"perfbench: no torvdw sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------- statistics

def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    That is the (beyond + 1)-th largest sample, at percentile
    100 (n - 1 - beyond) / (n - 1) under linear interpolation.  Returns
    (value, percentile, n); None when there are too few samples.
    """
    n = len(values)
    if n < beyond + 1:
        return None
    s = sorted(values)
    q = 100.0 * (n - 1 - beyond) / (n - 1)
    return s[n - 1 - beyond], q, n


def failed_frac(outcomes) -> float:
    """Share of attempted tasks that raised, warned or failed their check."""
    if not outcomes:
        raise ValueError("no tasks attempted")
    return sum(1 for o in outcomes if o.failed) / len(outcomes)


# ---------------------------------------------------------------- the loop

@dataclass
class Outcome:
    """One attempted task: its inputs, result, latency and every problem."""

    task: object
    prep: object
    result: object = None
    seconds: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def block_count(workload, seconds: float) -> int:
    """Blocks in a run: ``seconds`` of work at the workload's nominal pace.

    A run is a fixed amount of work, not a fixed time.  Every commit then
    runs the same tasks, so the tail rank (10 samples beyond) picks the
    same kind of task, and a faster commit simply finishes sooner.  The
    nominal block times were measured when the benchmark was written.
    """
    enough_for_tail = -(-(TAIL_BEYOND + 1) // workload.block_size)
    return max(enough_for_tail, round(seconds / workload.block_seconds))


def warm_up(workload, seed: int):
    """Run one task of a separate input stream before the timed loop.

    Lazy imports, first allocations and the file cache then settle off the
    clock.  The task is checked like any other; its latency is not used.
    """
    first = next(workload.blocks(seed, stream=2))[0]
    outcomes, _ = run_loop(workload, iter([[first]]), 1)
    return outcomes


def run_loop(workload, blocks, n_blocks: int, recorder=None):
    """Closed loop, one client: each task starts when the previous ends.

    ``workload.prepare`` runs off the clock (inputs, series references);
    ``workload.run`` is the timed task.  An in-process workload's check
    runs right after each task, off the clock, and only a compact summary
    of the result is kept, so that memory does not grow with the run.
    Returns (outcomes, peak RSS in MB of this process after the loop).
    """
    outcomes = []
    for _, block in zip(range(n_blocks), blocks):
        for task in block:
            prep = workload.prepare(task)
            out = Outcome(task=task, prep=prep)
            if recorder is not None:
                recorder.begin_task(len(outcomes))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    out.result = workload.run(prep)
                except Exception as exc:  # every raise is a counted failure
                    out.problems.append(f"raised {type(exc).__name__}: {exc}")
                out.seconds = time.perf_counter() - t0
            if recorder is not None:
                recorder.end_task()
            out.problems.extend(f"warning {w.category.__name__}: {w.message}"
                                for w in caught)
            if workload.in_process:
                _check_one(workload, out)
                out.result = workload.summary(out.prep, out.result)
            outcomes.append(out)
    return outcomes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_all(workload, outcomes) -> None:
    """Check every task of a workload whose checks wait for the loop's end."""
    for out in outcomes:
        _check_one(workload, out)


def _check_one(workload, out) -> None:
    """Add the output check's problems to a task that has not failed yet."""
    if out.failed:
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out.problems.extend(workload.check(out.prep, out.result))
        except Exception as exc:
            out.problems.append(f"check raised {type(exc).__name__}: {exc}")
    out.problems.extend(f"check warning {w.category.__name__}: {w.message}"
                        for w in caught)


def latency_metrics(outcomes) -> dict:
    """task_s.p50, task_s.tail and tasks_per_s from the loop's outcomes.

    Every attempted task is a latency sample; a failed one is not a
    completed task for throughput.
    """
    lat = sorted(o.seconds for o in outcomes)
    busy = sum(lat)
    done = sum(1 for o in outcomes if not o.failed)
    tl = tail(lat)
    if tl is None:
        raise RuntimeError(
            f"{len(lat)} tasks is too few for a tail with {TAIL_BEYOND} beyond")
    return {
        "task_s.p50": statistics.median(lat),
        "task_s.tail": tl[0],
        "tail_percentile": tl[1],
        "samples": tl[2],
        "tasks_per_s": done / busy,
    }


# ---------------------------------------------------------------- set-up

def spawn(argv, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run a child to completion; return (returncode, wall_s, peak_rss_mb).

    The child is reaped with wait4 so that its own rusage is read.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


_IMPORT_PROBE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter(); n0 = len(sys.modules)\n"
    "{imports}\n"
    "t1 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, len(sys.modules) - n0]))\n"
)


def measure_setup(modules, control: bool):
    """Fresh-interpreter import cost of the workload's modules.

    Returns setup_s (median child wall time, spawn to exit), and with
    ``control`` also the per-layer import figures: import.torvdw_s (median
    in-child import time), import.modules and import.interp_s (median wall
    of ``python -c pass``).
    """
    os.makedirs(WORK, exist_ok=True)
    code = _IMPORT_PROBE.format(imports="\n".join(f"import {m}" for m in modules))
    out_path = os.path.join(WORK, "setup-probe.out")
    walls, inner, counts, interp = [], [], [], []
    for rep in range(SETUP_REPEATS + 1):  # the first run warms caches and .pyc
        with open(out_path, "w") as fh:
            rc, wall, _ = spawn([sys.executable, "-c", code], WORK, stdout=fh)
        if rc != 0:
            raise RuntimeError(f"importing {modules} failed with exit code {rc}")
        if control:
            interp_wall = spawn([sys.executable, "-c", "pass"], WORK)[1]
        if rep == 0:
            continue
        walls.append(wall)
        with open(out_path) as fh:
            t_imp, n_mod = json.loads(fh.read())
        inner.append(t_imp)
        counts.append(n_mod)
        if control:
            interp.append(interp_wall)
    os.remove(out_path)
    layer = {}
    if control:
        layer = {
            "import.interp_s": statistics.median(interp),
            "import.torvdw_s": statistics.median(inner),
            "import.modules": statistics.median(counts),
        }
    return statistics.median(walls), layer


# ---------------------------------------------------------------- run record

def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_threads(package) -> dict:
    """BLAS name and the thread count its OpenBLAS reports, where readable."""
    import ctypes
    import glob

    libdir = os.path.dirname(package.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"lib": os.path.basename(path), "threads": fn()}
    return {"lib": "unknown", "threads": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Machine, versions and run parameters, for the output's header."""
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "numpy_blas": _blas_threads(numpy),
        "scipy_blas": _blas_threads(scipy),
        "clients": 1,
        "loop": "closed",
    }
