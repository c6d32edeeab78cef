"""Shared plumbing: paths, CLI phase processes, statistics, the envelope."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Reference digests, computed once per workload, seed, size and src/.
CACHE_DIR = BENCH_DIR / ".cache"
#: Per-run scratch directories (removed when the run ends) and the span
#: files of traced runs.
WORK_ROOT = BENCH_DIR / ".work"

#: A single CLI phase may not take longer than this.
PHASE_TIMEOUT_S = 150.0

#: CPUs this process may run on (its affinity mask, so a cpuset or
#: ``taskset`` counts), the ``nproc`` of the workloads.
try:
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity API on this platform
    CPUS = os.cpu_count() or 1


def require_source() -> None:
    """Fail fast when the program is not beside the benchmark."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(
            f"perfbench: program source not found under {SRC}; run from "
            "the root of a checkout that holds src/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env(work: Path) -> dict:
    """Environment for program processes: the checkout's source, and no
    cross-run measurement cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Program processes start the way an installed program does: from
    # cached bytecode once the first run has compiled it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["REPRO_NO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = str(work / "measurement-cache")
    return env


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced run writes its spans; kept after the run."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return WORK_ROOT / f"{workload}-{seed}.spans"


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Phase:
    """One finished program process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def run_phase(name: str, argv: "list[str]", *, work: Path,
              env: dict, timeout: float = PHASE_TIMEOUT_S) -> Phase:
    """Run one program process to completion, through ``child.py``.

    Wall time runs from spawn to reap, as a user at a shell sees it.  CPU
    time and peak RSS come from ``wait4``, which folds in every worker the
    process reaped itself, so a process pool's workers count.
    """
    out_path = work / f".{name}.stdout"
    report_path = work / f".{name}.usage.json"
    report_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "child.py"),
             str(report_path), *argv],
            stdout=out, stderr=subprocess.STDOUT, cwd=work, env=env,
            start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, args=(proc.pid,))
        timer.start()
        try:
            proc.wait()
        except BaseException:  # interrupted: take the processes down too
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    if not report_path.is_file():  # killed before the command ended
        return Phase(wall_s=timeout, cpu_s=0.0, peak_rss_mb=0.0,
                     returncode=proc.returncode or -1, stdout=stdout)
    usage = json.loads(report_path.read_text())
    report_path.unlink()
    return Phase(wall_s=usage["wall_s"], cpu_s=usage["cpu_s"],
                 peak_rss_mb=usage["maxrss_kb"] / 1024.0,
                 returncode=usage["returncode"], stdout=stdout)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cli(*args: str) -> "list[str]":
    return [sys.executable, "-m", "repro.cli", *args]


@dataclass
class Checks:
    """Named output checks; each failure names what went wrong."""

    attempted: int = 0
    failures: "list[str]" = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def timed_passes(run_pass, seconds: float) -> list:
    """One warm-up pass, discarded, then passes until ``seconds`` would be
    overrun by one more.  Returns what each kept pass returned."""
    run_pass()
    passes: list = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass())
        last = time.perf_counter() - pass_start
        if time.perf_counter() - started + last > seconds:
            return passes


def median(values) -> float:
    return float(statistics.median(values))


def percentile(samples: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def envelope(workload: str, seed: int, trace: bool, **extra) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": CPUS,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_fingerprint": source_fingerprint(),
        **extra,
    }


def cached_reference(key: str, compute) -> dict:
    """``compute()`` once per key and version of ``src/``; later runs read
    the stored result."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    path = CACHE_DIR / f"{key}-{source_fingerprint()}.json"
    if path.is_file():
        return json.loads(path.read_text())
    value = compute()
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(value, sort_keys=True))
    os.replace(tmp, path)
    return value


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summary_digest(summary) -> str:
    """Digest over every field of a ``MeasurementSummary``, taken the way
    ``experiments/scale.py`` takes it."""
    return sha256_text(json.dumps(asdict(summary), sort_keys=True,
                                  default=repr))
