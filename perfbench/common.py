"""Shared pieces of the benchmark: paths, child processes, statistics, results."""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ROOT / "scenarios"
#: Everything a run leaves behind goes here (git-ignored).
OUT = ROOT / ".perfbench_out"

#: Fresh CLI launches per set-up measurement; the median is reported.
SETUP_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EDGEPLANE_LOG", None)
    return env


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "edgeplane.cli", *args]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), e.g. q=90 for p90."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def windowed_p90(values: list[float], window: int = 100) -> float:
    """Median, over consecutive windows of ``window`` samples, of each one's p90.

    A burst of host noise moves the p90 of the windows it falls in but not
    the median across windows.  With fewer than two full windows this is the
    plain p90.
    """
    windows = [values[i:i + window] for i in range(0, len(values) - window + 1, window)]
    if len(windows) < 2:
        return quantile(values, 90)
    return statistics.median(quantile(w, 90) for w in windows)


def time_validate(path: Path) -> float:
    """CPU time of a fresh ``edgeplane validate --quiet`` on ``path``, scaled.

    The child runs on this process's CPU, which samples the host speed until
    the child exits; the child's own CPU time is what sampling leaves
    untouched, and for a start-up that reads only cached files it is the
    time from launch to exit.
    """
    sampler = Sampler()
    sampler.sample()
    proc = subprocess.Popen(cli("validate", "--quiet", "--scenario", str(path)),
                            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, usage = wait_child(proc, sampler=sampler)
    if proc.returncode != 0:
        raise RuntimeError(f"validate exited {proc.returncode} on {path}")
    return cpu_s(usage) * sampler.factor()


def setup_s(path: Path) -> float:
    """Median over SETUP_REPEATS launches of the CLI, each running to
    ``validate`` exiting 0; CPU time at the reference speed."""
    return statistics.median(time_validate(path) for _ in range(SETUP_REPEATS))


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def cli_import_s() -> float:
    """Median time to ``import edgeplane.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import edgeplane.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def peak_rss_mb(ru_maxrss_kb: int) -> float:
    return ru_maxrss_kb / 1024


class Digest:
    """sha256 over every output document, in the order produced."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.documents = 0

    def add(self, text: str | bytes):
        data = text.encode("utf-8") if isinstance(text, str) else text
        self._hash.update(len(data).to_bytes(8, "big"))
        self._hash.update(data)
        self.documents += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0  # wrong output, crash or failed check: JSON "failed"
    undecided: int = 0  # no answer (search gave up, raised, ran over): not wrong
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    extra: dict[str, object] = field(default_factory=dict)
    digest: Digest = field(default_factory=Digest)

    def fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path  # generated inputs and span files for this run
    tiny: bool = False  # smoke-check size: every path runs, briefly


def wait_child(proc, timeout: float | None = None, sampler: Sampler | None = None):
    """Reap ``proc`` (killing it at ``timeout`` seconds); returns (timed_out, rusage).

    ``os.wait4`` gives the child's own CPU time and peak RSS, which
    ``Popen.wait`` drops.  With a ``sampler``, host speed is sampled about
    every 50 ms meanwhile.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            if sampler is None:
                time.sleep(0.002)
            else:
                sampler.sample()
                time.sleep(0.05)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return timed_out, usage
