"""Shared plumbing: locating ``src/``, hermetic runs, outcomes, timing."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import catalog

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_OUT = BENCH_DIR / "out"


def add_src_to_path() -> None:
    """Make the checkout's own ``repro`` importable (no install needed)."""
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


@contextmanager
def sandbox(out: Path) -> Iterator[Path]:
    """A throw-away work directory with every ``repro`` side effect in it.

    Clears the ``REPRO_*`` behaviour knobs (``verify.hermetic_env``) and
    points the design cache, temp files (the sweep's SQLite bus) and
    hypothesis at a fresh directory under ``out``, so a run neither
    reads state left by an earlier one nor writes outside ``out``.
    """
    from repro.verify import hermetic_env

    out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    (work / "tmp").mkdir()
    redirected = {
        "REPRO_CACHE_DIR": str(work / "cache"),
        "REPRO_STORE_DIR": "off",
        "TMPDIR": str(work / "tmp"),
        "HYPOTHESIS_STORAGE_DIRECTORY": str(work / "hypothesis"),
    }
    saved = {name: os.environ.get(name) for name in redirected}
    saved_tempdir = tempfile.tempdir
    try:
        with hermetic_env():
            os.environ.update(redirected)
            tempfile.tempdir = None  # re-resolve from TMPDIR
            yield work
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)


@dataclass
class Outcome:
    """Everything one pass of one workload produced."""

    workload: str
    kind: str  # "end_to_end" | "per_layer"
    seed: int
    attempted: int = 0
    failed: int = 0
    checks: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    # Simulated values that must repeat exactly for a fixed seed.
    sim: Dict[str, object] = field(default_factory=dict)
    behaviour_drift: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def op(self, ok: bool) -> None:
        """Count one operation (cell, rep, verify property)."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one named correctness check; it is an operation too."""
        self.op(bool(ok))
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def put(
        self, name: str, value: float, n: int = 1,
        rounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Record a metric; ``n`` is the sample count behind ``value``.

        ``rounds`` are the per-round values of a metric measured once per
        round; their spread is this run's own run-to-run spread.
        """
        metric = catalog.BY_NAME[name]  # KeyError = undeclared metric
        entry: Dict[str, object] = {"value": value, "unit": metric.unit, "n": n}
        if rounds is not None:
            entry["n"] = len(rounds)
            spread = catalog.spread(rounds)
            if spread is not None:
                entry["spread"] = spread
        self.metrics[name] = entry

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def median_put(out: Outcome, name: str, samples: Sequence[float]) -> None:
    """A metric sampled several times within one round."""
    out.put(name, statistics.median(samples), n=len(samples))


def median_rounds(out: Outcome, name: str, rounds: Sequence[float]) -> None:
    """A metric measured once per round."""
    out.put(name, statistics.median(rounds), rounds=rounds)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def rounds(seconds: float, body: Callable[[], None]) -> int:
    """Repeat ``body`` while another round still fits in ``seconds``.

    Rounds are fixed-size, so the budget only decides how many samples
    the reported medians rest on.  Always runs at least one round.
    """
    start = time.perf_counter()
    done = 0
    while True:
        round_start = time.perf_counter()
        body()
        done += 1
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return done


def python_child(
    args: Sequence[str], capture: bool = True
) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports this checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=str(ROOT), check=True,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )


def child_reported_seconds(code: str) -> float:
    """Seconds a child measured around ``code`` (excludes interpreter start)."""
    program = (
        "import time\n_t0 = time.perf_counter()\n"
        f"{code}\nprint(time.perf_counter() - _t0)"
    )
    return float(python_child(["-c", program]).stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
