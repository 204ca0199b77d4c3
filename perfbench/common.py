"""Shared pieces of the benchmark: paths, tracing, statistics, run record.

Everything here is standard library only, so that it can be imported
before (and without) the library under test.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# one thread per process: numbers measure the program, not the scheduler
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gesbn; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_VARS)
    return env


def probe_import_s() -> float:
    """Seconds a fresh interpreter spends in `import gesbn`."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# tracing: spans in memory, written out when the run ends
#
# Times are time.perf_counter() readings. On Linux that is CLOCK_MONOTONIC,
# which is shared by all processes, so spans reported by a child process
# line up with the parent's.

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int


class Tracer:
    """Records spans around calls into the library's modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        s = Span(name, time.perf_counter(), math.nan, parent, self.op)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def adopt(self, records, parent: int):
        """Add (name, start, end) spans of a child process under parent."""
        for name, start, end in records:
            self.spans.append(Span(name, start, end, parent, self.op))

    def self_times(self, op_scales=None) -> dict:
        """Span name -> (total seconds, self seconds, count).

        Self time is a span's duration minus the time its child spans
        cover; spans come from one thread, so children never overlap.
        With op_scales, each span's times are multiplied by its op's factor.
        """
        child_cover = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_cover[s.parent] += s.end - s.start
        out = {}
        for s, cover in zip(self.spans, child_cover):
            total, own, count = out.get(s.name, (0.0, 0.0, 0))
            f = op_scales[s.op] if op_scales else 1.0
            dur = s.end - s.start
            out[s.name] = (total + dur * f, own + (dur - cover) * f, count + 1)
        return out

    def to_records(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op}
            for s in self.spans
        ]


def cache_misses(graphs, search) -> dict:
    """Misses so far of the memo caches behind each counter metric.

    Takes the gesbn modules as arguments so that this file stays free of
    library imports. A function that no longer has a cache is skipped.
    """
    counted = {
        "graphs.completions": [graphs.dag_to_cpdag],
        "graphs.class_enumerations": [graphs.consistent_extensions],
        "search.neighbor_sets": [search.forward_neighbors, search.backward_neighbors],
    }
    out = {}
    for metric, fns in counted.items():
        infos = [getattr(fn, "cache_info", None) for fn in fns]
        if all(infos):
            out[metric] = sum(info().misses for info in infos)
    return out


# ---------------------------------------------------------------------------
# calibration: the speed of the machine, measured beside the ops
#
# A shared VM runs the same single-threaded code up to 2x slower or faster
# from one minute, or one second, to the next. A fixed kernel that uses no
# gesbn code is timed in short bursts between ops, and each op's times are
# scaled by CAL_REF_S over the burst median that follows it. That gives
# them in seconds of a machine on which the kernel takes CAL_REF_S. A
# change to the library moves the op times and not the kernel, so it
# shows in full. A workload whose work does not follow the kernel is not
# scaled (its `calibrated` is False), but still records the kernel times.

CAL_REF_S = 0.004  # the kernel's median time on the reference machine
CAL_EVERY_S = 0.5  # at most one burst per this much op time
CAL_BURST = 3  # kernels in a burst


class Calibrator:
    """Times a fixed kernel: Python sets, dicts and a graph walk, small
    numpy calls and a gather from a 4 MB array, in about the mix of
    interpreter and numpy work of the sweeps and of a `gesbn learn`
    process."""

    def __init__(self):
        import numpy as np  # here, after THREAD_VARS are in the environment

        rng = np.random.default_rng(0)
        self._np = np
        self._codes = rng.integers(0, 16, size=4000)
        self._big = rng.random(1 << 19)
        self._index = rng.integers(0, 1 << 19, size=1 << 16)
        self._keys = [frozenset((i, (i * 7) % 13, (i * 11) % 17)) for i in range(400)]
        self._adj = {v: tuple((v * a + 1) % 60 for a in (3, 7, 11)) for v in range(60)}
        self.samples: list[float] = []
        self.at: list[int] = []  # ops done before each sample; -1 in set-up
        self._last = time.perf_counter()

    def _kernel(self):
        np = self._np
        seen = {}
        for _ in range(9):
            for key in self._keys:
                seen[key] = seen.get(key, 0) + len(key & self._keys[len(key)])
        reached = 0
        for root in range(40):
            stack, seen = [root], set()
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(w for w in self._adj[v] if w not in seen)
            reached += len(sorted(seen, key=lambda v: -v))
        for _ in range(50):
            np.bincount(self._codes, minlength=16)
        return reached + float(self._big[self._index].sum())

    def sample(self, at=-1) -> float:
        """Time the kernel once; return the seconds it took."""
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.at.append(at)
        self._last = end
        return end - start

    def burst(self, done=-1) -> list:
        """Time the kernel CAL_BURST times, after `done` ops (-1: in set-up)."""
        return [self.sample(done) for _ in range(CAL_BURST)]

    def between_ops(self, done) -> float:
        """Run a burst if CAL_EVERY_S has passed since the last one, after
        `done` ops; return the seconds spent, which the caller leaves out
        of its op time."""
        if time.perf_counter() - self._last < CAL_EVERY_S:
            return 0.0
        return sum(self.burst(done))

    def op_scales(self, n_ops) -> list:
        """Per op, the factor from its wall seconds to reference seconds,
        from the median of the first burst after it, so that the scale
        follows the machine's swings within a run."""
        bursts = {}
        for at, x in zip(self.at, self.samples):
            if at >= 0:
                bursts.setdefault(at, []).append(x)
        after = [(at, statistics.median(xs)) for at, xs in sorted(bursts.items())]
        if not after:
            after = [(n_ops, statistics.median(self.samples))]
        out, j = [], 0
        for k in range(n_ops):
            while j < len(after) - 1 and after[j][0] <= k:
                j += 1
            out.append(CAL_REF_S / after[j][1])
        return out


# ---------------------------------------------------------------------------
# statistics

def percentile(values, q):
    """Linear-interpolated q-th percentile (q in 0..100) and its sample count.

    Returns (value, n, beyond): beyond is how many samples lie above the
    value, which says how much the percentile can be trusted.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    val = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return val, len(xs), sum(1 for x in xs if x > val)


# ---------------------------------------------------------------------------
# run record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the library sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gesbn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }


@dataclass
class LayerCounters:
    """Work a traced run counts beside its spans."""

    misses: dict = field(default_factory=dict)  # memo-cache misses, by metric
    steps: dict = field(default_factory=dict)  # op index -> search trace length
    locals: int = 0  # local scores computed by the scoring probe
    sampled: int = 0  # records drawn by observed_sample

    def add_misses(self, misses: dict):
        for key, val in misses.items():
            self.misses[key] = self.misses.get(key, 0) + val


@dataclass
class Failures:
    """Failed ops by index, each with the reasons it failed."""

    reasons: dict = field(default_factory=dict)

    def add(self, op: int, reason: str):
        self.reasons.setdefault(op, []).append(reason)

    def __len__(self):
        return len(self.reasons)
