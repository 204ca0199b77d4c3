"""Replicated benchmark sweeps against the gold-standard models.

For each (sample size, replicate) cell: draw fresh generative parameters,
sample an observed dataset of that size, run the configured search, and
classify the learned class against the oracle-certified optimal classes
of that replicate's exact margin. Rows land in a results CSV with a
per-size summary block appended.

Per-replicate seeds are derived as base_seed XOR the first eight bytes of
SHA-256("<m>:<replicate>"), so any cell can be reproduced in isolation.
Replicates are independent jobs; parallel and serial execution produce
byte-identical output.
"""

from __future__ import annotations

import hashlib
import io
import numbers
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .datagen import GOLD_STANDARDS, RngSeed, observed_sample, save_model
from .graphs import Cpdag, cpdag_from_text, encode_edges
from .oracle import observed_margin, optimal_classes
from .scoring import ScoreConfig
from .search import ALGORITHMS, SearchConfig, run_search

GENERATIVE_ESS = 10.0  # concentration of the gold-standard parameter prior
PARAM_STREAM, DATA_STREAM = 0, 1
_MASK64 = (1 << 64) - 1

OUTCOMES = ("parameter_optimal", "inclusion_optimal_only", "not_inclusion_optimal")
CSV_HEADER = "gold,m,replicate,outcome,class,millis"

DESK_SIZES = tuple(10 * 2 ** k for k in range(15))  # 10 .. 163840
PAPER_SIZES = tuple(10 * 2 ** k for k in range(17))  # 10 .. 655360


@dataclass(frozen=True)
class ExperimentPlan:
    """One full sweep: a gold standard, sizes, replicates, scoring, search."""

    gold: str = "w_structure"
    sizes: tuple = DESK_SIZES
    replicates: int = 50
    base_seed: int = 0
    score: ScoreConfig = field(default_factory=ScoreConfig)
    algorithm: str = "ges"

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(_integer(s, "sample size") for s in self.sizes))
        for name in ("replicates", "base_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.gold not in GOLD_STANDARDS:
            raise ValueError(f"gold must be one of {tuple(GOLD_STANDARDS)}")
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("sample sizes must be positive")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sample sizes must be strictly increasing")
        if self.replicates < 1:
            raise ValueError("need at least one replicate per size")
        if not 0 <= self.base_seed <= _MASK64:
            raise ValueError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")


def _integer(value, name) -> int:
    """value as an int; a boolean, a float or a string raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} is not an integer: {value!r}")
    return int(value)


def paper_plan(gold="w_structure", base_seed=0, **kw) -> ExperimentPlan:
    """The published protocol: 17 doubling sizes, 100 replicates each."""
    return ExperimentPlan(gold, PAPER_SIZES, 100, base_seed, **kw)


@dataclass(frozen=True)
class ExperimentRow:
    gold: str
    m: int
    replicate: int
    outcome: str
    encoded_class: str
    millis: int


def replicate_seed(base_seed, m, replicate) -> int:
    digest = hashlib.sha256(f"{m}:{replicate}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") ^ base_seed) & _MASK64


@lru_cache(maxsize=None)
def compact_class(c: Cpdag, spec) -> str:
    """Single-line canonical class encoding for CSV cells; memoized, so
    the rows of equal classes share one string."""
    return ";".join(encode_edges(c, spec).split("\n")).strip(";")


def class_from_compact(text, spec) -> Cpdag:
    return cpdag_from_text(text.replace(";", "\n"), spec)


def classify_outcome(learned: Cpdag, margin) -> str:
    """Compare a learned class against the margin's optimal class sets."""
    inclusion, parameter = optimal_classes(margin)
    if learned in parameter:
        return "parameter_optimal"
    if learned in inclusion:
        return "inclusion_optimal_only"
    return "not_inclusion_optimal"


def run_replicate(gold_name, m, replicate, base_seed, score_cfg=None,
                  algorithm="ges", models_dir=None) -> ExperimentRow:
    """One experiment cell: generate, learn, classify against the oracle."""
    score_cfg = score_cfg if score_cfg is not None else ScoreConfig()
    started = time.perf_counter()
    seed = replicate_seed(base_seed, m, replicate)
    gold = GOLD_STANDARDS[gold_name]().with_parameters(
        ess=GENERATIVE_ESS, seed=RngSeed(seed, PARAM_STREAM)
    )
    if models_dir is not None:
        save_model(gold, os.path.join(models_dir, f"{gold_name}_m{m}_r{replicate}.json"))
    margin = observed_margin(gold)
    cfg = SearchConfig(algorithm=algorithm, score=score_cfg)
    if score_cfg.criterion == "oracle":
        learned, _ = run_search(cfg, joint=margin)
    else:
        data = observed_sample(gold, m, RngSeed(seed, DATA_STREAM))
        learned, _ = run_search(cfg, data=data)
    outcome = classify_outcome(learned, margin)
    millis = int((time.perf_counter() - started) * 1000)
    return ExperimentRow(
        gold_name, m, replicate, outcome,
        compact_class(learned, gold.observed_spec), millis,
    )


def _replicate_job(args) -> ExperimentRow:
    gold_name, m, replicate, base_seed, score_cfg, algorithm, models_dir = args
    try:
        return run_replicate(
            gold_name, m, replicate, base_seed, score_cfg, algorithm, models_dir
        )
    except Exception as exc:  # an error row must never abort the sweep
        reason = f"{type(exc).__name__}: {exc}".replace("\n", " ").replace(",", ";")
        return ExperimentRow(gold_name, m, replicate, "error", reason[:200], 0)


def run_experiment(plan: ExperimentPlan, workers=1, models_dir=None) -> list:
    """All rows of a plan, ordered by (size, replicate)."""
    if models_dir is not None:
        os.makedirs(models_dir, exist_ok=True)
    jobs = [
        (plan.gold, m, rep, plan.base_seed, plan.score, plan.algorithm, models_dir)
        for m in plan.sizes
        for rep in range(plan.replicates)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: only parallel sweeps pay its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_replicate_job, jobs, chunksize=4))
    else:
        rows = [_replicate_job(job) for job in jobs]
    return rows


def summarize(rows) -> dict:
    """Per-size counts: m -> (inclusion-optimal, parameter-optimal, total)."""
    out = {}
    for row in rows:
        n_incl, n_popt, total = out.get(row.m, (0, 0, 0))
        total += 1
        if row.outcome in ("parameter_optimal", "inclusion_optimal_only"):
            n_incl += 1
        if row.outcome == "parameter_optimal":
            n_popt += 1
        out[row.m] = (n_incl, n_popt, total)
    return dict(sorted(out.items()))


def results_csv(rows, timings=False) -> str:
    """Render rows plus the summary block.

    The millis column is written as 0 unless timings is set: wall time is
    not reproducible, and the results file must be byte-identical across
    reruns and worker counts.
    """
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in sorted(rows, key=lambda r: (r.m, r.replicate)):
        millis = row.millis if timings else 0
        buf.write(
            f"{row.gold},{row.m},{row.replicate},{row.outcome},"
            f"{row.encoded_class},{millis}\n"
        )
    gold = rows[0].gold if rows else ""
    for m, (n_incl, n_popt, total) in summarize(rows).items():
        buf.write(f"# summary,{gold},{m},{n_incl}/{total},{n_popt}/{total}\n")
    return buf.getvalue()


def parse_results_csv(text):
    """Inverse of results_csv: (rows, summary dict m -> counts)."""
    rows, summary = [], {}
    for line in text.splitlines():
        if not line or line == CSV_HEADER:
            continue
        if line.startswith("# summary,"):
            _, _, m, incl, popt = line.split(",")
            n_incl, total = map(int, incl.split("/"))
            n_popt, _ = map(int, popt.split("/"))
            summary[int(m)] = (n_incl, n_popt, total)
            continue
        gold, m, rep, outcome, enc, millis = line.split(",")
        rows.append(
            ExperimentRow(gold, int(m), int(rep), outcome, enc, int(millis))
        )
    return rows, summary


def write_results(path, rows, timings=False):
    with open(path, "w", newline="") as fh:
        fh.write(results_csv(rows, timings))
