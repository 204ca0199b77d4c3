"""Greedy searches over equivalence classes of DAGs.

Neighborhoods are generated by enumerating the member DAGs of a class and
applying every single-edge addition or deletion, deduplicating the
resulting completed patterns. That is exponential in class size in the
worst case but exact, and perfectly adequate at desk scale; both neighbor
maps are memoized since the class space for fixed n is small.

Moves require strict score improvement, ties among equal-best improving
neighbors are broken by canonical encoding, and the full trace of every
run is captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .graphs import (
    Cpdag,
    GraphError,
    canonical_key,
    complete_cpdag,
    consistent_extensions,
    dag_to_cpdag,
    empty_cpdag,
)
from .scoring import ScoreConfig, dataset_scorer, joint_scorer

ALGORITHMS = ("fes", "bes", "ges", "uges")


@dataclass(frozen=True)
class SearchState:
    cpdag: Cpdag
    score: float


@dataclass(frozen=True)
class TraceStep:
    phase: str
    state: SearchState
    move: str


@dataclass
class SearchTrace:
    """The visited states in order; truncated marks a hit step budget."""

    steps: list = field(default_factory=list)
    truncated: bool = False

    def final(self) -> SearchState:
        return self.steps[-1].state

    def scores(self) -> list:
        return [s.state.score for s in self.steps]

    def to_log(self) -> str:
        """One move per line: phase, move, score before, score after."""
        lines = []
        prev = None
        for step in self.steps:
            before = "-" if prev is None else repr(prev)
            lines.append(
                f"{step.phase}\t{step.move}\t{before}\t{step.state.score!r}"
            )
            prev = step.state.score
        if self.truncated:
            lines.append("# truncated: step budget exhausted before a local maximum")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SearchConfig:
    """Algorithm choice, start class, scoring setup and a step budget.

    start is "empty", "complete", or an explicit Cpdag; max_steps = 0
    selects the default budget of n^2 + n moves per phase.
    """

    algorithm: str = "ges"
    start: object = None
    score: ScoreConfig = field(default_factory=ScoreConfig)
    max_steps: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be positive (0 = default)")


def _single_edge_variants(c: Cpdag, add):
    out = set()
    for g in consistent_extensions(c):
        if add:
            for u in range(c.n):
                for v in range(c.n):
                    if u == v or g.adjacent(u, v):
                        continue
                    try:
                        out.add(dag_to_cpdag(g.add_edge(u, v)))
                    except GraphError:
                        continue
        else:
            for u, v in g.edges:
                out.add(dag_to_cpdag(g.remove_edge(u, v)))
    return tuple(sorted(out, key=canonical_key))


@lru_cache(maxsize=None)
def forward_neighbors(c: Cpdag) -> tuple:
    """Classes reachable by adding one edge to some member DAG."""
    return _single_edge_variants(c, add=True)


@lru_cache(maxsize=None)
def backward_neighbors(c: Cpdag) -> tuple:
    """Classes reachable by deleting one edge from some member DAG."""
    return _single_edge_variants(c, add=False)


@lru_cache(maxsize=None)
def _both_neighbors(c: Cpdag) -> tuple:
    merged = set(forward_neighbors(c)) | set(backward_neighbors(c))
    return tuple(sorted(merged, key=canonical_key))


def _move_desc(prev: Cpdag, new: Cpdag) -> str:
    added = sorted(new.skeleton() - prev.skeleton())
    removed = sorted(prev.skeleton() - new.skeleton())
    parts = [f"add {u}--{v}" for u, v in added]
    parts += [f"delete {u}--{v}" for u, v in removed]
    return "; ".join(parts) if parts else "reorient"


def greedy_phase(start: Cpdag, neighbors_fn, class_scorer, phase="forward", max_steps=None):
    """Repeatedly move to the best strictly-improving neighbor.

    Returns (local maximum, SearchTrace). Ties among equal-best improving
    neighbors go to the smallest canonical encoding; hitting max_steps
    before convergence yields a truncated trace.
    """
    if max_steps is None:
        max_steps = start.n * start.n + start.n
    cur = start
    cur_score = class_scorer(cur)
    trace = SearchTrace([TraceStep(phase, SearchState(cur, cur_score), "start")])
    moves = 0
    while True:
        best, best_score = None, None
        for nb in neighbors_fn(cur):  # canonical order: first win breaks ties
            s = class_scorer(nb)
            if s <= cur_score:
                continue
            if best is None or s > best_score:
                best, best_score = nb, s
        if best is None:
            break
        if moves >= max_steps:
            trace.truncated = True
            break
        step = TraceStep(phase, SearchState(best, best_score), _move_desc(cur, best))
        trace.steps.append(step)
        cur, cur_score = best, best_score
        moves += 1
    return cur, trace


def make_class_scorer(score_cfg: ScoreConfig = None, data=None, joint=None):
    """Build a Cpdag -> score callable from a dataset or an exact joint.

    Every class is scored through its canonical-first member DAG; the
    criteria in use are score equivalent, so the choice of member only
    pins floating-point determinism.
    """
    score_cfg = score_cfg if score_cfg is not None else ScoreConfig()
    if (data is None) == (joint is None):
        raise ValueError("provide exactly one of data or joint")
    if joint is not None:
        scorer = joint_scorer(
            joint, score_cfg.oracle_pseudo_m, score_cfg.structure_prior
        )
        n = joint.spec.n
    else:
        if score_cfg.criterion == "oracle":
            raise ValueError("oracle criterion needs a joint table")
        scorer = dataset_scorer(data, score_cfg)
        n = data.spec.n
    return lambda c: scorer.score_dag(consistent_extensions(c)[0]), n


def _resolve_start(start, n, default):
    if start is None:
        start = default
    if isinstance(start, Cpdag):
        return start
    if start == "empty":
        return empty_cpdag(n)
    if start == "complete":
        return complete_cpdag(n)
    raise ValueError(f"unknown start {start!r}")


def fes(data=None, joint=None, cfg: SearchConfig = None, start=None):
    """Forward equivalence search from the given class (default empty)."""
    cfg = cfg if cfg is not None else SearchConfig(algorithm="fes")
    class_scorer, n = make_class_scorer(cfg.score, data, joint)
    start = _resolve_start(start if start is not None else cfg.start, n, "empty")
    return greedy_phase(
        start, forward_neighbors, class_scorer, "forward", cfg.max_steps or None
    )


def bes(start=None, data=None, joint=None, cfg: SearchConfig = None):
    """Backward equivalence search from the given class (default complete)."""
    cfg = cfg if cfg is not None else SearchConfig(algorithm="bes")
    class_scorer, n = make_class_scorer(cfg.score, data, joint)
    start = _resolve_start(start if start is not None else cfg.start, n, "complete")
    return greedy_phase(
        start, backward_neighbors, class_scorer, "backward", cfg.max_steps or None
    )


def ges(data=None, joint=None, cfg: SearchConfig = None):
    """Forward phase to a local maximum, then backward phase, one trace."""
    cfg = cfg if cfg is not None else SearchConfig()
    class_scorer, n = make_class_scorer(cfg.score, data, joint)
    start = _resolve_start(cfg.start, n, "empty")
    budget = cfg.max_steps or None
    mid, fwd = greedy_phase(start, forward_neighbors, class_scorer, "forward", budget)
    out, bwd = greedy_phase(mid, backward_neighbors, class_scorer, "backward", budget)
    trace = SearchTrace(fwd.steps + bwd.steps[1:], fwd.truncated or bwd.truncated)
    return out, trace


def uges(data=None, joint=None, cfg: SearchConfig = None, start=None):
    """Greedy over forward and backward neighbors together at every step."""
    cfg = cfg if cfg is not None else SearchConfig(algorithm="uges")
    class_scorer, n = make_class_scorer(cfg.score, data, joint)
    start = _resolve_start(start if start is not None else cfg.start, n, "empty")
    return greedy_phase(
        start, _both_neighbors, class_scorer, "bidirectional", cfg.max_steps or None
    )


def run_search(cfg: SearchConfig, data=None, joint=None):
    """Dispatch on cfg.algorithm; returns (Cpdag, SearchTrace)."""
    if cfg.algorithm == "fes":
        return fes(data, joint, cfg)
    if cfg.algorithm == "bes":
        return bes(cfg.start, data, joint, cfg)
    if cfg.algorithm == "ges":
        return ges(data, joint, cfg)
    return uges(data, joint, cfg)
