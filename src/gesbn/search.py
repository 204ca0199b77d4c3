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

from dataclasses import dataclass, field, replace
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
from .scoring import ScoreConfig, make_scorer


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

    start is "empty", "complete", an explicit Cpdag, or None for the
    algorithm's default (complete for bes, empty otherwise); max_steps = 0
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


# each algorithm's (phase name, neighbour map) pairs, run in order
PHASES = {
    "fes": (("forward", forward_neighbors),),
    "bes": (("backward", backward_neighbors),),
    "ges": (("forward", forward_neighbors), ("backward", backward_neighbors)),
    "uges": (("bidirectional", _both_neighbors),),
}
ALGORITHMS = tuple(PHASES)


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


def make_class_scorer(score_cfg: ScoreConfig, data=None, joint=None):
    """Build a Cpdag -> score callable from a dataset or an exact joint.

    Every class is scored through its canonical-first member DAG; the
    criteria in use are score equivalent, so the choice of member only
    pins floating-point determinism.
    """
    scorer = make_scorer(score_cfg, data, joint)
    n = (data if joint is None else joint).spec.n
    return lambda c: scorer.score_dag(consistent_extensions(c)[0]), n


def _start_class(start, algorithm, n) -> Cpdag:
    if start is None:
        start = "complete" if algorithm == "bes" else "empty"
    if isinstance(start, Cpdag):
        return start
    if start == "empty":
        return empty_cpdag(n)
    if start == "complete":
        return complete_cpdag(n)
    raise ValueError(f"unknown start {start!r}")


def run_search(cfg: SearchConfig, data=None, joint=None):
    """Run cfg.algorithm's phases in turn from cfg.start; (Cpdag, SearchTrace).

    The trace joins the phases' traces under one start line.
    """
    class_scorer, n = make_class_scorer(cfg.score, data, joint)
    cur = _start_class(cfg.start, cfg.algorithm, n)
    trace = SearchTrace()
    for phase, neighbors_fn in PHASES[cfg.algorithm]:
        cur, part = greedy_phase(
            cur, neighbors_fn, class_scorer, phase, cfg.max_steps or None
        )
        trace.steps += part.steps[1:] if trace.steps else part.steps
        trace.truncated = trace.truncated or part.truncated
    return cur, trace


def _config(algorithm, cfg: SearchConfig, start=None) -> SearchConfig:
    cfg = cfg if cfg is not None else SearchConfig()
    start = start if start is not None else cfg.start
    return replace(cfg, algorithm=algorithm, start=start)


def fes(data=None, joint=None, cfg: SearchConfig = None, start=None):
    """Forward equivalence search from the given class (default empty)."""
    return run_search(_config("fes", cfg, start), data, joint)


def bes(start=None, data=None, joint=None, cfg: SearchConfig = None):
    """Backward equivalence search from the given class (default complete)."""
    return run_search(_config("bes", cfg, start), data, joint)


def ges(data=None, joint=None, cfg: SearchConfig = None):
    """Forward phase to a local maximum, then backward phase, one trace."""
    return run_search(_config("ges", cfg), data, joint)


def uges(data=None, joint=None, cfg: SearchConfig = None, start=None):
    """Greedy over forward and backward neighbors together at every step."""
    return run_search(_config("uges", cfg, start), data, joint)
