"""Greedy searches over equivalence classes of DAGs.

A search step moves to a class one edge addition or deletion away, with
the Insert(X, Y, T) and Delete(X, Y, H) operators of Chickering (2002),
"Optimal Structure Identification With Greedy Search". Their validity
tests read the completed pattern only, and each move changes one node's
parent set, so it is scored by a one-node local-score delta; only the
best-scoring moves are turned into classes and scored in full. One
scoring.DecomposableScorer per run serves both, and memoizes every local
and class score. The brute-force neighbour maps, which enumerate every
member DAG, stay as test oracles.

Moves require strict score improvement, ties among float-equal best
improving neighbors are broken by canonical encoding, and the full trace
of every run is captured.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from typing import NamedTuple

from .graphs import (
    Cpdag,
    GraphError,
    Pdag,
    canonical_key,
    complete_cpdag,
    consistent_extensions,
    dag_to_cpdag,
    empty_cpdag,
    pdag_extension,
    reachable,
)
from .scoring import ScoreConfig, make_scorer


@dataclass(frozen=True)
class TraceStep:
    """A visited class, its score, and the move that reached it."""

    phase: str
    cpdag: Cpdag
    score: float
    move: str


@dataclass
class SearchTrace:
    """The visited classes in order; truncated marks a hit step budget."""

    steps: list = field(default_factory=list)
    truncated: bool = False

    def to_log(self) -> str:
        """One move per line: phase, move, score before, score after."""
        lines, before = [], "-"
        for step in self.steps:
            lines.append(f"{step.phase}\t{step.move}\t{before}\t{step.score!r}")
            before = repr(step.score)
        if self.truncated:
            lines.append("# truncated: step budget exhausted before a local maximum")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SearchConfig:
    """Algorithm choice, start class, scoring setup and a step budget.

    start is "empty", "complete", a Cpdag with one node per variable, or
    None for the algorithm's default (complete for bes, empty otherwise);
    max_steps = 0 selects the default budget of n^2 + n moves per phase.
    """

    algorithm: str = "ges"
    start: object = None
    score: ScoreConfig = field(default_factory=ScoreConfig)
    max_steps: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if not (isinstance(self.start, Cpdag) or self.start in (None, "empty", "complete")):
            raise ValueError(f"unknown start {self.start!r}")
        steps = self.max_steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
            raise ValueError(f"max_steps must be a whole number >= 0 (0 = default), got {steps!r}")


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
    """Classes reachable by adding one edge to some member DAG (brute force)."""
    return _single_edge_variants(c, add=True)


@lru_cache(maxsize=None)
def backward_neighbors(c: Cpdag) -> tuple:
    """Classes reachable by deleting one edge from some member DAG (brute force)."""
    return _single_edge_variants(c, add=False)


class Move(NamedTuple):
    """One Insert(x, y, s) or Delete(x, y, s) operator on a class.

    The move changes the parents of y from old to new in some member DAG
    and leaves every other family alone, so it changes a decomposable
    score by local(y, new) - local(y, old). s is T for an insert and H
    for a delete.
    """

    insert: bool
    x: int
    y: int
    s: tuple
    old: tuple
    new: tuple


def _subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


@lru_cache(maxsize=None)
def insert_moves(c: Cpdag) -> tuple:
    """The valid Insert(x, y, T) operators of Chickering (2002), Theorem
    15, one per class they lead to.

    x and y are non-adjacent, and T is a set of undirected neighbours of
    y not adjacent to x. With NA the undirected neighbours of y adjacent
    to x, the move is valid iff NA | T is a clique and every semi-directed
    path from y to x meets NA | T. The new class keeps the skeleton plus
    x -- y and the v-structures of c not shielded by x -- y, and adds
    q -> y <- x for each q in T or a directed parent of y not adjacent to
    x; moves that add the same v-structures lead to the same class.
    """
    g = Pdag(c.n, c.directed, c.undirected)
    semi_directed = lambda u: g.children[u] | g.neigh[u]
    out, seen = [], set()
    for y in range(c.n):
        adj_y = g.adj(y)
        for x in range(c.n):
            if x == y or x in adj_y:
                continue
            adj_x = g.adj(x)
            na = g.neigh[y] & adj_x
            for t in _subsets(g.neigh[y] - adj_x):
                cond = na | set(t)
                # x is not in cond, so reaching it means a path avoids cond
                if not g.is_clique(cond) or x in reachable({y}, semi_directed, cond):
                    continue
                colliders = (g.parents[y] - adj_x) | set(t)
                key = (min(x, y), max(x, y), (y, frozenset(colliders)) if colliders else ())
                if key in seen:
                    continue
                seen.add(key)
                old = tuple(sorted(g.parents[y] | cond))
                out.append(Move(True, x, y, t, old, tuple(sorted(old + (x,)))))
    return tuple(out)


@lru_cache(maxsize=None)
def delete_moves(c: Cpdag) -> tuple:
    """The valid Delete(x, y, H) operators of Chickering (2002), Theorem
    17, one per class they lead to.

    x -> y or x -- y is an edge, and H is a set of undirected neighbours of
    y adjacent to x (NA); the move is valid iff NA - H is a clique. The
    new class drops x -- y and the v-structures through it, and adds
    x -> h <- y for each common directed child h of x and y and each h in
    H that the move orients out of x; moves on one pair that add the same
    v-structures lead to the same class.
    """
    g = Pdag(c.n, c.directed, c.undirected)
    out, seen = [], set()
    for y in range(c.n):
        for x in sorted(g.parents[y] | g.neigh[y]):
            na = g.neigh[y] & g.adj(x)
            for h in _subsets(na):
                rest = na - set(h)
                if not g.is_clique(rest):
                    continue
                colliders = frozenset(v for v in h if v not in g.parents[x])
                key = (min(x, y), max(x, y), colliders)
                if key in seen:
                    continue
                seen.add(key)
                new = tuple(sorted((g.parents[y] | rest) - {x}))
                out.append(Move(False, x, y, h, tuple(sorted(new + (x,))), new))
    return tuple(out)


@lru_cache(maxsize=None)
def apply_move(c: Cpdag, move: Move) -> Cpdag:
    """The class a valid move leads to: the PDAG after the move, extended
    to a DAG and completed."""
    x, y = move.x, move.y
    if move.insert:
        p = Pdag(c.n, c.directed | {(x, y)}, c.undirected)
        for t in move.s:
            p.orient(t, y)
    else:
        p = Pdag(c.n, c.directed - {(x, y)}, c.undirected - {(min(x, y), max(x, y))})
        for h in move.s:
            p.orient(y, h)
            if h in p.neigh[x]:
                p.orient(x, h)
    g = pdag_extension(c.n, *p.edges())
    if g is None:
        raise GraphError(f"{move} leaves a PDAG with no extension")
    return dag_to_cpdag(g)


# the moves each phase may make; each algorithm runs its phases in order
PHASE_MOVES = {
    "forward": (insert_moves,),
    "backward": (delete_moves,),
    "bidirectional": (insert_moves, delete_moves),
}
PHASES = {
    "fes": ("forward",),
    "bes": ("backward",),
    "ges": ("forward", "backward"),
    "uges": ("bidirectional",),
}
ALGORITHMS = tuple(PHASES)


def operator_neighbors(phase, scorer):
    """A neighbour map for greedy_phase that scores moves by local deltas.

    Each move of the phase is scored as cur + local(y, new) - local(y,
    old), which is the exact class score up to rounding (the criteria
    are score equivalent). With tol = 1e-9 * (1 + |cur|), the map returns
    no class when no move scores above cur - tol, and otherwise only the
    classes of moves within 2 * tol of the best one, in canonical order.
    That set holds every strictly improving neighbour of the best exact
    score, so greedy_phase picks what it would pick from all neighbours.
    """
    moves_fns = PHASE_MOVES[phase]

    def neighbors(c: Cpdag) -> tuple:
        cur = scorer.score_class(c)
        tol = 1e-9 * (1 + abs(cur))
        scored = [
            (cur + scorer.local(m.y, m.new) - scorer.local(m.y, m.old), m)
            for moves in moves_fns
            for m in moves(c)
        ]
        best = max((s for s, _ in scored), default=None)
        if best is None or best <= cur - tol:
            return ()
        near = {apply_move(c, m) for s, m in scored if s >= best - 2 * tol}
        return tuple(sorted(near, key=canonical_key))

    return neighbors


def _move_desc(prev: Cpdag, new: Cpdag) -> str:
    added = sorted(new.skeleton() - prev.skeleton())
    removed = sorted(prev.skeleton() - new.skeleton())
    parts = [f"add {u}--{v}" for u, v in added]
    parts += [f"delete {u}--{v}" for u, v in removed]
    return "; ".join(parts) if parts else "reorient"


def greedy_phase(start: Cpdag, neighbors_fn, class_scorer, phase="forward", max_steps=0):
    """Repeatedly move to the best strictly-improving neighbor.

    Returns (local maximum, SearchTrace). Ties among improving neighbors
    whose float scores are equal go to the smallest canonical encoding.
    Classes whose scores tie in exact arithmetic can still get float scores
    that differ by rounding, and then the larger float wins, so a change in
    the last bits of a local score can change which of them is picked.
    Hitting max_steps before convergence yields a truncated trace;
    max_steps = 0 selects the default budget of n^2 + n moves.
    """
    if max_steps == 0:
        max_steps = start.n * start.n + start.n
    cur = start
    cur_score = class_scorer(cur)
    trace = SearchTrace([TraceStep(phase, cur, cur_score, "start")])
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
        if len(trace.steps) > max_steps:  # the moves so far, after the start step
            trace.truncated = True
            break
        trace.steps.append(TraceStep(phase, best, best_score, _move_desc(cur, best)))
        cur, cur_score = best, best_score
    return cur, trace


def _start_class(start, algorithm, n) -> Cpdag:
    if start is None:
        start = "complete" if algorithm == "bes" else "empty"
    if isinstance(start, Cpdag):
        if start.n != n:
            raise ValueError(f"start class has {start.n} nodes, but the search has {n} variables")
        return start
    return empty_cpdag(n) if start == "empty" else complete_cpdag(n)


def run_search(cfg: SearchConfig, data=None, joint=None):
    """Run cfg.algorithm's phases in turn from cfg.start; (Cpdag, SearchTrace).

    The trace joins the phases' traces under one start line.
    """
    scorer = make_scorer(cfg.score, data, joint)
    n = (data if joint is None else joint).spec.n
    cur = _start_class(cfg.start, cfg.algorithm, n)
    trace = SearchTrace()
    for phase in PHASES[cfg.algorithm]:
        cur, part = greedy_phase(
            cur, operator_neighbors(phase, scorer), scorer.score_class, phase, cfg.max_steps
        )
        trace.steps += part.steps[1:] if trace.steps else part.steps
        trace.truncated = trace.truncated or part.truncated
    return cur, trace
