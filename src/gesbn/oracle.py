"""Exact brute-force ground truth for small variable counts.

Dense joint tables computed from parametric networks, conditional
independence read directly off the table, complete DAG / equivalence-class
enumerations, inclusion- and parameter-optimality sweeps, and a numeric
check of the composition property.

Floating point with tolerances is the contract here: oracle joints are
products of clean CPT entries, so a residual tolerance of 1e-10 sits far
above accumulation error and far below any genuine dependence produced by
the interior parameter sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .datagen import GoldStandard, ParametricBn
from .graphs import (
    Dag,
    GraphError,
    VariableSpec,
    canonical_key,
    canonical_member,
    ci_query,
    dag_key,
    dag_to_cpdag,
    dsep_triples,
    pair_queries,
    parameter_count,
)
from .scoring import config_indices

CI_TOL = 1e-10
MAX_JOINT_CELLS = 10_000_000


class JointTable:
    """Exact joint distribution over a variable set, as a dense array."""

    def __init__(self, spec: VariableSpec, probs):
        probs = np.asarray(probs, dtype=float).reshape(spec.cards)
        if probs.min() < 0:
            raise ValueError("joint table has negative entries")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("joint table does not sum to 1")
        probs.setflags(write=False)
        self.spec = spec
        self.probs = probs

    @property
    def n(self) -> int:
        return self.spec.n


@dataclass(frozen=True)
class CompositionResult:
    holds: bool
    counterexample: tuple | None = None  # (x, y, z) frozensets: x dep y | z

    def __bool__(self):
        return self.holds


def joint_from_bn(bn: ParametricBn) -> JointTable:
    """Product of the CPTs over the full state space."""
    cards = bn.spec.cards
    cells = int(np.prod(cards))
    if cells > MAX_JOINT_CELLS:
        raise ValueError(f"state space of {cells} cells exceeds the oracle limit")
    idx, cfg = np.indices(cards), np.empty(cards, dtype=np.int64)
    probs = np.ones(cards)
    for i in range(bn.spec.n):
        config_indices(idx, bn.parents[i], cards, cfg)
        probs = probs * bn.cpts[i][cfg, idx[i]]
    return JointTable(bn.spec, probs)


def condition_and_marginalize(p: JointTable, fix=None, drop=()) -> JointTable:
    """Condition on the assignments in fix, then sum out the drop set.

    Fixed variables are removed from the result along with the dropped
    ones. Raises on a zero-probability conditioning event.
    """
    fix = dict(fix or {})
    drop = set(drop)
    for v in (*fix, *drop):
        if not (0 <= v < p.n):
            raise ValueError(f"variable {v} out of range")
    sel = tuple(fix.get(v, slice(None)) for v in range(p.n))
    sliced = p.probs[sel]
    total = sliced.sum()
    if total <= 0:
        raise ValueError("zero-probability conditioning event")
    remaining = [v for v in range(p.n) if v not in fix]
    drop_axes = tuple(i for i, v in enumerate(remaining) if v in drop)
    out = sliced.sum(axis=drop_axes) if drop_axes else sliced
    keep = [v for v in remaining if v not in drop]
    return JointTable(p.spec.subset(keep), out / total)


def observed_margin(gold: GoldStandard) -> JointTable:
    """The exact distribution a gold standard induces over its observables."""
    if gold.bn is None:
        raise ValueError("gold standard carries no parameters; call with_parameters")
    joint = joint_from_bn(gold.bn)
    fix = gold.selection_dict
    drop = set(gold.hidden) | set(fix)
    return condition_and_marginalize(joint, fix, drop)


def _subset_masks(x, y, z) -> tuple:
    """Bitmasks of the variable subsets x|y|z, z, x|z and y|z."""
    xm, ym, zm = (sum(1 << v for v in vs) for vs in (x, y, z))
    return xm | ym | zm, zm, xm | zm, ym | zm


def _marginals(p: JointTable, subsets) -> np.ndarray:
    """One row per variable subset (a bitmask): its marginal, broadcast
    over every joint cell."""
    out = np.empty((len(subsets), *p.probs.shape))
    for row, s in zip(out, subsets):
        drop = tuple(v for v in range(p.n) if not s >> v & 1)
        row[...] = p.probs.sum(axis=drop, keepdims=True)
    return out.reshape(len(subsets), -1)


def _independent(pxyz, pz, pxz, pyz):
    """max |p(xyz) p(z) - p(xz) p(yz)| / p(z)^2 <= CI_TOL along the last
    axis. Zero-probability z-configurations give 0 / 1, so are skipped."""
    denom = np.where(pz > 0, pz, 1.0)
    return (np.abs(pxyz * pz - pxz * pyz) / (denom * denom)).max(axis=-1) <= CI_TOL


def ci_holds(p: JointTable, x, y, z=()) -> bool:
    """True iff max_z-config |p(x,y|z) - p(x|z) p(y|z)| <= CI_TOL, for
    variable sets x, y, z given as graphs.ci_query takes them.

    Configurations of z with zero probability are skipped.
    """
    return bool(_independent(*_marginals(p, _subset_masks(*ci_query(p.n, x, y, z)))))


def composition_holds(p: JointTable) -> CompositionResult:
    """Check the composition property over every (singleton, set, set) triple.

    Dependence of X on a set Y given Z must be witnessed by some singleton
    member of Y. Returns the first counterexample in deterministic sweep
    order when the property fails.
    """
    n = p.n
    for x in range(n):
        rest = [v for v in range(n) if v != x]
        for ysize in range(2, len(rest) + 1):
            for yset in combinations(rest, ysize):
                others = [v for v in rest if v not in yset]
                for zsize in range(len(others) + 1):
                    for zset in combinations(others, zsize):
                        if ci_holds(p, x, yset, zset):
                            continue
                        if all(ci_holds(p, x, y, zset) for y in yset):
                            query = frozenset((x,)), frozenset(yset), frozenset(zset)
                            return CompositionResult(False, query)
    return CompositionResult(True)


@lru_cache(maxsize=None)
def enumerate_dags(n) -> tuple:
    """Every DAG on n nodes, by brute force over pairwise edge states."""
    if n > 5:
        raise ValueError("DAG enumeration limited to n <= 5")
    pairs = list(combinations(range(n), 2))
    out = []
    for states in product((0, 1, 2), repeat=len(pairs)):
        edges = set()
        for (u, v), s in zip(pairs, states):
            if s == 1:
                edges.add((u, v))
            elif s == 2:
                edges.add((v, u))
        try:
            out.append(Dag(n, frozenset(edges)))
        except GraphError:
            continue
    return tuple(sorted(out, key=dag_key))


@lru_cache(maxsize=None)
def enumerate_classes(n) -> tuple:
    """Every equivalence class on n nodes, deduplicated by completed pattern."""
    seen = {}
    for g in enumerate_dags(n):
        seen.setdefault(dag_to_cpdag(g), None)
    return tuple(sorted(seen, key=canonical_key))


@lru_cache(maxsize=None)
def _query_plan(n) -> tuple:
    """pair_queries(n), and the _subset_masks of each query as the
    columns of a (4, queries) index array."""
    queries = tuple(pair_queries(n))
    masks = [_subset_masks((x,), (y,), z) for x, y, z in queries]
    return queries, np.array(masks, dtype=np.intp).reshape(-1, 4).T


def ci_triple_set(p: JointTable) -> frozenset:
    """The pair_queries (x, y, z) that hold in p as conditional
    independencies. Each variable subset's marginal is computed once, and
    the queries go in blocks of 2**n, so that no block holds more rows
    than the marginal table."""
    queries, plan = _query_plan(p.n)
    table = _marginals(p, range(1 << p.n))
    holds = []
    for lo in range(0, len(queries), len(table)):
        holds += _independent(*table[plan[:, lo:lo + len(table)]]).tolist()
    return frozenset(t for t, ok in zip(queries, holds) if ok)


def includes(g: Dag, p: JointTable) -> bool:
    """True iff every d-separation of g is a conditional independence of p."""
    if g.n != p.n:
        raise ValueError("graph and joint table sizes differ")
    return all(ci_holds(p, *t) for t in dsep_triples(g))


@lru_cache(maxsize=None)
def _class_table(n) -> tuple:
    """enumerate_classes(n), each class's d-separations as an int bitmask
    over the pair_queries(n) index, and the bit of each query."""
    bit = {t: 1 << k for k, t in enumerate(pair_queries(n))}
    classes = enumerate_classes(n)
    masks = tuple(sum(bit[t] for t in dsep_triples(canonical_member(c))) for c in classes)
    return classes, masks, bit


@lru_cache(maxsize=None)
def _parameter_counts(spec: VariableSpec) -> tuple:
    """parameter_count of each class of enumerate_classes(spec.n) under spec."""
    return tuple(parameter_count(canonical_member(c), spec) for c in enumerate_classes(spec.n))


def optimal_classes(p: JointTable) -> tuple:
    """(inclusion-optimal, parameter-optimal) classes of p, from one sweep.

    Inclusion-optimal: classes that include p with no strictly-included
    class also including it. Parameter-optimal: including classes of
    minimal parameter count under p.spec. Both keep canonical_key order.
    """
    if p.n > 4:
        raise ValueError("optimality sweep limited to n <= 4")
    classes, masks, bit = _class_table(p.n)
    ci = sum(bit[t] for t in ci_triple_set(p))
    counts = _parameter_counts(p.spec)
    incl = [k for k, m in enumerate(masks) if m & ~ci == 0]
    inclusion = tuple(
        classes[k] for k in incl
        if not any(masks[j] != masks[k] and masks[j] & masks[k] == masks[k] for j in incl)
    )
    best = min((counts[k] for k in incl), default=None)
    return inclusion, tuple(classes[k] for k in incl if counts[k] == best)

