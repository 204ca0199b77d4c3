"""Test references that the library does not run.

forward_neighbors and backward_neighbors are the brute-force neighbour
maps: every class one edge addition or deletion away from some member
DAG, found by enumerating every member DAG with consistent_extensions,
each class once, in canonical order. The library's maps of the same
names are the classes of the Insert and Delete operators, and the tests
check that the two agree tuple for tuple, and drive the run_search
differentials with these. Both stay memoized, as they were in the
library, so that the differentials enumerate each class's members once.

insert_moves is search.insert_moves before it memoized its path tests,
less its lru_cache: it walks every semi-directed path from y again for
each x, and the tests check that the library's moves equal its moves
tuple for tuple.

transformation_sequence witnesses Chickering's (2002) transformational
characterization of inclusion: g <= h iff a sequence of covered edge
reversals and edge additions turns g into h with every intermediate DAG
included in h. It is an exponential breadth-first search over DAGs, and
only the tests read it (acceptance criterion 7 and test_oracle).

bdeu, penalized_loglik, bic_local and oracle_local are the local scores
written out densely: every row's and every cell's term, zero or not, is
computed on its own and the terms are summed by one math.fsum, each row
total by another. The scoring kernels skip zero terms and sum by C-level
maps, and must give the same bits. bdeu_numpy and penalized_loglik_numpy
are the kernels that summed in numpy's order before the scores moved to
math.fsum; the fsum kernels agree with them to a relative 1e-12.

save_dataset_csv is scoring.save_dataset before it formatted each
distinct record once: csv.writer writes every record's row. The tests
check that the library's writer gives the same bytes.
"""

import csv
import math
from collections import deque
from functools import lru_cache

import numpy as np

from gesbn.graphs import (
    Cpdag,
    Dag,
    GraphError,
    Pdag,
    canonical_key,
    consistent_extensions,
    dag_to_cpdag,
    dsep_triples,
    included_in,
    is_covered,
    reachable,
    reverse_covered,
)
from gesbn.search import Move, _subsets


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


def transformation_sequence(g: Dag, h: Dag) -> list:
    """Covered reversals and edge additions turning g into h, staying <= h.

    Requires g <= h. Breadth-first search over {reverse covered edge, add
    one edge} moves, every intermediate a DAG included in h; the returned
    sequence has length at most r + 2a, where r counts edges of h with
    opposite orientation in g and a counts adjacencies of h missing in g.
    """
    if g.n != h.n:
        raise GraphError("node-count mismatch")
    if not included_in(g, h):
        raise GraphError("g is not included in h")
    if g == h:
        return []
    r = sum(1 for u, v in h.edges if (v, u) in g.edges)
    a = sum(1 for u, v in h.edges if (u, v) not in g.edges and (v, u) not in g.edges)
    bound = r + 2 * a
    target_dseps = dsep_triples(h)
    target_skel = h.skeleton()
    seen = {g}
    queue = deque([(g, ())])
    while queue:
        cur, moves = queue.popleft()
        if len(moves) >= bound:
            continue
        for nxt, mv in _transformation_moves(cur, target_skel):
            if nxt in seen:
                continue
            seen.add(nxt)
            if not target_dseps <= dsep_triples(nxt):
                continue
            path = moves + (mv,)
            if nxt == h:
                return list(path)
            queue.append((nxt, path))
    raise GraphError(f"no transformation sequence of length <= {bound} found")


def _transformation_moves(g: Dag, target_skel):
    for e in sorted(g.edges):
        if is_covered(g, e):
            yield reverse_covered(g, e), ("reverse", e)
    for u, v in sorted(target_skel):
        if g.adjacent(u, v):
            continue
        for a, b in ((u, v), (v, u)):
            try:
                yield g.add_edge(a, b), ("add", (a, b))
            except GraphError:
                continue


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


def bdeu(counts, ess=10.0) -> float:
    """BDeu local score of a (q, r) counts array."""
    q, r = counts.shape
    a_row, a_cell = ess / q, ess / (q * r)
    rows = counts.tolist()
    terms = [math.lgamma(a_row) - math.lgamma(a_row + math.fsum(row)) for row in rows]
    terms += [math.lgamma(a_cell + c) - math.lgamma(a_cell) for row in rows for c in row]
    return math.fsum(terms)


def penalized_loglik(table, weight, size) -> float:
    """weight * sum_jk t_jk (log t_jk - log t_j) - (q * (r-1) / 2) * log size
    of a (q, r) array, a zero cell's term being 0."""
    terms = []
    for row in table.tolist():
        total = math.fsum(row)
        terms += [t * (math.log(t) - math.log(total)) if t else 0.0 for t in row]
    q, r = table.shape
    return weight * math.fsum(terms) - 0.5 * q * (r - 1) * math.log(size)


def bic_local(counts, m) -> float:
    if m < 1:
        raise ValueError("bic requires at least one record")
    return penalized_loglik(counts, 1, m)


def oracle_local(joint, child, parents, pseudo_m) -> float:
    """The oracle criterion's local score, from the (q, r) joint
    probabilities of child's parent configurations and states."""
    probs = joint.probs
    parents = tuple(sorted(parents))
    keep = sorted(set(parents) | {child})
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    axes = [keep.index(p) for p in parents] + [keep.index(child)]
    pjk = np.transpose(marg, axes).reshape(-1, joint.spec.cards[child])
    return penalized_loglik(pjk, pseudo_m, pseudo_m)


def _lgamma_array(x):
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


def bdeu_numpy(counts, ess=10.0) -> float:
    q, r = counts.shape
    a_row = ess / q
    a_cell = ess / (q * r)
    n_row = counts.sum(axis=1)
    val = (math.lgamma(a_row) - _lgamma_array(a_row + n_row)).sum()
    val += (_lgamma_array(a_cell + counts) - math.lgamma(a_cell)).sum()
    return float(val)


def penalized_loglik_numpy(table, weight, size) -> float:
    rows = table.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = table * (np.log(table) - np.log(rows))
    ll = float(np.where(table > 0, terms, 0.0).sum())
    q, r = table.shape
    return weight * ll - 0.5 * q * (r - 1) * math.log(size)


def save_dataset_csv(data, path):
    """The dataset CSV of data, written row by row by csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.spec.names)
        writer.writerows(data._values.tolist())  # Python ints, as from the int64 records
