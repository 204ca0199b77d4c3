"""Test references that the library does not run.

insert_moves is search.insert_moves before it memoized its path tests,
less its lru_cache: it walks every semi-directed path from y again for
each x, and the tests check that the library's moves equal its moves
tuple for tuple.

transformation_sequence witnesses Chickering's (2002) transformational
characterization of inclusion: g <= h iff a sequence of covered edge
reversals and edge additions turns g into h with every intermediate DAG
included in h. It is an exponential breadth-first search over DAGs, and
only the tests read it (acceptance criterion 7 and test_oracle).
"""

from collections import deque

from gesbn.graphs import (
    Cpdag,
    Dag,
    GraphError,
    Pdag,
    dsep_triples,
    included_in,
    is_covered,
    reachable,
    reverse_covered,
)
from gesbn.search import Move, _subsets


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
