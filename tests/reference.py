"""Test references that the library does not run.

transformation_sequence witnesses Chickering's (2002) transformational
characterization of inclusion: g <= h iff a sequence of covered edge
reversals and edge additions turns g into h with every intermediate DAG
included in h. It is an exponential breadth-first search over DAGs, and
only the tests read it (acceptance criterion 7 and test_oracle).
"""

from collections import deque

from gesbn.graphs import (
    Dag,
    GraphError,
    dsep_triples,
    included_in,
    is_covered,
    reverse_covered,
)


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
