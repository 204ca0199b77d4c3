"""Directed-graph and equivalence-class machinery.

DAGs over integer node ids, d-separation, covered edges, CPDAG completion,
and the equivalence / inclusion relations between DAG models. Variable
names and cardinalities live in :class:`VariableSpec`; graphs themselves
only know node indices, which keeps them cheap to hash and compare.

Every graph here is an immutable value and every operation a pure
function, several of them memoized, except :class:`Pdag`: the one mutable
working graph that completion, extension and the search operators' tests
build, change and read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations


class GraphError(ValueError):
    """Structural error: cycles, missing edges, malformed graphs."""


@dataclass(frozen=True)
class VariableSpec:
    """Ordered variable names plus per-variable state counts.

    Cardinality 1 is allowed (constant indicator variables); everything
    else must have at least two states.
    """

    names: tuple[str, ...]
    cards: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))
        object.__setattr__(self, "cards", tuple(int(c) for c in self.cards))
        if len(self.names) != len(self.cards):
            raise ValueError("names and cards must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(c < 1 for c in self.cards):
            raise ValueError("cardinalities must be positive")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def subset(self, keep) -> "VariableSpec":
        """Spec restricted to the given node indices, in the given order."""
        keep = tuple(keep)
        return VariableSpec(
            tuple(self.names[i] for i in keep),
            tuple(self.cards[i] for i in keep),
        )

    def config_count(self, parents) -> int:
        """Number of joint configurations of the given variables."""
        return math.prod(self.cards[p] for p in parents)


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over nodes 0..n-1.

    Edges are ordered (parent, child) pairs. Construction validates index
    range, absence of self loops and 2-cycles, and acyclicity.
    """

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        edges = frozenset((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"self loop at node {u}")
            if (v, u) in edges:
                raise GraphError(f"both orientations of {u}-{v} present")
        topological_order(self)  # raises on cycles

    def parents(self, v) -> tuple:
        return tuple(sorted(u for u, w in self.edges if w == v))

    def adjacent(self, u, v) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def skeleton(self) -> frozenset:
        """Unordered adjacency pairs, each as (min, max)."""
        return frozenset((min(u, v), max(u, v)) for u, v in self.edges)

    def add_edge(self, u, v) -> "Dag":
        if self.adjacent(u, v):
            raise GraphError(f"{u} and {v} already adjacent")
        return Dag(self.n, self.edges | {(u, v)})

    def remove_edge(self, u, v) -> "Dag":
        if (u, v) not in self.edges:
            raise GraphError(f"edge ({u},{v}) absent")
        return Dag(self.n, self.edges - {(u, v)})


@dataclass(frozen=True)
class Cpdag:
    """Completed PDAG: canonical representative of an equivalence class.

    Directed edges are those oriented identically in every member DAG;
    undirected pairs are stored as (min, max).
    """

    n: int
    directed: frozenset = frozenset()
    undirected: frozenset = frozenset()

    def __post_init__(self):
        directed = frozenset((int(u), int(v)) for u, v in self.directed)
        undirected = frozenset(
            (min(int(u), int(v)), max(int(u), int(v))) for u, v in self.undirected
        )
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)
        for u, v in directed | undirected:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"self loop at node {u}")
        dir_pairs = {(min(u, v), max(u, v)) for u, v in directed}
        if len(dir_pairs) != len(directed):
            raise GraphError("both orientations of a pair marked directed")
        if dir_pairs & undirected:
            raise GraphError("pair both directed and undirected")

    def skeleton(self) -> frozenset:
        return frozenset((min(u, v), max(u, v)) for u, v in self.directed) | self.undirected

    def edge_count(self) -> int:
        return len(self.directed) + len(self.undirected)


def empty_cpdag(n) -> Cpdag:
    return Cpdag(n)


def complete_cpdag(n) -> Cpdag:
    """The no-constraints class: every pair adjacent, all edges reversible."""
    return Cpdag(n, undirected=frozenset(combinations(range(n), 2)))


class Pdag:
    """Mutable partially directed graph over nodes 0..n-1: per node its
    directed parents and children and its undirected neighbours."""

    def __init__(self, n, directed=(), undirected=()):
        self.n = n
        self.parents = [set() for _ in range(n)]
        self.children = [set() for _ in range(n)]
        self.neigh = [set() for _ in range(n)]
        for u, v in directed:
            self.parents[v].add(u)
            self.children[u].add(v)
        for u, v in undirected:
            self.neigh[u].add(v)
            self.neigh[v].add(u)

    def adj(self, v) -> set:
        return self.parents[v] | self.children[v] | self.neigh[v]

    def is_clique(self, nodes) -> bool:
        return all(b in self.adj(a) for a, b in combinations(nodes, 2))

    def orient(self, a, b) -> bool:
        """Turn a -- b into a -> b and return True; return False if the
        edge already is a -> b, and raise if it is b -> a or absent."""
        if b in self.children[a]:
            return False
        if b not in self.neigh[a]:
            raise GraphError(f"orientation conflict at {a} -> {b}")
        self.neigh[a].discard(b)
        self.neigh[b].discard(a)
        self.children[a].add(b)
        self.parents[b].add(a)
        return True

    def edges(self) -> tuple:
        """The directed edges, and the undirected ones as (min, max) pairs."""
        return (
            frozenset((u, v) for v in range(self.n) for u in self.parents[v]),
            frozenset((u, v) for u in range(self.n) for v in self.neigh[u] if u < v),
        )


def canonical_key(c: Cpdag) -> tuple:
    """Total order on classes of equal n, used for deterministic tie-breaks."""
    return (tuple(sorted(c.directed)), tuple(sorted(c.undirected)))


def dag_key(g: Dag) -> tuple:
    return tuple(sorted(g.edges))


def topological_order(g: Dag) -> list:
    """Node order in which every edge points forward; ties by node index."""
    dag = Pdag(g.n, g.edges)
    indeg = [len(ps) for ps in dag.parents]
    order = []
    remaining = set(range(g.n))
    while remaining:
        u = min((v for v in remaining if indeg[v] == 0), default=None)
        if u is None:
            raise GraphError("cycle detected")
        remaining.discard(u)
        order.append(u)
        for v in dag.children[u]:
            indeg[v] -= 1
    return order


def reachable(sources, step, blocked=()) -> set:
    """The sources plus every node reached from them by following step(v),
    the successors of v, through nodes outside blocked."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for w in step(frontier.pop()):
            if w not in seen and w not in blocked:
                seen.add(w)
                frontier.append(w)
    return seen


def ci_query(n, x, y, z=()) -> tuple:
    """The query "x independent of y given z" on nodes 0..n-1, as three
    frozensets. Each argument is one node index or a collection of them;
    an empty x or y, overlapping sets or a node out of range raise."""
    x, y, z = (_nodes(v) for v in (x, y, z))
    if not x or not y:
        raise GraphError("x and y must be nonempty")
    if x & y or x & z or y & z:
        raise GraphError("x, y, z must be pairwise disjoint")
    for v in x | y | z:
        if not 0 <= v < n:
            raise GraphError(f"node {v} out of range for n={n}")
    return x, y, z


def _nodes(v) -> frozenset:
    """One node index, or a collection of them, as a frozenset."""
    try:
        return frozenset((operator.index(v),))
    except TypeError:
        return frozenset(map(operator.index, v))


def d_separated(g: Dag, x, y, z=()) -> bool:
    """Decide d-separation of the node sets x and y by z, each given as
    ci_query takes them, via the moralized ancestral graph.

    x and y are d-separated by z iff they are disconnected after taking the
    subgraph on ancestors of x | y | z, marrying co-parents, dropping
    directions, and deleting z.
    """
    return _separated(Pdag(g.n, g.edges), *ci_query(g.n, x, y, z))


def _separated(dag: Pdag, x, y, z) -> bool:
    """d_separated on a Pdag of the DAG's edges, for node collections
    x, y, z, without checks."""
    anc = reachable({*x, *y, *z}, dag.parents.__getitem__)

    def moral_neighbours(v):  # parents, children and co-parents within anc
        kids = dag.children[v] & anc
        return dag.parents[v].union(kids, *(dag.parents[c] for c in kids))

    return reachable(x, moral_neighbours, z).isdisjoint(y)


def pair_queries(n):
    """All singleton-pair queries (x, y, z) on n nodes: x < y, and z a
    frozenset over the rest."""
    for x, y in combinations(range(n), 2):
        rest = [v for v in range(n) if v != x and v != y]
        for k in range(len(rest) + 1):
            for z in combinations(rest, k):
                yield x, y, frozenset(z)


@lru_cache(maxsize=None)
def dsep_triples(g: Dag) -> frozenset:
    """The pair_queries (x, y, z) of g that hold as d-separations."""
    dag = Pdag(g.n, g.edges)
    return frozenset(t for t in pair_queries(g.n) if _separated(dag, t[:1], t[1:2], t[2]))


def is_covered(g: Dag, edge) -> bool:
    """True iff parents(child) = parents(parent) + {parent} for this edge."""
    u, v = edge
    if (u, v) not in g.edges:
        raise GraphError(f"edge ({u},{v}) not in graph")
    return set(g.parents(v)) == set(g.parents(u)) | {u}

def reverse_covered(g: Dag, edge) -> Dag:
    """Reverse a covered edge; the result stays in the same equivalence class."""
    u, v = edge
    if not is_covered(g, edge):
        raise GraphError(f"edge ({u},{v}) is not covered")
    return Dag(g.n, (g.edges - {(u, v)}) | {(v, u)})


def _vstructures(g: Dag) -> frozenset:
    """Induced colliders (a, c, b) with a < b, a,b non-adjacent parents of c."""
    out = set()
    for c in range(g.n):
        for a, b in combinations(g.parents(c), 2):
            if not g.adjacent(a, b):
                out.add((a, c, b))
    return frozenset(out)


def equivalent(g1: Dag, g2: Dag) -> bool:
    """Same equivalence class, via the skeleton + v-structure criterion."""
    if g1.n != g2.n:
        raise GraphError("node-count mismatch")
    return g1.skeleton() == g2.skeleton() and _vstructures(g1) == _vstructures(g2)


def included_in(g: Dag, h: Dag) -> bool:
    """True iff every d-separation statement of h also holds in g (g <= h)."""
    if g.n != h.n:
        raise GraphError("node-count mismatch")
    return dsep_triples(h) <= dsep_triples(g)


@lru_cache(maxsize=None)
def dag_to_cpdag(g: Dag) -> Cpdag:
    """Canonical class representative: keep v-structure orientations, close
    under the three orientation-propagation rules, leave the rest undirected."""
    p = Pdag(g.n, undirected=g.edges)
    for a, c, b in _vstructures(g):
        p.orient(a, c)
        p.orient(b, c)
    adj = [p.adj(v) for v in range(g.n)]  # orienting keeps the skeleton
    changed = True
    while changed:
        changed = False
        for b in range(g.n):
            for a in p.parents[b]:
                # R1: a -> b -- c with a,c non-adjacent  =>  b -> c
                for c in p.neigh[b] - adj[a]:
                    changed |= p.orient(b, c)
                # R2: a -> b -> c with a -- c  =>  a -> c
                for c in p.children[b] & p.neigh[a]:
                    changed |= p.orient(a, c)
        # R3: a -- b, a -- c, a -- d, c -> b, d -> b, c,d non-adjacent  =>  a -> b
        for a in range(g.n):
            for b in tuple(p.neigh[a]):
                into_b = p.parents[b] & p.neigh[a]
                if any(d not in adj[c] for c, d in combinations(into_b, 2)):
                    changed |= p.orient(a, b)
    return Cpdag(g.n, *p.edges())


@lru_cache(maxsize=None)
def consistent_extensions(c: Cpdag) -> tuple:
    """All member DAGs of the class, sorted by edge list.

    Brute force over orientations of the undirected pairs, keeping exactly
    the acyclic candidates whose completed pattern round-trips to c.
    """
    und = sorted(c.undirected)
    out = []
    for bits in range(1 << len(und)):
        edges = set(c.directed)
        for i, (u, v) in enumerate(und):
            edges.add((u, v) if bits >> i & 1 else (v, u))
        try:
            g = Dag(c.n, frozenset(edges))
        except GraphError:
            continue
        if dag_to_cpdag(g) == c:
            out.append(g)
    if not out:
        raise GraphError("CPDAG has no consistent extension")
    return tuple(sorted(out, key=dag_key))


def pdag_extension(n, directed: frozenset, undirected: frozenset):
    """A DAG extension of a PDAG (Dor & Tarsi 1992), or None if it has none.

    An extension keeps the skeleton, the directed edges and the
    v-structures of the PDAG. Repeatedly pick a sink x of what is left
    whose undirected neighbours are each adjacent to every other node
    adjacent to x; orient x's undirected edges into x and remove x. The
    PDAG has an extension exactly when no step gets stuck. Taking the
    largest such x orients pairs from the smaller node where it can, as
    canonical_member prefers. Not memoized: its callers are, and its
    results would mostly sit unused.
    """
    p = Pdag(n, directed, undirected)
    edges = set(directed)
    remaining = set(range(n))
    while remaining:
        for x in sorted(remaining, reverse=True):
            if p.children[x]:
                continue
            adj = p.adj(x)
            if all(adj - {y} <= p.adj(y) for y in p.neigh[x]):
                break
        else:
            return None
        for y in p.neigh[x]:
            edges.add((y, x))
            p.neigh[y].discard(x)
        for y in p.parents[x]:
            p.children[y].discard(x)
        remaining.discard(x)
    return Dag(n, frozenset(edges))


@lru_cache(maxsize=None)
def canonical_member(c: Cpdag) -> Dag:
    """The member DAG with the smallest sorted edge list, built directly.

    Equals consistent_extensions(c)[0]. Sorted edge lists compare by the
    first undirected pair (a, b), a < b, that two members orient apart, so
    the pairs are fixed in sorted order: a -> b whenever some member agrees
    with it and with every pair fixed before, b -> a otherwise.
    """
    member = pdag_extension(c.n, c.directed, c.undirected)
    if member is None or dag_to_cpdag(member) != c:
        raise GraphError("CPDAG has no consistent extension")
    fixed = set(c.directed)
    open_pairs = set(c.undirected)
    for a, b in sorted(c.undirected):
        open_pairs.discard((a, b))
        if (a, b) not in member.edges:  # look for a member with a -> b
            trial = pdag_extension(c.n, frozenset(fixed | {(a, b)}), frozenset(open_pairs))
            if trial is not None and dag_to_cpdag(trial) == c:
                member = trial
        fixed.add((a, b) if (a, b) in member.edges else (b, a))
    return member


def parameter_count(g: Dag, spec: VariableSpec) -> int:
    """Free parameters of the full-table model: sum of (r_i - 1) * prod(r_pa)."""
    if spec.n != g.n:
        raise ValueError("spec does not match graph size")
    return sum(
        (spec.cards[i] - 1) * spec.config_count(g.parents(i)) for i in range(g.n)
    )


def encode_edges(graph, spec: VariableSpec) -> str:
    """Canonical text encoding: one 'u -> v' or 'u -- v' line per edge, sorted."""
    if isinstance(graph, Dag):
        items = [(u, v, "->") for u, v in graph.edges]
    else:
        items = [(u, v, "->") for u, v in graph.directed]
        items += [(u, v, "--") for u, v in graph.undirected]
    lines = [
        f"{spec.names[u]} {sep} {spec.names[v]}" for u, v, sep in sorted(items)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def cpdag_from_text(text, spec: VariableSpec) -> Cpdag:
    directed, undirected = set(), set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " -> " in line:
            lhs, rhs = line.split(" -> ", 1)
            directed.add((spec.index(lhs.strip()), spec.index(rhs.strip())))
        elif " -- " in line:
            lhs, rhs = line.split(" -- ", 1)
            undirected.add((spec.index(lhs.strip()), spec.index(rhs.strip())))
        else:
            raise GraphError(f"unparseable edge line: {raw!r}")
    return Cpdag(spec.n, frozenset(directed), frozenset(undirected))
