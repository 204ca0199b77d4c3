"""Graph machinery: d-separation, covered edges, CPDAG completion,
equivalence and inclusion. The exhaustive n<=4 sweeps double as the
correctness argument for the completion rules and the equivalence
criterion, which is why they stay in the default suite."""

import copy
import heapq
import pickle
import re
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from gesbn.graphs import (
    Cpdag,
    Dag,
    GraphError,
    VariableSpec,
    ci_query,
    complete_cpdag,
    consistent_extensions,
    d_separated,
    dag_to_cpdag,
    dsep_triples,
    empty_cpdag,
    encode_edges,
    cpdag_from_text,
    equivalent,
    included_in,
    is_covered,
    pair_queries,
    parameter_count,
    reverse_covered,
    topological_order,
    _topological_order,
    _vstructures,
)
from gesbn.oracle import enumerate_dags
from gesbn.scoring import ScoreConfig
from gesbn.search import SearchConfig, SearchTrace, TraceStep


W_DAG = Dag(5, {(0, 1), (4, 1), (4, 2), (3, 2)})  # X1->X2<-H->X3<-X4, H=node 4


def disjoint_set_queries(n):
    """Every (x, y, z) of pairwise disjoint node sets on n nodes, x and y
    nonempty."""
    for labels in product(range(4), repeat=n):  # 3: in no set
        x, y, z = (frozenset(v for v, k in enumerate(labels) if k == s) for s in range(3))
        if x and y:
            yield x, y, z


def simple_paths(skeleton_adj, x, y):
    stack = [(x, [x])]
    while stack:
        node, path = stack.pop()
        for w in skeleton_adj[node]:
            if w == y:
                yield path + [y]
            elif w not in path:
                stack.append((w, path + [w]))


def d_separated_by_paths(g, x, y, z):
    """Independent oracle: enumerate simple paths, check none is active."""
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    anc_of_z = set()
    for w in z:
        stack = [w]
        while stack:
            v = stack.pop()
            if v in anc_of_z:
                continue
            anc_of_z.add(v)
            stack.extend(u for u, w in g.edges if w == v)
    for path in simple_paths(adj, x, y):
        active = True
        for i in range(1, len(path) - 1):
            prev, node, nxt = path[i - 1], path[i], path[i + 1]
            collider = (prev, node) in g.edges and (nxt, node) in g.edges
            if collider and node not in anc_of_z:
                active = False
                break
            if not collider and node in z:
                active = False
                break
        if active:
            return False
    return True


class TestTopologicalOrder:
    def test_empty_graph_index_order(self):
        assert topological_order(Dag(3)) == [0, 1, 2]

    def test_forced_by_edges(self):
        assert topological_order(Dag(3, {(2, 0), (0, 1)})) == [2, 0, 1]

    def test_cycle_rejected(self):
        with pytest.raises(GraphError):
            Dag(2, {(0, 1), (1, 0)})
        with pytest.raises(GraphError):
            Dag(3, {(0, 1), (1, 2), (2, 0)})


def ref_parents(g, v):
    """Dag.parents before its cache: a sorted scan of every edge."""
    return tuple(sorted(u for u, w in g.edges if w == v))


def ref_topological_order(g):
    """Kahn's algorithm, taking the smallest ready node first."""
    indeg = [len(ref_parents(g, v)) for v in range(g.n)]
    ready = [v for v in range(g.n) if not indeg[v]]
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for a, v in sorted(g.edges):
            if a == u:
                indeg[v] -= 1
                if not indeg[v]:
                    heapq.heappush(ready, v)
    return order


def random_dags(n, count, seed, density=0.3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        order = rng.permutation(n).tolist()
        out.append(Dag(n, {(order[i], order[j]) for i, j in combinations(range(n), 2)
                           if rng.random() < density}))
    return out


class TestCachedFacts:
    """Dag.parents reads a per-instance tuple built on first use, and
    topological_order a bounded memo; neither changes what they return,
    nor what a Dag is as a value."""

    DAGS = [*enumerate_dags(4), *random_dags(10, 40, seed=5)]

    def test_parents_equal_an_edge_scan(self):
        for g in self.DAGS:
            fresh = Dag(g.n, g.edges)
            assert [fresh.parents(v) for v in range(g.n)] == [ref_parents(g, v) for v in range(g.n)]

    def test_topological_order_equals_kahn(self):
        for g in self.DAGS:
            fresh = Dag(g.n, g.edges)
            want = ref_topological_order(g)
            assert topological_order(fresh) == want
            assert topological_order(fresh) == want  # read back from the memo

    def test_order_memo_is_bounded_and_hands_out_copies(self):
        g = random_dags(10, 1, seed=9)[0]
        order = topological_order(g)
        order.reverse()
        assert topological_order(g) == ref_topological_order(g)
        assert _topological_order.cache_info().maxsize is not None

    def test_construction_stores_and_memoizes_nothing(self):
        before = _topological_order.cache_info()
        g = random_dags(10, 1, seed=11)[0]
        after = _topological_order.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert set(vars(g)) == {"n", "edges"}

    def test_graphs_are_equal_only_on_every_field(self):
        dags = [Dag(3), Dag(4), Dag(3, {(0, 1)}), Dag(3, {(1, 0)})]
        classes = [Cpdag(3), Cpdag(4), Cpdag(3, {(0, 1)}), Cpdag(3, undirected={(0, 1)}),
                   Cpdag(3, {(0, 2), (1, 2)}), Cpdag(3, {(0, 2), (1, 2)}, {(0, 1)})]
        for graphs in (dags, classes):
            assert len(set(graphs)) == len(graphs)
            for a, b in combinations(graphs, 2):
                assert a != b and not a == b
            assert [copy.copy(g) for g in graphs] == graphs

    def test_value_semantics_ignore_the_cache(self):
        for g in (Dag(5), W_DAG, random_dags(10, 1, seed=13)[0]):
            cold, warm = Dag(g.n, g.edges), Dag(g.n, g.edges)
            warm.parents(1)
            assert set(vars(warm)) > set(vars(cold))
            assert cold == warm and hash(cold) == hash(warm) and repr(cold) == repr(warm)
            assert warm.__reduce__() == (Dag, (warm.n, warm.edges))
            assert pickle.dumps(warm) == pickle.dumps(cold)
            for back in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
                assert back == warm and set(vars(back)) == {"n", "edges"}
                assert back.parents(1) == warm.parents(1)


class TestDSeparation:
    def test_w_structure_x1_x4(self):
        assert d_separated(W_DAG, 0, 3)

    def test_w_structure_collider_opens(self):
        # conditioning on X2 activates X1 - X2 - H - X3
        assert not d_separated(W_DAG, 0, 2, {1})

    def test_empty_graph_all_pairs(self):
        g = Dag(4)
        assert all(d_separated(g, *q) for q in pair_queries(4))

    def test_bad_node_index(self):
        with pytest.raises(GraphError):
            d_separated(Dag(2), 0, 5)

    def test_agrees_with_path_enumeration_oracle(self):
        for g in enumerate_dags(4)[::7]:
            for q in pair_queries(4):
                assert d_separated(g, *q) == d_separated_by_paths(g, *q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_node_sets_separate_iff_every_pair_does(self, n):
        # d-separation is compositional: X and Y are separated by Z exactly
        # when each x in X is separated from each y in Y by Z
        queries = list(disjoint_set_queries(n))
        for g in enumerate_dags(n)[::7]:
            for x, y, z in queries:
                want = all(d_separated(g, a, b, z) for a in x for b in y)
                assert d_separated(g, x, y, z) == want

    def test_takes_one_node_or_a_collection(self):
        for x, y, z in ((0, 2, 1), ((0,), [2], {1}), (np.int64(0), frozenset({2}), (1,))):
            assert not d_separated(W_DAG, x, y, z)
        assert d_separated(W_DAG, {0, 1}, 3)
        assert not d_separated(W_DAG, {0, 1}, 3, 2)  # X2 <- H -> X3 <- X4 opens


class TestCoveredEdges:
    def test_single_edge_covered(self):
        assert is_covered(Dag(2, {(0, 1)}), (0, 1))

    def test_extra_parent_breaks_cover(self):
        assert not is_covered(Dag(3, {(0, 1), (2, 1)}), (0, 1))

    def test_shared_parent_covered(self):
        g = Dag(3, {(2, 0), (2, 1), (0, 1)})
        assert is_covered(g, (0, 1))

    def test_absent_edge_rejected(self):
        with pytest.raises(GraphError):
            is_covered(Dag(2, {(0, 1)}), (1, 0))

    def test_reverse_single_edge(self):
        assert reverse_covered(Dag(2, {(0, 1)}), (0, 1)) == Dag(2, {(1, 0)})

    def test_reverse_in_triangle(self):
        g = Dag(3, {(2, 0), (2, 1), (0, 1)})
        assert reverse_covered(g, (0, 1)) == Dag(3, {(2, 0), (2, 1), (1, 0)})

    def test_reverse_uncovered_rejected(self):
        with pytest.raises(GraphError):
            reverse_covered(Dag(3, {(0, 1), (2, 1)}), (0, 1))

    def test_reversal_preserves_class_exhaustively(self):
        for g in enumerate_dags(4):
            for e in g.edges:
                if is_covered(g, e):
                    assert equivalent(g, reverse_covered(g, e))


class TestCpdagCompletion:
    def test_chain_fully_undirected(self):
        # derived by enumerating 3-node DAGs: the chain's class has 3 members
        chain = Dag(3, {(0, 1), (1, 2)})
        c = dag_to_cpdag(chain)
        assert c == Cpdag(3, undirected={(0, 1), (1, 2)})
        members = {g for g in enumerate_dags(3) if equivalent(g, chain)}
        assert set(consistent_extensions(c)) == members
        assert len(members) == 3

    def test_collider_stays_directed(self):
        c = dag_to_cpdag(Dag(3, {(0, 2), (1, 2)}))
        assert c == Cpdag(3, directed={(0, 2), (1, 2)})

    def test_single_edge_undirected(self):
        assert dag_to_cpdag(Dag(2, {(0, 1)})) == Cpdag(2, undirected={(0, 1)})

    def test_constant_on_equivalence_classes(self):
        for n in (3, 4):
            by_cpdag = {}
            for g in enumerate_dags(n):
                by_cpdag.setdefault(dag_to_cpdag(g), []).append(g)
            for members in by_cpdag.values():
                rep = members[0]
                assert all(equivalent(rep, g) for g in members[1:])

    def test_roundtrip_extensions_equal_class(self):
        for n in (2, 3, 4):
            classes = {}
            for g in enumerate_dags(n):
                classes.setdefault(dag_to_cpdag(g), set()).add(g)
            for c, members in classes.items():
                assert set(consistent_extensions(c)) == members


class TestConsistentExtensions:
    def test_undirected_pair(self):
        got = consistent_extensions(Cpdag(2, undirected={(0, 1)}))
        assert set(got) == {Dag(2, {(0, 1)}), Dag(2, {(1, 0)})}

    def test_fully_directed_singleton(self):
        c = Cpdag(3, directed={(0, 2), (1, 2)})
        assert consistent_extensions(c) == (Dag(3, {(0, 2), (1, 2)}),)

    def test_undirected_triangle_has_six(self):
        c = Cpdag(3, undirected={(0, 1), (0, 2), (1, 2)})
        exts = consistent_extensions(c)
        assert len(exts) == 6  # all acyclic orientations of K3 are equivalent

    def test_no_extension_raises(self):
        # a -- b with both c -> a, c -> b ... construct an impossible pattern:
        # directed 2-cycle is rejected at construction; use v-structure with
        # undirected legs instead: 0->2<-1 plus 0--1 forces an extension whose
        # pattern differs, so nothing round-trips.
        bad = Cpdag(3, directed={(0, 2), (1, 2)}, undirected={(0, 1)})
        with pytest.raises(GraphError):
            consistent_extensions(bad)


class TestEquivalence:
    def test_chains_equivalent(self):
        assert equivalent(Dag(3, {(0, 1), (1, 2)}), Dag(3, {(2, 1), (1, 0)}))

    def test_vstructure_differs(self):
        assert not equivalent(Dag(3, {(0, 1), (1, 2)}), Dag(3, {(0, 1), (2, 1)}))

    def test_reflexive(self):
        g = Dag(3, {(0, 1), (2, 1)})
        assert equivalent(g, g)

    def test_size_mismatch(self):
        with pytest.raises(GraphError):
            equivalent(Dag(2), Dag(3))

    def test_criterion_matches_dsep_sets_exhaustively(self):
        # skeleton+v-structure criterion vs exhaustive d-separation, n <= 4
        for n in (2, 3, 4):
            dags = enumerate_dags(n)
            by_dsep = {}
            for g in dags:
                by_dsep.setdefault(dsep_triples(g), []).append(g)
            by_class = {}
            for g in dags:
                by_class.setdefault(dag_to_cpdag(g), []).append(g)
            part1 = {frozenset(v) for v in by_dsep.values()}
            part2 = {frozenset(v) for v in by_class.values()}
            assert part1 == part2


class TestInclusion:
    def test_empty_below_everything(self):
        g = Dag(3, {(0, 1), (1, 2)})
        assert included_in(Dag(3), g)

    def test_everything_below_complete(self):
        complete = Dag(3, {(0, 1), (0, 2), (1, 2)})
        for g in enumerate_dags(3):
            assert included_in(g, complete)

    def test_collider_not_below_chain(self):
        collider = Dag(3, {(0, 1), (2, 1)})
        chain = Dag(3, {(0, 1), (1, 2)})
        # the chain asserts 0 indep 2 given 1, which the collider violates
        assert not included_in(collider, chain)

    def test_reflexive_n4(self):
        for g in enumerate_dags(4)[::5]:
            assert included_in(g, g)

    def test_transitive_n3(self):
        dags = enumerate_dags(3)
        dseps = {g: dsep_triples(g) for g in dags}
        rel = {
            (g, h) for g in dags for h in dags if dseps[h] <= dseps[g]
        }
        for g, h in rel:
            for k in dags:
                if (h, k) in rel:
                    assert (g, k) in rel

    def test_mutual_inclusion_is_equivalence(self):
        dags = enumerate_dags(3)
        for g in dags:
            for h in dags:
                both = included_in(g, h) and included_in(h, g)
                assert both == equivalent(g, h)


class TestParameterCount:
    def test_w_margin_parameter_optimal_model(self):
        g = Dag(4, {(0, 1), (0, 2), (1, 2), (3, 2)})
        spec = VariableSpec(("X1", "X2", "X3", "X4"), (2, 3, 2, 2))
        assert parameter_count(g, spec) == 18

    def test_chorded_cycle_model(self):
        g = Dag(4, {(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)})
        spec = VariableSpec(("X1", "X2", "X3", "X4"), (4, 2, 2, 2))
        assert parameter_count(g, spec) == 23

    def test_empty_graph_binary(self):
        spec = VariableSpec(tuple("abcd"), (2, 2, 2, 2))
        assert parameter_count(Dag(4), spec) == 4

    def test_constant_within_class(self):
        rng = np.random.default_rng(4)
        for c_idx, g in enumerate(enumerate_dags(4)[::11]):
            cards = tuple(rng.integers(2, 4, size=4))
            spec = VariableSpec(tuple(f"v{i}" for i in range(4)), cards)
            c = dag_to_cpdag(g)
            counts = {parameter_count(m, spec) for m in consistent_extensions(c)}
            assert len(counts) == 1


class TestTextEncoding:
    SPEC = VariableSpec(("A", "B", "C"), (2, 2, 2))

    def test_dag_roundtrip(self):
        g = Dag(3, {(0, 1), (2, 1)})
        text = encode_edges(g, self.SPEC)
        assert text == "A -> B\nC -> B\n"

    def test_cpdag_roundtrip(self):
        c = Cpdag(3, directed={(0, 1)}, undirected={(1, 2)})
        text = encode_edges(c, self.SPEC)
        assert text == "A -> B\nB -- C\n"
        assert cpdag_from_text(text, self.SPEC) == c

    def test_empty_encoding(self):
        assert encode_edges(empty_cpdag(3), self.SPEC) == ""
        assert cpdag_from_text("", self.SPEC) == empty_cpdag(3)

    def test_comments_ignored(self):
        assert cpdag_from_text("# vars: A B C\nA -- B\n", self.SPEC) == Cpdag(
            3, undirected={(0, 1)}
        )


class TestValidation:
    def test_variable_spec_invariants(self):
        with pytest.raises(ValueError):
            VariableSpec(("a", "a"), (2, 2))
        with pytest.raises(ValueError):
            VariableSpec(("a", "b"), (2, 0))
        with pytest.raises(ValueError):
            VariableSpec(("a",), (2, 2))

    def test_ci_query_takes_one_node_or_a_collection(self):
        want = frozenset({0}), frozenset({1, 2}), frozenset()
        assert ci_query(4, 0, (1, 2)) == want
        assert ci_query(4, [0], {2, 1}, ()) == want
        assert ci_query(4, np.int64(3), np.array([1, 2]), 0) == (
            frozenset({3}), frozenset({1, 2}), frozenset({0})
        )

    @pytest.mark.parametrize("x,y,z,message", [
        (1, 1, (), "x, y, z must be pairwise disjoint"),
        (0, 1, (0,), "x, y, z must be pairwise disjoint"),
        (0, 1, (1, 2), "x, y, z must be pairwise disjoint"),
        ((0, 1), (1, 2), (), "x, y, z must be pairwise disjoint"),
        ((), 1, (), "x and y must be nonempty"),
        (0, set(), (), "x and y must be nonempty"),
        (0, 4, (), "node 4 out of range for n=4"),
        (-1, 1, (), "node -1 out of range for n=4"),
        (0, 1, (2, 7), "node 7 out of range for n=4"),
    ], ids=["x-equals-y", "x-in-z", "y-in-z", "x-meets-y", "empty-x", "empty-y",
            "x-too-large", "x-negative", "z-too-large"])
    def test_ci_query_rejects(self, x, y, z, message):
        with pytest.raises(GraphError, match=message) as exc:
            ci_query(4, x, y, z)
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("n", [-1, -2, 2.5, 3.0, True, False, "3", None],
                             ids=repr)
    @pytest.mark.parametrize("cls", [Dag, Cpdag], ids=lambda c: c.__name__)
    def test_node_count_must_be_a_whole_number(self, cls, n):
        message = f"n must be a whole number >= 0, got {n!r}"
        with pytest.raises(GraphError, match=re.escape(message)):
            cls(n)

    @pytest.mark.parametrize("cls", [Dag, Cpdag], ids=lambda c: c.__name__)
    def test_node_count_is_stored_as_int(self, cls):
        assert cls(0).n == 0
        g = cls(np.int64(3))
        assert type(g.n) is int and g == cls(3)

    def test_cpdag_pair_conflicts(self):
        with pytest.raises(GraphError):
            Cpdag(2, directed={(0, 1)}, undirected={(0, 1)})
        with pytest.raises(GraphError):
            Cpdag(2, directed={(0, 1), (1, 0)})

    def test_complete_cpdag_shape(self):
        c = complete_cpdag(4)
        assert len(c.undirected) == 6 and not c.directed
        assert len(consistent_extensions(c)) == 24

    def test_vstructures_of_w(self):
        assert _vstructures(W_DAG) == {(0, 1, 4), (3, 2, 4)}


_CLASS = Cpdag(3, {(0, 2), (1, 2)})
_STEP = TraceStep("forward", _CLASS, -12.5, "insert X1->X2")
# one instance of each value type of the learn path, with every field set,
# and its field names in order
VALUES = [
    (VariableSpec(("a", "b", "c"), (2, 3, 1)), ("names", "cards")),
    (Dag(3, {(0, 1), (1, 2)}), ("n", "edges")),
    (Cpdag(4, {(0, 2), (1, 2)}, {(0, 3)}), ("n", "directed", "undirected")),
    (ScoreConfig("bic", 3.0, 1e4), ("criterion", "ess", "oracle_pseudo_m")),
    (_STEP, ("phase", "cpdag", "score", "move")),
    (SearchTrace([_STEP, _STEP], True), ("steps", "truncated")),
    (SearchConfig("bes", _CLASS, ScoreConfig("bic"), 7),
     ("algorithm", "start", "score", "max_steps")),
]


@pytest.mark.parametrize("value,names", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
class TestValueSemantics:
    """The plain value classes behave as the frozen dataclasses they
    replaced: same hash, repr, equality, immutability and copies."""

    def test_hash_is_that_of_the_field_tuple(self, value, names):
        fields = tuple(getattr(value, name) for name in names)
        if isinstance(value, SearchTrace):  # mutable, so unhashable
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(fields)

    def test_repr_lists_the_fields(self, value, names):
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
        assert repr(value) == f"{type(value).__name__}({fields})"

    def test_equal_to_no_other_type(self, value, names):
        lookalike = SimpleNamespace(**{name: getattr(value, name) for name in names})
        assert value != lookalike and not value == lookalike
        for other, _ in VALUES:
            assert (value == other) == (other is value)

    def test_only_the_trace_is_mutable(self, value, names):
        value = copy.deepcopy(value)
        for name in names:
            if isinstance(value, SearchTrace):  # run_search fills it in place
                setattr(value, name, getattr(value, name))
            else:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))

    def test_copies_are_equal(self, value, names):
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(back) is type(value) and back == value and repr(back) == repr(value)
