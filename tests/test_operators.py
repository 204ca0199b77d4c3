"""Differential tests: Chickering's Insert/Delete operators and the directly
built canonical member against the brute-force enumerations they replace
on the search path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import backward_neighbors as ref_backward_neighbors
from reference import forward_neighbors as ref_forward_neighbors
from reference import insert_moves as ref_insert_moves
from test_harness import sparse_network

from gesbn.datagen import RngSeed, gold_four_cycle, gold_w, observed_sample
from gesbn.graphs import (
    Dag,
    canonical_member,
    complete_cpdag,
    consistent_extensions,
    dag_to_cpdag,
    empty_cpdag,
    pdag_extension,
)
from gesbn.oracle import enumerate_classes, observed_margin
from gesbn.scoring import ScoreConfig, make_scorer
from gesbn.search import (
    SearchConfig,
    apply_move,
    backward_neighbors,
    delete_moves,
    forward_neighbors,
    insert_moves,
    run_search,
)

# fixed examples, and no example database written next to the sources
PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


def _operator_neighbors(c, moves):
    """The classes of the moves, each move leading to a class of its own."""
    out = [apply_move(c, m) for m in moves(c)]
    assert len(set(out)) == len(out), (c, moves.__name__)
    return set(out)


class TestNeighbourSetsMatchBruteForce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_class(self, n):
        for c in enumerate_classes(n):
            fwd, bwd = ref_forward_neighbors(c), ref_backward_neighbors(c)
            assert _operator_neighbors(c, insert_moves) == set(fwd), c
            assert _operator_neighbors(c, delete_moves) == set(bwd), c
            # the library's maps: the same classes in the same order
            assert forward_neighbors(c) == fwd, c
            assert backward_neighbors(c) == bwd, c

    def test_moves_change_one_family_by_one_parent(self):
        for c in enumerate_classes(4):
            for m in insert_moves(c) + delete_moves(c):
                big, small = (m.new, m.old) if m.insert else (m.old, m.new)
                assert set(big) - set(small) == {m.x}
                assert len(big) == len(small) + 1 and m.y not in big

    def test_empty_and_complete_move_counts(self):
        # from the empty class: one insert per pair, no delete
        assert len(insert_moves(empty_cpdag(4))) == 6
        assert delete_moves(empty_cpdag(4)) == ()
        # from the complete class: no insert, and one delete per pair and
        # per set of the other two nodes that become colliders
        assert insert_moves(complete_cpdag(4)) == ()
        assert len(delete_moves(complete_cpdag(4))) == 6 * 4


class TestInsertMovesMatchReference:
    """insert_moves walks each path test once per y and NA | T; the
    reference walks it again for every x. The moves, their order and
    their T sets must agree tuple for tuple."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_class(self, n):
        for c in enumerate_classes(n):
            assert insert_moves.__wrapped__(c) == ref_insert_moves(c), c

    @pytest.mark.parametrize("n,seed", [(8, 0), (8, 1), (10, 0), (10, 1), (12, 0)])
    def test_classes_ges_visits(self, n, seed):
        data = observed_sample(sparse_network(n, seed), 5000, RngSeed(seed, 100 + n))
        _, trace = run_search(SearchConfig("ges"), data)
        assert len(trace.steps) > n // 2
        for step in trace.steps:
            c = step.cpdag
            assert insert_moves.__wrapped__(c) == ref_insert_moves(c), c


class TestCanonicalMember:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_class(self, n):
        for c in enumerate_classes(n):
            assert canonical_member(c) == consistent_extensions(c)[0], c

    def test_complete_class_orients_every_pair_upward(self):
        for n in (2, 5, 9):
            member = canonical_member(complete_cpdag(n))
            assert member.edges == complete_cpdag(n).undirected

    def test_pdag_without_extension(self):
        # every acyclic orientation of an undirected 4-cycle adds a v-structure
        square = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        assert pdag_extension(4, frozenset(), square) is None
        assert pdag_extension(3, frozenset({(0, 1), (1, 2), (2, 0)}), frozenset()) is None
        assert pdag_extension(3, frozenset(), frozenset()) == Dag(3)


@st.composite
def classes(draw):
    """The class of a random DAG on 6 or 7 nodes."""
    n = draw(st.integers(6, 7))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return dag_to_cpdag(Dag(n, frozenset(p for p, k in zip(pairs, keep) if k)))


@PROPERTY_SETTINGS
@given(classes())
def test_canonical_member_is_first_member_n6_7(c):
    assert canonical_member(c) == consistent_extensions(c)[0]


GOLDS = {"w": gold_w, "cycle4": gold_four_cycle}


@pytest.fixture(scope="module")
def scorers():
    """(gold, criterion) -> DecomposableScorer on an m = 2000 sample or the
    exact margin."""
    out = {}
    for name, gold_fn in GOLDS.items():
        gold = gold_fn().with_parameters(seed=81)
        data = observed_sample(gold, 2000, seed=82)
        for criterion in ("bdeu", "bic"):
            out[name, criterion] = make_scorer(ScoreConfig(criterion=criterion), data=data)
        out[name, "oracle"] = make_scorer(
            ScoreConfig(criterion="oracle"), joint=observed_margin(gold)
        )
    return out


class TestLocalDeltas:
    @pytest.mark.parametrize("criterion", ["bdeu", "bic", "oracle"])
    @pytest.mark.parametrize("gold", sorted(GOLDS))
    def test_delta_equals_class_score_change(self, scorers, gold, criterion):
        scorer = scorers[gold, criterion]
        for c in enumerate_classes(4):
            cur = scorer.score_dag(canonical_member(c))
            for m in insert_moves(c) + delete_moves(c):
                exact = scorer.score_dag(canonical_member(apply_move(c, m)))
                approx = cur + scorer.local(m.y, m.new) - scorer.local(m.y, m.old)
                assert abs(approx - exact) <= 1e-12 * (1 + abs(exact)), (c, m)
