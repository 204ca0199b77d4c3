"""Exact-joint oracle: tables, CI tests, composition, enumeration,
optimality sweeps and inclusion-witnessing transformation sequences."""

from itertools import combinations

import numpy as np
import pytest

from gesbn.datagen import gold_four_cycle, gold_w, sample_parameters
from gesbn.graphs import (
    Dag,
    GraphError,
    VariableSpec,
    consistent_extensions,
    d_separated,
    dag_to_cpdag,
    dsep_triples,
    included_in,
    is_covered,
    parameter_count,
)
from gesbn.oracle import (
    JointTable,
    ci_holds,
    ci_triple_set,
    composition_holds,
    condition_and_marginalize,
    enumerate_classes,
    enumerate_dags,
    includes,
    joint_from_bn,
    observed_margin,
    optimal_classes,
)
from reference import transformation_sequence


def xor_triple() -> JointTable:
    """X, Y independent fair bits, W = X xor Y."""
    spec = VariableSpec(("X", "Y", "W"), (2, 2, 2))
    probs = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            probs[x, y, x ^ y] = 0.25
    return JointTable(spec, probs)


class TestJointFromBn:
    def test_single_variable(self):
        spec = VariableSpec(("a",), (2,))
        bn_probs = np.array([[0.3, 0.7]])
        from gesbn.datagen import ParametricBn

        bn = ParametricBn(Dag(1), spec, [bn_probs])
        assert joint_from_bn(bn).probs == pytest.approx([0.3, 0.7])

    def test_two_fair_coins(self):
        spec = VariableSpec(("a", "b"), (2, 2))
        from gesbn.datagen import ParametricBn

        bn = ParametricBn(Dag(2), spec, [np.full((1, 2), 0.5)] * 2)
        assert joint_from_bn(bn).probs == pytest.approx(np.full((2, 2), 0.25))

    def test_root_marginal_equals_cpt(self):
        g = Dag(3, {(0, 1), (1, 2)})
        spec = VariableSpec(("a", "b", "c"), (3, 2, 2))
        bn = sample_parameters(g, spec, seed=21)
        p = joint_from_bn(bn)
        assert p.probs.sum(axis=(1, 2)) == pytest.approx(bn.cpts[0][0], abs=1e-12)


class TestConditionAndMarginalize:
    def test_identity(self):
        p = xor_triple()
        q = condition_and_marginalize(p)
        assert q.spec == p.spec and np.array_equal(q.probs, p.probs)

    def test_marginal_of_one_variable(self):
        p = xor_triple()
        q = condition_and_marginalize(p, drop=(1, 2))
        assert q.spec.names == ("X",)
        assert q.probs == pytest.approx([0.5, 0.5])

    def test_conditioning_removes_variable(self):
        p = xor_triple()
        q = condition_and_marginalize(p, fix={0: 1}, drop=(1,))
        assert q.spec.names == ("W",)
        assert q.probs == pytest.approx([0.5, 0.5])

    def test_zero_probability_event_rejected(self):
        spec = VariableSpec(("a", "b"), (2, 2))
        p = JointTable(spec, np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero-probability"):
            condition_and_marginalize(p, fix={0: 1})

    def test_four_cycle_margin_ci_set(self):
        # conditioning on S=1 and dropping S leaves exactly the CIs of the
        # undirected four cycle: X1_||_X3 | {X2,X4} and X2_||_X4 | {X1,X3}
        margin = observed_margin(gold_four_cycle().with_parameters(seed=23))
        want = {
            (0, 2, frozenset({1, 3})),
            (1, 3, frozenset({0, 2})),
        }
        assert ci_triple_set(margin) == want


class TestCiHolds:
    def test_product_distribution(self):
        spec = VariableSpec(("a", "b", "c"), (2, 2, 2))
        p = JointTable(spec, np.full((2, 2, 2), 1 / 8))
        assert ci_holds(p, 0, 1)
        assert ci_holds(p, 0, (1, 2))
        assert ci_holds(p, 0, 2, (1,))

    def test_xor_triple(self):
        p = xor_triple()
        assert ci_holds(p, 0, 1)
        assert not ci_holds(p, 0, 1, (2,))

    def test_w_margin_collider_conditioning(self):
        margin = observed_margin(gold_w().with_parameters(seed=25))
        assert not ci_holds(margin, 0, 2, (1,))
        assert ci_holds(margin, 0, 2)

    def test_disjointness_validated(self):
        p = xor_triple()
        with pytest.raises(ValueError):
            ci_holds(p, 0, (0, 1))
        with pytest.raises(ValueError):
            ci_holds(p, 0, 1, (1,))

    def test_queries_are_checked_as_d_separation_queries_are(self):
        # ci_holds and d_separated read their arguments through ci_query
        p, g = xor_triple(), Dag(3, {(0, 2), (1, 2)})
        for args in ((0, ()), ((0, 1), 1), (0, 3), (0, np.int64(3)), (0, 1, (1,))):
            messages = set()
            for check, model in ((ci_holds, p), (d_separated, g)):
                with pytest.raises(GraphError) as exc:
                    check(model, *args)
                messages.add(str(exc.value))
            assert len(messages) == 1
        assert ci_holds(p, [0], {1}, ()) == d_separated(g, (0,), np.int64(1))


class TestComposition:
    def test_xor_counterexample(self):
        res = composition_holds(xor_triple())
        assert not res
        assert res.counterexample == (frozenset({0}), frozenset({1, 2}), frozenset())

    def test_gold_margins_satisfy_composition(self):
        for gold in (gold_w(), gold_four_cycle()):
            margin = observed_margin(gold.with_parameters(seed=27))
            assert composition_holds(margin)

    def test_product_distribution_trivially_holds(self):
        spec = VariableSpec(("a", "b", "c"), (2, 2, 2))
        p = JointTable(spec, np.full((2, 2, 2), 1 / 8))
        assert composition_holds(p)


class TestEnumeration:
    def test_counts_n2(self):
        assert len(enumerate_dags(2)) == 3
        assert len(enumerate_classes(2)) == 2

    def test_counts_n3(self):
        assert len(enumerate_dags(3)) == 25
        assert len(enumerate_classes(3)) == 11

    def test_no_duplicates(self):
        dags = enumerate_dags(3)
        assert len(set(dags)) == len(dags)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            enumerate_dags(6)


class TestIncludes:
    def test_complete_dag_includes_everything(self):
        complete = Dag(3, {(0, 1), (0, 2), (1, 2)})
        assert includes(complete, xor_triple())

    def test_empty_dag(self):
        spec = VariableSpec(("a", "b"), (2, 2))
        product = JointTable(spec, np.full((2, 2), 0.25))
        dependent = JointTable(spec, np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert includes(Dag(2), product)
        assert not includes(Dag(2), dependent)

    def test_parameter_optimal_reconstruction_includes_w_margin(self):
        margin = observed_margin(gold_w().with_parameters(seed=29))
        g = Dag(4, {(0, 1), (0, 2), (1, 2), (3, 2)})
        assert includes(g, margin)

    def test_monotone_under_inclusion(self):
        margin = observed_margin(gold_w().with_parameters(seed=31))
        rng = np.random.default_rng(0)
        dags = enumerate_dags(4)
        for _ in range(200):
            g, h = dags[rng.integers(len(dags))], dags[rng.integers(len(dags))]
            if included_in(g, h) and includes(g, margin):
                assert includes(h, margin)

    def test_singleton_sweep_matches_set_sweep_n3(self):
        # flagged assumption: singleton-pair d-separations suffice; compare
        # against the full set-valued sweep on sampled parametric joints
        rng_seeds = range(10)
        spec = VariableSpec(("a", "b", "c"), (2, 2, 2))
        for g in enumerate_dags(3)[::3]:
            for s in rng_seeds:
                p = joint_from_bn(sample_parameters(g, spec, seed=s))
                for h in enumerate_dags(3):
                    assert includes(h, p) == _includes_set_version(h, p)


def _includes_set_version(g, p):
    n = g.n
    nodes = set(range(n))
    for xsize in range(1, n):
        for xset in combinations(range(n), xsize):
            rest = nodes - set(xset)
            for ysize in range(1, len(rest) + 1):
                for yset in combinations(sorted(rest), ysize):
                    others = rest - set(yset)
                    for zsize in range(len(others) + 1):
                        for zset in combinations(sorted(others), zsize):
                            sep = d_separated(g, xset, yset, zset)
                            if sep and not ci_holds(p, xset, yset, zset):
                                return False
    return True


class TestOptimalClasses:
    def test_dag_perfect_chain_has_unique_optimum(self):
        g = Dag(3, {(0, 1), (1, 2)})
        spec = VariableSpec(("a", "b", "c"), (2, 3, 2))
        p = joint_from_bn(sample_parameters(g, spec, seed=33))
        opt, popt = optimal_classes(p)
        assert opt == (dag_to_cpdag(g),)
        assert popt == opt

    def test_product_distribution_optimum_is_empty_class(self):
        spec = VariableSpec(("a", "b", "c"), (2, 2, 2))
        p = JointTable(spec, np.full((2, 2, 2), 1 / 8))
        opt, popt = optimal_classes(p)
        assert opt == (dag_to_cpdag(Dag(3)),)
        assert popt == opt
        assert parameter_count(Dag(3), spec) == 3

    def test_optimal_classes_pairwise_incomparable(self):
        for seed, gold in ((35, gold_w()), (37, gold_four_cycle())):
            margin = observed_margin(gold.with_parameters(seed=seed))
            opt = optimal_classes(margin)[0]
            reps = [consistent_extensions(c)[0] for c in opt]
            for a, b in combinations(reps, 2):
                assert not included_in(a, b) and not included_in(b, a)

    def test_soundness_dseps_are_cis(self):
        # every d-separation of the generative DAG holds in its joint
        rng = np.random.default_rng(1)
        for n in (3, 4):
            dags = enumerate_dags(n)
            for idx in rng.integers(0, len(dags), size=8):
                g = dags[idx]
                spec = VariableSpec(
                    tuple(f"v{i}" for i in range(n)),
                    tuple(rng.integers(2, 4, size=n)),
                )
                p = joint_from_bn(sample_parameters(g, spec, seed=int(idx)))
                for x, y, z in dsep_triples(g):
                    assert ci_holds(p, x, y, z)


def _check_sequence(g, h, moves):
    r = sum(1 for u, v in h.edges if (v, u) in g.edges)
    a = sum(1 for u, v in h.edges if (u, v) not in g.edges and (v, u) not in g.edges)
    assert len(moves) <= r + 2 * a
    cur = g
    for kind, edge in moves:
        if kind == "reverse":
            assert is_covered(cur, edge)
            cur = Dag(cur.n, (cur.edges - {edge}) | {(edge[1], edge[0])})
        else:
            cur = cur.add_edge(*edge)
        assert included_in(cur, h)
    assert cur == h


class TestTransformationSequences:
    def test_single_covered_reversal(self):
        g, h = Dag(2, {(0, 1)}), Dag(2, {(1, 0)})
        moves = transformation_sequence(g, h)
        assert moves == [("reverse", (0, 1))]
        _check_sequence(g, h, moves)

    def test_single_addition(self):
        g, h = Dag(2), Dag(2, {(0, 1)})
        moves = transformation_sequence(g, h)
        assert moves == [("add", (0, 1))]

    def test_identity_is_empty_sequence(self):
        g = Dag(3, {(0, 1)})
        assert transformation_sequence(g, g) == []

    def test_precondition_violated(self):
        collider = Dag(3, {(0, 1), (2, 1)})
        chain = Dag(3, {(0, 1), (1, 2)})
        with pytest.raises(GraphError):
            transformation_sequence(collider, chain)

    def test_reversal_plus_addition_case(self):
        g = Dag(3, {(0, 1)})
        h = Dag(3, {(1, 0), (2, 0)})
        moves = transformation_sequence(g, h)
        _check_sequence(g, h, moves)
