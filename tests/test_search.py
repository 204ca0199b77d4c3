"""Equivalence-class search: neighborhoods, greedy phases, FES/BES/GES/UGES
and their optimality behavior against the exact oracle."""

import numpy as np
import pytest

from gesbn.datagen import ParametricBn, gold_w, forward_sample
from gesbn.graphs import (
    Cpdag,
    Dag,
    VariableSpec,
    complete_cpdag,
    consistent_extensions,
    dag_to_cpdag,
    empty_cpdag,
)
from gesbn.oracle import (
    enumerate_classes,
    includes,
    observed_margin,
    optimal_classes,
)
from gesbn.scoring import CategoricalDataset, ScoreConfig, make_scorer
from gesbn.search import (
    SearchConfig,
    backward_neighbors,
    forward_neighbors,
    greedy_phase,
    run_search,
)

EXACT = ScoreConfig(criterion="oracle", oracle_pseudo_m=1e6)


class TestNeighborhoods:
    def test_forward_from_empty_three_nodes(self):
        got = forward_neighbors(empty_cpdag(3))
        want = {
            Cpdag(3, undirected={(0, 1)}),
            Cpdag(3, undirected={(0, 2)}),
            Cpdag(3, undirected={(1, 2)}),
        }
        assert set(got) == want

    def test_forward_from_complete_is_empty(self):
        for n in (2, 3, 4):
            assert forward_neighbors(complete_cpdag(n)) == ()

    def test_forward_from_single_edge_class_two_nodes(self):
        assert forward_neighbors(dag_to_cpdag(Dag(2, {(0, 1)}))) == ()

    def test_backward_from_undirected_pair(self):
        got = backward_neighbors(Cpdag(2, undirected={(0, 1)}))
        assert got == (empty_cpdag(2),)

    def test_backward_from_empty(self):
        assert backward_neighbors(empty_cpdag(3)) == ()

    def test_backward_from_complete_three_nodes_by_enumeration(self):
        # independent derivation: delete one edge from every member DAG
        want = set()
        for g in consistent_extensions(complete_cpdag(3)):
            for e in g.edges:
                want.add(dag_to_cpdag(g.remove_edge(*e)))
        got = backward_neighbors(complete_cpdag(3))
        assert set(got) == want
        # two shapes: the two-edge path (undirected) and the collider,
        # three placements each
        assert len(got) == 6
        assert sum(1 for c in got if c.directed) == 3

    def test_forward_backward_duality_exhaustive_n_le_4(self):
        for n in (2, 3, 4):
            classes = enumerate_classes(n)
            fwd = {c: set(forward_neighbors(c)) for c in classes}
            bwd = {c: set(backward_neighbors(c)) for c in classes}
            for c in classes:
                for c2 in fwd[c]:
                    assert c in bwd[c2]
                for c2 in bwd[c]:
                    assert c in fwd[c2]

    def test_neighbor_edge_counts_differ_by_one(self):
        for c in enumerate_classes(3):
            ne = c.edge_count()
            assert all(c2.edge_count() == ne + 1 for c2 in forward_neighbors(c))
            assert all(c2.edge_count() == ne - 1 for c2 in backward_neighbors(c))

    def test_current_class_never_its_own_neighbor(self):
        for c in enumerate_classes(3):
            assert c not in forward_neighbors(c)
            assert c not in backward_neighbors(c)


class TestGreedyPhase:
    def test_all_neighbors_worse_returns_start(self):
        start = empty_cpdag(3)
        scorer = lambda c: -float(c.edge_count())
        out, trace = greedy_phase(start, forward_neighbors, scorer)
        assert out == start
        assert len(trace.steps) == 1 and not trace.truncated

    def test_truncation_reported(self):
        scorer = lambda c: float(c.edge_count())
        out, trace = greedy_phase(
            empty_cpdag(4), forward_neighbors, scorer, max_steps=2
        )
        assert trace.truncated
        assert len(trace.steps) == 3

    def test_tie_break_smallest_canonical_encoding(self):
        scorer = lambda c: float(c.edge_count())  # all single-edge classes tie
        out, trace = greedy_phase(
            empty_cpdag(3), forward_neighbors, scorer, max_steps=1
        )
        assert trace.steps[1].cpdag == Cpdag(3, undirected={(0, 1)})

    def test_zero_budget_is_the_default(self):
        # every neighbour improves, so only the budget of n^2 + n = 12 moves ends the walk
        one_edge = Cpdag(3, undirected={(0, 1)})
        flip = lambda c: (one_edge if c == empty_cpdag(3) else empty_cpdag(3),)
        for kw in ({}, {"max_steps": 0}):
            scores = iter(range(100))
            _, trace = greedy_phase(empty_cpdag(3), flip, lambda c: next(scores), **kw)
            assert trace.truncated and len(trace.steps) == 13

    def test_scores_strictly_increase(self):
        gold = gold_w().with_parameters(seed=3)
        margin = observed_margin(gold)
        _, trace = run_search(SearchConfig("ges", score=EXACT), joint=margin)
        scores = [step.score for step in trace.steps]
        assert all(b > a for a, b in zip(scores, scores[1:]))


class TestFes:
    def test_single_strong_dependency(self):
        # one dependent pair, third variable independent; pinned seed
        spec = VariableSpec(("a", "b", "c"), (2, 2, 2))
        g = Dag(3, {(0, 1)})
        cpts = [
            np.array([[0.5, 0.5]]),
            np.array([[0.9, 0.1], [0.1, 0.9]]),
            np.array([[0.5, 0.5]]),
        ]
        bn = ParametricBn(g, spec, cpts)
        data = forward_sample(bn, 100_000, seed=41)
        out, _ = run_search(SearchConfig("fes"), data=data)
        assert out == Cpdag(3, undirected={(0, 1)})

    def test_w_margin_reaches_class_including_p(self):
        gold = gold_w().with_parameters(seed=43)
        margin = observed_margin(gold)
        out, _ = run_search(SearchConfig("fes", score=EXACT), joint=margin)
        assert all(includes(g, margin) for g in consistent_extensions(out))


class TestGes:
    def test_independent_data_yields_empty_class(self):
        spec = VariableSpec(("a", "b", "c"), (2, 2, 2))
        bn = ParametricBn(Dag(3), spec, [np.full((1, 2), 0.5)] * 3)
        data = forward_sample(bn, 100_000, seed=45)
        out, _ = run_search(SearchConfig("ges"), data=data)
        assert out == empty_cpdag(3)

    @pytest.mark.parametrize("gold_fn,seed", [(gold_w, 47), (gold_w, 48)])
    def test_oracle_score_reaches_inclusion_optimal_w(self, gold_fn, seed):
        margin = observed_margin(gold_fn().with_parameters(seed=seed))
        out, _ = run_search(SearchConfig("ges", score=EXACT), joint=margin)
        assert out in optimal_classes(margin)[0]

    def test_trace_phases_contiguous(self):
        margin = observed_margin(gold_w().with_parameters(seed=49))
        _, trace = run_search(SearchConfig("ges", score=EXACT), joint=margin)
        phases = [s.phase for s in trace.steps]
        assert phases == sorted(phases, key=("forward", "backward").index)


class TestUges:
    def test_ges_output_is_uges_local_maximum(self):
        margin = observed_margin(gold_w().with_parameters(seed=51))
        out, _ = run_search(SearchConfig("ges", score=EXACT), joint=margin)
        scorer = make_scorer(EXACT, joint=margin)
        final = scorer.score_class(out)
        neighbors = set(forward_neighbors(out)) | set(backward_neighbors(out))
        assert all(scorer.score_class(c) <= final for c in neighbors)
        again, _ = run_search(SearchConfig("uges", out, EXACT), joint=margin)
        assert again == out

    def test_from_complete_reaches_inclusion_optimal(self):
        margin = observed_margin(gold_w().with_parameters(seed=53))
        out, _ = run_search(SearchConfig("uges", "complete", EXACT), joint=margin)
        assert out in optimal_classes(margin)[0]

    def test_empty_start_independent_data(self):
        spec = VariableSpec(("a", "b"), (2, 2))
        bn = ParametricBn(Dag(2), spec, [np.full((1, 2), 0.5)] * 2)
        data = forward_sample(bn, 50_000, seed=55)
        out, _ = run_search(SearchConfig("uges"), data=data)
        assert out == empty_cpdag(2)


class TestBes:
    def test_empty_start_has_no_moves(self):
        margin = observed_margin(gold_w().with_parameters(seed=57))
        out, trace = run_search(SearchConfig("bes", "empty", EXACT), joint=margin)
        assert out == empty_cpdag(4)
        assert len(trace.steps) == 1

    def test_from_complete_reaches_inclusion_optimal(self):
        margin = observed_margin(gold_w().with_parameters(seed=59))
        out, _ = run_search(SearchConfig("bes", "complete", EXACT), joint=margin)
        assert out in optimal_classes(margin)[0]

    def test_every_intermediate_includes_p(self):
        margin = observed_margin(gold_w().with_parameters(seed=61))
        _, trace = run_search(SearchConfig("bes", "complete", EXACT), joint=margin)
        for step in trace.steps:
            rep = consistent_extensions(step.cpdag)[0]
            assert includes(rep, margin)


class TestDeterminism:
    def _dataset(self, seed, permute=None):
        gold = gold_w().with_parameters(seed=63)
        from gesbn.datagen import observed_sample

        data = observed_sample(gold, 2000, seed=seed)
        if permute is not None:
            rng = np.random.default_rng(permute)
            order = rng.permutation(data.m)
            data = CategoricalDataset(data.spec, data.records[order])
        return data

    def test_record_order_invariance(self):
        base = self._dataset(65)
        shuffled = self._dataset(65, permute=1)
        out1, _ = run_search(SearchConfig("ges"), data=base)
        out2, _ = run_search(SearchConfig("ges"), data=shuffled)
        assert out1 == out2

    def test_full_trace_reproducible(self):
        data = self._dataset(67)
        out1, trace1 = run_search(SearchConfig("ges"), data=data)
        out2, trace2 = run_search(SearchConfig("ges"), data=data)
        assert out1 == out2
        assert trace1.to_log() == trace2.to_log()

    def test_trace_log_format(self):
        data = self._dataset(69)
        _, trace = run_search(SearchConfig("ges"), data=data)
        lines = trace.to_log().strip().splitlines()
        assert lines[0].startswith("forward\tstart\t-\t")
        for line in lines:
            assert len(line.split("\t")) == 4 or line.startswith("#")


class TestRunSearch:
    def test_default_start_matches_explicit_start(self):
        margin = observed_margin(gold_w().with_parameters(seed=71))
        for algorithm in ("fes", "bes", "ges", "uges"):
            start = "complete" if algorithm == "bes" else "empty"
            out1, _ = run_search(SearchConfig(algorithm, score=EXACT), joint=margin)
            out2, _ = run_search(SearchConfig(algorithm, start, EXACT), joint=margin)
            assert out1 == out2

    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            make_scorer(ScoreConfig())
        margin = observed_margin(gold_w().with_parameters(seed=73))
        data = CategoricalDataset(margin.spec, np.zeros((0, 4), int))
        with pytest.raises(ValueError):
            make_scorer(ScoreConfig(), data=data, joint=margin)

    def test_oracle_criterion_needs_joint(self):
        data = CategoricalDataset(VariableSpec(("a",), (2,)), [[0]])
        with pytest.raises(ValueError):
            make_scorer(ScoreConfig(criterion="oracle"), data=data)

    @pytest.mark.parametrize("kw,message", [
        ({"algorithm": "dfs"}, "algorithm must be one of"),
        ({"start": "full"}, "unknown start 'full'"),
        ({"start": 4}, "unknown start 4"),
        ({"max_steps": -1}, "max_steps must be a whole number >= 0"),
        ({"max_steps": 2.5}, "max_steps must be a whole number >= 0"),
        ({"max_steps": True}, "max_steps must be a whole number >= 0"),
    ], ids=["algorithm", "start-name", "start-int", "steps-negative", "steps-float",
            "steps-bool"])
    def test_config_rejects_bad_fields(self, kw, message):
        with pytest.raises(ValueError, match=message):
            SearchConfig(**kw)

    @pytest.mark.parametrize("start", [Cpdag(3), complete_cpdag(5)], ids=["3", "5"])
    def test_start_class_must_match_the_variables(self, start):
        margin = observed_margin(gold_w().with_parameters(seed=73))
        data = CategoricalDataset(margin.spec, np.zeros((5, 4), int))
        message = f"start class has {start.n} nodes, but the search has 4 variables"
        with pytest.raises(ValueError, match=message):
            run_search(SearchConfig(start=start), data=data)
        with pytest.raises(ValueError, match=message):
            run_search(SearchConfig("bes", start, EXACT), joint=margin)


# ---------------------------------------------------------------------------
# differential test of the phase-table engine against copies of the four
# algorithm bodies, the start resolver and the scorer builders it replaced

import itertools
import math
from gesbn.datagen import gold_four_cycle, observed_sample
from gesbn.scoring import (
    DecomposableScorer,
    bdeu_local,
    bic_local,
    oracle_local,
    tally,
)
from gesbn.graphs import canonical_key
from gesbn.search import SearchTrace


def ref_bic_local(counts, m):
    if m < 1:
        raise ValueError("bic requires at least one record")
    n_row = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = counts * (np.log(counts) - np.log(n_row))
    ll = float(np.where(counts > 0, terms, 0.0).sum())
    q, r = counts.shape
    return ll - 0.5 * q * (r - 1) * math.log(m)


def ref_oracle_local(joint, child, parents, pseudo_m):
    probs = joint.probs
    cards = joint.spec.cards
    parents = tuple(sorted(parents))
    keep = sorted(set(parents) | {child})
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    axes = [keep.index(p) for p in parents] + [keep.index(child)]
    r = cards[child]
    pjk = np.transpose(marg, axes).reshape(-1, r)
    pj = pjk.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = pjk * (np.log(pjk) - np.log(pj))
    ell = float(np.where(pjk > 0, terms, 0.0).sum())
    q = pjk.shape[0]
    return pseudo_m * ell - 0.5 * q * (r - 1) * math.log(pseudo_m)


def ref_make_class_scorer(score_cfg=None, data=None, joint=None):
    score_cfg = score_cfg if score_cfg is not None else ScoreConfig()
    if (data is None) == (joint is None):
        raise ValueError("provide exactly one of data or joint")
    if joint is not None:
        pseudo_m = score_cfg.oracle_pseudo_m
        local = lambda child, parents: ref_oracle_local(joint, child, parents, pseudo_m)
        n = joint.spec.n
    else:
        if score_cfg.criterion == "bdeu":
            local = lambda child, parents: bdeu_local(
                tally(data, child, parents), score_cfg.ess
            )
        else:
            local = lambda child, parents: ref_bic_local(
                tally(data, child, parents), data.m
            )
        n = data.spec.n
    scorer = DecomposableScorer(local)
    return lambda c: scorer.score_dag(consistent_extensions(c)[0]), n


def ref_resolve_start(start, n, default):
    if start is None:
        start = default
    if isinstance(start, Cpdag):
        return start
    if start == "empty":
        return empty_cpdag(n)
    if start == "complete":
        return complete_cpdag(n)
    raise ValueError(f"unknown start {start!r}")


def ref_fes(data=None, joint=None, cfg=None, start=None):
    cfg = cfg if cfg is not None else SearchConfig(algorithm="fes")
    class_scorer, n = ref_make_class_scorer(cfg.score, data, joint)
    start = ref_resolve_start(start if start is not None else cfg.start, n, "empty")
    return greedy_phase(start, forward_neighbors, class_scorer, "forward", cfg.max_steps)


def ref_bes(start=None, data=None, joint=None, cfg=None):
    cfg = cfg if cfg is not None else SearchConfig(algorithm="bes")
    class_scorer, n = ref_make_class_scorer(cfg.score, data, joint)
    start = ref_resolve_start(start if start is not None else cfg.start, n, "complete")
    return greedy_phase(start, backward_neighbors, class_scorer, "backward", cfg.max_steps)


def ref_ges(data=None, joint=None, cfg=None):
    cfg = cfg if cfg is not None else SearchConfig()
    class_scorer, n = ref_make_class_scorer(cfg.score, data, joint)
    start = ref_resolve_start(cfg.start, n, "empty")
    mid, fwd = greedy_phase(start, forward_neighbors, class_scorer, "forward", cfg.max_steps)
    out, bwd = greedy_phase(mid, backward_neighbors, class_scorer, "backward", cfg.max_steps)
    trace = SearchTrace(fwd.steps + bwd.steps[1:], fwd.truncated or bwd.truncated)
    return out, trace


def ref_both_neighbors(c):
    merged = set(forward_neighbors(c)) | set(backward_neighbors(c))
    return tuple(sorted(merged, key=canonical_key))


def ref_uges(data=None, joint=None, cfg=None, start=None):
    cfg = cfg if cfg is not None else SearchConfig(algorithm="uges")
    class_scorer, n = ref_make_class_scorer(cfg.score, data, joint)
    start = ref_resolve_start(start if start is not None else cfg.start, n, "empty")
    return greedy_phase(start, ref_both_neighbors, class_scorer, "bidirectional", cfg.max_steps)


def ref_run_search(cfg, data=None, joint=None):
    if cfg.algorithm == "fes":
        return ref_fes(data, joint, cfg)
    if cfg.algorithm == "bes":
        return ref_bes(cfg.start, data, joint, cfg)
    if cfg.algorithm == "ges":
        return ref_ges(data, joint, cfg)
    return ref_uges(data, joint, cfg)


GOLDS = {"w": gold_w, "cycle4": gold_four_cycle}
MID_START = dag_to_cpdag(Dag(4, {(0, 1), (2, 1), (2, 3)}))


@pytest.fixture(scope="module")
def search_inputs():
    """gold -> criterion -> (data, joint): m = 2000 samples and exact margins."""
    out = {}
    for name, gold_fn in GOLDS.items():
        gold = gold_fn().with_parameters(seed=75)
        data = observed_sample(gold, 2000, seed=76)
        margin = observed_margin(gold)
        out[name] = {
            "bdeu": (data, None), "bic": (data, None), "oracle": (None, margin),
        }
    return out


class TestEngineMatchesReference:
    @pytest.mark.parametrize("gold", sorted(GOLDS))
    @pytest.mark.parametrize("criterion", ["bdeu", "bic", "oracle"])
    @pytest.mark.parametrize("algorithm", ["fes", "bes", "ges", "uges"])
    def test_same_class_and_trace(self, search_inputs, gold, criterion, algorithm):
        data, joint = search_inputs[gold][criterion]
        score_cfg = ScoreConfig(criterion=criterion)
        for start, max_steps in itertools.product(
            (None, "empty", "complete", MID_START), (0, 1)
        ):
            cfg = SearchConfig(algorithm, start, score_cfg, max_steps)
            want_out, want_trace = ref_run_search(cfg, data, joint)
            out, trace = run_search(cfg, data, joint)
            assert out == want_out, (start, max_steps)
            assert trace.to_log() == want_trace.to_log(), (start, max_steps)

    def test_step_budget_truncates_the_trace(self, search_inputs):
        data, _ = search_inputs["w"]["bdeu"]
        for algorithm, start in (("ges", None), ("bes", None), ("uges", "complete")):
            cfg = SearchConfig(algorithm, start, max_steps=1)
            _, trace = run_search(cfg, data)
            assert trace.truncated
            assert trace.to_log() == ref_run_search(cfg, data)[1].to_log()

    def test_bes_defaults_to_complete_start(self, search_inputs):
        data, _ = search_inputs["w"]["bdeu"]
        out, trace = run_search(SearchConfig(algorithm="bes"), data=data)
        assert trace.steps[0].cpdag == complete_cpdag(4)
        twin = run_search(SearchConfig(algorithm="bes", start="complete"), data=data)
        assert (out, trace.to_log()) == (twin[0], twin[1].to_log())
        assert out != empty_cpdag(4)


def _all_families(n):
    for child in range(n):
        others = [v for v in range(n) if v != child]
        for k in range(n):
            for parents in itertools.combinations(others, k):
                yield child, parents


class TestKernelMatchesReference:
    @pytest.mark.parametrize("gold", sorted(GOLDS))
    def test_oracle_local_bit_identical(self, search_inputs, gold):
        _, margin = search_inputs[gold]["oracle"]
        for pseudo_m in (1e6, 163840, 12.5):
            for child, parents in _all_families(4):
                got = oracle_local(margin, child, parents, pseudo_m)
                assert got == ref_oracle_local(margin, child, parents, pseudo_m)

    @pytest.mark.parametrize("gold", sorted(GOLDS))
    def test_bic_local_bit_identical(self, search_inputs, gold):
        data, _ = search_inputs[gold]["bic"]
        for child, parents in _all_families(4):
            counts = tally(data, child, parents)
            assert bic_local(counts, data.m) == ref_bic_local(counts, data.m)


class TestMakeScorerChecks:
    def test_input_must_suit_criterion(self, search_inputs):
        data, _ = search_inputs["w"]["bdeu"]
        _, margin = search_inputs["w"]["oracle"]
        cases = [
            (ScoreConfig(), None, margin),
            (ScoreConfig(criterion="bic"), None, margin),
            (ScoreConfig(criterion="oracle"), data, None),
            (ScoreConfig(), None, None),
            (ScoreConfig(criterion="oracle"), None, None),
            (ScoreConfig(), data, margin),
            (ScoreConfig(criterion="oracle"), data, margin),
        ]
        for cfg, d, j in cases:
            with pytest.raises(ValueError):
                make_scorer(cfg, data=d, joint=j)
            with pytest.raises(ValueError):
                run_search(SearchConfig(score=cfg), data=d, joint=j)


# ---------------------------------------------------------------------------
# the operator search against the brute-force reference on n = 6 networks

from gesbn.datagen import forward_sample, sample_parameters


def _network_data(n, seed, m=3000):
    """m records of a binary network on n nodes with n + 1 edges that point
    forward in a random order; structure and parameters fixed by seed."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    pairs = [(int(order[i]), int(order[j])) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.choice(len(pairs), size=n + 1, replace=False)
    spec = VariableSpec(tuple(f"V{i}" for i in range(n)), (2,) * n)
    bn = sample_parameters(Dag(n, {pairs[k] for k in chosen}), spec, seed=seed)
    return forward_sample(bn, m, seed)


class TestOperatorSearchMatchesBruteForce:
    @pytest.mark.parametrize("seed", [91, 92])
    @pytest.mark.parametrize("algorithm,start", [
        ("ges", None), ("bes", "complete"), ("uges", None),
    ])
    def test_n6_network(self, seed, algorithm, start):
        data = _network_data(6, seed)
        cfg = SearchConfig(algorithm, start)
        out, trace = run_search(cfg, data)
        want_out, want_trace = ref_run_search(cfg, data)
        assert out == want_out
        assert trace.to_log() == want_trace.to_log()
        assert len(trace.steps) > 3
