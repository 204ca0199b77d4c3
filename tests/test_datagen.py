"""Parameter sampling, forward/rejection sampling, gold standards and
model files. Monte-Carlo checks run at fixed seeds with wide tolerances
derived from binomial concentration."""

import numpy as np
import pytest
from scipy.stats import chi2

from gesbn.datagen import (
    GoldStandard,
    ParametricBn,
    RngSeed,
    basis_mean,
    forward_sample,
    gold_four_cycle,
    gold_w,
    load_model,
    model_from_dict,
    model_to_dict,
    observed_sample,
    sample_parameters,
    save_model,
    shifted_mean,
)
from gesbn.graphs import Dag, VariableSpec, dsep_triples
from gesbn.oracle import ci_holds, ci_triple_set, observed_margin
from gesbn.scoring import tally


class TestBasisMean:
    def test_three_states(self):
        assert basis_mean(3) == pytest.approx([6 / 11, 3 / 11, 2 / 11], abs=1e-15)

    def test_degenerate(self):
        assert basis_mean(1) == pytest.approx([1.0])

    def test_two_states(self):
        assert basis_mean(2) == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            basis_mean(0)


class TestShiftedMean:
    def test_shift_one_matches_published_example(self):
        mu = basis_mean(3)
        assert shifted_mean(mu, 1) == pytest.approx(
            [2 / 11, 6 / 11, 3 / 11], abs=1e-15
        )

    def test_shift_two_matches_published_example(self):
        mu = basis_mean(3)
        assert shifted_mean(mu, 2) == pytest.approx(
            [3 / 11, 2 / 11, 6 / 11], abs=1e-15
        )

    def test_full_cycle_is_identity(self):
        mu = basis_mean(4)
        assert shifted_mean(mu, 4) == pytest.approx(list(mu), abs=1e-15)

    def test_rejects_zero_based_index(self):
        with pytest.raises(ValueError):
            shifted_mean(basis_mean(3), 0)


class TestSampleParameters:
    SPEC = VariableSpec(("a", "b", "c"), (2, 3, 2))
    G = Dag(3, {(0, 1), (2, 1)})

    def test_rows_normalized(self):
        bn = sample_parameters(self.G, self.SPEC, seed=0)
        for table in bn.cpts:
            assert np.abs(table.sum(axis=1) - 1.0).max() <= 1e-12

    def test_deterministic_given_seed(self):
        a = sample_parameters(self.G, self.SPEC, seed=42)
        b = sample_parameters(self.G, self.SPEC, seed=42)
        assert a == b
        c = sample_parameters(self.G, self.SPEC, seed=43)
        assert a != c

    def test_dirichlet_mean_matches_shifted_basis(self):
        # Monte Carlo against the analytic mean: r=3, first configuration
        spec = VariableSpec(("x",), (3,))
        g = Dag(1)
        rows = np.stack(
            [
                sample_parameters(g, spec, seed=RngSeed(1, s)).cpts[0][0]
                for s in range(100_000)
            ]
        )
        want = shifted_mean(basis_mean(3), 1)
        assert np.abs(rows.mean(axis=0) - want).max() < 0.01

    def test_stream_ids_give_distinct_draws(self):
        a = sample_parameters(self.G, self.SPEC, seed=RngSeed(7, 0))
        b = sample_parameters(self.G, self.SPEC, seed=RngSeed(7, 1))
        assert a != b

    @pytest.mark.parametrize("ess", [0.0, float("nan"), float("inf")],
                             ids=["zero", "nan", "inf"])
    def test_rejects_non_positive_ess(self, ess):
        with pytest.raises(ValueError, match="ess must be positive"):
            sample_parameters(self.G, self.SPEC, ess=ess, seed=0)


class TestParametricBn:
    @pytest.mark.parametrize("row", [
        [0.5, float("nan")], [float("inf"), 0.0], [float("inf"), -float("inf")],
        [-float("inf"), 1.0],
    ], ids=["nan", "inf", "inf-minus-inf", "minus-inf"])
    def test_rejects_non_finite_entries(self, row):
        spec = VariableSpec(("a", "b"), (2, 2))
        cpts = [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], row])]
        with pytest.raises(ValueError, match="CPT.* for node 1"):
            ParametricBn(Dag(2, {(0, 1)}), spec, cpts)


class TestForwardSample:
    def test_empty(self):
        bn = sample_parameters(Dag(2, {(0, 1)}), VariableSpec(("a", "b"), (2, 2)), seed=0)
        data = forward_sample(bn, 0, seed=0)
        assert data.m == 0 and data.records.shape == (0, 2)

    def test_deterministic_cpts_give_constant_records(self):
        spec = VariableSpec(("a", "b"), (2, 3))
        cpts = [np.array([[0.0, 1.0]]), np.array([[0, 0, 1.0], [0, 1.0, 0]])]
        bn = ParametricBn(Dag(2, {(0, 1)}), spec, cpts)
        data = forward_sample(bn, 50, seed=3)
        assert (data.records == [1, 1]).all()

    def test_root_marginal_concentration(self):
        m = 100_000
        bn = sample_parameters(Dag(2, {(0, 1)}), VariableSpec(("a", "b"), (2, 2)), seed=5)
        data = forward_sample(bn, m, seed=6)
        p = bn.cpts[0][0, 1]
        freq = data.records[:, 0].mean()
        assert abs(freq - p) <= 3 * np.sqrt(p * (1 - p) / m)

    def test_same_seed_same_records(self):
        bn = sample_parameters(Dag(2, {(0, 1)}), VariableSpec(("a", "b"), (2, 2)), seed=5)
        assert forward_sample(bn, 100, seed=9) == forward_sample(bn, 100, seed=9)


class TestObservedSample:
    def test_no_hidden_no_selection_equals_forward(self):
        spec = VariableSpec(("a", "b"), (2, 2))
        bn = sample_parameters(Dag(2, {(0, 1)}), spec, seed=1)
        gold = GoldStandard(Dag(2, {(0, 1)}), spec, observed=(0, 1), bn=bn)
        assert observed_sample(gold, 200, seed=4) == forward_sample(bn, 200, seed=4)

    def test_single_state_selection_is_identity_filter(self):
        spec = VariableSpec(("a", "s"), (2, 1))
        structure = Dag(2, {(0, 1)})
        cpts = [np.array([[0.5, 0.5]]), np.array([[1.0], [1.0]])]
        gold = GoldStandard(
            structure, spec, observed=(0,), selection=((1, 0),),
            bn=ParametricBn(structure, spec, cpts),
        )
        data = observed_sample(gold, 100, seed=8)
        assert data.m == 100 and data.spec.names == ("a",)

    def test_hidden_column_dropped(self):
        gold = gold_w().with_parameters(seed=11)
        data = observed_sample(gold, 500, seed=12)
        assert data.spec.names == ("X1", "X2", "X3", "X4")
        assert data.m == 500

    def test_four_cycle_conditional_independence_pattern(self):
        # chi-square style G-test: the margin keeps X1 indep X3 | {X2,X4}
        # but not X1 indep X3 | X2 (the exact-joint oracle predicts both)
        m = 100_000
        gold = gold_four_cycle().with_parameters(seed=13)
        data = observed_sample(gold, m, seed=14)
        margin = observed_margin(gold)
        assert ci_holds(margin, 0, 2, (1, 3))
        assert not ci_holds(margin, 0, 2, (1,))

        def g_stat(child, others):
            base = tally(data, child, tuple(others))
            ext = tally(data, child, tuple(sorted((*others, 2))))
            ll = lambda s: np.where(
                s > 0,
                s * (np.log(s) - np.log(s.sum(1, keepdims=True))),
                0.0,
            ).sum()
            df_base = base.shape[0] * (base.shape[1] - 1)
            df_ext = ext.shape[0] * (ext.shape[1] - 1)
            return 2 * (ll(ext) - ll(base)), df_ext - df_base

        g_good, df_good = g_stat(0, (1, 3))
        assert g_good < chi2.ppf(0.999, df_good)
        g_bad, df_bad = g_stat(0, (1,))
        assert g_bad > chi2.ppf(0.999, df_bad)

    def test_empirical_margin_close_in_total_variation(self):
        m = 100_000
        gold = gold_four_cycle().with_parameters(seed=15)
        data = observed_sample(gold, m, seed=16)
        margin = observed_margin(gold)
        cards = margin.spec.cards
        idx = np.ravel_multi_index(data.records.T, cards)
        emp = np.bincount(idx, minlength=int(np.prod(cards))) / m
        tv = 0.5 * np.abs(emp - margin.probs.ravel()).sum()
        assert tv < 0.02

    def test_impossible_selection_aborts(self):
        spec = VariableSpec(("a", "s"), (2, 2))
        structure = Dag(2)
        cpts = [np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])]
        gold = GoldStandard(
            structure, spec, observed=(0,), selection=((1, 1),),
            bn=ParametricBn(structure, spec, cpts),
        )
        with pytest.raises(RuntimeError, match="acceptance rate"):
            observed_sample(gold, 10, seed=0)

    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            observed_sample(gold_w(), 10, seed=0)


class TestGoldStandards:
    def test_w_roles_and_cards(self):
        gold = gold_w()
        assert gold.spec.names == ("X1", "X2", "X3", "X4", "H")
        assert gold.spec.cards[:4] == (2, 3, 2, 2)
        assert gold.hidden == (4,) and gold.selection == ()
        assert gold.structure.edges == {(0, 1), (4, 1), (4, 2), (3, 2)}

    def test_four_cycle_roles_and_cards(self):
        gold = gold_four_cycle()
        assert gold.spec.cards == (4, 2, 2, 2, 2)
        assert gold.selection == ((4, 1),)
        assert gold.structure.edges == {(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)}

    def test_w_margin_has_no_dag_perfect_map(self):
        from gesbn.oracle import enumerate_dags

        margin = observed_margin(gold_w().with_parameters(seed=17))
        cis = ci_triple_set(margin)
        assert all(dsep_triples(g) != cis for g in enumerate_dags(4))

    def test_partition_validated(self):
        spec = VariableSpec(("a", "b"), (2, 2))
        with pytest.raises(ValueError):
            GoldStandard(Dag(2), spec, observed=(0,))  # b unassigned
        with pytest.raises(ValueError):
            GoldStandard(Dag(2), spec, observed=(0, 1), selection=((1, 5),))


class TestModelFiles:
    def test_roundtrip_with_parameters(self, tmp_path):
        gold = gold_four_cycle().with_parameters(seed=19)
        path = tmp_path / "model.json"
        save_model(gold, path)
        back = load_model(path)
        assert back.spec == gold.spec
        assert back.structure == gold.structure
        assert back.observed == gold.observed
        assert back.selection == gold.selection
        assert back.bn == gold.bn  # lossless float round trip

    def test_roundtrip_structure_only(self):
        gold = gold_w()
        back = model_from_dict(model_to_dict(gold))
        assert back.bn is None and back.hidden == (4,)

    def test_version_checked(self):
        with pytest.raises(ValueError):
            model_from_dict({"version": 2, "variables": [], "edges": []})
