"""Scoring criteria: contingency tallies, BDeu/BIC locals, decomposable
totals, the exact-joint oracle criterion, and the scorer's memos."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gesbn import scoring
from gesbn.graphs import Cpdag, Dag, VariableSpec, canonical_member
from gesbn.scoring import (
    MAX_TABLE_CELLS,
    CategoricalDataset,
    CountTableTooLarge,
    DecomposableScorer,
    ScoreConfig,
    bdeu_local,
    bic_local,
    load_dataset,
    load_schema,
    make_scorer,
    read_variables,
    save_dataset,
    save_schema,
    score,
    tally,
)
from gesbn.datagen import sample_parameters, forward_sample
from gesbn.oracle import JointTable, joint_from_bn
from gesbn.search import SearchConfig, run_search

EXACT = ScoreConfig(criterion="oracle")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
YX = VariableSpec(("Y", "X"), (2, 2))
YX_DATA = CategoricalDataset(YX, [(0, 0), (0, 1), (1, 1), (1, 1)])


class TestTally:
    def test_child_with_parent(self):
        assert tally(YX_DATA, 1, (0,)).tolist() == [[1, 1], [0, 2]]

    def test_child_without_parents(self):
        assert tally(YX_DATA, 1, ()).tolist() == [[1, 3]]

    def test_empty_dataset(self):
        empty = CategoricalDataset(YX, np.zeros((0, 2), int))
        assert tally(empty, 1, (0,)).tolist() == [[0, 0], [0, 0]]

    def test_mixed_radix_order(self):
        # lowest-indexed parent most significant
        spec = VariableSpec(("a", "b", "c"), (2, 3, 2))
        data = CategoricalDataset(spec, [(1, 2, 0)])
        counts = tally(data, 2, (0, 1))
        assert counts.shape == (6, 2)
        assert counts[1 * 3 + 2, 0] == 1

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError):
            tally(YX_DATA, 5, ())
        with pytest.raises(ValueError):
            tally(YX_DATA, 1, (1,))

    @pytest.mark.parametrize("child,parents,message", [
        (0, (1, 1), "parent 1 appears twice"),
        (0, (1.7,), "variable 1.7 is not an integer"),
        (0.5, (1,), "variable 0.5 is not an integer"),
        (0, (1.0,), "variable 1.0 is not an integer"),
        (True, (), "variable True is not an integer"),
        (1, (False,), "variable False is not an integer"),
    ], ids=["repeated-parent", "float-parent", "float-child", "whole-float-parent",
            "bool-child", "bool-parent"])
    def test_misread_variables_raise(self, child, parents, message):
        # each used to be read as another family: a 4 x 2 table for (1, 1),
        # parent 1 for 1.7, variable 1 for True; a float child raised an
        # unrelated TypeError
        with pytest.raises(ValueError, match=message):
            tally(YX_DATA, child, parents)

    def test_numpy_integers_pass(self):
        got = tally(YX_DATA, np.int64(1), (np.uint8(0),))
        assert got.tolist() == tally(YX_DATA, 1, (0,)).tolist()
        assert tally(YX_DATA, np.int32(1), np.array([0])).tolist() == got.tolist()


class TestTableBound:
    """A family whose dense count table would pass MAX_TABLE_CELLS raises
    CountTableTooLarge, naming its child, instead of allocating the table;
    narrower families are counted as before."""

    def test_id_like_column_raises_before_counting(self, bounded_bincount):
        spec = VariableSpec(("X1", "ID"), (2, 10**8 + 1))
        data = CategoricalDataset(spec, [(0, 5), (1, 10**8), (1, 7)])
        for child, parents, table in ((1, (), "1 x 100000001"), (0, (1,), "100000001 x 2")):
            with pytest.raises(CountTableTooLarge,
                               match=f"a table of {table} cells, more than {MAX_TABLE_CELLS}"):
                tally(data, child, parents)
        with pytest.raises(CountTableTooLarge, match="counts of ID given no parents"):
            make_scorer(ScoreConfig(), data=data).score_dag(Dag(2))

    def test_the_widest_table_allowed_is_counted(self, bounded_bincount, monkeypatch):
        # the bound is read on each call; a small one keeps the table small
        monkeypatch.setattr(scoring, "MAX_TABLE_CELLS", 4096)
        spec = VariableSpec(("A", "B"), (1024, 4))
        data = CategoricalDataset(spec, [(1023, 3), (0, 0), (0, 0)])
        counts = tally(data, 1, (0,))
        assert counts.shape == (1024, 4)
        assert counts[-1, 3] == 1 and counts[0, 0] == 2 and counts.sum() == 3
        wider = CategoricalDataset(VariableSpec(("A", "B"), (1025, 4)), data.records)
        with pytest.raises(CountTableTooLarge, match="counts of B given A need a table of 1025 x 4"):
            tally(wider, 1, (0,))

    def test_bes_from_complete_counts_every_family(self):
        # the last family of the complete start has 7**6 = 117 649 cells.
        # Two classes tie here: this one, and the one without 2 -- 4, with
        # 5 -> 4, which the kernels that summed in numpy's order scored
        # 5.7e-14 higher, and so reached by one more deletion; summed by
        # math.fsum both score -359.5123775462831
        rng = np.random.default_rng(3)
        spec = VariableSpec(tuple(f"X{i}" for i in range(6)), (7,) * 6)
        data = CategoricalDataset(spec, rng.integers(0, 7, size=(30, 6)))
        assert spec.config_count(range(5)) * 7 > 65536
        learned, _ = run_search(SearchConfig(algorithm="bes"), data=data)
        assert sorted(learned.directed) == [
            (0, 1), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5),
            (2, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
        ]
        assert sorted(learned.undirected) == [(4, 5)]


class TestScorerChecksFamilies:
    """A scorer, on a dataset or a joint table, checks each family as
    tally does, before it keeps a local score."""

    @pytest.mark.parametrize("criterion", ["bdeu", "bic", "oracle"])
    @pytest.mark.parametrize("child,parents,message", [
        (5, (), "variable 5 out of range"),
        (-1, (), "variable -1 out of range"),
        (0, (2,), "variable 2 out of range"),
        (0, (1, 1), "parent 1 appears twice"),
        (1, (0, 1), "child 1 must not appear among its parents"),
        (0, (1.0,), "variable 1.0 is not an integer"),
        (1.0, (), "variable 1.0 is not an integer"),
        (True, (), "variable True is not an integer"),
        (1, (False,), "variable False is not an integer"),
    ], ids=["child-out-of-range", "negative-child", "parent-out-of-range",
            "repeated-parent", "child-among-parents", "float-parent", "float-child",
            "bool-child", "bool-parent"])
    def test_local_raises_naming_the_variable(self, criterion, child, parents, message):
        # on a fresh scorer, then with every family memoized: True and 1.0
        # equal 1 and hash alike, so they used to hit the int family's score
        source = ({"joint": JointTable(YX, np.full((2, 2), 0.25))} if criterion == "oracle"
                  else {"data": YX_DATA})
        scorer = make_scorer(ScoreConfig(criterion=criterion), **source)
        with pytest.raises(ValueError, match=message):
            scorer.local(child, parents)
        assert scorer.locals == {}
        for family in ((0, ()), (1, ()), (0, (1,)), (1, (0,))):
            scorer.local(*family)
        memo = dict(scorer.locals)
        with pytest.raises(ValueError, match=message):
            scorer.local(child, parents)
        assert scorer.locals == memo


class TestBdeuLocal:
    def test_two_record_value_against_direct_gamma(self):
        # independent oracle: direct evaluation of the Gamma-ratio formula
        data = CategoricalDataset(VariableSpec(("X",), (2,)), [[0], [1]])
        got = bdeu_local(tally(data, 0, ()), ess=10.0)
        direct = (
            math.lgamma(10) - math.lgamma(12)
            + 2 * (math.lgamma(6) - math.lgamma(5))
        )
        assert got == pytest.approx(direct, abs=1e-12)
        assert got == pytest.approx(math.log(25 / 110), abs=1e-9)
        assert got == pytest.approx(-1.4816045409242156, abs=1e-9)

    def test_empty_data_scores_zero(self):
        empty = CategoricalDataset(YX, np.zeros((0, 2), int))
        assert bdeu_local(tally(empty, 1, (0,)), ess=10.0) == 0.0
        assert bdeu_local(tally(empty, 1, ()), ess=3.0) == 0.0

    @pytest.mark.parametrize("counts,message", [
        (np.zeros((0, 2), np.int64), "empty"),
        (np.zeros((3, 0), np.int64), "empty"),
        (np.array([[-1, 2]]), "nonnegative"),
        (np.array([[-20, 2]]), "nonnegative"),
        (np.array([[0.5, -0.25]]), "nonnegative"),
        (-np.ones((40, 2), np.int64), "nonnegative"),
    ], ids=["no-rows", "no-states", "minus-one", "minus-twenty", "fractional", "wide"])
    def test_rejects_tables_it_cannot_score(self, counts, message):
        with pytest.raises(ValueError, match=message):
            bdeu_local(counts, ess=10.0)

    @pytest.mark.parametrize("counts,message", [
        ([[1, 2], [3]], "count rows must have equal length"),
        ([[1], [2, 3]], "count rows must have equal length"),
        ([[], [1]], "count rows must have equal length"),
        ([[1, math.nan]], "counts must be finite"),
        ([[1, math.inf]], "counts must be finite"),
        ([[1, -math.inf]], "counts must be finite"),
        (np.array([[1.0, np.nan]]), "counts must be finite"),
        (np.array([[np.inf], [1.0]]), "counts must be finite"),
    ], ids=["short-last-row", "short-first-row", "empty-first-row", "nan", "inf",
            "minus-inf", "nan-array", "inf-array"])
    def test_rejects_malformed_tables(self, counts, message):
        # the two ragged tables used to score 1.41 and 0.0, the others nan
        with pytest.raises(ValueError, match=message):
            bdeu_local(counts, ess=10.0)

    def test_fractional_counts_stay_legal(self):
        got = bdeu_local(np.array([[0.5, 1.5]]), ess=1.0)
        direct = (math.lgamma(1) - math.lgamma(3)
                  + math.lgamma(1.0) - math.lgamma(0.5) + math.lgamma(2.0) - math.lgamma(0.5))
        assert got == pytest.approx(direct, abs=1e-12)

    def test_requires_positive_ess(self):
        # NaN compares false with everything, so an "ess <= 0" test passes it
        for ess in (0.0, math.nan):
            with pytest.raises(ValueError):
                bdeu_local(tally(YX_DATA, 1, ()), ess=ess)

    def test_requires_finite_ess(self):
        # an infinite ess would make every log-gamma difference nan
        with pytest.raises(ValueError, match="ess must be positive and finite"):
            bdeu_local(tally(YX_DATA, 1, ()), ess=math.inf)


class TestScoreConfig:
    @pytest.mark.parametrize("kw,message", [
        ({"ess": 0.0}, "ess must be positive"),
        ({"ess": math.nan}, "ess must be positive"),
        ({"oracle_pseudo_m": -1.0}, "oracle_pseudo_m must be positive"),
        ({"oracle_pseudo_m": math.nan}, "oracle_pseudo_m must be positive"),
        ({"ess": math.inf}, "ess must be positive and finite"),
        ({"oracle_pseudo_m": math.inf}, "oracle_pseudo_m must be positive and finite"),
        ({"criterion": "aic"}, "criterion must be one of"),
    ], ids=["ess-zero", "ess-nan", "pseudo-m-negative", "pseudo-m-nan", "ess-inf",
            "pseudo-m-inf", "criterion"])
    def test_rejects_bad_knobs(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ScoreConfig(**kw)


class TestBicLocal:
    def test_two_record_value(self):
        data = CategoricalDataset(VariableSpec(("X",), (2,)), [[0], [1]])
        got = bic_local(tally(data, 0, ()), m=2)
        assert got == pytest.approx(2 * math.log(0.5) - 0.5 * math.log(2), abs=1e-12)

    def test_deterministic_column(self):
        data = CategoricalDataset(VariableSpec(("X",), (2,)), [[0]] * 8)
        assert bic_local(tally(data, 0, ()), m=8) == pytest.approx(
            -0.5 * math.log(8), abs=1e-12
        )

    def test_single_record_scores_zero(self):
        data = CategoricalDataset(YX, [(1, 0)])
        assert bic_local(tally(data, 1, (0,)), m=1) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bic_local(tally(YX_DATA, 1, ()), m=0)

    @pytest.mark.parametrize("counts,message", [
        (np.zeros((0, 2), np.int64), "empty"),
        (np.array([[-1, 2]]), "nonnegative"),
        (np.array([[1.0, np.nan]]), "counts must be finite"),
        (np.array([[1.0], [np.inf]]), "counts must be finite"),
        (np.array([[-np.inf, 1.0]]), "counts must be finite"),
    ], ids=["no-rows", "minus-one", "nan", "inf", "minus-inf"])
    def test_rejects_tables_it_cannot_score(self, counts, message):
        # [[-1, 2]] used to score 0.58, and [[1.0, nan]] nan
        with pytest.raises(ValueError, match=message):
            bic_local(counts, m=3)


def random_dataset(rng, n=3, m=40, cards=None):
    cards = cards or tuple(rng.integers(2, 4, size=n))
    spec = VariableSpec(tuple(f"v{i}" for i in range(n)), cards)
    records = np.column_stack([rng.integers(0, c, size=m) for c in cards])
    return CategoricalDataset(spec, records)


class TestTotalScore:
    def test_empty_graph_decomposition(self):
        total = score(Dag(2), YX_DATA)
        locals_ = [bdeu_local(tally(YX_DATA, i, ()), 10.0) for i in (0, 1)]
        assert total == pytest.approx(sum(locals_), abs=1e-12)

    def test_single_edge_delta_is_local_difference(self):
        g0, g1 = Dag(2), Dag(2, {(0, 1)})
        cfg = ScoreConfig()
        delta = score(g1, YX_DATA, cfg) - score(g0, YX_DATA, cfg)
        local_delta = bdeu_local(tally(YX_DATA, 1, (0,)), 10.0) - bdeu_local(
            tally(YX_DATA, 1, ()), 10.0
        )
        assert delta == pytest.approx(local_delta, abs=1e-12)

    def test_equivalent_chains_score_equal(self):
        chain, rev = Dag(3, {(0, 1), (1, 2)}), Dag(3, {(2, 1), (1, 0)})
        rng = np.random.default_rng(11)
        for _ in range(100):
            data = random_dataset(rng)
            assert score(chain, data) == pytest.approx(score(rev, data), abs=1e-9)

    def test_cache_coherence_warm_equals_cold(self):
        g = Dag(2, {(0, 1)})
        cold = make_scorer(ScoreConfig(), data=YX_DATA).score_dag(g)
        scorer = make_scorer(ScoreConfig(), data=YX_DATA)
        scorer.score_dag(Dag(2))
        warm = scorer.score_dag(g)
        assert warm == cold  # bit for bit

    def test_cache_contains_evaluated_pairs(self):
        scorer = make_scorer(ScoreConfig(), data=YX_DATA)
        scorer.score_dag(Dag(2, {(0, 1)}))
        assert set(scorer.locals) == {(0, ()), (1, (0,))}

    def test_any_parent_collection_shares_one_entry(self):
        calls = []
        scorer = DecomposableScorer(lambda child, parents: calls.append(parents) or 1.5)
        for parents in ((1, 2), (2, 1), [2, 1], frozenset({1, 2}), (np.int64(1), 2)):
            assert scorer.local(0, parents) == 1.5
        assert calls == [(1, 2)] and set(scorer.locals) == {(0, (1, 2))}

    def test_class_score_is_canonical_member_score(self):
        c = Cpdag(2, undirected={(0, 1)})
        scorer = make_scorer(ScoreConfig(), data=YX_DATA)
        first = scorer.score_class(c)
        assert first == score(canonical_member(c), YX_DATA)  # bit for bit
        assert scorer.score_class(c) is first


class TestOracleScore:
    def test_independent_pair_prefers_empty(self):
        scorer = make_scorer(EXACT, joint=JointTable(YX, np.full((2, 2), 0.25)))
        assert scorer.score_dag(Dag(2)) > scorer.score_dag(Dag(2, {(0, 1)}))

    def test_dependent_pair_prefers_edge(self):
        probs = np.array([[0.4, 0.1], [0.1, 0.4]])
        scorer = make_scorer(EXACT, joint=JointTable(YX, probs))
        assert scorer.score_dag(Dag(2, {(0, 1)})) > scorer.score_dag(Dag(2))

    def test_generative_structure_maximal_n3(self):
        from gesbn.oracle import enumerate_dags

        g = Dag(3, {(0, 1), (1, 2)})
        spec = VariableSpec(("a", "b", "c"), (2, 2, 2))
        bn = sample_parameters(g, spec, seed=5)
        scorer = make_scorer(EXACT, joint=joint_from_bn(bn))
        best = max(enumerate_dags(3), key=scorer.score_dag)
        assert scorer.score_dag(best) == pytest.approx(scorer.score_dag(g), abs=1e-6)

    def test_zero_probability_rows_ignored(self):
        # Y constant: conditioning rows for Y=1 have zero mass
        probs = np.array([[0.5, 0.5], [0.0, 0.0]])
        cfg = ScoreConfig("oracle", oracle_pseudo_m=100.0)
        val = make_scorer(cfg, joint=JointTable(YX, probs)).score_dag(Dag(2, {(0, 1)}))
        assert np.isfinite(val)


class TestBdeuBicAgreement:
    def test_difference_stays_bounded_as_m_grows(self):
        # O(1) gap: (BDeu - BIC) / log m must shrink toward zero
        g = Dag(3, {(0, 1), (1, 2)})
        spec = VariableSpec(("a", "b", "c"), (2, 3, 2))
        bn = sample_parameters(g, spec, seed=2)
        full = forward_sample(bn, 655360, seed=9)
        ratios = []
        m = 10
        while m <= 655360:
            data = CategoricalDataset(spec, full.records[:m])
            diff = score(g, data, ScoreConfig("bdeu")) - score(g, data, ScoreConfig("bic"))
            ratios.append(abs(diff) / math.log(m))
            m *= 2
        assert ratios[-1] < ratios[0]
        assert ratios[-1] < 0.5


class TestLocalConsistencySigns:
    def test_edge_addition_signs_match_dependence(self):
        # smaller companion of the acceptance suite: 20 trials at m = 10^4
        trials, m = 20, 10_000
        good_dep = good_indep = 0
        spec = VariableSpec(("a", "b", "c"), (2, 2, 2))
        g = Dag(3, {(0, 1)})
        for t in range(trials):
            bn = sample_parameters(g, spec, seed=100 + t)
            data = forward_sample(bn, m, seed=200 + t)
            cfg = ScoreConfig()
            base = score(Dag(3), data, cfg)
            with_dep = score(Dag(3, {(0, 1)}), data, cfg)
            with_indep = score(Dag(3, {(2, 1)}), data, cfg)
            good_dep += with_dep > base
            good_indep += with_indep < base
        assert good_dep >= 0.9 * trials
        assert good_indep >= 0.9 * trials


class TestDatasetFiles:
    def test_csv_schema_roundtrip(self, tmp_path):
        data = YX_DATA
        csv_path, schema_path = tmp_path / "d.csv", tmp_path / "d.schema.json"
        save_dataset(data, csv_path)
        save_schema(data.spec, schema_path)
        assert load_schema(schema_path) == data.spec
        back = load_dataset(csv_path, schema=schema_path)
        assert back == data

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfY,X\r\n0,0\r\n0,1\r\n1,1\r\n1,1\r\n")
        assert load_dataset(path, infer_cards=True).spec.names == ("Y", "X")
        assert load_dataset(path, schema=YX) == YX_DATA

    def test_dataset_is_written_as_utf8_under_any_locale(self, tmp_path):
        # an ASCII locale, in which open() writes a non-ASCII name only when
        # told the encoding
        code = ("import sys; from gesbn.graphs import VariableSpec; "
                "from gesbn.scoring import CategoricalDataset, save_dataset; "
                "save_dataset(CategoricalDataset(VariableSpec(('\\xc4', 'b'), (2, 2)), [[0, 1]]), "
                "sys.argv[1])")
        env = dict(os.environ, PYTHONPATH=SRC, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        subprocess.run([sys.executable, "-c", code, tmp_path / "d.csv"], env=env, check=True,
                       timeout=60)
        assert (tmp_path / "d.csv").read_bytes() == "\xc4,b\r\n0,1\r\n".encode("utf-8")
        assert load_dataset(tmp_path / "d.csv", infer_cards=True).spec.names == ("\xc4", "b")

    @pytest.mark.parametrize("m", [0, 3])
    def test_dataset_without_variables_is_not_written(self, tmp_path, m):
        # its records would be blank lines, which load_dataset skips
        data = CategoricalDataset(VariableSpec((), ()), np.zeros((m, 0), int))
        with pytest.raises(ValueError, match="no variables"):
            save_dataset(data, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("name", [" A", "A ", "\tA", "A\u2003"])
    def test_name_with_whitespace_around_it_is_not_written(self, tmp_path, name):
        # load_dataset strips header names, so it would read back as "A"
        data = CategoricalDataset(VariableSpec((name, "B"), (2, 2)), [[0, 1]])
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            save_dataset(data, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()
        inner = CategoricalDataset(VariableSpec(("A B", "C"), (2, 2)), [[0, 1]])
        save_dataset(inner, tmp_path / "d.csv")
        assert load_dataset(tmp_path / "d.csv", schema=inner.spec) == inner

    def test_infer_cards_needs_flag(self, tmp_path):
        path = tmp_path / "d.csv"
        save_dataset(YX_DATA, path)
        with pytest.raises(ValueError):
            load_dataset(path)
        inferred = load_dataset(path, infer_cards=True)
        assert inferred.spec.cards == (2, 2)

    @pytest.mark.parametrize("card,want", [(3, 3), (3.0, 3), (np.int64(3), 3),
                                           (2.5, None), (True, None), ("3", None)])
    def test_schema_cardinality_is_a_whole_number(self, card, want):
        doc = {"variables": [{"name": "A", "cardinality": card}]}
        if want is None:
            with pytest.raises(ValueError, match='"cardinality" is not an integer'):
                read_variables(doc)
        else:
            assert read_variables(doc) == VariableSpec(("A",), (want,))

    def test_schema_name_mismatch_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        save_dataset(YX_DATA, path)
        with pytest.raises(ValueError):
            load_dataset(path, schema=VariableSpec(("A", "B"), (2, 2)))

    def test_records_validated(self):
        with pytest.raises(ValueError):
            CategoricalDataset(YX, [(0, 2)])
        with pytest.raises(ValueError):
            CategoricalDataset(YX, [(-1, 0)])

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_dataset_without_variables(self, m):
        # m empty records: one empty configuration seen m times
        data = CategoricalDataset(VariableSpec((), ()), np.zeros((m, 0), int))
        assert data.m == m and data.records.shape == (m, 0)
        configs, counts = data.count_table
        assert configs.shape == (int(m > 0), 0) and configs.dtype == np.int64
        assert counts.tolist() == ([m] if m else [])

    def test_empty_records_keep_their_shape(self):
        assert CategoricalDataset(YX, []).m == 0
        with pytest.raises(ValueError, match=r"records must have shape \(m, 2\)"):
            CategoricalDataset(YX, np.zeros((0, 3), int))

    @pytest.mark.parametrize("records", [
        [(0.5, 1)],
        np.array([[1.7, 1.0]]),
        [(0, float("nan"))],
        [(0, float("inf"))],
        [(1, 2**70)],
        np.array([[0, 2**64 - 1]], dtype=np.uint64),
        [("0", "1")],
        [(0, 1j)],
    ], ids=["half", "float-array", "nan", "inf", "beyond-int64", "uint64-max", "strings",
            "complex"])
    def test_records_must_be_whole_numbers_in_range(self, records):
        with pytest.raises(ValueError):
            CategoricalDataset(YX, records)

    def test_whole_floats_bools_and_any_integer_dtype_accepted(self):
        want = CategoricalDataset(YX, [(0, 1), (1, 1)])
        assert want.records.dtype == np.int64
        for records in (
            [(0.0, 1.0), (1.0, 1.0)],
            np.array([[False, True], [True, True]]),
            np.array([[0, 1], [1, 1]], dtype=np.uint64),
            np.array([[0, 1], [1, 1]], dtype=np.int8),
        ):
            got = CategoricalDataset(YX, records)
            assert got == want
            assert got.records.dtype == np.int64
            assert np.array_equal(got.records, want.records)
