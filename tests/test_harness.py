"""Experiment harness and CLI: file outputs, outcome classification,
summaries, and byte-level determinism."""

import ast
import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import gesbn.harness as harness
from gesbn.cli import main
from gesbn.datagen import GOLD_STANDARDS, load_model, model_to_dict, save_model
from gesbn.graphs import cpdag_from_text, empty_cpdag, encode_edges
from gesbn.harness import (
    DESK_SIZES,
    PAPER_SIZES,
    ExperimentPlan,
    classify_outcome,
    class_from_compact,
    parse_results_csv,
    paper_plan,
    replicate_seed,
    results_csv,
    run_experiment,
    summarize,
)
from gesbn.oracle import enumerate_classes, observed_margin
from gesbn.scoring import MAX_TABLE_CELLS, ScoreConfig, load_dataset

TINY = ExperimentPlan(
    gold="w_structure", sizes=(10, 40), replicates=3, base_seed=7
)


@pytest.fixture(scope="module")
def tiny_rows():
    return run_experiment(TINY)


class TestPlans:
    def test_desk_defaults(self):
        plan = ExperimentPlan()
        assert plan.sizes == DESK_SIZES
        assert plan.sizes[0] == 10 and plan.sizes[-1] == 163840
        assert plan.replicates == 50

    def test_paper_plan(self):
        plan = paper_plan("four_cycle", base_seed=3)
        assert plan.sizes == PAPER_SIZES
        assert plan.sizes[-1] == 655360 and len(plan.sizes) == 17
        assert plan.replicates == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(gold="nope")
        with pytest.raises(ValueError):
            ExperimentPlan(sizes=(10, 10))
        with pytest.raises(ValueError):
            ExperimentPlan(replicates=0)

    @pytest.mark.parametrize("kw,message", [
        ({"sizes": (10.9,)}, "sample size is not an integer: 10.9"),
        ({"sizes": (10, "40")}, "sample size is not an integer: '40'"),
        ({"sizes": (True,)}, "sample size is not an integer: True"),
        ({"replicates": 2.5}, "replicates is not an integer: 2.5"),
        ({"base_seed": 1.0}, "base_seed is not an integer: 1.0"),
        ({"base_seed": -1}, r"base_seed must be in \[0, 2\*\*64\), got -1"),
        ({"base_seed": 2**64}, rf"base_seed must be in \[0, 2\*\*64\), got {2**64}"),
    ], ids=["fractional-size", "string-size", "boolean-size", "fractional-replicates",
            "float-seed", "negative-seed", "seed-2**64"])
    def test_rejects_what_it_would_misread(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(**kw)

    def test_numpy_integers_and_the_largest_seed_pass(self):
        plan = ExperimentPlan(sizes=(np.int64(10), 20), replicates=np.int32(2),
                              base_seed=2**64 - 1)
        assert plan.sizes == (10, 20) and type(plan.sizes[0]) is int
        assert type(plan.replicates) is int and plan.base_seed == 2**64 - 1

    def test_replicate_seed_stable(self):
        # frozen: base_seed XOR first 8 bytes of sha256("m:replicate")
        assert replicate_seed(0, 10, 0) == replicate_seed(0, 10, 0)
        assert replicate_seed(0, 10, 0) != replicate_seed(0, 10, 1)
        assert replicate_seed(0, 10, 0) != replicate_seed(0, 20, 0)
        assert replicate_seed(5, 10, 0) == replicate_seed(0, 10, 0) ^ 5


class TestRows:
    def test_row_count_and_order(self, tiny_rows):
        assert len(tiny_rows) == 6
        assert [(r.m, r.replicate) for r in tiny_rows] == [
            (10, 0), (10, 1), (10, 2), (40, 0), (40, 1), (40, 2),
        ]

    def test_outcomes_valid(self, tiny_rows):
        assert all(r.outcome in harness.OUTCOMES for r in tiny_rows)

    def test_class_encoding_parses(self, tiny_rows):
        gold_spec = load_model_spec()
        for r in tiny_rows:
            class_from_compact(r.encoded_class, gold_spec)  # must not raise

    def test_classification_against_fresh_oracle(self, tiny_rows, tmp_path):
        # outcome must match re-running the oracle from the stored model file
        models = tmp_path / "models"
        rows = run_experiment(TINY, models_dir=str(models))
        for row in rows:
            gold = load_model(models / f"w_structure_m{row.m}_r{row.replicate}.json")
            margin = observed_margin(gold)
            learned = class_from_compact(row.encoded_class, gold.observed_spec)
            assert classify_outcome(learned, margin) == row.outcome


def load_model_spec():
    from gesbn.datagen import gold_w

    return gold_w().observed_spec


class TestResultsCsv:
    def test_header_and_summary_block(self, tiny_rows):
        text = results_csv(tiny_rows)
        lines = text.strip().splitlines()
        assert lines[0] == "gold,m,replicate,outcome,class,millis"
        summaries = [l for l in lines if l.startswith("# summary,")]
        assert len(summaries) == 2

    def test_summary_equals_recomputation(self, tiny_rows):
        rows, summary = parse_results_csv(results_csv(tiny_rows))
        assert summary == summarize(rows)

    def test_millis_zeroed_without_timings(self, tiny_rows):
        rows, _ = parse_results_csv(results_csv(tiny_rows))
        assert all(r.millis == 0 for r in rows)
        timed, _ = parse_results_csv(results_csv(tiny_rows, timings=True))
        assert any(r.millis >= 0 for r in timed)

    def test_roundtrip(self, tiny_rows):
        rows, _ = parse_results_csv(results_csv(tiny_rows))
        assert [
            (r.gold, r.m, r.replicate, r.outcome, r.encoded_class) for r in rows
        ] == [
            (r.gold, r.m, r.replicate, r.outcome, r.encoded_class)
            for r in tiny_rows
        ]


class TestDeterminism:
    def test_serial_rerun_byte_identical(self, tiny_rows):
        again = run_experiment(TINY)
        assert results_csv(again) == results_csv(tiny_rows)

    def test_parallel_byte_identical(self, tiny_rows):
        parallel = run_experiment(TINY, workers=2)
        assert results_csv(parallel) == results_csv(tiny_rows)

    def test_base_seed_changes_output(self, tiny_rows):
        other = run_experiment(
            ExperimentPlan(gold="w_structure", sizes=(10, 40), replicates=3, base_seed=8)
        )
        assert results_csv(other) != results_csv(tiny_rows)


class TestErrorRows:
    def test_failures_become_error_rows(self, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness, "run_replicate", boom)
        rows = run_experiment(TINY)
        assert len(rows) == 6
        assert all(r.outcome == "error" for r in rows)
        assert "synthetic failure" in rows[0].encoded_class
        text = results_csv(rows)  # still renders and parses
        parsed, _ = parse_results_csv(text)
        assert all(r.outcome == "error" for r in parsed)

    def test_summary_counts_errors_only_where_they_occur(self, monkeypatch, tiny_rows):
        real = harness.run_replicate

        def fail_one(gold, m, replicate, *rest):
            if (m, replicate) == (40, 1):
                raise RuntimeError("synthetic failure")
            return real(gold, m, replicate, *rest)

        monkeypatch.setattr(harness, "run_replicate", fail_one)
        rows = run_experiment(TINY)
        text = results_csv(rows)
        summaries = [l for l in text.splitlines() if l.startswith("# summary,")]
        clean = results_csv(tiny_rows).splitlines()
        assert summaries[0] in clean  # an error-free size keeps its bytes
        assert summaries[1].startswith("# summary,w_structure,40,")
        assert summaries[1].endswith(",1/3 errors")
        parsed, summary = parse_results_csv(text)
        assert summary == summarize(rows) == summarize(parsed)
        assert summary[40][2] == 3


class TestCli:
    def test_generate_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main([
                "generate", "--gold", "w", "--m", "100", "--seed", "7",
                "--out", str(out),
            ]) == 0
        for name in ("model.json", "data.csv", "data.schema.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_generated_dataset_shape_and_ranges(self, tmp_path):
        out = tmp_path / "g"
        main(["generate", "--gold", "w", "--m", "100", "--seed", "7", "--out", str(out)])
        data = load_dataset(out / "data.csv", schema=out / "data.schema.json")
        assert data.m == 100
        assert data.spec.names == ("X1", "X2", "X3", "X4")
        assert set(np.unique(data.records[:, 1])) <= {0, 1, 2}
        assert data.records[:, [0, 2, 3]].max() <= 1

    def test_learn_empty_dataset_returns_empty_class(self, tmp_path):
        data_path = tmp_path / "empty.csv"
        data_path.write_text("X1,X2,X3,X4\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({
            "version": 1,
            "variables": [
                {"name": f"X{i}", "cardinality": 2} for i in range(1, 5)
            ],
        }))
        out = tmp_path / "learned"
        assert main([
            "learn", "--data", str(data_path), "--schema", str(schema),
            "--out", str(out),
        ]) == 0
        text = (out / "class.txt").read_text()
        spec = load_model_spec()
        got = cpdag_from_text(text, spec)
        assert got == empty_cpdag(4)
        assert (out / "trace.log").read_text().startswith("forward\tstart")

    def test_learn_oracle_mode_ignores_dataset(self, tmp_path):
        gen = tmp_path / "gen"
        main(["generate", "--gold", "w", "--m", "10", "--seed", "3", "--out", str(gen)])
        out = tmp_path / "learned"
        assert main([
            "learn", "--score", "oracle", "--joint", str(gen / "model.json"),
            "--out", str(out),
        ]) == 0
        spec = load_model_spec()
        learned = cpdag_from_text((out / "class.txt").read_text(), spec)
        gold = load_model(gen / "model.json")
        from gesbn.oracle import optimal_classes

        assert learned in optimal_classes(observed_margin(gold))[0]

    def test_learn_outputs_reproducible(self, tmp_path):
        gen = tmp_path / "gen"
        main(["generate", "--gold", "cycle4", "--m", "500", "--seed", "5", "--out", str(gen)])
        outs = []
        for sub in ("l1", "l2"):
            out = tmp_path / sub
            main([
                "learn", "--data", str(gen / "data.csv"),
                "--schema", str(gen / "data.schema.json"), "--out", str(out),
            ])
            outs.append((out / "class.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_score_command(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        main(["generate", "--gold", "w", "--m", "200", "--seed", "5", "--out", str(gen)])
        out = tmp_path / "learned"
        main([
            "learn", "--data", str(gen / "data.csv"),
            "--schema", str(gen / "data.schema.json"), "--out", str(out),
        ])
        assert main([
            "score", "--data", str(gen / "data.csv"),
            "--schema", str(gen / "data.schema.json"),
            "--graph", str(out / "class.txt"),
        ]) == 0
        assert "bdeu score:" in capsys.readouterr().out

    def test_oracle_command(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        main(["generate", "--gold", "w", "--m", "10", "--seed", "11", "--out", str(gen)])
        assert main([
            "oracle", "--model", str(gen / "model.json"),
            "--ci", "X1,X3|X2", "--ci", "X1,X4",
        ]) == 0
        out = capsys.readouterr().out
        assert "inclusion-optimal classes: 2" in out
        assert "[18 parameters] (parameter optimal)" in out
        assert "[20 parameters]" in out
        assert "composition property: holds" in out
        assert "ci X1,X3|X2: dependent" in out
        assert "ci X1,X4: independent" in out

    def test_oracle_command_reports_a_composition_counterexample(self, tmp_path, capsys):
        # X1, X2 fair bits and X3 = X1 xor X2: X1 depends on {X2, X3} but on
        # neither alone, so composition fails
        model = {
            "version": 1,
            "variables": [{"name": f"X{i}", "cardinality": 2, "role": "observed"}
                          for i in (1, 2, 3)],
            "edges": [["X1", "X3"], ["X2", "X3"]],
            "cpts": {"X1": [[0.5, 0.5]], "X2": [[0.5, 0.5]],
                     "X3": [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]},
        }
        (tmp_path / "xor.json").write_text(json.dumps(model))
        assert main([
            "oracle", "--model", str(tmp_path / "xor.json"),
            "--ci", "X1,X2", "--ci", "X1,X2|X3",
        ]) == 0
        assert capsys.readouterr().out == (
            "inclusion-optimal classes: 3\n"
            "  [6 parameters] (parameter optimal) X1 -> X2; X3 -> X2\n"
            "  [6 parameters] (parameter optimal) X1 -> X3; X2 -> X3\n"
            "  [6 parameters] (parameter optimal) X2 -> X1; X3 -> X1\n"
            "composition property: FAILS\n"
            "  counterexample: {X1} dep {X2,X3} | {}\n"
            "ci X1,X2: independent\n"
            "ci X1,X2|X3: dependent\n"
        )

    def test_experiment_command(self, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        assert main([
            "experiment", "--gold", "w", "--sizes", "10,40",
            "--replicates", "2", "--seed", "1", "--out", str(out_csv),
        ]) == 0
        rows, summary = parse_results_csv(out_csv.read_text())
        assert len(rows) == 4 and set(summary) == {10, 40}

    def test_experiment_saved_models(self, tmp_path):
        out_csv = tmp_path / "results.csv"
        models = tmp_path / "models"
        main([
            "experiment", "--gold", "w", "--sizes", "10",
            "--replicates", "2", "--seed", "1", "--out", str(out_csv),
            "--save-models", str(models),
        ])
        assert sorted(os.listdir(models)) == [
            "w_structure_m10_r0.json", "w_structure_m10_r1.json",
        ]

    def test_learn_bes_default_start_is_complete(self, tmp_path):
        gen = tmp_path / "gen"
        main(["generate", "--gold", "w", "--m", "5000", "--seed", "4", "--out", str(gen)])
        data = ["--data", str(gen / "data.csv"), "--schema", str(gen / "data.schema.json")]
        outs = {}
        for name, extra in (("default", []), ("complete", ["--start", "complete"])):
            outs[name] = tmp_path / name
            assert main(
                ["learn", *data, "--algorithm", "bes", "--out", str(outs[name]), *extra]
            ) == 0
        for fname in ("class.txt", "trace.log"):
            got = (outs["default"] / fname).read_bytes()
            assert got == (outs["complete"] / fname).read_bytes()
        assert (outs["default"] / "class.txt").read_text().count("\n") > 1
        assert (outs["default"] / "trace.log").read_text().count("\n") > 1

    def test_learn_joint_needs_oracle_score(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        main(["generate", "--gold", "w", "--m", "10", "--seed", "3", "--out", str(gen)])
        with pytest.raises(SystemExit) as exc:
            main([
                "learn", "--data", str(gen / "data.csv"),
                "--schema", str(gen / "data.schema.json"),
                "--joint", str(gen / "model.json"), "--out", str(tmp_path / "out"),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "gesbn learn: error: --joint is scored only with --score oracle\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["score", "--data", "d.csv", "--graph", "g.txt", "--score", "oracle"],
         "argument --score: invalid choice: 'oracle'"),
        (["generate", "--gold", "w", "--m", "-1", "--out", "gen"],
         "argument --m: must be at least 0, got -1"),
        (["experiment", "--gold", "w", "--replicates", "0", "--out", "r.csv"],
         "argument --replicates: must be at least 1, got 0"),
        (["experiment", "--gold", "w", "--sizes", "10,abc", "--out", "r.csv"],
         "argument --sizes: invalid literal for int() with base 10: 'abc'"),
        (["experiment", "--gold", "w", "--sizes", "10,40,40", "--out", "r.csv"],
         "argument --sizes: sample sizes must be strictly increasing"),
        (["experiment", "--gold", "w", "--sizes", "0,10", "--out", "r.csv"],
         "argument --sizes: sample sizes must be positive"),
        (["experiment", "--gold", "w", "--paper-scale", "--sizes", "10",
          "--out", "r.csv"],
         "argument --sizes: not allowed with argument --paper-scale"),
    ], ids=[
        "score-oracle", "negative-m", "zero-replicates", "sizes-not-integers",
        "sizes-not-increasing", "sizes-not-positive", "paper-scale-with-sizes",
    ])
    def test_bad_flags_exit_with_usage(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gesbn ")
        assert message in err
        assert not os.listdir(tmp_path)


# sha256 of results_csv for a small fixed plan per gold standard. The
# sampler's seed -> records mapping, the search and the classification
# together decide these bytes; only a change that declares a new random
# stream or new output bytes, and reports its acceptance numbers before and
# after, may update them.
GOLDEN_SIZES = (10, 640, 40960)
GOLDEN_CSV_SHA256 = {
    "w_structure": "f0d1d73bf79726c0126c8d31c9213177b6f194f80054876a92a3368fd3dac719",
    "four_cycle": "cfc86f9577dc2645fda5ec40b98bcf8b69a3da697b9359af17a530657a5aa6d3",
}


class TestGoldenResults:
    @pytest.mark.parametrize("gold", sorted(GOLDEN_CSV_SHA256))
    def test_results_csv_bytes(self, gold):
        # six replicates, so that the w-structure rows hold all three outcomes
        plan = ExperimentPlan(gold=gold, sizes=GOLDEN_SIZES, replicates=6, base_seed=0)
        text = results_csv(run_experiment(plan))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CSV_SHA256[gold]


from gesbn.datagen import GoldStandard, ParametricBn, RngSeed, observed_sample
from gesbn.graphs import Dag, VariableSpec
from gesbn.scoring import save_dataset, save_schema

# sha256 of class.txt and trace.log from `gesbn learn` on m = 5000 records of
# fixed sparse binary networks. The ges and uges hashes were recorded with
# the brute-force neighbour maps; bes from the complete class is out of
# their reach at these n, so its hashes were recorded with the operator
# search and match a run that scores every operator neighbour in full.
# The trace.log hashes were re-recorded when BDeu moved from scipy's gammaln
# to math.lgamma: the moves and classes stayed the same, and the logged
# scores moved in the last digits only (at most 7.7e-16 relative). They were
# re-recorded again, with the bic one below, when the local scores came to
# be summed by math.fsum instead of in numpy's order: the same moves and
# classes, and logged scores at most 4.9e-16 relative from the old ones.
LEARN_SEED = 5
GOLDEN_LEARN_SHA256 = {
    (8, "ges"): (
        "872099484e21999402c44b569ded1912d0788879d2d618dcfa4f5d43b45705a8",
        "988017950c4c53606a15a63bd8511e4037157c29b00b31ae618a04295fd5a337",
    ),
    (8, "uges"): (
        "872099484e21999402c44b569ded1912d0788879d2d618dcfa4f5d43b45705a8",
        "96bf2ae0c77b32387f2ad2df4bd53235121fec845ab3a97a7524a2fb917a4432",
    ),
    (8, "bes"): (
        "872099484e21999402c44b569ded1912d0788879d2d618dcfa4f5d43b45705a8",
        "820c6aa98453efaf30e1c1fb3b16c3b0c47526c742b1943d26aab6d5fc2da526",
    ),
    (10, "ges"): (
        "8ce0d79092f917619caa8eae2016c8e0aa440761b2f285a42ecf8baebf7bf3dc",
        "25087a79d375573fb9b3550920f9d7f2d43d94655c33c6ed3fd451cc9db7b769",
    ),
    (10, "uges"): (
        "8ce0d79092f917619caa8eae2016c8e0aa440761b2f285a42ecf8baebf7bf3dc",
        "19d0f632e60dbacc9d401f7e9f4940a15feec8cb807e6aae90306383308189ff",
    ),
    (10, "bes"): (
        "8ce0d79092f917619caa8eae2016c8e0aa440761b2f285a42ecf8baebf7bf3dc",
        "89b104044d8e9d6bd0e339a7abad6628811cde5652598b5e790bac66eecf315f",
    ),
    # fes was pinned later, with the operator search; at both n the
    # backward phase of ges makes no move, so fes ends on the same bytes
    (8, "fes"): (
        "872099484e21999402c44b569ded1912d0788879d2d618dcfa4f5d43b45705a8",
        "988017950c4c53606a15a63bd8511e4037157c29b00b31ae618a04295fd5a337",
    ),
    (10, "fes"): (
        "8ce0d79092f917619caa8eae2016c8e0aa440761b2f285a42ecf8baebf7bf3dc",
        "25087a79d375573fb9b3550920f9d7f2d43d94655c33c6ed3fd451cc9db7b769",
    ),
}
# the same for ges at n = 8 under the other criteria: bic on the same
# records, and the oracle criterion on the exact joint of the saved model
GOLDEN_LEARN_CRITERION_SHA256 = {
    "bic": (
        "5b90b93a8e1366d31c77703548445c0e93e9460dd012f87666a3b3fdeeb501d0",
        "da7e8fa8b12798fdf5d5f8b0fc1d5769df3074833179777f3aec604619308451",
    ),
    "oracle": (
        "74ae1355472ae6dfccc495ffbf5341c352a1f2da7e8c9f228b5d3414cfa0c9e2",
        "ee8b4593544b3726a28fba08113d1535ee2dfbf16be52016347c6c0aac9787d4",
    ),
}


def sparse_network(n, seed):
    """A binary network on n nodes with n edges, each pointing forward in
    a random node order, with parameters drawn at ess 10."""
    rng = np.random.default_rng([seed, n])
    order = rng.permutation(n)
    pairs = [(int(order[i]), int(order[j])) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.choice(len(pairs), size=n, replace=False)
    spec = VariableSpec(tuple(f"V{i}" for i in range(n)), (2,) * n)
    gold = GoldStandard(Dag(n, {pairs[k] for k in chosen}), spec, observed=tuple(range(n)))
    return gold.with_parameters(ess=10.0, seed=RngSeed(seed, n))


def learn_inputs(tmp_path, n, criterion="bdeu"):
    """learn flags for sparse_network(n, LEARN_SEED): its 5000 records, or
    with the oracle criterion its saved model."""
    gold = sparse_network(n, LEARN_SEED)
    if criterion == "oracle":
        save_model(gold, tmp_path / "model.json")
        return ["--score", "oracle", "--joint", str(tmp_path / "model.json")]
    data = observed_sample(gold, 5000, RngSeed(LEARN_SEED, 100 + n))
    save_dataset(data, tmp_path / "data.csv")
    save_schema(data.spec, tmp_path / "data.schema.json")
    return ["--data", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "data.schema.json"), "--score", criterion]


def learn_sha256(tmp_path, argv) -> tuple:
    """sha256 of class.txt and trace.log from `gesbn learn argv`."""
    out = tmp_path / "out"
    assert main(["learn", *argv, "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("class.txt", "trace.log")
    )


class TestGoldenLearnOutputs:
    @pytest.mark.parametrize("n,algorithm", sorted(GOLDEN_LEARN_SHA256))
    def test_class_and_trace_bytes(self, tmp_path, n, algorithm):
        start = ["--start", "complete"] if algorithm == "bes" else []
        argv = [*learn_inputs(tmp_path, n), "--algorithm", algorithm, *start]
        assert learn_sha256(tmp_path, argv) == GOLDEN_LEARN_SHA256[n, algorithm]

    @pytest.mark.parametrize("criterion", sorted(GOLDEN_LEARN_CRITERION_SHA256))
    def test_ges_criterion_bytes(self, tmp_path, criterion):
        argv = learn_inputs(tmp_path, 8, criterion)
        assert learn_sha256(tmp_path, argv) == GOLDEN_LEARN_CRITERION_SHA256[criterion]


# sha256 of the stdout of `gesbn oracle --model` and of `gesbn score` (bdeu and
# bic) on the model and dataset that `gesbn generate --m 2000 --seed 3` writes
# for each gold standard; score reads one fixed class. Recorded before the
# class scorer moved into scoring.DecomposableScorer; the bdeu ones were
# re-recorded when the local scores came to be summed by math.fsum, which
# moved the printed scores by one unit in their last digit.
GOLDEN_CLASS = "X1 -- X2\nX2 -> X3\nX4 -> X3\n"
GOLDEN_STDOUT_SHA256 = {
    ("cycle4", "bdeu"): "fc304dff953c2de9c1faf0e59b215b589eff6f1608fb9d5077ab22cec2a27142",
    ("cycle4", "bic"): "349d6e863d3c64bc384573232b9b3e4d9c4a2792952de8e109e2183f9d099dc1",
    ("cycle4", "oracle"): "67691e4b37adac6d48aee1edbd4a51d208dc61093737289bc8ec4e8457a12e4c",
    ("w", "bdeu"): "0672e71ec460001e29c6f480b6c5203d3ce34cd43511ba6ad23f806c7c9b1c81",
    ("w", "bic"): "0ea05d62df860ae3cb7450e5d668067f8cdc455bffb1156285b3352a3f3b7905",
    ("w", "oracle"): "38dfee5060fd08e93f3e9ef70c1ca01678bab18437fac96db6d9501e0c04f2a4",
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """gold flag -> directory with model.json, data.csv, its schema and class.txt."""
    out = {}
    for gold in ("cycle4", "w"):
        gen = tmp_path_factory.mktemp(gold)
        main(["generate", "--gold", gold, "--m", "2000", "--seed", "3", "--out", str(gen)])
        (gen / "class.txt").write_text(GOLDEN_CLASS)
        out[gold] = gen
    return out


class TestGoldenCliOutputs:
    @pytest.mark.parametrize("gold,command", sorted(GOLDEN_STDOUT_SHA256))
    def test_stdout_bytes(self, generated, capsys, gold, command):
        gen = generated[gold]
        if command == "oracle":
            argv = ["oracle", "--model", str(gen / "model.json"),
                    "--ci", "X1,X3|X2", "--ci", "X1,X4"]
        else:
            argv = ["score", "--data", str(gen / "data.csv"),
                    "--schema", str(gen / "data.schema.json"),
                    "--score", command, "--graph", str(gen / "class.txt")]
        capsys.readouterr()
        assert main(argv) == 0
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == GOLDEN_STDOUT_SHA256[gold, command]


# sha256 of data.csv, data.schema.json and model.json from `gesbn generate
# --seed 7`, recorded while save_dataset wrote every row by csv.writer: the
# CSV body's CRLF line ends are part of the bytes, which the loader does
# not see. The schema and model do not depend on m.
GOLDEN_GENERATE_SHA256 = {
    ("cycle4", 0): ("f0e4f34e79f90e2a1d5c372b94d7dffaf62ae8d4297fba915778ef79fa314508",
                    "95ca37454a526630e294a0af99754788225735599719b44a59536bb17a14d77d",
                    "f0a3981273e089fc9da7e2501cbd4d1f3a33879e84ad97a73188668bd63bd097"),
    ("cycle4", 10): ("060766b90384cf9b8d14b4373b5c43778f6e49d37216cd63ca6c9f7f91e8c9ca",
                     "95ca37454a526630e294a0af99754788225735599719b44a59536bb17a14d77d",
                     "f0a3981273e089fc9da7e2501cbd4d1f3a33879e84ad97a73188668bd63bd097"),
    ("cycle4", 5000): ("bf99b4e95f83806bcc36b0abcb89b3048ff94db2d7a4ac949c66bb132cfe2433",
                       "95ca37454a526630e294a0af99754788225735599719b44a59536bb17a14d77d",
                       "f0a3981273e089fc9da7e2501cbd4d1f3a33879e84ad97a73188668bd63bd097"),
    ("w", 0): ("f0e4f34e79f90e2a1d5c372b94d7dffaf62ae8d4297fba915778ef79fa314508",
               "07e8a9ea518ca17546710e032f147c41031af9d1b14903be34db47ad8eff4a05",
               "66ac13bbcce61af05c82f2e4e77ee8861f5780edaf38d045c438740756359e5f"),
    ("w", 10): ("86f109a1ea0df142caa5ee71170777295ee51ee8479596a99321b21d20a72ec2",
                "07e8a9ea518ca17546710e032f147c41031af9d1b14903be34db47ad8eff4a05",
                "66ac13bbcce61af05c82f2e4e77ee8861f5780edaf38d045c438740756359e5f"),
    ("w", 5000): ("20aef68317ab03fb211f23848d318500d8c4376fb3dda578e56e8238f7c9c494",
                  "07e8a9ea518ca17546710e032f147c41031af9d1b14903be34db47ad8eff4a05",
                  "66ac13bbcce61af05c82f2e4e77ee8861f5780edaf38d045c438740756359e5f"),
}


class TestGoldenGenerateOutputs:
    @pytest.mark.parametrize("gold,m", sorted(GOLDEN_GENERATE_SHA256))
    def test_file_bytes(self, tmp_path, gold, m):
        assert main(["generate", "--gold", gold, "--m", str(m), "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("data.csv", "data.schema.json", "model.json"))
        assert got == GOLDEN_GENERATE_SHA256[gold, m]


class TestCliRejectsBadValues:
    @pytest.mark.parametrize("argv,message", [
        (["generate", "--gold", "w", "--m", "10", "--ess", "0", "--out", "gen"],
         "argument --ess: must be positive and finite, got 0"),
        (["learn", "--data", "d.csv", "--ess", "-1", "--out", "out"],
         "argument --ess: must be positive and finite, got -1"),
        (["score", "--data", "d.csv", "--graph", "g.txt", "--ess", "nan"],
         "argument --ess: must be positive and finite, got nan"),
        (["experiment", "--gold", "w", "--ess", "0.0", "--out", "r.csv"],
         "argument --ess: must be positive and finite, got 0.0"),
        (["generate", "--gold", "w", "--m", "10", "--ess", "inf", "--out", "gen"],
         "argument --ess: must be positive and finite, got inf"),
        (["learn", "--data", "d.csv", "--ess", "inf", "--out", "out"],
         "argument --ess: must be positive and finite, got inf"),
        (["score", "--data", "d.csv", "--graph", "g.txt", "--ess", "1e309"],
         "argument --ess: must be positive and finite, got 1e309"),
        (["learn", "--data", "d.csv", "--ess", "ten", "--out", "out"],
         "argument --ess: invalid float value: 'ten'"),
        (["experiment", "--gold", "w", "--paper-scale", "--replicates", "3",
          "--out", "r.csv"],
         "argument --replicates: not allowed with argument --paper-scale"),
        (["experiment", "--gold", "w", "--workers", "0", "--out", "r.csv"],
         "argument --workers: must be at least 1, got 0"),
        (["generate", "--gold", "w", "--m", "10", "--seed", "-1", "--out", "gen"],
         "argument --seed: must be at least 0, got -1"),
        (["generate", "--gold", "w", "--m", "10", "--seed", str(2**64), "--out", "gen"],
         f"argument --seed: must be below {2**64}, got {2**64}"),
        (["experiment", "--gold", "w", "--seed", "-1", "--out", "r.csv"],
         "argument --seed: must be at least 0, got -1"),
        (["experiment", "--gold", "w", "--seed", str(2**64), "--out", "r.csv"],
         f"argument --seed: must be below {2**64}, got {2**64}"),
        (["experiment", "--gold", "w", "--seed", "1.5", "--out", "r.csv"],
         "argument --seed: invalid integer value: '1.5'"),
    ], ids=[
        "generate-ess-zero", "learn-ess-negative", "score-ess-nan",
        "experiment-ess-zero", "generate-ess-inf", "learn-ess-inf", "score-ess-1e309",
        "ess-not-a-number", "paper-scale-with-replicates",
        "zero-workers", "generate-seed-negative", "generate-seed-2**64",
        "experiment-seed-negative", "experiment-seed-2**64", "seed-not-an-integer",
    ])
    def test_exit_with_usage(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gesbn ")
        assert message in err
        assert not os.listdir(tmp_path)

    def test_largest_64_bit_seed_is_accepted(self, tmp_path, monkeypatch):
        top = 2**64 - 1
        assert main(["generate", "--gold", "w", "--m", "10", "--seed", str(top),
                     "--out", str(tmp_path / "gen")]) == 0
        assert load_dataset(tmp_path / "gen" / "data.csv", infer_cards=True).m == 10
        plans = []
        monkeypatch.setattr(
            "gesbn.harness.run_experiment", lambda plan, **kw: plans.append(plan) or []
        )
        main(["experiment", "--gold", "w", "--seed", str(top), "--out", str(tmp_path / "r.csv")])
        assert [p.base_seed for p in plans] == [top]

    def test_replicates_default_to_fifty(self, tmp_path, monkeypatch):
        plans = []
        monkeypatch.setattr(
            "gesbn.harness.run_experiment", lambda plan, **kw: plans.append(plan) or []
        )
        for extra in ([], ["--replicates", "3"], ["--paper-scale"]):
            main(["experiment", "--gold", "w", *extra, "--out", str(tmp_path / "r.csv")])
        assert [p.replicates for p in plans] == [50, 3, 100]

    def test_ess_is_read_by_bdeu_and_defaults_to_ten(self, tmp_path, monkeypatch):
        plans = []
        monkeypatch.setattr(
            "gesbn.harness.run_experiment", lambda plan, **kw: plans.append(plan) or []
        )
        for extra in ([], ["--ess", "3"], ["--score", "bic"]):
            main(["experiment", "--gold", "w", *extra, "--out", str(tmp_path / "r.csv")])
        assert [p.score for p in plans] == [ScoreConfig(), ScoreConfig(ess=3.0),
                                            ScoreConfig("bic")]


BAD_JSON = ("bad.json: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)")
NOT_AN_OBJECT = 'list.json: expected a JSON object with a "variables" list'


class TestCliRejectsBadData:
    """A --data file that cannot be read or scored exits 2 with one line
    naming it, and nothing is written."""

    SCHEMA = json.dumps({"version": 1, "variables": [
        {"name": "X1", "cardinality": 2}, {"name": "X2", "cardinality": 3},
    ]})

    @pytest.mark.parametrize("command", ["learn", "score"])
    @pytest.mark.parametrize("text,flags,message", [
        ("X1,X2\n0,1\n1,3\n", [], "record values out of range for spec cards"),
        (None, [], "No such file or directory"),
        ("X1,X2\n0,1\n1,x\n", [], "line 3, column 2: 'x' is not an integer of at most 18 digits"),
        ("X1,X2\n0,1\n1\n", [], "line 3: 1 values, the header has 2 names"),
        ("A,B\n0,1\n", [], "do not match CSV header"),
        ("X1,X2\n", ["--score", "bic"], "bic needs at least one record"),
    ], ids=["out-of-range", "missing", "non-integer", "ragged", "header-names",
            "bic-zero-records"])
    def test_exit_with_one_line(
        self, tmp_path, capsys, monkeypatch, command, text, flags, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(self.SCHEMA)
        (tmp_path / "g.txt").write_text("")
        if text is not None:
            (tmp_path / "d.csv").write_text(text)
        before = sorted(os.listdir(tmp_path))
        tail = ["--out", "out"] if command == "learn" else ["--graph", "g.txt"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", "d.csv", "--schema", "s.json", *flags, *tail])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gesbn {command}: error: d.csv: ")
        assert message in err
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("argv,message", [
        (["score", "--data", "d.csv", "--schema", "s.json", "--graph", "missing.txt"],
         "missing.txt: No such file or directory"),
        (["score", "--data", "d.csv", "--schema", "s.json", "--graph", "unknown.txt"],
         "unknown.txt: unknown variable 'Q'"),
        (["learn", "--data", "d.csv", "--schema", "s.json", "--start", "missing.txt",
          "--out", "out"],
         "missing.txt: No such file or directory"),
        (["learn", "--score", "oracle", "--joint", "missing.json", "--out", "out"],
         "missing.json: No such file or directory"),
        (["learn", "--score", "oracle", "--out", "out"],
         "--score oracle requires --joint <model file>"),
        (["learn", "--out", "out"], "--data is required unless --score oracle is used"),
        (["oracle", "--model", "missing.json"], "missing.json: No such file or directory"),
        (["oracle", "--model", "five.json"], "optimality sweep limited to n <= 4"),
        (["score", "--data", "d.csv", "--schema", "s.json", "--graph", "arc.txt"],
         "arc.txt: CPDAG has no consistent extension"),
        (["learn", "--score", "oracle", "--joint", "cycle.json", "--start", "square.txt",
          "--out", "out"],
         "square.txt: CPDAG has no consistent extension"),
        (["oracle", "--model", "bare.json"], 'bare.json: the model has no "cpts" field'),
        (["learn", "--score", "oracle", "--joint", "bare.json", "--out", "out"],
         'bare.json: the model has no "cpts" field'),
        (["oracle", "--model", "unselectable.json"],
         "unselectable.json: zero-probability conditioning event"),
        (["learn", "--data", "d.csv", "--schema", "bad.json", "--out", "out"], BAD_JSON),
        (["score", "--data", "d.csv", "--schema", "bad.json", "--graph", "arc.txt"],
         BAD_JSON),
        (["oracle", "--model", "bad.json"], BAD_JSON),
        (["learn", "--data", "d.csv", "--schema", "list.json", "--out", "out"], NOT_AN_OBJECT),
        (["oracle", "--model", "list.json"], NOT_AN_OBJECT),
        (["learn", "--score", "oracle", "--joint", "list.json", "--out", "out"],
         NOT_AN_OBJECT),
        (["learn", "--data", "d.csv", "--schema", "no-name.json", "--out", "out"],
         'no-name.json: variables[0] has no "name" field'),
        (["oracle", "--model", "no-card.json"],
         'no-card.json: variables[1] has no "cardinality" field'),
        (["oracle", "--model", "no-cpt.json"], "no-cpt.json: \"cpts\" has no table for 'X2'"),
        (["learn", "--score", "oracle", "--joint", "no-cpt.json", "--out", "out"],
         "no-cpt.json: \"cpts\" has no table for 'X2'"),
        (["oracle", "--model", "no-edges.json"], 'no-edges.json: the model has no "edges" field'),
        (["oracle", "--model", "no-selection-value.json"],
         'no-selection-value.json: variables[4] has no "selection_value" field'),
        (["oracle", "--model", "null-card.json"],
         'null-card.json: variables[1] "cardinality" is not an integer: null'),
        (["learn", "--data", "d.csv", "--schema", "null-card.json", "--out", "out"],
         'null-card.json: variables[1] "cardinality" is not an integer: null'),
        (["oracle", "--model", "edges-5.json"],
         'edges-5.json: "edges" is not a list of [parent, child] name pairs'),
        (["oracle", "--model", "edges-list-5.json"],
         'edges-list-5.json: "edges" is not a list of [parent, child] name pairs'),
        (["oracle", "--model", "edges-one-name.json"],
         'edges-one-name.json: "edges" is not a list of [parent, child] name pairs'),
        (["oracle", "--model", "cpts-5.json"],
         'cpts-5.json: "cpts" is not an object of tables by variable name'),
        (["oracle", "--model", "fractional-card.json"],
         'fractional-card.json: variables[1] "cardinality" is not an integer: 2.5'),
        (["learn", "--data", "d.csv", "--schema", "fractional-card.json", "--out", "out"],
         'fractional-card.json: variables[1] "cardinality" is not an integer: 2.5'),
        (["oracle", "--model", "boolean-card.json"],
         'boolean-card.json: variables[1] "cardinality" is not an integer: true'),
        (["oracle", "--model", "fractional-selection-value.json"],
         'fractional-selection-value.json: variables[4] "selection_value" is not an integer: 1.7'),
        (["oracle", "--model", "null-cpt-entry.json"],
         "null-cpt-entry.json: CPT for node 0 has non-finite entries"),
        (["oracle", "--model", "string-cpt.json"],
         "string-cpt.json: \"cpts\" table for 'X1' is not an array of numbers"),
        (["learn", "--score", "oracle", "--joint", "string-cpt-entry.json", "--out", "out"],
         "string-cpt-entry.json: \"cpts\" table for 'X1' is not an array of numbers"),
        (["learn", "--score", "oracle", "--joint", "cycle.json", "--data", "d.csv",
          "--schema", "s.json", "--out", "out"],
         "--score oracle does not read --data, --schema"),
        (["learn", "--score", "oracle", "--joint", "cycle.json", "--infer-schema",
          "--out", "out"],
         "--score oracle does not read --infer-schema"),
        (["learn", "--data", "d.csv", "--schema", "s.json", "--infer-schema", "--out", "out"],
         "--schema and --infer-schema cannot be combined"),
        (["score", "--data", "d.csv", "--schema", "s.json", "--infer-schema",
          "--graph", "arc.txt"],
         "--schema and --infer-schema cannot be combined"),
        (["learn", "--data", "d.csv", "--schema", "s.json", "--score", "bic", "--ess", "5",
          "--out", "out"],
         "--score bic does not read --ess"),
        (["score", "--data", "d.csv", "--schema", "s.json", "--graph", "arc.txt",
          "--score", "bic", "--ess", "5"],
         "--score bic does not read --ess"),
        (["learn", "--score", "oracle", "--joint", "cycle.json", "--ess", "3", "--out", "out"],
         "--score oracle does not read --ess"),
        (["experiment", "--gold", "w", "--score", "bic", "--ess", "3", "--out", "r.csv"],
         "--score bic does not read --ess"),
    ], ids=[
        "score-graph-missing", "score-graph-unknown-variable", "learn-start-missing",
        "learn-joint-missing", "learn-oracle-without-joint", "learn-without-data",
        "oracle-model-missing", "oracle-five-observables", "score-graph-not-completed",
        "learn-start-undirected-four-cycle", "oracle-model-without-cpts",
        "learn-joint-without-cpts", "oracle-zero-probability-selection",
        "learn-schema-not-json", "score-schema-not-json", "oracle-model-not-json",
        "learn-schema-list", "oracle-model-list", "learn-joint-list",
        "learn-schema-without-name", "oracle-model-without-cardinality",
        "oracle-model-without-a-cpt", "learn-joint-without-a-cpt",
        "oracle-model-without-edges", "oracle-model-without-selection-value",
        "oracle-model-null-cardinality", "learn-schema-null-cardinality",
        "oracle-model-edges-number", "oracle-model-edges-list-of-numbers",
        "oracle-model-edge-with-one-name", "oracle-model-cpts-number",
        "oracle-model-fractional-cardinality", "learn-schema-fractional-cardinality",
        "oracle-model-boolean-cardinality", "oracle-model-fractional-selection-value",
        "oracle-model-null-cpt-entry", "oracle-model-string-cpt",
        "learn-joint-string-cpt-entry", "learn-oracle-with-data",
        "learn-oracle-with-infer-schema", "learn-schema-and-infer-schema",
        "score-schema-and-infer-schema", "learn-bic-with-ess", "score-bic-with-ess",
        "learn-oracle-with-ess", "experiment-bic-with-ess",
    ])
    def test_other_inputs_exit_with_one_line(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(self.SCHEMA)
        (tmp_path / "d.csv").write_text("X1,X2\n0,1\n1,2\n")
        (tmp_path / "unknown.txt").write_text("X1 -- Q\n")
        (tmp_path / "arc.txt").write_text("X1 -> X2\n")
        (tmp_path / "square.txt").write_text("X1 -- X2\nX2 -- X3\nX3 -- X4\nX1 -- X4\n")
        spec = VariableSpec(tuple(f"V{i}" for i in range(5)), (2,) * 5)
        five = GoldStandard(Dag(5), spec, observed=tuple(range(5))).with_parameters()
        save_model(five, tmp_path / "five.json")
        cycle = GOLD_STANDARDS["four_cycle"]().with_parameters(seed=3)
        save_model(cycle, tmp_path / "cycle.json")
        save_model(GOLD_STANDARDS["four_cycle"](), tmp_path / "bare.json")
        cpts = list(cycle.bn.cpts)
        cpts[4] = np.tile([1.0, 0.0], (len(cpts[4]), 1))  # S = 1 never happens
        unselectable = replace(cycle, bn=ParametricBn(cycle.structure, cycle.spec, cpts))
        save_model(unselectable, tmp_path / "unselectable.json")
        model = model_to_dict(cycle)
        no_card = dict(model, variables=[dict(v) for v in model["variables"]])
        del no_card["variables"][1]["cardinality"]
        no_cpt = dict(model, cpts={k: v for k, v in model["cpts"].items() if k != "X2"})
        no_edges = {k: v for k, v in model.items() if k != "edges"}
        no_selection_value = dict(model, variables=[dict(v) for v in model["variables"]])
        del no_selection_value["variables"][4]["selection_value"]

        def with_cpt(table):
            return dict(model, cpts=dict(model["cpts"], X1=table))

        def with_field(index, key, value):
            doc = dict(model, variables=[dict(v) for v in model["variables"]])
            doc["variables"][index][key] = value
            return doc

        for name, doc in (("no-card.json", no_card), ("no-cpt.json", no_cpt),
                          ("no-edges.json", no_edges),
                          ("no-selection-value.json", no_selection_value),
                          ("null-card.json", with_field(1, "cardinality", None)),
                          ("edges-5.json", dict(model, edges=5)),
                          ("edges-list-5.json", dict(model, edges=[5])),
                          ("edges-one-name.json", dict(model, edges=[["X1"]])),
                          ("cpts-5.json", dict(model, cpts=5)),
                          ("fractional-card.json", with_field(1, "cardinality", 2.5)),
                          ("boolean-card.json", with_field(1, "cardinality", True)),
                          ("fractional-selection-value.json",
                           with_field(4, "selection_value", 1.7)),
                          ("null-cpt-entry.json", with_cpt([[0.5, 0.5, 0.0, None]])),
                          ("string-cpt.json", with_cpt("abc")),
                          ("string-cpt-entry.json", with_cpt([[0.5, "a"]])),
                          ("no-name.json", {"version": 1, "variables": [{"cardinality": 2}]}),
                          ("list.json", [])):
            (tmp_path / name).write_text(json.dumps(doc))
        (tmp_path / "bad.json").write_text("{version: 1}")
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"gesbn {argv[0]}: error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("argv,message", [
        (["generate", "--gold", "w", "--m", "10", "--out", "taken"], "taken: File exists"),
        (["learn", "--data", "d.csv", "--schema", "s.json", "--out", "taken"],
         "taken: File exists"),
        (["experiment", "--gold", "w", "--save-models", "taken", "--out", "r.csv"],
         "taken: File exists"),
        (["experiment", "--gold", "w", "--out", "folder"], "folder: Is a directory"),
        (["experiment", "--gold", "w", "--out", "missing/r.csv"],
         "missing/r.csv: No such file or directory"),
    ], ids=["generate-out-is-a-file", "learn-out-is-a-file",
            "experiment-save-models-is-a-file", "experiment-out-is-a-directory",
            "experiment-out-in-missing-directory"])
    def test_unwritable_outputs_exit_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(self.SCHEMA)
        (tmp_path / "d.csv").write_text("X1,X2\n0,1\n1,2\n")
        (tmp_path / "taken").write_text("")
        (tmp_path / "folder").mkdir()
        for target in ("gesbn.cli.run_search", "gesbn.harness.run_experiment",
                       "gesbn.datagen.observed_sample"):
            monkeypatch.setattr(target, lambda *a, **kw: pytest.fail("ran"))
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"gesbn {argv[0]}: error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("query,reason", [
        ("X1,X1", "x, y, z must be pairwise disjoint"),
        ("X1,X2|X1", "x, y, z must be pairwise disjoint"),
        ("X1", "expected 'X,Y' or 'X,Y|Z1,Z2'"),
        ("X1,X2,X3", "expected 'X,Y' or 'X,Y|Z1,Z2'"),
        ("X1,Q9", "unknown variable 'Q9'"),
        ("X1,X2|Q9", "unknown variable 'Q9'"),
    ], ids=["x-equals-y", "x-in-z", "one-variable", "three-variables",
            "unknown-y", "unknown-z"])
    def test_oracle_bad_ci_exits_before_printing(self, tmp_path, capsys, query, reason):
        main(["generate", "--gold", "w", "--m", "10", "--seed", "11", "--out", str(tmp_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--model", str(tmp_path / "model.json"),
                  "--ci", "X1,X4", "--ci", query])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"gesbn oracle: error: --ci {query!r}: {reason}\n"

    def test_missing_schema_names_the_schema(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("X1,X2\n0,1\n")
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--data", str(tmp_path / "d.csv"),
                  "--schema", str(tmp_path / "s.json"), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == f"gesbn learn: error: {tmp_path / 's.json'}: No such file or directory\n"

    def test_needs_schema_or_infer_schema(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("X1,X2\n0,1\n")
        with pytest.raises(SystemExit) as exc:
            main(["score", "--data", str(tmp_path / "d.csv"), "--graph", "g.txt"])
        assert exc.value.code == 2
        assert "--schema or --infer-schema is required" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["X1,X2\n0,-1\n1,-2\n", "X1,X2\n0,-1\n1,2\n"],
                             ids=["only-negative", "negative-and-positive"])
    def test_infer_schema_reports_negative_values(self, tmp_path, capsys, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--data", "d.csv", "--infer-schema", "--out", "out"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "gesbn learn: error: d.csv: record values out of range for spec cards\n"
        )
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _write_stray_record(tmp_path, value):
        # one stray record makes X2's inferred state count value + 1, and
        # its dense count tables that wide
        rows = [f"{i % 2},{i // 2 % 2},{i // 4 % 2},{i // 8 % 2}\n" for i in range(100)]
        (tmp_path / "d.csv").write_text("X1,X2,X3,X4\n" + "".join(rows) + f"0,{value},1,0\n")
        (tmp_path / "g.txt").write_text("")

    @pytest.mark.parametrize("command", ["learn", "score"])
    def test_id_like_column_exits_with_one_line(
        self, tmp_path, capsys, monkeypatch, bounded_bincount, command
    ):
        monkeypatch.chdir(tmp_path)
        self._write_stray_record(tmp_path, 10**8)
        tail = ["--out", "out"] if command == "learn" else ["--graph", "g.txt"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", "d.csv", "--infer-schema", *tail])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"gesbn {command}: error: the counts of X2 given no parents need a table "
            f"of 1 x 100000001 cells, more than {MAX_TABLE_CELLS}\n"
        )
        if command == "learn":  # the output directory is made before the search
            assert os.listdir(tmp_path / "out") == []

    def test_wide_state_column_is_still_counted(self, tmp_path, capsys, monkeypatch):
        # X2 has 200 000 states; its widest family, 8 x 200 000 cells, is
        # under the bound, so it learns and scores as before the bound
        monkeypatch.chdir(tmp_path)
        self._write_stray_record(tmp_path, 199_999)
        assert main(["learn", "--data", "d.csv", "--infer-schema", "--out", "out"]) == 0
        assert (tmp_path / "out" / "class.txt").read_text() == "# vars: X1 X2 X3 X4\n"
        capsys.readouterr()
        assert main(["score", "--data", "d.csv", "--infer-schema", "--graph", "g.txt"]) == 0
        assert capsys.readouterr().out == "bdeu score: -351.6424782404649\n"


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def new_interpreter(*args, check=True) -> subprocess.CompletedProcess:
    """`python args` in a new interpreter on this checkout."""
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=check, timeout=60,
    )


def fresh_interpreter(code) -> str:
    """The last line `code` prints, run in a new interpreter on this checkout."""
    return new_interpreter("-c", code).stdout.strip().splitlines()[-1]


NOT_ON_THE_LEARN_PATH = ("gesbn.datagen", "gesbn.harness", "gesbn.oracle", "numpy")
# ~11 ms of import, which the learn path's plain value classes avoid; a
# bare interpreter may hold them already, through a site hook
NOT_LOADED_BY_THE_LEARN_PATH = ("dataclasses", "inspect")


def _loaded_beyond_a_bare_interpreter(code) -> list:
    """The NOT_LOADED_BY_THE_LEARN_PATH modules that `code` run in a new
    interpreter holds and a bare `python -c` run does not."""
    probe = f"print(sorted(m for m in {NOT_LOADED_BY_THE_LEARN_PATH} if m in sys.modules))"
    bare = ast.literal_eval(fresh_interpreter(f"import sys; {probe}"))
    after = ast.literal_eval(fresh_interpreter(f"{code}\nimport sys; {probe}"))
    return sorted(set(after) - set(bare))


def test_cli_import_leaves_out_scipy_and_the_process_pool():
    # scipy is a test dependency only, and the process pool is imported by
    # parallel sweeps alone: either would add to every CLI call's start-up
    assert fresh_interpreter(
        "import sys, gesbn.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    ) == "[]"


def test_cli_import_leaves_the_oracle_memos_empty():
    # the class table costs ~70 ms to build; only a call that classifies
    # should pay for it, not every CLI start
    assert fresh_interpreter(
        "import gesbn.cli, gesbn.harness as h, gesbn.oracle as o; "
        "print([f.cache_info().currsize for f in "
        "(o._query_plan, o._class_table, o._parameter_counts, h.compact_class)])"
    ) == "[0, 0, 0, 0]"


def test_package_import_loads_no_module():
    assert fresh_interpreter(
        "import sys, gesbn; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('gesbn', 'numpy')))"
    ) == "['gesbn']"
    # a module still resolves as an attribute of the bare package, as it did
    # when the package imported every module
    assert fresh_interpreter("import gesbn; print(gesbn.search.__name__)") == "gesbn.search"


def test_cli_import_loads_only_the_learn_path():
    assert fresh_interpreter(
        f"import sys, gesbn.cli; print([m for m in {NOT_ON_THE_LEARN_PATH} if m in sys.modules])"
    ) == "[]"
    assert _loaded_beyond_a_bare_interpreter("import gesbn.cli") == []


def test_search_import_loads_neither_the_oracle_nor_numpy():
    # oracle imports search for the Delete moves; the edge must not turn round
    assert fresh_interpreter(
        "import sys, gesbn.search; "
        "print([m for m in ('gesbn.oracle', 'numpy') if m in sys.modules])"
    ) == "[]"


def test_learn_command_loads_only_the_learn_path(tmp_path):
    (tmp_path / "d.csv").write_text("X1,X2,X3\n0,1,1\n1,0,1\n1,1,0\n0,0,0\n")
    save_schema(VariableSpec(("X1", "X2", "X3"), (2, 2, 2)), tmp_path / "s.json")
    argv = ["gesbn", "learn", "--data", str(tmp_path / "d.csv"),
            "--schema", str(tmp_path / "s.json"), "--out", str(tmp_path / "out")]
    learn = (
        f"import runpy, sys; sys.argv = {argv!r}\n"
        "try:\n    runpy.run_module('gesbn.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
    )
    assert fresh_interpreter(
        f"{learn}print([m for m in {NOT_ON_THE_LEARN_PATH} if m in sys.modules])"
    ) == "[]"
    assert _loaded_beyond_a_bare_interpreter(learn) == []
    assert (tmp_path / "out" / "class.txt").read_text().startswith("# vars: X1 X2 X3\n")


def _run_cli_loaded(argv) -> list:
    """The numpy and gesbn modules loaded by `gesbn argv`, run as the
    console script runs it, in a new interpreter."""
    return json.loads(fresh_interpreter(
        f"import json, sys, gesbn.cli; sys.argv = {['gesbn', *argv]!r}\n"
        "try:\n    gesbn.cli.run()\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('gesbn', 'numpy') and m.count('.') < 2)))"
    ))


@pytest.mark.parametrize("command", ["learn", "score"])
def test_bdeu_on_a_csv_loads_no_numpy(tmp_path, command):
    # 5000 records of eight variables: their parsing, count table, tallies
    # and local scores all run without numpy
    inputs = learn_inputs(tmp_path, 8)
    (tmp_path / "g.txt").write_text("V0 -- V1\nV2 -- V3\n")
    tail = {"learn": ["--out", str(tmp_path / "out")],
            "score": ["--graph", str(tmp_path / "g.txt")]}[command]
    assert _run_cli_loaded([command, *inputs, *tail]) == [
        "gesbn", "gesbn.cli", "gesbn.graphs", "gesbn.scoring", "gesbn.search"]


def test_bic_on_a_csv_loads_no_numpy(tmp_path):
    argv = ["learn", *learn_inputs(tmp_path, 8, criterion="bic")]
    assert "numpy" not in _run_cli_loaded([*argv, "--out", str(tmp_path / "sub")])
    assert main([*argv, "--out", str(tmp_path / "in")]) == 0
    for name in ("class.txt", "trace.log"):
        assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()


class TestProcessEntry:
    """`python -m gesbn.cli` and the `gesbn` script run cli.run, which ends
    the process without the shutdown collections; main() stays in-process."""

    def test_module_run_writes_what_main_writes(self, tmp_path):
        argv = ["learn", *learn_inputs(tmp_path, 8), "--algorithm", "uges"]
        assert main([*argv, "--out", str(tmp_path / "in")]) == 0
        done = new_interpreter("-m", "gesbn.cli", *argv, "--out", str(tmp_path / "sub"))
        assert done.stdout == f"learned class written to {tmp_path / 'sub' / 'class.txt'}\n"
        for name in ("class.txt", "trace.log"):
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()

    def test_bad_flag_exits_2_with_one_line(self, tmp_path):
        done = new_interpreter("-m", "gesbn.cli", "generate", "--gold", "w", "--m", "10",
                               "--seed", "-1", "--out", str(tmp_path / "gen"), check=False)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.endswith(
            "\ngesbn generate: error: argument --seed: must be at least 0, got -1\n"
        )
        assert not (tmp_path / "gen").exists()

    def test_run_freezes_the_collector_and_still_runs_atexit(self, tmp_path):
        argv = ["gesbn", "learn", *learn_inputs(tmp_path, 4), "--out", str(tmp_path / "out")]
        assert fresh_interpreter(
            "import atexit, gc, sys, gesbn.cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            f"sys.argv = {argv!r}\n"
            "gesbn.cli.run()"
        ) == "frozen True"
        assert (tmp_path / "out" / "trace.log").exists()

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        assert gc.get_freeze_count() == 0
        assert main(["learn", *learn_inputs(tmp_path, 4), "--out", str(tmp_path / "out")]) == 0
        assert gc.get_freeze_count() == 0

    def test_console_script_and_module_share_the_entry(self):
        import tomllib

        import gesbn.cli

        root = os.path.join(SRC, os.pardir)
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            script = tomllib.load(fh)["project"]["scripts"]["gesbn"]
        with open(gesbn.cli.__file__) as fh:
            tree = ast.parse(fh.read())
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        [call] = block.body  # a bare call: the entry function exits itself
        assert isinstance(call, ast.Expr) and ast.unparse(call) == "run()"
        assert script == "gesbn.cli:run"


PACKAGE_EXPORTS = {
    "graphs": (
        "Cpdag", "Dag", "GraphError", "VariableSpec", "canonical_key",
        "canonical_member", "complete_cpdag", "ci_query", "consistent_extensions",
        "d_separated", "dag_to_cpdag", "empty_cpdag", "encode_edges", "equivalent",
        "included_in", "is_covered", "parameter_count", "reverse_covered",
        "topological_order",
    ),
    "scoring": (
        "CategoricalDataset", "ScoreConfig", "bdeu_local", "bic_local",
        "load_dataset", "make_scorer", "save_dataset", "tally",
    ),
    "datagen": (
        "GoldStandard", "ParametricBn", "RngSeed", "basis_mean", "forward_sample",
        "gold_four_cycle", "gold_w", "load_model", "observed_sample",
        "sample_parameters", "save_model", "shifted_mean",
    ),
    "oracle": (
        "JointTable", "ci_holds", "composition_holds", "condition_and_marginalize",
        "enumerate_classes", "enumerate_dags", "includes", "is_inclusion_optimal",
        "joint_from_bn", "observed_margin", "optimal_classes",
    ),
    "search": ("SearchConfig", "SearchTrace", "run_search"),
    "harness": (
        "ExperimentPlan", "ExperimentRow", "classify_outcome", "paper_plan",
        "replicate_seed", "run_experiment", "run_replicate", "summarize",
    ),
}


def test_package_exports():
    import gesbn

    names = {name: module for module, names in PACKAGE_EXPORTS.items() for name in names}
    assert len(names) == 61
    assert set(gesbn.__all__) == set(names)
    for name, module in names.items():
        assert getattr(gesbn, name) is getattr(importlib.import_module(f"gesbn.{module}"), name)
    assert set(names) <= set(dir(gesbn))
    star = {}
    exec("from gesbn import *", star)
    assert set(names) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        gesbn.no_such_name


def test_generate_ess_defaults_to_the_generative_ess(tmp_path, capsys):
    outs = []
    for extra in ([], ["--ess", "10"]):
        out = tmp_path / f"gen{len(outs)}"
        assert main(["generate", "--gold", "cycle4", "--m", "50", "--seed", "9",
                     *extra, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("model.json", "data.csv", "data.schema.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--help"])
    assert exc.value.code == 0
    assert harness.GENERATIVE_ESS == 10
    assert "generative parameter prior (default 10)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("gold", ["w_structure", "four_cycle"])
def test_compact_class_memo_equals_the_joined_encoding(gold):
    spec = GOLD_STANDARDS[gold]().observed_spec
    for c in enumerate_classes(4):
        want = ";".join(encode_edges(c, spec).split("\n")).strip(";")
        assert harness.compact_class(c, spec) == want
        assert harness.compact_class(c, spec) is harness.compact_class(c, spec)
