"""Differential tests: the fast sampling and counting paths against the
per-record code they replaced.

The reference functions below are the record-by-record implementations:
ancestral sampling that gathers and cumsums one CPT row per record,
rejection sampling that builds every column of every batch, and tallies
that re-read all m records. The fast paths must reproduce their output
exactly, because a seed's records are part of the contract (see
gesbn.datagen).
"""

import numpy as np
import pytest

from gesbn.datagen import (
    GoldStandard,
    MIN_ACCEPT_RATE,
    ParametricBn,
    RngSeed,
    _ancestral,
    _rng,
    forward_sample,
    gold_four_cycle,
    gold_w,
    observed_sample,
    sample_parameters,
)
from gesbn.graphs import Dag, VariableSpec, topological_order
from gesbn.scoring import CategoricalDataset, tally

_REF_GUARD_MIN_DRAWS = 1_000_000


def ref_config_indices(records, parents, cards):
    idx = np.zeros(records.shape[0], dtype=np.int64)
    for p in parents:
        idx = idx * cards[p] + records[:, p]
    return idx


def ref_ancestral(bn, m, rng):
    out = np.zeros((m, bn.spec.n), dtype=np.int64)
    for i in topological_order(bn.structure):
        rows = bn.cpts[i][ref_config_indices(out, bn.structure.parents(i), bn.spec.cards)]
        cdf = np.cumsum(rows, axis=1)
        draws = (rng.random((m, 1)) > cdf).sum(axis=1)
        out[:, i] = np.minimum(draws, bn.spec.cards[i] - 1)
    return out


def ref_observed_records(gold, m, seed):
    obs = list(gold.observed)
    if not gold.hidden and not gold.selection:
        return ref_ancestral(gold.bn, m, _rng(seed))[:, obs]
    rng = _rng(seed)
    sel_vars = [v for v, _ in gold.selection]
    sel_vals = np.array([s for _, s in gold.selection], dtype=np.int64)
    batch = max(4 * m, 1024)
    kept, accepted, drawn = [], 0, 0
    while accepted < m:
        raw = ref_ancestral(gold.bn, batch, rng)
        if sel_vars:
            raw = raw[(raw[:, sel_vars] == sel_vals).all(axis=1)]
        kept.append(raw)
        accepted += raw.shape[0]
        drawn += batch
        if drawn >= _REF_GUARD_MIN_DRAWS and accepted < drawn * MIN_ACCEPT_RATE:
            raise RuntimeError("acceptance rate")
    full = np.concatenate(kept)[:m] if kept else np.zeros((0, gold.spec.n), np.int64)
    return full[:, obs]


def ref_tally_counts(data, child, parents):
    parents = tuple(sorted(parents))
    cards = data.spec.cards
    q = data.spec.config_count(parents)
    r = cards[child]
    if data.m == 0:
        return np.zeros((q, r), dtype=np.int64)
    j = ref_config_indices(data.records, parents, cards)
    return np.bincount(j * r + data.records[:, child], minlength=q * r).reshape(q, r)


SIZES = (0, 1, 10, 1000, 20000)
SEEDS = (0, 1, 7, 2**40 + 3)


def _plain(gold):
    """The gold's network with every variable observed."""
    return GoldStandard(gold.structure, gold.spec, tuple(range(gold.spec.n)), bn=gold.bn)


def _cases():
    w = gold_w().with_parameters(seed=RngSeed(5, 0))
    cycle = gold_four_cycle().with_parameters(seed=RngSeed(6, 0))
    chain_spec = VariableSpec(("a", "b", "c"), (3, 2, 4))
    chain = Dag(3, {(0, 1), (1, 2), (0, 2)})
    chain_bn = sample_parameters(chain, chain_spec, seed=9)
    chain_gold = GoldStandard(chain, chain_spec, (0, 1, 2), bn=chain_bn)
    return {
        "w_structure": w,
        "four_cycle": cycle,
        "w_plain": _plain(w),
        "cycle_plain": _plain(cycle),
        "chain": chain_gold,
    }


CASES = _cases()


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("m", SIZES)
    def test_observed_records(self, name, m):
        gold = CASES[name]
        for seed in SEEDS:
            got = observed_sample(gold, m, RngSeed(seed, 1)).records
            want = ref_observed_records(gold, m, RngSeed(seed, 1))
            assert got.shape == want.shape
            assert np.array_equal(got, want), (name, m, seed)

    @pytest.mark.parametrize("m", SIZES)
    def test_forward_records(self, m):
        bn = CASES["w_structure"].bn
        for seed in SEEDS:
            got = forward_sample(bn, m, seed).records
            assert np.array_equal(got, ref_ancestral(bn, m, _rng(seed)))

    def test_several_selection_variables(self):
        spec = VariableSpec(("a", "b", "s", "t"), (2, 3, 2, 3))
        structure = Dag(4, {(0, 2), (1, 2), (1, 3), (0, 3)})
        bn = sample_parameters(structure, spec, seed=2)
        gold = GoldStandard(structure, spec, (0, 1), selection=((2, 1), (3, 0)), bn=bn)
        for m in SIZES:
            got = observed_sample(gold, m, seed=m).records
            assert np.array_equal(got, ref_observed_records(gold, m, m))

    def test_single_state_selection(self):
        spec = VariableSpec(("a", "s"), (2, 1))
        structure = Dag(2, {(0, 1)})
        cpts = [np.array([[0.5, 0.5]]), np.array([[1.0], [1.0]])]
        gold = GoldStandard(
            structure, spec, observed=(0,), selection=((1, 0),),
            bn=ParametricBn(structure, spec, cpts),
        )
        for m in SIZES:
            got = observed_sample(gold, m, seed=8).records
            assert np.array_equal(got, ref_observed_records(gold, m, 8))

    def test_deterministic_cpts(self):
        spec = VariableSpec(("h", "a", "b"), (2, 2, 3))
        structure = Dag(3, {(0, 1), (1, 2)})
        cpts = [
            np.array([[0.0, 1.0]]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 0, 1.0], [0, 1.0, 0]]),
        ]
        bn = ParametricBn(structure, spec, cpts)
        gold = GoldStandard(structure, spec, observed=(1, 2), hidden=(0,), bn=bn)
        for m in SIZES:
            got = observed_sample(gold, m, seed=3).records
            assert np.array_equal(got, ref_observed_records(gold, m, 3))
            assert (got == [1, 1]).all()

    def test_uniforms_equal_to_cdf_values(self):
        # a uniform exactly on a CDF value stays in the lower state
        spec = VariableSpec(("a", "b"), (4, 3))
        cpts = [
            np.array([[0.25, 0.25, 0.25, 0.25]]),
            np.array([[0.5, 0.0, 0.5], [0.0, 0.75, 0.25], [1.0, 0.0, 0.0], [0.25, 0.5, 0.25]]),
        ]
        bn = ParametricBn(Dag(2, {(0, 1)}), spec, cpts)
        grid = np.array([0.0, 0.25, 0.5, 0.75, 0.875, 0.125, 0.999])
        values = np.concatenate([np.repeat(grid, grid.size), np.tile(grid, grid.size)])

        class Replay:
            def __init__(self):
                self.at = 0

            def random(self, shape):
                k = int(np.prod(shape))
                out = values[self.at:self.at + k].reshape(shape)
                self.at += k
                return out

        got = _ancestral(bn, grid.size**2, Replay())
        want = ref_ancestral(bn, grid.size**2, Replay())
        assert np.array_equal(np.column_stack(got), want)

    def test_zero_probability_selection_raises(self):
        spec = VariableSpec(("a", "s"), (2, 2))
        structure = Dag(2, {(0, 1)})
        cpts = [np.array([[0.5, 0.5]]), np.array([[1.0, 0.0], [1.0, 0.0]])]
        gold = GoldStandard(
            structure, spec, observed=(0,), selection=((1, 1),),
            bn=ParametricBn(structure, spec, cpts),
        )
        with pytest.raises(RuntimeError, match="acceptance rate"):
            observed_sample(gold, 10, seed=0)
        with pytest.raises(RuntimeError, match="acceptance rate"):
            ref_observed_records(gold, 10, 0)


def _random_dataset(rng, m, cards):
    spec = VariableSpec(tuple(f"V{i}" for i in range(len(cards))), tuple(cards))
    records = np.column_stack([rng.integers(0, c, size=m) for c in cards])
    return CategoricalDataset(spec, records)


def _parent_sets(rng, n, child, count):
    others = [v for v in range(n) if v != child]
    for _ in range(count):
        k = int(rng.integers(0, min(4, len(others)) + 1))
        yield tuple(int(v) for v in rng.choice(others, size=k, replace=False))


class TestTallyMatchesReference:
    @pytest.mark.parametrize(
        "m,cards",
        [
            (0, (2, 3, 2)),
            (1, (4, 2)),
            (50, (2, 3, 2, 2)),
            (5000, (2, 2, 2, 2, 2, 2)),
            (3000, (5, 7, 3, 4, 6, 2, 3)),  # more configurations than records
            (200, (1, 2, 3)),
        ],
    )
    def test_random_datasets(self, m, cards):
        rng = np.random.default_rng(m + len(cards))
        data = _random_dataset(rng, m, cards)
        for child in range(len(cards)):
            for parents in _parent_sets(rng, len(cards), child, 6):
                got = tally(data, child, parents).counts
                assert np.array_equal(got, ref_tally_counts(data, child, parents))

    def test_no_cap_on_configuration_count(self):
        # 70 binary columns: 2^70 joint configurations, beyond any int64 code
        rng = np.random.default_rng(70)
        data = _random_dataset(rng, 400, (2,) * 70)
        for child in (0, 33, 69):
            for parents in _parent_sets(rng, 70, child, 5):
                got = tally(data, child, parents).counts
                assert np.array_equal(got, ref_tally_counts(data, child, parents))

    def test_sampled_gold_data(self):
        data = observed_sample(CASES["four_cycle"], 20000, seed=4)
        for child in range(4):
            for parents in ((), (0,), (1, 3), tuple(v for v in range(4) if v != child)):
                if child in parents:
                    continue
                got = tally(data, child, parents).counts
                assert np.array_equal(got, ref_tally_counts(data, child, parents))


class TestSkippedDraws:
    """With hidden variables and no selection, only m of each node's
    max(4m, 1024) uniforms become records; the rest are skipped, and the
    generator must end where drawing them would have left it."""

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize("m", [m for m in SIZES if m])  # m = 0 still draws a batch
    def test_records_and_generator_state(self, bit_generator, m):
        gold = CASES["w_structure"]
        got_rng = np.random.Generator(bit_generator(m + 11))
        want_rng = np.random.Generator(bit_generator(m + 11))
        got = observed_sample(gold, m, got_rng).records
        assert np.array_equal(got, ref_observed_records(gold, m, want_rng))
        assert np.array_equal(got_rng.random(5), want_rng.random(5))
