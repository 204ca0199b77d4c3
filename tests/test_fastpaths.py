"""Differential tests: the fast sampling, counting, scoring and loading
paths against the code they replaced.

The reference functions below are the record-by-record implementations:
ancestral sampling that gathers and cumsums one CPT row per record,
rejection sampling that builds every column of every batch, and tallies
that re-read all m records. The fast paths must reproduce their output
exactly, because a seed's records are part of the contract (see
gesbn.datagen). The BDeu kernel is checked against scipy's gammaln, which
it replaced, within a relative 1e-12; the BDeu and penalized
log-likelihood kernels against the dense math.fsum references of
tests/reference.py, bit for bit, since a last-bit change can flip a tie in
a search step, and against the numpy-order kernels they replaced within a
relative 1e-12; the tally kernel against its numpy version and the
scorers' Python tally against tally, exactly; the dataset loader against
the csv-module loader, exactly, and its parser against a table of the
dataset grammar with each message, and a save-load round trip; the
dataset writer against the csv-module writer, byte for byte. The
batched CI pass, the bitmask class table and the one-call parameter draw
are checked against the per-query, per-class and per-row code they
replaced, exactly, and so is the graph code on graphs.Pdag and
graphs.reachable against the per-caller dicts and walks it replaced.
"""

import collections
import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import reference
from gesbn import scoring, search

from gesbn.datagen import (
    GOLD_STANDARDS,
    GoldStandard,
    MIN_ACCEPT_RATE,
    ParametricBn,
    RngSeed,
    _BLOCK,
    _cdf_thresholds,
    _dirichlet_layout,
    _dirichlet_means,
    _node_block,
    _rng,
    basis_mean,
    forward_sample,
    gold_four_cycle,
    gold_w,
    observed_sample,
    sample_parameters,
    shifted_mean,
)
from gesbn.graphs import (
    Cpdag,
    Dag,
    GraphError,
    Pdag,
    VariableSpec,
    _vstructures,
    canonical_key,
    canonical_member,
    d_separated,
    dag_to_cpdag,
    dsep_triples,
    pair_queries,
    parameter_count,
    pdag_extension,
    topological_order,
)
from gesbn.oracle import (
    CI_TOL,
    _dropped_axes,
    _state_grid,
    ci_holds,
    ci_triple_set,
    enumerate_classes,
    enumerate_dags,
    joint_from_bn,
    observed_margin,
    optimal_classes,
)
from gesbn.search import delete_moves, insert_moves
from gesbn.scoring import (
    CategoricalDataset,
    CountTableTooLarge,
    ScoreConfig,
    _bdeu,
    _bic,
    _family_counts,
    _parse_records,
    bdeu_local,
    bic_local,
    config_indices,
    load_dataset,
    load_schema,
    make_scorer,
    save_dataset,
    save_schema,
    score,
    tally,
)

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


def ref_count_table(records):
    """The distinct rows of an int64 record matrix in ascending order, and
    how often each occurs."""
    counter = collections.Counter(map(tuple, records.tolist()))
    rows = sorted(counter)
    configs = np.array(rows, dtype=np.int64).reshape(len(rows), records.shape[1])
    return configs, np.array([counter[row] for row in rows], dtype=np.int64)


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


def _two_selections():
    spec = VariableSpec(("a", "b", "s", "t"), (2, 3, 2, 3))
    structure = Dag(4, {(0, 2), (1, 2), (1, 3), (0, 3)})
    bn = sample_parameters(structure, spec, seed=2)
    return GoldStandard(structure, spec, (0, 1), selection=((2, 1), (3, 0)), bn=bn)


def _low_acceptance():
    """A six-state selection node with peaked rows (ess = 0.5): S = 2 is
    accepted with probability 0.082."""
    spec = VariableSpec(("a", "b", "s"), (3, 2, 6))
    structure = Dag(3, {(0, 2), (1, 2)})
    bn = sample_parameters(structure, spec, ess=0.5, seed=1)
    return GoldStandard(structure, spec, (0, 1), selection=((2, 2),), bn=bn)


SELECTION_GOLDS = {
    "four_cycle": CASES["four_cycle"],
    "two_selections": _two_selections(),
    "low_acceptance": _low_acceptance(),
}
SELECTION_CASES = (
    [("four_cycle", m) for m in SIZES]
    + [("two_selections", m) for m in SIZES]
    + [("low_acceptance", m) for m in (1, 10, 300, 5000, 40000)]
)


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
        gold = SELECTION_GOLDS["two_selections"]
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

            def random(self, shape=None, out=None):
                k = int(np.prod(shape)) if out is None else out.size
                got = values[self.at:self.at + k]
                self.at += k
                if out is None:
                    return got.reshape(shape)
                out[...] = got
                return out

        rows = grid.size**2
        states = np.empty((2, rows), dtype=np.uint8)
        bufs = [np.empty(rows, dtype=t) for t in (float, float, np.int64, bool)]
        replay = Replay()
        parents = [bn.structure.parents(i) for i in range(2)]
        for i in range(2):
            _node_block(replay, states, i, parents, _cdf_thresholds(bn), spec.cards, bufs)
        assert np.array_equal(states.T, ref_ancestral(bn, rows, Replay()))

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


class TestConfigIndicesMatchesReference:
    # variables (0, 2, 4) have 4 * 16 * 4 = 256 codes, and the all-maximum
    # record takes the largest, 255, which a uint8 out must hold
    CARDS = (4, 3, 16, 2, 4, 1)

    def _records(self, m):
        rng = np.random.default_rng(m)
        records = np.column_stack([rng.integers(0, c, size=m) for c in self.CARDS])
        return np.vstack([records, np.array(self.CARDS) - 1, np.zeros_like(self.CARDS)])

    @pytest.mark.parametrize("m", [0, 1, 3000])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "out_dtype,in_dtypes",
        [(np.uint8, (np.uint8,)), (np.uint16, (np.uint8,)), (np.int64, (np.uint8, np.int64))],
    )
    def test_every_variable_tuple_that_fits(self, m, order, out_dtype, in_dtypes):
        records = self._records(m)
        top = np.iinfo(out_dtype).max
        for in_dtype in in_dtypes:
            columns = np.array(records.T, dtype=in_dtype, order=order)
            before = columns.copy()
            for k in range(len(self.CARDS) + 1):
                for variables in itertools.permutations(range(len(self.CARDS)), k):
                    if math.prod(self.CARDS[v] for v in variables) - 1 > top:
                        continue
                    out = np.empty(len(records), dtype=out_dtype)
                    got = config_indices(columns, variables, self.CARDS, out)
                    want = ref_config_indices(records, variables, self.CARDS)
                    assert got is out
                    assert np.array_equal(got, want), (variables, out_dtype, in_dtype)
            assert np.array_equal(columns, before)


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
                got = tally(data, child, parents)
                assert np.array_equal(got, ref_tally_counts(data, child, parents))

    def test_no_cap_on_configuration_count(self):
        # 70 binary columns: 2^70 joint configurations, beyond any int64 code
        rng = np.random.default_rng(70)
        data = _random_dataset(rng, 400, (2,) * 70)
        for child in (0, 33, 69):
            for parents in _parent_sets(rng, 70, child, 5):
                got = tally(data, child, parents)
                assert np.array_equal(got, ref_tally_counts(data, child, parents))

    @pytest.mark.parametrize("m", [0, 1, 2000])
    def test_tallies_leave_the_count_table_and_records_unchanged(self, m):
        rng = np.random.default_rng(m)
        for data in (_random_dataset(rng, m, (2, 3, 1, 4)),
                     observed_sample(CASES["w_structure"], m, seed=5)):
            configs, counts = data.count_table
            before = configs.copy(), counts.copy(), data._values.copy()
            n = data.spec.n
            for child in range(n):
                others = [v for v in range(n) if v != child]
                for k in range(n):
                    for parents in itertools.combinations(others, k):
                        tally(data, child, parents)
            assert data.count_table[0] is configs and data.count_table[1] is counts
            for got, want in zip((configs, counts, data._values), before):
                assert np.array_equal(got, want)

    def test_sampled_gold_data(self):
        data = observed_sample(CASES["four_cycle"], 20000, seed=4)
        for child in range(4):
            for parents in ((), (0,), (1, 3), tuple(v for v in range(4) if v != child)):
                if child in parents:
                    continue
                got = tally(data, child, parents)
                assert np.array_equal(got, ref_tally_counts(data, child, parents))


def _layouts(records, cards):
    """The same records as an int64 list, a C-ordered int64 array, an
    F-ordered array of the smallest unsigned dtype (uint8 up to 256 states)
    and, for binary variables, a bool array."""
    yield "list", records.tolist()
    yield "int64-C", np.ascontiguousarray(records, dtype=np.int64)
    yield "unsigned-F", np.asfortranarray(records, dtype=np.min_scalar_type(max(cards)))
    if max(cards) <= 2:
        yield "bool", records.astype(bool)


class TestCompactRecords:
    """A dataset keeps its records in the smallest unsigned dtype that holds
    every state and builds the int64 matrix only when it is read: every
    input layout gives the same records, count table and tallies as the
    per-record reference."""

    @pytest.mark.parametrize(
        "m,cards",
        [
            (0, (2, 3, 2)),
            (1, (4, 2)),
            (500, (2, 3, 2, 2)),
            (5000, (2, 2, 2, 2, 2, 2)),
            (3000, (5, 7, 3, 4, 6, 2, 3)),  # more configurations than records
            (300, (2, 300, 3)),  # two-byte states
            (400, (2,) * 70),  # 2^70 configurations: no mixed-radix code
        ],
    )
    def test_layouts_agree(self, m, cards):
        rng = np.random.default_rng(m + len(cards))
        records = np.column_stack([rng.integers(0, c, size=m) for c in cards])
        spec = VariableSpec(tuple(f"V{i}" for i in range(len(cards))), cards)
        want_configs, want_counts = ref_count_table(records)
        want = CategoricalDataset(spec, records)
        families = [(child, ps) for child in range(len(cards))
                    for ps in _parent_sets(rng, len(cards), child, 4)]
        for layout, given in _layouts(records, cards):
            got = CategoricalDataset(spec, given)
            assert got == want, layout
            assert "records" not in got.__dict__, layout
            assert got.m == m
            assert got.records.dtype == np.int64 and not got.records.flags.writeable
            assert np.array_equal(got.records, records), layout
            configs, counts = got.count_table
            assert configs.dtype == np.int64, layout
            assert np.array_equal(configs, want_configs), layout
            assert np.array_equal(counts, want_counts), layout
            for child, parents in families:
                assert np.array_equal(tally(got, child, parents),
                                      ref_tally_counts(want, child, parents)), layout

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_sampled_records_stay_int64_and_read_only(self, name):
        data = observed_sample(CASES[name], 3000, RngSeed(2, 1))
        assert data.records.dtype == np.int64
        assert not data.records.flags.writeable
        with pytest.raises(ValueError):
            data.records[0, 0] = 0
        assert np.array_equal(data.records, ref_observed_records(CASES[name], 3000, RngSeed(2, 1)))
        for got, want in zip(data.count_table, ref_count_table(data.records)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("criterion", ["bdeu", "bic"])
    @pytest.mark.parametrize("name", ["w_structure", "four_cycle"])
    def test_search_never_builds_the_int64_records(self, name, criterion):
        """A replicate reads its data only through the count table."""
        data = observed_sample(CASES[name], 20000, RngSeed(3, 1))
        search.run_search(search.SearchConfig("ges", score=ScoreConfig(criterion)), data)
        assert "records" not in data.__dict__

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make", [gold_w, gold_four_cycle], ids=["w", "four_cycle"])
    def test_sample_and_count_peak_memory_per_record(self, make, seed):
        """Traced peak of sampling at m = 100000 followed by the count
        table: 56.0 bytes per record with an int64 record matrix and int64
        mixed-radix codes, 13.0 with both in the states' small dtype."""
        gold = make().with_parameters(seed=RngSeed(seed, 0))
        tracemalloc.start()
        try:
            observed_sample(gold, 100000, RngSeed(seed, 1)).count_table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 100000


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.SFC64, np.random.MT19937]


def _same_state(a, b):
    """Equal bit_generator.state dicts (some hold numpy arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestSkippedDraws:
    """Only the rows that can become records are generated: with hidden
    variables and no selection, the first m of each node's max(4m, 1024)
    uniforms; under selection, the rows up to the m-th acceptance. The
    rest are skipped, and the generator must end where drawing them would
    have left it, whatever the bit generator: PCG64 jumps over skipped
    uniforms, the others (SFC64 and MT19937 cannot jump) draw them, and a
    batch of several blocks moves between nodes by restoring saved
    states."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("name", ["w_structure", "w_plain"])
    @pytest.mark.parametrize("m", SIZES)
    def test_records_and_generator_state(self, bit_generator, name, m):
        gold = CASES[name]
        got_rng = np.random.Generator(bit_generator(m + 11))
        want_rng = np.random.Generator(bit_generator(m + 11))
        got = observed_sample(gold, m, got_rng).records
        assert np.array_equal(got, ref_observed_records(gold, m, want_rng))
        assert np.array_equal(got_rng.random(5), want_rng.random(5))

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("m", SIZES)
    def test_forward_records_and_generator_state(self, bit_generator, m):
        bn = CASES["w_structure"].bn
        got_rng = np.random.Generator(bit_generator(m + 12))
        want_rng = np.random.Generator(bit_generator(m + 12))
        got = forward_sample(bn, m, got_rng).records
        assert np.array_equal(got, ref_ancestral(bn, m, want_rng))
        assert np.array_equal(got_rng.random(5), want_rng.random(5))

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("name,m", SELECTION_CASES)
    def test_selection_records_and_generator_state(self, bit_generator, name, m):
        gold = SELECTION_GOLDS[name]
        got_rng = np.random.Generator(bit_generator(m + 13))
        want_rng = np.random.Generator(bit_generator(m + 13))
        got = observed_sample(gold, m, got_rng).records
        assert np.array_equal(got, ref_observed_records(gold, m, want_rng))
        assert np.array_equal(got_rng.random(5), want_rng.random(5))

    @pytest.mark.parametrize("name", sorted({**CASES, **SELECTION_GOLDS}))
    def test_zero_records_draw_nothing(self, name):
        gold = {**CASES, **SELECTION_GOLDS}[name]
        rng = np.random.Generator(np.random.PCG64(4))
        before = rng.bit_generator.state
        assert observed_sample(gold, 0, rng).m == 0
        assert _same_state(rng.bit_generator.state, before)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("name", ["w_structure", "four_cycle"])
    @pytest.mark.parametrize("m", [1, 1000, 5000])
    def test_buffered_32_bit_value_is_kept(self, bit_generator, name, m):
        # PCG64.advance drops a buffered 32-bit value; drawing every row
        # with random() keeps it, so the sampler puts it back
        gold = CASES[name]
        got_rng = np.random.Generator(bit_generator(3))
        want_rng = np.random.Generator(bit_generator(3))
        assert got_rng.integers(0, 10, dtype=np.int32) == want_rng.integers(0, 10, dtype=np.int32)
        got = observed_sample(gold, m, got_rng).records
        assert np.array_equal(got, ref_observed_records(gold, m, want_rng))
        assert _same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)
        assert np.array_equal(got_rng.integers(0, 2**31, 5, dtype=np.int32),
                              want_rng.integers(0, 2**31, 5, dtype=np.int32))

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("name,m", [
        ("w_structure", 3 * _BLOCK + 1),  # four blocks, the last of one row
        ("w_plain", 3 * _BLOCK + 1),
        ("four_cycle", 40000),
        ("low_acceptance", 40000),  # several batches of ten blocks
    ])
    def test_batches_of_several_blocks(self, bit_generator, name, m):
        # each block after a batch's first restores every node's saved
        # state, and the batch ends at the state saved after its first block
        gold = {**CASES, **SELECTION_GOLDS}[name]
        if gold.selection:
            accept = joint_from_bn(gold.bn).probs[..., gold.selection[0][1]].sum()
            assert m / accept >= 3 * _BLOCK  # the m-th acceptance lies in block 3 or later
        got_rng = np.random.Generator(bit_generator(m + 14))
        want_rng = np.random.Generator(bit_generator(m + 14))
        got = observed_sample(gold, m, got_rng).records
        assert np.array_equal(got, ref_observed_records(gold, m, want_rng))
        assert _same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)
        assert np.array_equal(got_rng.random(5), want_rng.random(5))

    def test_low_acceptance_gold_crosses_batches(self):
        # 1/0.082 rows per record: 300 records or more take several
        # batches of max(4m, 1024) rows, some of several blocks
        p = joint_from_bn(SELECTION_GOLDS["low_acceptance"].bn)
        assert 0.08 < p.probs[:, :, 2].sum() < 0.085

    @staticmethod
    def _peak_bytes(gold, m, seed):
        tracemalloc.start()
        try:
            observed_sample(gold, m, seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("seed", range(4))
    def test_selection_peak_memory_per_record(self, seed):
        """Traced peak of four-cycle sampling at m = 100000 (acceptance
        0.38-0.54): 144.7 bytes per record for every seed when each batch
        was generated whole, 73.1-86.7 once rows past the m-th acceptance
        were left undrawn, and 10.3-10.7 now."""
        gold = gold_four_cycle().with_parameters(seed=RngSeed(seed, 0))
        assert self._peak_bytes(gold, 100000, RngSeed(seed, 1)) < 100 * 100000

    @pytest.mark.parametrize("seed", range(4))
    def test_selection_peak_memory_per_record_in_blocks(self, seed):
        """The same run under a tighter bound: 38.5-38.9 bytes per record
        once each batch was walked in blocks of _BLOCK rows, whose kept
        columns go straight into the one record matrix (32 bytes per
        record in int64), and 10.3-10.7 now that the matrix keeps the
        states' one-byte dtype (4 bytes per record)."""
        gold = gold_four_cycle().with_parameters(seed=RngSeed(seed, 0))
        assert self._peak_bytes(gold, 100000, RngSeed(seed, 1)) < 45 * 100000

    @pytest.mark.parametrize("seed", range(4))
    def test_hidden_variable_peak_memory_per_record(self, seed):
        """Traced peak of w-structure sampling at m = 100000: 41.1 bytes
        per record when the first m rows went through their own path, 37.0
        through the shared batch loop, which takes them by slice and
        returns the one record matrix uncopied, and 9.8 now that the
        matrix keeps the states' one-byte dtype."""
        gold = gold_w().with_parameters(seed=RngSeed(seed, 0))
        assert self._peak_bytes(gold, 100000, RngSeed(seed, 1)) < 40 * 100000


def ref_bdeu_local(counts, ess):
    """BDeu local score with scipy's gammaln."""
    q, r = counts.shape
    a_row = ess / q
    a_cell = ess / (q * r)
    n_row = counts.sum(axis=1)
    val = np.sum(gammaln(a_row) - gammaln(a_row + n_row))
    val += np.sum(gammaln(a_cell + counts) - gammaln(a_cell))
    return float(val)


def _assert_bdeu_matches(data, max_parents, ess=10.0):
    n = data.spec.n
    for child in range(n):
        others = [v for v in range(n) if v != child]
        for k in range(min(max_parents, len(others)) + 1):
            for parents in itertools.combinations(others, k):
                counts = tally(data, child, parents)
                got, want = bdeu_local(counts, ess), ref_bdeu_local(counts, ess)
                assert abs(got - want) <= 1e-12 * abs(want), (child, parents, got, want)


class TestBdeuMatchesGammaln:
    @pytest.mark.parametrize("name", ["w_structure", "four_cycle"])
    @pytest.mark.parametrize("m", [0, 10, 1280, 163840])
    def test_every_family_of_the_golds(self, name, m):
        data = observed_sample(CASES[name], m, RngSeed(m, 1))
        _assert_bdeu_matches(data, max_parents=3)
        _assert_bdeu_matches(data, max_parents=3, ess=1.0)

    def test_sparse_network_n10(self):
        # learn_cold-sized: ten binary variables, ten edges, 5000 records
        rng = np.random.default_rng(10)
        order = rng.permutation(10)
        pairs = [(int(order[i]), int(order[j])) for i in range(10) for j in range(i + 1, 10)]
        chosen = rng.choice(len(pairs), size=10, replace=False)
        spec = VariableSpec(tuple(f"V{i}" for i in range(10)), (2,) * 10)
        bn = sample_parameters(Dag(10, {pairs[k] for k in chosen}), spec, seed=10)
        _assert_bdeu_matches(forward_sample(bn, 5000, seed=3), max_parents=3)


# the tally kernel before the Python pass over small tables, kept verbatim


def _ref_config_indices(columns, parents, cards):
    idx = 0
    for p in parents:
        idx = np.add(idx * cards[p], columns[p], dtype=np.int64)
    return idx


def ref_tally(data, child, parents):
    parents = tuple(sorted(int(p) for p in parents))
    cards = data.spec.cards
    q = data.spec.config_count(parents)
    r = cards[child]
    configs, weights = data.count_table
    j = _ref_config_indices(configs.T, parents, cards)
    counts = np.bincount(j * r + configs[:, child], weights=weights, minlength=q * r)
    return counts.astype(np.int64).reshape(q, r)


def _count_tables(rng):
    """Count tables of every shape q = 1..128 by r = 1..5: sparse small
    counts, counts up to 1e6, and tables with zero cells and zero rows."""
    for q in range(1, 129):
        for r in range(1, 6):
            yield rng.integers(0, 4, size=(q, r))
            yield rng.integers(0, 10**6, size=(q, r), endpoint=True)
            table = rng.integers(0, 50, size=(q, r)) * (rng.random((q, r)) < 0.5)
            table[rng.random(q) < 0.3] = 0
            yield table


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _probability_tables(rng, counts):
    """A count table as frequencies, and products of random CPT entries,
    as in an exact margin, with the count table's zero cells and zero rows;
    the oracle's tables are often transposed views."""
    table = (counts > 0) * rng.random(counts.shape) * rng.random(counts.shape)
    table = table / max(table.sum(), 1e-300)
    return counts / max(counts.sum(), 1), table, np.asfortranarray(table)


class TestKernelsBitIdentical:
    @pytest.mark.parametrize("ess", [0.37, 1.0, 10.0])
    def test_bdeu_on_every_shape(self, ess):
        # as an array, a uint8 array, and row lists
        for counts in _count_tables(np.random.default_rng(int(ess * 100))):
            want = reference.bdeu(counts, ess)
            small = counts.astype(np.uint8) if counts.max() < 256 else counts
            for table in (counts, small, counts.tolist()):
                got = bdeu_local(table, ess)
                assert _same_bits(got, want), (counts.shape, ess, got, want)

    @pytest.mark.parametrize("ess", [0.37, 1.0, 10.0])
    def test_bdeu_on_fractional_counts(self, ess):
        # magnitudes 1e-3 to 1e16 in one row, whose total a left-to-right
        # sum would round
        rng = np.random.default_rng(7)
        for q, r in ((1, 2), (2, 8), (3, 9), (128, 5), (4, 17), (2, 130), (1, 300)):
            scale = rng.choice([0.0, 1e-3, 1.0, 1e3, 1e16], size=(q, r))
            counts = rng.random((q, r)) * scale
            want = reference.bdeu(counts, ess)
            for table in (counts, counts.tolist()):
                got = bdeu_local(table, ess)
                assert _same_bits(got, want), (counts.shape, ess, got, want)

    def test_bic_on_every_shape(self):
        for counts in _count_tables(np.random.default_rng(3)):
            m = max(int(counts.sum()), 1)
            got, want = bic_local(counts, m), reference.bic_local(counts, m)
            assert _same_bits(got, want), (counts.shape, got, want)

    @pytest.mark.parametrize("weight", [12.5, 163840, 1e6])
    def test_loglik_on_probability_tables(self, weight):
        rng = np.random.default_rng(int(weight))
        for counts in _count_tables(rng):
            for table in _probability_tables(rng, counts):
                got = _bic(table.ravel().tolist(), *table.shape, weight, weight)
                want = reference.penalized_loglik(table, weight, weight)
                assert _same_bits(got, want), table.shape

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 40).flatmap(lambda q: st.integers(1, 5).flatmap(lambda r: st.tuples(
            st.just((q, r)),
            st.lists(st.one_of(st.just(0), st.integers(0, 20), st.integers(0, 10**6)),
                     min_size=q * r, max_size=q * r),
        ))),
        st.sampled_from([0.37, 1.0, 10.0]),
    )
    def test_hypothesis_tables(self, shaped, ess):
        shape, cells = shaped
        counts = np.array(cells, dtype=np.int64).reshape(shape)
        assert _same_bits(bdeu_local(counts, ess), reference.bdeu(counts, ess))
        assert _same_bits(bdeu_local(counts.tolist(), ess), reference.bdeu(counts, ess))
        m = max(int(counts.sum()), 1)
        assert _same_bits(bic_local(counts, m), reference.bic_local(counts, m))
        table = counts / max(counts.sum(), 1)
        assert _same_bits(_bic(table.ravel().tolist(), *shape, 1e6, 1e6),
                          reference.penalized_loglik(table, 1e6, 1e6))

    @pytest.mark.parametrize("m,cards", [(0, (2, 3, 2)), (50, (2, 3, 2, 2)),
                                         (3000, (5, 7, 3, 4, 6, 2, 3)), (200, (1, 2, 3))])
    def test_tally(self, m, cards):
        rng = np.random.default_rng(m + 1)
        data = _random_dataset(rng, m, cards)
        for child in range(len(cards)):
            for parents in _parent_sets(rng, len(cards), child, 8):
                got = tally(data, np.int64(child), np.array(parents, dtype=np.int32))
                want = ref_tally(data, child, parents)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    # 9 x 8 x 5 x 3 x 2 = 2160 configurations: 300 records have fewer than
    # PYTHON_TALLY_ROWS distinct ones, 6000 more; children of 8 and 9
    # states, and families of 128 and more cells, give long rows and long
    # lists of terms
    @pytest.mark.parametrize("m", [300, 6000])
    @pytest.mark.parametrize("ess", [0.37, 10.0])
    def test_scorer_on_both_sides_of_the_cutoff(self, tmp_path, m, ess):
        rng = np.random.default_rng(m)
        cards = (9, 8, 5, 3, 2)
        data = _random_dataset(rng, m, cards)
        save_dataset(data, tmp_path / "d.csv")
        read = load_dataset(tmp_path / "d.csv", schema=data.spec)
        python = len(data.count_table[1]) <= scoring.PYTHON_TALLY_ROWS
        assert python == (m == 300)
        assert (data._python_table is None) == (read._python_table is None) == (not python)
        families = [(0, (1,)), (1, (0, 2)), (0, (1, 2, 3)), (4, (0, 1, 2))]
        for child in range(len(cards)):
            families += [(child, ps) for ps in _parent_sets(rng, len(cards), child, 4)]
        shapes = set()
        for dataset in (data, read):
            scorer = make_scorer(ScoreConfig(ess=ess), data=dataset)
            for child, parents in families:
                counts = tally(data, child, parents)
                shapes.add(counts.shape)
                want = reference.bdeu(counts, ess)
                assert _same_bits(scorer.local(child, parents), want), (child, parents)
                fractional = counts / 3.0
                want = reference.bdeu(fractional, ess)
                assert _same_bits(bdeu_local(fractional, ess), want), (child, parents)
                assert _same_bits(bdeu_local(fractional.tolist(), ess), want)
        assert any(r >= 8 for q, r in shapes) and any(q * r >= 128 for q, r in shapes)

    def test_scorer_never_calls_the_row_list_adapter(self, tmp_path, monkeypatch):
        # the scorer scores its flat counts directly; bdeu_local would
        # re-check and re-flatten every family
        def refuse(*args):
            raise AssertionError("the BDeu scorer called bdeu_local")

        data = observed_sample(CASES["four_cycle"], 400, RngSeed(2, 1))
        save_dataset(data, tmp_path / "d.csv")
        read = load_dataset(tmp_path / "d.csv", schema=data.spec)
        cfg = search.SearchConfig("ges")
        wanted = [search.run_search(cfg, data=d) for d in (data, read)]
        monkeypatch.setattr(scoring, "bdeu_local", refuse)
        for d, (cpdag, trace) in zip((data, read), wanted):
            got, got_trace = search.run_search(cfg, data=d)
            assert got == cpdag and got_trace.to_log() == trace.to_log()
            assert len(trace.steps) > 1



_TABLES = st.integers(1, 40).flatmap(lambda q: st.integers(1, 5).flatmap(lambda r: st.tuples(
    st.just((q, r)),
    st.lists(st.one_of(st.just(0), st.integers(0, 20), st.integers(0, 10**6),
                       st.floats(0, 1e6), st.floats(0, 1e-3)),
             min_size=q * r, max_size=q * r),
    st.permutations(range(q)),
)))


class TestFsumKernels:
    """The BDeu and penalized log-likelihood kernels sum by math.fsum, so
    their bits depend neither on the order of the rows nor on the zero
    cells and zero rows they skip, and they stay within a relative 1e-12
    of the numpy-order kernels they replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_TABLES, st.sampled_from([0.37, 1.0, 10.0]))
    def test_bits_are_order_free(self, shaped, ess):
        (q, r), cells, order = shaped
        counts = np.array(cells, dtype=float).reshape(q, r)
        permuted = counts[list(order)].ravel().tolist()
        got = _bdeu(cells, q, r, ess)
        assert _same_bits(got, reference.bdeu(counts, ess))
        assert _same_bits(_bdeu(permuted, q, r, ess), got)
        for weight in (1, 1e6):
            got = _bic(cells, q, r, weight, 7.5)
            assert _same_bits(got, reference.penalized_loglik(counts, weight, 7.5))
            assert _same_bits(_bic(permuted, q, r, weight, 7.5), got)
        assert _same_bits(bic_local(counts, 7.5), _bic(cells, q, r, 1, 7.5))

    def test_numpy_order_kernels_agree(self):
        rng = np.random.default_rng(5)
        for counts in _count_tables(rng):
            for ess in (0.37, 10.0):
                got, want = bdeu_local(counts, ess), reference.bdeu_numpy(counts, ess)
                assert abs(got - want) <= 1e-12 * abs(want), (counts.shape, ess, got, want)
            m = max(int(counts.sum()), 1)
            got, want = bic_local(counts, m), reference.penalized_loglik_numpy(counts, 1, m)
            assert abs(got - want) <= 1e-12 * abs(want), (counts.shape, got, want)
            for table in _probability_tables(rng, counts):
                got = _bic(table.ravel().tolist(), *table.shape, 1e6, 1e6)
                want = reference.penalized_loglik_numpy(table, 1e6, 1e6)
                assert abs(got - want) <= 1e-12 * abs(want), (table.shape, got, want)


class TestPythonKernels:
    """The dataset scorers' Python tally against tally, on both sides of
    its cutoff."""

    @staticmethod
    def _datasets(tmp_path, m, cards):
        """The same random records as an array dataset and a CSV one."""
        rng = np.random.default_rng(m + len(cards))
        data = _random_dataset(rng, m, cards)
        save_dataset(data, tmp_path / "d.csv")
        return data, load_dataset(tmp_path / "d.csv", schema=data.spec)

    @pytest.mark.parametrize("m,cards", [(0, (2, 3)), (40, (2, 3)), (60, (2, 3, 2)),
                                         (300, (3, 4, 2, 5))])
    def test_tally_on_both_sides_of_the_cutoff(self, tmp_path, monkeypatch, m, cards):
        # each dataset takes the cutoff in force when it is read or first
        # tallied; wide is tallied in Python whatever its count table
        monkeypatch.setattr(scoring, "PYTHON_TALLY_ROWS", 6)
        data, read = self._datasets(tmp_path, m, cards)
        k = len(data.count_table[1])
        assert (data._python_table is None) == (read._python_table is None) == (k > 6)
        monkeypatch.setattr(scoring, "PYTHON_TALLY_ROWS", 10**6)
        wide, _ = self._datasets(tmp_path, m, cards)
        counted = []  # the datasets whose counts came from tally

        def spy(dataset, *family):
            counted.append(dataset)
            return tally(dataset, *family)

        monkeypatch.setattr(scoring, "tally", spy)
        for child in range(len(cards)):
            for parents in _parent_sets(np.random.default_rng(child), len(cards), child, 6):
                want = tally(data, child, parents)
                for dataset in (data, read, wide):
                    counted.clear()
                    cells, q, r = _family_counts(dataset, child, parents)
                    python = dataset is wide or k <= 6
                    assert counted == ([] if python else [dataset]), (k, child, parents)
                    assert (q, r) == want.shape and cells == want.ravel().tolist()
                    assert _same_bits(_bdeu(cells, q, r, 10.0), bdeu_local(want, 10.0))
                    assert _same_bits(_bic(cells, q, r, 1, 60), bic_local(want, 60))

    def test_refusal_comes_before_the_python_table(self, monkeypatch):
        # a 10^6-cell family of a 3-row table: the loop would allocate an
        # 8 MB list, so a traced peak under 64 kB shows it did not
        monkeypatch.setattr(scoring, "MAX_TABLE_CELLS", 1000)
        data = CategoricalDataset(VariableSpec(("ID", "B"), (10**6, 2)), [(0, 1), (5, 0), (7, 1)])
        assert data._python_table is not None
        scorer = make_scorer(ScoreConfig(), data=data)
        tracemalloc.start()
        try:
            with pytest.raises(CountTableTooLarge, match="counts of ID given B need a table of"):
                _family_counts(data, 0, (1,))
            with pytest.raises(CountTableTooLarge, match="counts of ID given no parents"):
                scorer.local(0, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 and scorer.locals == {}

def ref_load_dataset(path, schema=None, infer_cards=False):
    """The dataset loader before numpy parsed the records: csv rows, one
    int() per cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[int(v) for v in row] for row in reader if row]
    names = tuple(h.strip() for h in header)
    records = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(names))
    if schema is not None:
        spec = schema if isinstance(schema, VariableSpec) else load_schema(schema)
        if spec.names != names:
            raise ValueError(
                f"schema names {spec.names} do not match CSV header {names}"
            )
    elif infer_cards:
        maxes = records.max(axis=0) if len(rows) else np.zeros(len(names), int)
        spec = VariableSpec(names, tuple(int(v) + 1 for v in maxes))
    else:
        raise ValueError("need a schema, or pass infer_cards=True explicitly")
    return CategoricalDataset(spec, records)


def _rewrite(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


_X12 = {"schema": VariableSpec(("X1", "X2"), (2, 2))}


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("name", ["w_structure", "four_cycle"])
    @pytest.mark.parametrize("m", [0, 1, 5000])
    @pytest.mark.parametrize("layout", ["lf", "crlf", "trailing-blank-line"])
    def test_generated_datasets(self, tmp_path, name, m, layout):
        data = observed_sample(CASES[name], m, RngSeed(m, 1))
        path, schema = tmp_path / "d.csv", tmp_path / "d.schema.json"
        save_dataset(data, path)
        assert "records" not in data.__dict__  # written from the compact records
        save_schema(data.spec, schema)
        text = path.read_text()
        if layout == "crlf":
            _rewrite(path, text.replace("\n", "\r\n"))
        elif layout == "trailing-blank-line":
            _rewrite(path, text + "\n")
        for kw in ({"schema": schema}, {"schema": data.spec}, {"infer_cards": True}):
            got = load_dataset(path, **kw)
            want = ref_load_dataset(path, **kw)
            assert got == want
            assert got.records.dtype == want.records.dtype == np.int64
            assert got.records.shape == (m, data.spec.n)
        assert load_dataset(path, schema=schema) == data

    def test_header_only_file_does_not_warn(self, tmp_path, recwarn):
        path = tmp_path / "d.csv"
        _rewrite(path, "A,B,C\n")
        got = load_dataset(path, infer_cards=True)
        assert got.records.shape == (0, 3)
        assert got == ref_load_dataset(path, infer_cards=True)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("text,kw", [
        ("X1,X2\n0,1\n0,5\n", _X12),  # value out of range
        ("X1,X2\n0,1\n0,a\n", _X12),  # non-integer cell
        ("X1,X2\n0,1\n0\n", _X12),  # ragged row
        ("X1,X2\n0,1\n# 0,1\n", _X12),  # no comment lines
        ("X1,X2\n0,1,1\n", {"infer_cards": True}),  # more columns than header names
        ("Y1,Y2\n0,1\n", _X12),  # header names not in the schema
        ("X1,X2\n0,1\n", {}),  # neither schema nor infer_cards
    ], ids=["out-of-range", "non-integer", "ragged", "comment", "wide-rows", "names",
            "no-schema"])
    def test_bad_files_raise_value_error(self, tmp_path, text, kw):
        path = tmp_path / "d.csv"
        _rewrite(path, text)
        with pytest.raises(ValueError):
            ref_load_dataset(path, **kw)
        with pytest.raises(ValueError):
            load_dataset(path, **kw)

    def test_missing_file_and_empty_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "missing.csv", infer_cards=True)
        _rewrite(tmp_path / "zero.csv", "")
        with pytest.raises(ValueError, match="no header row"):
            load_dataset(tmp_path / "zero.csv", infer_cards=True)

    def test_bic_on_zero_records_raises_value_error(self, tmp_path):
        path = tmp_path / "d.csv"
        _rewrite(path, "X1,X2\n")
        data = load_dataset(path, infer_cards=True)
        with pytest.raises(ValueError, match="at least one record"):
            score(Dag(2, set()), data, ScoreConfig(criterion="bic"))



def parsed(body, width=2):
    """The records of a body under a header of width names, or the message
    of its first bad line."""
    try:
        return _parse_records(body.split("\n"), width, 2)
    except ValueError as exc:
        return str(exc)


def not_an_integer(line, column, cell):
    return f"line {line}, column {column}: {cell!r} is not an integer of at most 18 digits"


class TestLoaderGrammar:
    """The dataset grammar: after the header, one line per record of one
    ASCII integer of at most 18 digits per name, with an optional sign and
    spaces or tabs around it. The first bad line, counting the header as
    line 1, raises ValueError naming it."""

    @pytest.mark.parametrize("cell,value", [
        ("1", 1), (" 1", 1), ("1 ", 1), ("\t1 \t", 1), ("+1", 1), ("-1", -1), ("-0", 0),
        ("01", 1), ("9" * 18, 10**18 - 1), ("-" + "9" * 18, 1 - 10**18), ("0" * 17 + "1", 1),
    ])
    def test_accepted_cells(self, cell, value):
        assert parsed(f"0,0\n0,{cell}\n") == [(0, 0), (0, value)]

    @pytest.mark.parametrize("cell", [
        "", " ", "\t", "1.0", "1e0", "1_0", "0x1", "1 2", "+-1", "--1", "+", "-", "+ 1",
        '"0"', "#", "\xa01", "\x0c1", "1\x0b", "０", "٣", "9" * 19, "0" * 18 + "1",
    ])
    def test_rejected_cells(self, cell):
        # int() reads 1_0, a fullwidth or Arabic-Indic digit, 19 digits and
        # the Unicode whitespace around a cell, and the csv module unquotes
        # "0"; the grammar reads none of them
        assert parsed(f"0,0\n0,{cell}\n") == not_an_integer(3, 2, cell)

    @pytest.mark.parametrize("body,want", [
        ("0,1\r\n1,1\r\n", [(0, 1), (1, 1)]),
        ("0,1\r\n\r\n1,1", [(0, 1), (1, 1)]),
        ("0,1\n1,1\r", [(0, 1), (1, 1)]),
        ("0,1\n\n1,1\n\n", [(0, 1), (1, 1)]),
        ("0,1\n \t\n1,1\n\t\r\n", [(0, 1), (1, 1)]),
        ("", []),
        ("\n \n", []),
        ("0,1\n1,1\r\r\n", not_an_integer(3, 2, "1\r")),
        ("0\r1,1\n", not_an_integer(2, 1, "0\r1")),
        ("0,1\n1,1,\n", "line 3: 3 values, the header has 2 names"),
        ("0,1\n1\n", "line 3: 1 values, the header has 2 names"),
        ("0,1\n\n\n1,1,1\n", "line 5: 3 values, the header has 2 names"),
        ("x\n", "line 2: 1 values, the header has 2 names"),
        ("x,y\n", not_an_integer(2, 1, "x")),
        ("0,1\nx,1\n0,1\n1\n", not_an_integer(3, 1, "x")),
        ("0,1\n1\n0,1\nx,1\n", "line 3: 1 values, the header has 2 names"),
        ("0,1\n0,x\n0,1\n0,x\n", not_an_integer(3, 2, "x")),
        ("0,1\n0,1\n0,x\n", not_an_integer(4, 2, "x")),
        ("# 0,1\n", not_an_integer(2, 1, "# 0")),
        ("\x1c0,-0\x85\n", not_an_integer(2, 1, "\x1c0")),
        ("0," + "9" * 120 + "\n",
         "line 2, column 2: '" + "9" * 99 + " is not an integer of at most 18 digits"),
    ], ids=["crlf", "crlf-blank-line", "last-cr", "blank-lines", "whitespace-lines",
            "empty-body", "blank-body", "two-crs", "embedded-cr", "trailing-comma",
            "short-row", "long-row-after-blanks", "short-row-with-bad-cell", "two-bad-cells",
            "bad-cell-before-short-row", "short-row-before-bad-cell", "repeated-bad-line",
            "bad-line-after-repeat", "comment-line", "unicode-whitespace", "long-cell"])
    def test_lines(self, body, want):
        assert parsed(body) == want

    def test_width_is_the_header_width(self):
        assert parsed("0,1,2\n", 3) == [(0, 1, 2)]
        assert parsed("0\n \n", 1) == [(0,)]
        assert parsed("0,1\n", 3) == "line 2: 2 values, the header has 3 names"

    def test_messages_reach_load_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        _rewrite(path, "X1,X2\r\n0,1\r\n\r\n1,1,\r\n")
        with pytest.raises(ValueError, match=r"^line 4: 3 values, the header has 2 names$"):
            load_dataset(path, infer_cards=True)
        # a quoted header name over two lines: the body starts at line 3
        _rewrite(path, '"X\n1",X2\n1,1_0\n')
        with pytest.raises(ValueError, match=r"^line 3, column 2: '1_0' is not an integer of "
                                             r"at most 18 digits$"):
            load_dataset(path, infer_cards=True)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_save_then_load_round_trips(self, tmp_path_factory, draw):
        names = draw.draw(st.lists(
            st.text(alphabet='aZ0_ ,"\xe9☃', min_size=1, max_size=5)
            .filter(lambda name: name == name.strip()), min_size=1, max_size=4, unique=True))
        cards = draw.draw(st.lists(st.integers(1, 4), min_size=len(names),
                                   max_size=len(names)))
        records = draw.draw(st.lists(st.tuples(*[st.integers(0, c - 1) for c in cards]),
                                     max_size=30))
        data = CategoricalDataset(VariableSpec(names, cards), records)
        path = tmp_path_factory.mktemp("round-trip") / "d.csv"
        save_dataset(data, path)
        assert load_dataset(path, schema=data.spec) == data

    def test_inferred_cards_are_max_plus_one_and_at_least_one(self, tmp_path):
        path = tmp_path / "d.csv"
        _rewrite(path, "A,B,C\n0,2,0\n1,5,0\n")
        assert load_dataset(path, infer_cards=True).spec.cards == (2, 6, 1)
        _rewrite(path, "A,B\n")
        assert load_dataset(path, infer_cards=True).spec.cards == (1, 1)
        _rewrite(path, "A,B\n0,-1\n1,-2\n")
        with pytest.raises(ValueError, match="record values out of range for spec cards"):
            load_dataset(path, infer_cards=True)


@st.composite
def _datasets(draw):
    """A dataset of 1-5 variables of 1-1000 states, whose names hold
    commas, quotes, inner spaces and non-ASCII characters, and 0-3000
    records drawn from a pool of up to 60, so that records repeat."""
    n = draw(st.integers(1, 5))
    names = draw(st.lists(st.text(alphabet='aZ0_ ,"\xe9\xc4\u2603', max_size=5)
                          .filter(lambda name: name == name.strip()),
                          min_size=n, max_size=n, unique=True))
    cards = draw(st.lists(st.one_of(st.integers(1, 9), st.integers(10, 255),
                                    st.integers(256, 1000)), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, cards, size=(draw(st.integers(1, 60)), n))
    records = pool[rng.integers(0, len(pool), size=draw(st.integers(0, 3000)))]
    return CategoricalDataset(VariableSpec(names, cards), records)


class TestWriterMatchesReference:
    """save_dataset writes the bytes that csv.writer wrote
    (reference.save_dataset_csv), and load_dataset reads them back."""

    @staticmethod
    def check(data, directory):
        got, want = directory / "got.csv", directory / "want.csv"
        save_dataset(data, got)
        reference.save_dataset_csv(data, want)
        assert got.read_bytes() == want.read_bytes()
        assert load_dataset(got, schema=data.spec) == data

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_datasets())
    @example(CategoricalDataset(VariableSpec(("A", "B"), (2, 1000)), []))
    def test_random_datasets(self, tmp_path_factory, data):
        self.check(data, tmp_path_factory.mktemp("writer"))

    @pytest.mark.parametrize("cards", [
        (2**32, 2**31 - 1),  # the largest codes fit int64
        (2**32, 2**31),  # 2**63 configurations: a code could overflow int64
        (2**32, 2**31 + 1, 1),  # past 2**63, below 2**64
        (2**40, 2**30, 3),  # past 2**64
    ])
    def test_state_spaces_at_and_past_int64(self, tmp_path, cards):
        rng = np.random.default_rng(len(cards))
        pool = np.vstack([np.zeros(len(cards), np.uint64), np.array(cards, np.uint64) - 1,
                          rng.integers(0, cards, size=(6, len(cards))).astype(np.uint64)])
        records = pool[rng.integers(0, len(pool), size=200)]
        data = CategoricalDataset(VariableSpec([f"V{i}" for i in range(len(cards))], cards),
                                  records)
        assert (scoring._record_codes(data._values, cards) is None) == (math.prod(cards) >= 2**63)
        self.check(data, tmp_path)


def ref_sample_parameters(structure, spec, ess=10.0, seed=0):
    """The parameter draw before it took one Gamma call per node: one
    np.roll and one call per CPT row."""
    if ess <= 0:
        raise ValueError("ess must be positive")
    rng = _rng(seed)
    cpts = []
    for i in range(spec.n):
        r = spec.cards[i]
        q = spec.config_count(structure.parents(i))
        base = basis_mean(r)
        rows = np.empty((q, r))
        for cfg in range(q):
            alpha = ess * shifted_mean(base, cfg + 1)
            draw = rng.standard_gamma(alpha)
            rows[cfg] = draw / draw.sum()
        cpts.append(rows)
    return ParametricBn(structure, spec, cpts)


def ref_ci_holds(p, x, y, z=()):
    """The CI test before the shared subset-marginal kernel: one
    transposed (z, x, y) marginal per query, zero-probability z rows
    dropped."""
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    keep = sorted(x | y | z)
    drop = tuple(i for i in range(p.n) if i not in keep)
    marg = p.probs.sum(axis=drop) if drop else p.probs
    pos = {v: i for i, v in enumerate(keep)}
    zax = [pos[v] for v in sorted(z)]
    xax = [pos[v] for v in sorted(x)]
    yax = [pos[v] for v in sorted(y)]
    cards = p.spec.cards
    nz = int(np.prod([cards[v] for v in sorted(z)])) if z else 1
    nx = int(np.prod([cards[v] for v in sorted(x)]))
    ny = int(np.prod([cards[v] for v in sorted(y)]))
    tm = marg.transpose(zax + xax + yax).reshape(nz, nx, ny)
    pz = tm.sum(axis=(1, 2))
    mask = pz > 0
    if not mask.any():
        return True
    tm, pz = tm[mask], pz[mask]
    pxz = tm.sum(axis=2)
    pyz = tm.sum(axis=1)
    resid = tm * pz[:, None, None] - pxz[:, :, None] * pyz[:, None, :]
    rel = np.abs(resid) / (pz ** 2)[:, None, None]
    return bool(rel.max() <= CI_TOL)


def ref_ci_triple_set(p):
    """The CI set before the batched pass: one CI test per query."""
    return frozenset(t for t in pair_queries(p.n) if ref_ci_holds(p, (t[0],), (t[1],), t[2]))


def ref_including_classes(p):
    ci = ref_ci_triple_set(p)
    out = []
    for c in enumerate_classes(p.n):
        ds = dsep_triples(canonical_member(c))
        if ds <= ci:
            out.append((c, ds))
    return out


def ref_optimal_classes(p):
    """The optimality sweep before the bitmask class table: every class's
    d-separation frozenset against the CI set, compared pairwise."""
    if p.n > 4:
        raise ValueError("optimality sweep limited to n <= 4")
    incl = ref_including_classes(p)
    inclusion = [c for c, ds in incl if not any(ds2 > ds for _, ds2 in incl)]
    counts = {c: parameter_count(canonical_member(c), p.spec) for c, _ in incl}
    best = min(counts.values(), default=None)
    parameter = [c for c, d in counts.items() if d == best]
    return (
        tuple(sorted(inclusion, key=canonical_key)),
        tuple(sorted(parameter, key=canonical_key)),
    )


PARAMETER_SEEDS = range(200)


@pytest.fixture(scope="module")
def gold_margins():
    """Both golds' exact margins at 200 parameter seeds each."""
    return [
        observed_margin(make().with_parameters(ess=10.0, seed=RngSeed(seed, 0)))
        for make in (gold_w, gold_four_cycle)
        for seed in PARAMETER_SEEDS
    ]


def _random_network(rng, n, max_card=3):
    order = rng.permutation(n)
    edges = {
        (int(order[i]), int(order[j]))
        for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    }
    cards = tuple(int(c) for c in rng.integers(1, max_card + 1, size=n))
    spec = VariableSpec(tuple(f"V{i}" for i in range(n)), cards)
    g = Dag(n, edges)
    return sample_parameters(g, spec, seed=int(rng.integers(2**32)))


def _deterministic_rows(rng, bn, share=0.4):
    """bn with a share of its CPT rows replaced by point masses, so some
    configurations of the joint have probability zero."""
    cpts = []
    for table in bn.cpts:
        table = table.copy()
        for row in range(table.shape[0]):
            if rng.random() < share:
                table[row] = np.eye(table.shape[1])[rng.integers(table.shape[1])]
        cpts.append(table)
    return ParametricBn(bn.structure, bn.spec, cpts)


def _subsets(items, low=0):
    return [
        c for k in range(low, len(items) + 1) for c in itertools.combinations(items, k)
    ]


def _random_joints(n, count, seed):
    rng = np.random.default_rng(seed)
    return [
        joint_from_bn(_deterministic_rows(rng, _random_network(rng, n)))
        for _ in range(count)
    ]


def ref_joint_from_bn(bn):
    """joint_from_bn before its state grid was memoized: a fresh int64
    np.indices grid on every call."""
    cards = bn.spec.cards
    idx, cfg = np.indices(cards), np.empty(cards, dtype=np.int64)
    probs = np.ones(cards)
    for i in range(bn.spec.n):
        config_indices(idx, bn.parents[i], cards, cfg)
        probs = probs * bn.cpts[i][cfg, idx[i]]
    return probs


class TestOracleMemos:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_joint_keeps_its_bits(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(30):
            bn = _random_network(rng, n, max_card=4)
            assert np.array_equal(joint_from_bn(bn).probs, ref_joint_from_bn(bn))

    def test_state_grid_is_read_only(self):
        grid = _state_grid((2, 3, 4))
        assert _state_grid((2, 3, 4)) is grid
        assert np.array_equal(grid, np.indices((2, 3, 4)))
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0, 0, 0] = 1
        assert _state_grid.cache_info().maxsize is not None

    def test_dropped_axes(self):
        assert _dropped_axes(3, range(8)) == (
            (0, 1, 2), (1, 2), (0, 2), (2,), (0, 1), (1,), (0,), (),
        )
        assert _dropped_axes(3, range(8)) is _dropped_axes(3, range(8))
        assert _dropped_axes.cache_info().maxsize is not None


class TestCiTripleSetMatchesReference:
    def test_gold_margins(self, gold_margins):
        for margin in gold_margins:
            assert ci_triple_set(margin) == ref_ci_triple_set(margin)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_joints_with_zero_probability_configurations(self, n):
        joints = _random_joints(n, 60, seed=n)
        assert sum((p.probs == 0).any() for p in joints) >= 20
        for p in joints:
            assert ci_triple_set(p) == ref_ci_triple_set(p)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_set_queries_with_zero_probability_configurations(self, n):
        # ci_holds on a y set, as composition_holds asks it, for every z
        for p in _random_joints(n, 30, seed=300 + n):
            for x in range(n):
                rest = [v for v in range(n) if v != x]
                for ys in _subsets(rest, low=1):
                    for zs in _subsets([v for v in rest if v not in ys]):
                        assert ci_holds(p, x, ys, zs) == ref_ci_holds(p, (x,), ys, zs)

    def test_memory_stays_within_a_multiple_of_the_marginal_table(self):
        # the marginal table holds one row of joint cells per variable
        # subset; testing all 1792 queries at n = 8 in one block would
        # need ~50 times as much
        n = 8
        spec = VariableSpec(tuple(f"V{i}" for i in range(n)), (2,) * n)
        chain = Dag(n, {(i, i + 1) for i in range(n - 1)})
        p = joint_from_bn(sample_parameters(chain, spec, seed=1))
        want = ci_triple_set(p)  # memoizes the query plan outside the trace
        tracemalloc.start()
        try:
            assert ci_triple_set(p) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (2**n * p.probs.size * 8)


class TestOptimalClassesMatchReference:
    def test_gold_margins(self, gold_margins):
        for margin in gold_margins:
            assert optimal_classes(margin) == ref_optimal_classes(margin)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_observed_networks(self, n):
        # a joint drawn on a DAG has that DAG as a perfect map, so its
        # class is the one optimal class
        rng = np.random.default_rng(100 + n)
        for _ in range(40):
            bn = _random_network(rng, n)
            p = joint_from_bn(bn)
            got = optimal_classes(p)
            assert got == ref_optimal_classes(p)
            if min(bn.spec.cards) > 1:
                assert got == ((dag_to_cpdag(bn.structure),),) * 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_joints_with_zero_probability_configurations(self, n):
        for p in _random_joints(n, 40, seed=200 + n):
            assert optimal_classes(p) == ref_optimal_classes(p)


def _parameter_cases():
    w, cycle = gold_w(), gold_four_cycle()
    ones = VariableSpec(("a", "b", "c", "d", "e"), (1, 3, 1, 2, 9))
    # a random eight-node DAG over 1-, 3- and 4-state nodes: every node's
    # rows share the one Gamma call, whatever its row width
    rng = np.random.default_rng(22)
    order = rng.permutation(8).tolist()
    mixed = Dag(8, {(order[i], order[j]) for i, j in itertools.combinations(range(8), 2)
                    if rng.random() < 0.4})
    mixed_spec = VariableSpec(tuple("abcdefgh"), (1, 3, 4, 1, 4, 3, 3, 4))
    return {
        "w_structure": (w.structure, w.spec),
        "four_cycle": (cycle.structure, cycle.spec),
        "cards_one_and_nine": (Dag(5, {(0, 1), (1, 2), (2, 4), (3, 4), (0, 3)}), ones),
        "chain": (Dag(3, {(0, 1), (1, 2), (0, 2)}), VariableSpec(("a", "b", "c"), (3, 2, 4))),
        "random_one_three_four": (mixed, mixed_spec),
    }


PARAMETER_CASES = _parameter_cases()


class TestSampleParametersMatchesReference:
    @pytest.mark.parametrize("name", sorted(PARAMETER_CASES))
    @pytest.mark.parametrize("ess", [0.5, 10.0])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, RngSeed(3, 0), RngSeed(3, 5)])
    def test_int_and_rng_seed(self, name, ess, seed):
        structure, spec = PARAMETER_CASES[name]
        got = sample_parameters(structure, spec, ess, seed).cpts
        want = ref_sample_parameters(structure, spec, ess, seed).cpts
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    @pytest.mark.parametrize("name", sorted(PARAMETER_CASES))
    @pytest.mark.parametrize("ess", [0.5, 10.0])
    def test_generator_cpts_and_final_state(self, name, ess):
        structure, spec = PARAMETER_CASES[name]
        rng_new, rng_ref = RngSeed(11, 2).generator(), RngSeed(11, 2).generator()
        got = sample_parameters(structure, spec, ess, rng_new).cpts
        want = ref_sample_parameters(structure, spec, ess, rng_ref).cpts
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestParameterMemos:
    def test_dirichlet_means(self):
        expected = [10.0 * shifted_mean(basis_mean(3), j) for j in range(1, 5)]
        assert np.array_equal(_dirichlet_means(4, 3, 10.0), expected)

    def test_dirichlet_layout_is_read_only(self):
        shapes = ((4, 3), (1, 2), (6, 1))
        alpha, offsets = _dirichlet_layout(shapes, 10.0)
        assert _dirichlet_layout(shapes, 10.0)[0] is alpha
        with pytest.raises(ValueError, match="read-only"):
            alpha[0] = 1.0
        assert offsets == (0, 12, 14, 20)
        blocks = [_dirichlet_means(q, r, 10.0).ravel() for q, r in shapes]
        assert np.array_equal(alpha, np.concatenate(blocks))
        assert _dirichlet_layout.cache_info().maxsize is not None

    @pytest.mark.parametrize("name", sorted(GOLD_STANDARDS))
    def test_observed_spec_is_built_once_per_gold(self, name):
        gold = GOLD_STANDARDS[name]().with_parameters(seed=RngSeed(5, 0))
        assert gold.observed_spec is gold.observed_spec
        assert gold.observed_spec == gold.spec.subset(gold.observed)

    @pytest.mark.parametrize("name", sorted(GOLD_STANDARDS))
    def test_template_is_built_once_and_kept_unchanged(self, name):
        template = GOLD_STANDARDS[name]()
        fields = (template.structure, template.spec, template.observed,
                  template.hidden, template.selection)
        gold = template.with_parameters(seed=RngSeed(5, 0))
        assert GOLD_STANDARDS[name]() is template
        assert template.bn is None and gold.bn is not None and gold is not template
        assert (template.structure, template.spec, template.observed,
                template.hidden, template.selection) == fields

    @pytest.mark.parametrize("name", sorted(GOLD_STANDARDS))
    def test_golds_over_seeds_0_to_99(self, name):
        template = GOLD_STANDARDS[name]()
        for seed in range(100):
            got = sample_parameters(template.structure, template.spec, 10.0, seed)
            want = ref_sample_parameters(template.structure, template.spec, 10.0, seed)
            assert got == want, seed
            assert got.parents == tuple(template.structure.parents(i)
                                        for i in range(template.spec.n))


# the graph code before Pdag and reachable: a pair -> orientation dict in
# CPDAG completion, hand-built dicts in the extension, d-separation and
# the search operators, and one breadth-first loop per caller


def ref_ancestors(g, nodes):
    closed = set(nodes)
    frontier = list(closed)
    parents_of = {}
    for u, v in g.edges:
        parents_of.setdefault(v, []).append(u)
    while frontier:
        v = frontier.pop()
        for u in parents_of.get(v, ()):
            if u not in closed:
                closed.add(u)
                frontier.append(u)
    return closed


def ref_d_separated(g, x, y, z):
    for v in (x, y, *z):
        if not (0 <= v < g.n):
            raise GraphError(f"node {v} out of range for n={g.n}")
    anc = ref_ancestors(g, {x, y} | z)
    neigh = {v: set() for v in anc}
    for u, v in g.edges:
        if u in anc and v in anc:
            neigh[u].add(v)
            neigh[v].add(u)
    for w in anc:
        ps = [u for u, v in g.edges if v == w and u in anc]
        for a, b in itertools.combinations(ps, 2):
            neigh[a].add(b)
            neigh[b].add(a)
    seen = {x}
    frontier = [x]
    while frontier:
        v = frontier.pop()
        for w in neigh[v]:
            if w == y:
                return False
            if w not in seen and w not in z:
                seen.add(w)
                frontier.append(w)
    return True


def ref_dag_to_cpdag(g):
    skel = g.skeleton()
    adj = {v: set() for v in range(g.n)}
    for u, v in skel:
        adj[u].add(v)
        adj[v].add(u)
    orient = {}  # (min,max) pair -> None or (tail, head)

    def _set(a, b):
        pair = (min(a, b), max(a, b))
        cur = orient[pair]
        if cur == (b, a):
            raise GraphError("orientation conflict while completing pattern")
        changed = cur is None
        orient[pair] = (a, b)
        return changed

    def _dir(a, b):
        return orient[(min(a, b), max(a, b))] == (a, b)

    def _undir(a, b):
        return orient[(min(a, b), max(a, b))] is None

    for pair in skel:
        orient[pair] = None
    for a, c, b in _vstructures(g):
        _set(a, c)
        _set(b, c)

    changed = True
    while changed:
        changed = False
        for b in range(g.n):
            for a in adj[b]:
                if not _dir(a, b):
                    continue
                for c in adj[b]:
                    if c != a and _undir(b, c) and c not in adj[a]:
                        changed |= _set(b, c)
                for c in adj[b]:
                    if c != a and _dir(b, c) and c in adj[a] and _undir(a, c):
                        changed |= _set(a, c)
        for a in range(g.n):
            for b in adj[a]:
                if not _undir(a, b):
                    continue
                into_b = [c for c in adj[b] if c != a and c in adj[a] and _dir(c, b) and _undir(a, c)]
                for c, d in itertools.combinations(into_b, 2):
                    if c not in adj[d]:
                        changed |= _set(a, b)
                        break
    directed = frozenset(e for e in orient.values() if e is not None)
    undirected = frozenset(p for p, e in orient.items() if e is None)
    return Cpdag(g.n, directed, undirected)


def ref_pdag_extension(n, directed, undirected):
    parents = {v: set() for v in range(n)}
    children = {v: set() for v in range(n)}
    neigh = {v: set() for v in range(n)}
    for u, v in directed:
        parents[v].add(u)
        children[u].add(v)
    for u, v in undirected:
        neigh[u].add(v)
        neigh[v].add(u)
    edges = set(directed)
    remaining = set(range(n))
    while remaining:
        for x in sorted(remaining, reverse=True):
            if children[x]:
                continue
            adj = parents[x] | neigh[x]
            if all(
                adj - {y} <= parents[y] | children[y] | neigh[y] for y in neigh[x]
            ):
                break
        else:
            return None
        for y in neigh[x]:
            edges.add((y, x))
            neigh[y].discard(x)
        for y in parents[x]:
            children[y].discard(x)
        remaining.discard(x)
    return Dag(n, frozenset(edges))


class RefAdjacency:
    def __init__(self, c):
        n = range(c.n)
        self.parents = {v: set() for v in n}
        self.children = {v: set() for v in n}
        self.neigh = {v: set() for v in n}
        for u, v in c.directed:
            self.parents[v].add(u)
            self.children[u].add(v)
        for u, v in c.undirected:
            self.neigh[u].add(v)
            self.neigh[v].add(u)
        self.adj = {v: self.parents[v] | self.children[v] | self.neigh[v] for v in n}

    def is_clique(self, nodes):
        return all(b in self.adj[a] for a, b in itertools.combinations(nodes, 2))

    def semi_directed_path(self, src, dst, blocked):
        seen, frontier = {src}, [src]
        while frontier:
            u = frontier.pop()
            for v in self.children[u] | self.neigh[u]:
                if v == dst:
                    return True
                if v not in seen and v not in blocked:
                    seen.add(v)
                    frontier.append(v)
        return False


def ref_insert_moves(c):
    g = RefAdjacency(c)
    out, seen = [], set()
    for y in range(c.n):
        for x in range(c.n):
            if x == y or x in g.adj[y]:
                continue
            na = g.neigh[y] & g.adj[x]
            for t in search._subsets(g.neigh[y] - g.adj[x]):
                cond = na | set(t)
                if not g.is_clique(cond) or g.semi_directed_path(y, x, cond):
                    continue
                colliders = (g.parents[y] - g.adj[x]) | set(t)
                key = (min(x, y), max(x, y), (y, frozenset(colliders)) if colliders else ())
                if key in seen:
                    continue
                seen.add(key)
                old = tuple(sorted(g.parents[y] | cond))
                out.append(search.Move(True, x, y, t, old, tuple(sorted(old + (x,)))))
    return tuple(out)


def ref_delete_moves(c):
    g = RefAdjacency(c)
    out, seen = [], set()
    for y in range(c.n):
        for x in sorted(g.parents[y] | g.neigh[y]):
            na = g.neigh[y] & g.adj[x]
            for h in search._subsets(na):
                rest = na - set(h)
                if not g.is_clique(rest):
                    continue
                colliders = frozenset(v for v in h if v not in g.parents[x])
                key = (min(x, y), max(x, y), colliders)
                if key in seen:
                    continue
                seen.add(key)
                new = tuple(sorted((g.parents[y] | rest) - {x}))
                out.append(search.Move(False, x, y, h, tuple(sorted(new + (x,))), new))
    return tuple(out)


def _every_pdag(n):
    """Each pair of n nodes absent, directed either way or undirected."""
    pairs = list(itertools.combinations(range(n), 2))
    for kinds in itertools.product(range(4), repeat=len(pairs)):
        directed = {(u, v) if k == 1 else (v, u) for (u, v), k in zip(pairs, kinds) if k in (1, 2)}
        undirected = {p for p, k in zip(pairs, kinds) if k == 3}
        yield frozenset(directed), frozenset(undirected)


def _assert_graph_code_matches(g):
    """Completion, extension, pair queries and operators on g and its class."""
    c = dag_to_cpdag.__wrapped__(g)
    assert c == ref_dag_to_cpdag(g)
    assert pdag_extension(g.n, c.directed, c.undirected) == ref_pdag_extension(
        g.n, c.directed, c.undirected
    )
    for q in pair_queries(g.n):
        assert d_separated(g, *q) == ref_d_separated(g, *q)
    assert insert_moves.__wrapped__(c) == ref_insert_moves(c)
    assert delete_moves.__wrapped__(c) == ref_delete_moves(c)


class TestPdagCodeMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_completion_of_every_dag(self, n):
        for g in enumerate_dags(n):  # the memo holds only this code's results
            assert dag_to_cpdag(g) == ref_dag_to_cpdag(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extension_of_every_class(self, n):
        for c in enumerate_classes(n):
            want = ref_pdag_extension(n, c.directed, c.undirected)
            assert pdag_extension(n, c.directed, c.undirected) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extension_of_every_pdag(self, n):
        # cyclic and unextendable ones included, where both give None
        results = [pdag_extension(n, *pd) for pd in _every_pdag(n)]
        assert results == [ref_pdag_extension(n, *pd) for pd in _every_pdag(n)]
        assert n < 3 or None in results

    def test_extension_of_every_move_at_n4(self, monkeypatch):
        calls = []

        def both(n, directed, undirected):
            got = pdag_extension(n, directed, undirected)
            assert got == ref_pdag_extension(n, directed, undirected)
            calls.append(got)
            return got

        monkeypatch.setattr(search, "pdag_extension", both)
        for c in enumerate_classes(4):
            for m in insert_moves(c) + delete_moves(c):
                search.apply_move.__wrapped__(c, m)
        assert len(calls) > 1000 and None not in calls

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pair_queries_on_every_dag(self, n):
        for g in enumerate_dags(n):
            for q in pair_queries(n):
                assert d_separated(g, *q) == ref_d_separated(g, *q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_operators_on_every_class(self, n):
        for c in enumerate_classes(n):
            assert insert_moves.__wrapped__(c) == ref_insert_moves(c)
            assert delete_moves.__wrapped__(c) == ref_delete_moves(c)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_dags_with_six_to_eight_nodes(self, data):
        n = data.draw(st.integers(6, 8))
        order = data.draw(st.permutations(range(n)))
        pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        _assert_graph_code_matches(Dag(n, frozenset(p for p, k in zip(pairs, keep) if k)))


def test_orient_raises_on_a_reversed_pair():
    p = Pdag(3, directed={(0, 1)}, undirected={(1, 2)})
    assert p.orient(0, 1) is False
    with pytest.raises(GraphError, match="orientation conflict"):
        p.orient(1, 0)
    assert p.orient(2, 1) is True
    with pytest.raises(GraphError, match="orientation conflict"):
        p.orient(1, 2)
    with pytest.raises(GraphError, match="orientation conflict"):
        p.orient(0, 2)  # not adjacent
    assert p.edges() == ({(0, 1), (2, 1)}, frozenset())
