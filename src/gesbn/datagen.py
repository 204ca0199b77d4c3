"""Parametric Bayesian networks and synthetic-data generation.

Conditional tables are sampled from shifted Dirichlet priors that force
strong dependence along the generative edges, records come from ancestral
sampling, and observed datasets are produced by marginalizing hidden
variables and rejection-filtering on selection variables. Two built-in
gold standards cover the hidden-variable and the selection-bias regime.

All sampling is driven by numpy's PCG64 generator through explicit seeds,
so every artifact here is reproducible bit for bit. The mapping from a
seed to its records is part of the package's contract: the results CSV,
class encodings and search traces of every sweep depend on it. A faster
sampler must reproduce it byte for byte (tests/test_fastpaths.py compares
against the per-record reference); a change that alters it must say so
and report the acceptance numbers before and after.

One loop, _sample, lays every stream out in batches of m rows
(forward_sample, an all-observed gold) or max(4m, 1024): each node's
uniforms take the batch's next positions, and row j reads position j of
every node's block. The loop walks a batch in fixed blocks of rows, all
nodes per block, and stops at the block that holds the m-th record;
each block's kept columns go straight into one record matrix in the
states' small unsigned dtype (one byte per state for both golds). Stream
positions are those of drawing every row, and the generator ends at the
boundary of the last batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .graphs import Dag, VariableSpec, topological_order
from .scoring import CategoricalDataset, config_indices, read_variables, variable_int

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed plus a stream id; disjoint streams never overlap."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        return seed.generator()
    return RngSeed(int(seed)).generator()


class ParametricBn:
    """A structure plus one conditional probability table per node.

    cpts[i] has shape (q_i, r_i): one row per parent configuration (mixed
    radix, lowest parent index most significant), each row a distribution
    over the node's states. parents[i] is structure.parents(i).
    """

    def __init__(self, structure: Dag, spec: VariableSpec, cpts):
        if spec.n != structure.n:
            raise ValueError("spec does not match structure size")
        cpts = tuple(np.asarray(t, dtype=float) for t in cpts)
        if len(cpts) != spec.n:
            raise ValueError("need one CPT per node")
        parents = tuple(structure.parents(i) for i in range(spec.n))
        for i, table in enumerate(cpts):
            q = spec.config_count(parents[i])
            if table.shape != (q, spec.cards[i]):
                raise ValueError(
                    f"CPT for node {i} must have shape ({q},{spec.cards[i]})"
                )
            low = table.min()  # NaN if any entry is; inf fails one of the checks below
            if math.isnan(low):
                raise ValueError(f"CPT for node {i} has non-finite entries")
            if low < 0:
                raise ValueError(f"CPT for node {i} has negative entries")
            if max(abs(s - 1.0) for s in table.sum(axis=1).tolist()) > ROW_SUM_TOL:
                raise ValueError(f"CPT rows for node {i} do not sum to 1")
            table.setflags(write=False)
        self.structure = structure
        self.spec = spec
        self.cpts = cpts
        self.parents = parents

    def __eq__(self, other):
        return (
            isinstance(other, ParametricBn)
            and self.structure == other.structure
            and self.spec == other.spec
            and all(np.array_equal(a, b) for a, b in zip(self.cpts, other.cpts))
        )


@dataclass(frozen=True, eq=False)
class GoldStandard:
    """A generative model with observed / hidden / selection roles.

    selection maps variable index to the state required in every observed
    record. bn is None for a structure-only template; fill it with
    with_parameters before sampling.
    """

    structure: Dag
    spec: VariableSpec
    observed: tuple
    hidden: tuple = ()
    selection: tuple = ()  # pairs (variable, required state)
    bn: ParametricBn | None = None

    def __post_init__(self):
        object.__setattr__(self, "observed", tuple(self.observed))
        object.__setattr__(self, "hidden", tuple(self.hidden))
        object.__setattr__(self, "selection", tuple(tuple(p) for p in self.selection))
        roles = (
            list(self.observed)
            + list(self.hidden)
            + [v for v, _ in self.selection]
        )
        if sorted(roles) != list(range(self.spec.n)):
            raise ValueError("observed, hidden and selection must partition the variables")
        for v, s in self.selection:
            if not (0 <= s < self.spec.cards[v]):
                raise ValueError(f"selection value {s} invalid for variable {v}")

    @property
    def selection_dict(self) -> dict:
        return dict(self.selection)

    @cached_property
    def observed_spec(self) -> VariableSpec:
        return self.spec.subset(self.observed)

    def with_parameters(self, ess=10.0, seed=0) -> "GoldStandard":
        bn = sample_parameters(self.structure, self.spec, ess=ess, seed=seed)
        return replace(self, bn=bn)


def _dirichlet_means(q, r, ess) -> np.ndarray:
    """The (q, r) matrix whose row j (counting from 1) is
    ess * shifted_mean(basis_mean(r), j)."""
    # entry k of shifted_mean(base, j) is base[(k - j) % r]
    shift = (np.arange(r) - np.arange(1, q + 1)[:, None]) % r
    return ess * basis_mean(r)[shift]


@lru_cache(maxsize=256)
def _dirichlet_layout(shapes, ess) -> tuple:
    """The _dirichlet_means(q, r, ess) of each (q, r) in shapes, concatenated
    flat in C order as one read-only vector, and the offsets where the
    blocks start, followed by the vector's length."""
    blocks = [_dirichlet_means(q, r, ess).ravel() for q, r in shapes]
    alpha = np.concatenate([np.empty(0), *blocks])
    alpha.setflags(write=False)
    return alpha, tuple(accumulate((b.size for b in blocks), initial=0))


def basis_mean(k) -> np.ndarray:
    """The normalized vector (1, 1/2, ..., 1/k)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    v = 1.0 / np.arange(1, k + 1)
    return v / v.sum()


def shifted_mean(mu, j) -> np.ndarray:
    """Cyclic right shift of mu by j positions (configurations count from 1)."""
    if j < 1:
        raise ValueError("configuration index j counts from 1")
    mu = np.asarray(mu, dtype=float)
    return np.roll(mu, j % len(mu))


def sample_parameters(structure: Dag, spec: VariableSpec, ess=10.0, seed=0) -> ParametricBn:
    """Draw every CPT row from a Dirichlet with a shifted basis mean.

    Row j (1-based) of node i uses mean shifted_mean(basis_mean(r_i), j)
    and concentration ess; rows are built from per-component Gamma draws,
    one call over every node's (q, r) alpha matrix in node order, each
    drawn row by row. Deterministic given (structure, spec, ess, seed).
    """
    if not 0 < ess < math.inf:
        raise ValueError("ess must be positive and finite")
    if spec.n != structure.n:
        raise ValueError("spec does not match structure size")
    shapes = tuple((spec.config_count(structure.parents(i)), spec.cards[i]) for i in range(spec.n))
    alpha, offsets = _dirichlet_layout(shapes, ess)
    draws = _rng(seed).standard_gamma(alpha)
    cpts = []
    for shape, start, stop in zip(shapes, offsets, offsets[1:]):
        block = draws[start:stop].reshape(shape)
        cpts.append(block / block.sum(axis=1, keepdims=True))
    return ParametricBn(structure, spec, cpts)


def _cdf_thresholds(bn: ParametricBn) -> list:
    """Per node, the r - 1 inner CDF values of each CPT row, shape (r - 1, q).

    A draw with uniform u and parent configuration j lands in state
    min(#{k : u > cdf[j, k]}, r - 1). Because the cumulative sums never
    decrease, that equals #{k < r - 1 : u > cdf[j, k]}, so the last column
    can go and the table serves every record without a per-record cumsum.
    """
    return [np.ascontiguousarray(np.cumsum(t, axis=1)[:, :-1].T) for t in bn.cpts]


def _node_block(rng, states, i, parents, thresholds, cards, bufs):
    """Fill states[i], one block of node i's states, from the next
    len(states[i]) uniforms u of rng: state #{k : u > cdf[k]}, cdf the inner
    CDF values of the CPT row that the parents' states in u's column select.
    bufs: a block of uniforms, of gathered CDF values, of int64 parent
    configurations (config_indices writes them, np.take reads them fastest
    in int64) and of bools."""
    u, cdf, cfg, above = bufs
    rng.random(out=u)
    ps, state = parents[i], states[i]
    if ps:
        config_indices(states, ps, cards, cfg)
    if not len(thresholds[i]):  # a one-state node
        state.fill(0)
    for k, row in enumerate(thresholds[i]):  # the first comparison writes state
        cut = np.take(row, cfg, mode="clip", out=cdf) if ps else row[0]
        np.greater(u, cut, out=above if k else state)
        if k:
            np.add(state, above, out=state)


def _skip_uniforms(rng, k):
    """Move rng past k uniforms: PCG64 spends one 64-bit output on each, so
    it jumps ahead; any other bit generator draws them."""
    if not k:
        return
    if isinstance(rng.bit_generator, np.random.PCG64):
        rng.bit_generator.advance(k)
    else:
        rng.random(k)


def forward_sample(bn: ParametricBn, m, seed) -> CategoricalDataset:
    """m iid records over all variables, by ancestral sampling."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return CategoricalDataset(bn.spec, _sample(bn, m, _rng(seed), m, (), range(bn.spec.n)))


# rejection sampling runs in batches; the guard below aborts once the
# estimated acceptance probability drops under this threshold
MIN_ACCEPT_RATE = 1e-6
_GUARD_MIN_DRAWS = 1_000_000


def _rejecting(accepted, drawn) -> bool:
    """The guard: too few acceptances among enough draws."""
    return drawn >= _GUARD_MIN_DRAWS and accepted < drawn * MIN_ACCEPT_RATE


# rows per block of the sampling loop, so that its buffers stay in cache
_BLOCK = 1 << 14


def _sample(bn: ParametricBn, m, rng, batch, selection, keep) -> np.ndarray:
    """The columns `keep` of the first m rows meeting every (variable, state)
    pair of `selection`, in batches of `batch` ancestral draws, as one
    F-ordered (m, len(keep)) matrix in the states' dtype, the smallest
    unsigned one that holds every state, as in CategoricalDataset (parent
    configurations are built in int64). A batch goes in
    blocks of _BLOCK rows up to the m-th record; a node reaches its stream
    position by _skip_uniforms in the first block, by its saved state in
    later ones. rng ends as drawing every row would leave it, buffered
    32-bit value too."""
    n, cards, bitgen = bn.spec.n, bn.spec.cards, rng.bit_generator
    order, thresholds = topological_order(bn.structure), _cdf_thresholds(bn)
    parents = bn.parents
    rows = batch if selection else m  # the rows of a batch that can become records
    dtype = np.min_scalar_type(max(cards))
    size = min(_BLOCK, rows)
    states, picked = np.empty((n, size), dtype=dtype), np.empty(size, dtype=dtype)
    bufs = [np.empty(size, dtype=t) for t in (float, float, np.int64, bool)]
    records = np.empty((m, len(keep)), dtype=dtype, order="F")
    held = bitgen.state  # the caller's, buffered 32-bit value included
    saved, accepted, drawn = [None] * n, 0, 0
    while accepted < m:
        for start in range(0, rows, _BLOCK):
            # past the m-th acceptance, a batch goes on only while the guard
            # would fire on its partial count, as it might not on the full one
            if accepted >= m and not _rejecting(accepted, drawn + batch):
                break
            stop = min(start + _BLOCK, rows)
            block, block_bufs = states[:, : stop - start], [b[: stop - start] for b in bufs]
            for i in order:
                if start:
                    bitgen.state = saved[i]
                _node_block(rng, block, i, parents, thresholds, cards, block_bufs)
                if stop < rows:
                    saved[i] = bitgen.state
                if not start:
                    _skip_uniforms(rng, batch - stop)
            if not start and rows > _BLOCK:
                end = bitgen.state
            if selection:
                idx = np.flatnonzero(np.logical_and.reduce([block[v] == s for v, s in selection]))
                hits, idx = idx.size, idx[: max(m - accepted, 0)]
                columns = (np.take(block[v], idx, mode="clip", out=picked[: idx.size])
                           for v in keep)
            else:
                hits, columns = stop - start, (block[v] for v in keep)
            for j, column in enumerate(columns):
                records[accepted : accepted + column.size, j] = column
            accepted += hits
        if rows > _BLOCK:
            bitgen.state = end  # where the batch's first block left the stream
        drawn += batch
        if _rejecting(accepted, drawn):
            raise RuntimeError(f"selection acceptance rate {accepted}/{drawn} below "
                               f"{MIN_ACCEPT_RATE}; selection event has (near-)zero probability")
    if held.get("has_uint32"):  # PCG64.advance drops it; drawing every row keeps it
        bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": held["uinteger"]}
    return records


def observed_sample(gold: GoldStandard, m, seed) -> CategoricalDataset:
    """Exactly m accepted records over the observed variables only.

    Raw draws that miss the selection states are discarded; hidden and
    selection columns are dropped from the result. Without hidden or
    selection variables this equals forward_sample projected on observed.
    Otherwise draws come in batches of max(4m, 1024) per node, and the
    first m draws (the first m accepted ones, under selection) are kept.
    Only the rows that can become records are generated (see _sample).
    """
    if gold.bn is None:
        raise ValueError("gold standard carries no parameters; call with_parameters")
    if m < 0:
        raise ValueError("m must be nonnegative")
    batch = max(4 * m, 1024) if gold.hidden or gold.selection else m
    records = _sample(gold.bn, m, _rng(seed), batch, gold.selection, gold.observed)
    return CategoricalDataset(gold.observed_spec, records)


# a template is frozen and carries no parameters, so each is built once and
# shared; with_parameters returns a new model
@lru_cache(maxsize=None)
def gold_w() -> GoldStandard:
    """Hidden-variable benchmark: X1 -> X2 <- H -> X3 <- X4, H unobserved.

    X2 and the hidden confounder H have three states, the rest two; the
    margin over X1..X4 has no DAG perfect map. With this cardinality
    pattern the two inclusion-optimal classes of the margin carry 18 and
    20 parameters, and greedy search picks the 18-parameter one in
    roughly three quarters of its successes.
    """
    spec = VariableSpec(("X1", "X2", "X3", "X4", "H"), (2, 3, 2, 2, 3))
    structure = Dag(5, {(0, 1), (4, 1), (4, 2), (3, 2)})
    return GoldStandard(structure, spec, observed=(0, 1, 2, 3), hidden=(4,))


@lru_cache(maxsize=None)
def gold_four_cycle() -> GoldStandard:
    """Selection-bias benchmark: chain X1..X4 closed through selection S.

    X1 has four states; records are kept only when S = 1. The conditioned
    margin is Markov to the undirected four cycle X1-X2-X3-X4-X1.
    """
    spec = VariableSpec(("X1", "X2", "X3", "X4", "S"), (4, 2, 2, 2, 2))
    structure = Dag(5, {(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)})
    return GoldStandard(
        structure, spec, observed=(0, 1, 2, 3), selection=((4, 1),)
    )


GOLD_STANDARDS = {"w_structure": gold_w, "four_cycle": gold_four_cycle}


# ---------------------------------------------------------------------------
# model files: JSON with variables, roles, edges and optional CPT rows

def model_to_dict(gold: GoldStandard) -> dict:
    sel = gold.selection_dict
    variables = []
    for i, (name, card) in enumerate(zip(gold.spec.names, gold.spec.cards)):
        entry = {"name": name, "cardinality": card}
        if i in gold.hidden:
            entry["role"] = "hidden"
        elif i in sel:
            entry["role"] = "selection"
            entry["selection_value"] = sel[i]
        else:
            entry["role"] = "observed"
        variables.append(entry)
    doc = {
        "version": 1,
        "variables": variables,
        "edges": [
            [gold.spec.names[u], gold.spec.names[v]]
            for u, v in sorted(gold.structure.edges)
        ],
    }
    if gold.bn is not None:
        doc["cpts"] = {
            gold.spec.names[i]: gold.bn.cpts[i].tolist() for i in range(gold.spec.n)
        }
    return doc


def model_from_dict(doc: dict) -> GoldStandard:
    spec = read_variables(doc)
    if doc.get("version") != 1:
        raise ValueError("unsupported model file version")
    observed, hidden, selection = [], [], []
    for i, v in enumerate(doc["variables"]):
        role = v.get("role", "observed")
        if role == "observed":
            observed.append(i)
        elif role == "hidden":
            hidden.append(i)
        elif role == "selection":
            selection.append((i, variable_int(v, i, "selection_value")))
        else:
            raise ValueError(f"unknown variable role {role!r}")
    if "edges" not in doc:
        raise ValueError('the model has no "edges" field')
    edges = doc["edges"]
    if not isinstance(edges, list) or any(not isinstance(e, list) or len(e) != 2 for e in edges):
        raise ValueError('"edges" is not a list of [parent, child] name pairs')
    structure = Dag(spec.n, {(spec.index(u), spec.index(v)) for u, v in edges})
    bn = None
    if doc.get("cpts"):
        if not isinstance(doc["cpts"], dict):
            raise ValueError('"cpts" is not an object of tables by variable name')
        cpts = []
        for name in spec.names:
            if name not in doc["cpts"]:
                raise ValueError(f'"cpts" has no table for {name!r}')
            try:
                cpts.append(np.asarray(doc["cpts"][name], dtype=float))
            except (TypeError, ValueError):  # a string, an object, a ragged list
                raise ValueError(f'"cpts" table for {name!r} is not an array of numbers') from None
        bn = ParametricBn(structure, spec, cpts)
    return GoldStandard(structure, spec, tuple(observed), tuple(hidden), tuple(selection), bn)


def save_model(gold: GoldStandard, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(gold), fh, indent=2)
        fh.write("\n")


def load_model(path) -> GoldStandard:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
