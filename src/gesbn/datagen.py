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
every node's block. Only rows up to the m-th record are generated.
Stream positions are those of drawing every row, and the generator ends
at the boundary of the last batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

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
    over the node's states.
    """

    def __init__(self, structure: Dag, spec: VariableSpec, cpts):
        if spec.n != structure.n:
            raise ValueError("spec does not match structure size")
        cpts = tuple(np.asarray(t, dtype=float) for t in cpts)
        if len(cpts) != spec.n:
            raise ValueError("need one CPT per node")
        for i, table in enumerate(cpts):
            q = spec.config_count(structure.parents(i))
            if table.shape != (q, spec.cards[i]):
                raise ValueError(
                    f"CPT for node {i} must have shape ({q},{spec.cards[i]})"
                )
            if table.min() < 0:
                raise ValueError(f"CPT for node {i} has negative entries")
            if np.abs(table.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
                raise ValueError(f"CPT rows for node {i} do not sum to 1")
            table.setflags(write=False)
        self.structure = structure
        self.spec = spec
        self.cpts = cpts

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

    @property
    def observed_spec(self) -> VariableSpec:
        return self.spec.subset(self.observed)

    def with_parameters(self, ess=10.0, seed=0) -> "GoldStandard":
        bn = sample_parameters(self.structure, self.spec, ess=ess, seed=seed)
        return replace(self, bn=bn)


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
    one call per node over its (q, r) alpha matrix, drawn row by row.
    Deterministic given (structure, spec, ess, seed).
    """
    if not ess > 0:
        raise ValueError("ess must be positive")
    rng = _rng(seed)
    cpts = []
    for i in range(spec.n):
        r = spec.cards[i]
        q = spec.config_count(structure.parents(i))
        # entry k of shifted_mean(base, j) is base[(k - j) % r]
        shift = (np.arange(r) - np.arange(1, q + 1)[:, None]) % r
        draws = rng.standard_gamma(ess * basis_mean(r)[shift])
        cpts.append(draws / draws.sum(axis=1, keepdims=True))
    return ParametricBn(structure, spec, cpts)


def _cdf_thresholds(bn: ParametricBn) -> list:
    """Per node, the r - 1 inner CDF values of each CPT row, shape (r - 1, q).

    A draw with uniform u and parent configuration j lands in state
    min(#{k : u > cdf[j, k]}, r - 1). Because the cumulative sums never
    decrease, that equals #{k < r - 1 : u > cdf[j, k]}, so the last column
    can go and the table serves every record without a per-record cumsum.
    """
    return [np.ascontiguousarray(np.cumsum(t, axis=1)[:, :-1].T) for t in bn.cpts]


def _ancestral(bn: ParametricBn, draws, rng, rows=None) -> list:
    """States of the rows in `rows` (a range, default all) of `draws`
    ancestral draws, one column per node.

    Each node owns the next `draws` uniforms of rng's stream, node by node
    in topological order, and row j reads the j-th of each node's block.
    Only the uniforms of `rows` are drawn; the stream skips the others, so
    it ends where drawing every row would leave it. Columns use the
    smallest unsigned dtype that holds the node's states.
    """
    rows = range(draws) if rows is None else rows
    thresholds = _cdf_thresholds(bn)
    cards = bn.spec.cards
    cols = [None] * bn.spec.n
    for i in topological_order(bn.structure):
        _skip_uniforms(rng, rows.start)
        u = rng.random(len(rows))
        _skip_uniforms(rng, draws - rows.stop)
        cfg = config_indices(cols, bn.structure.parents(i), cards)
        state = np.zeros(u.shape[0], dtype=np.min_scalar_type(cards[i] - 1))
        for row in thresholds[i]:
            state += u > row[cfg]
        cols[i] = state
        del u, cfg  # tens of MB each at large m: free them before the next node's
    return cols


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


def _range_stop(start, batch, need, accepted, generated) -> int:
    """Where a batch's next row range ends: past the rows expected to
    yield `need` more acceptances at the rate seen so far (1/2 before the
    first row), plus a 10% and a 1024-row margin."""
    if need <= 0 or (generated and not accepted):
        return batch
    rows = 2 * need if not generated else 1.1 * need * generated / accepted
    return min(batch, start + int(rows) + 1024)


def _sample(bn: ParametricBn, m, rng, batch, selection, keep) -> np.ndarray:
    """The columns `keep` of the first m rows that meet every (variable,
    state) pair of `selection`, in batches of `batch` ancestral draws.

    A batch is generated in row ranges: without selection the one range
    [0, m); under selection ranges from _range_stop, each further one
    after restoring rng's state saved at the batch start. rng ends as
    drawing every row would leave it, buffered 32-bit value included."""
    held = rng.bit_generator.state  # the caller's, buffered 32-bit value included
    kept, accepted, drawn, generated = [], 0, 0, 0
    while accepted < m:
        saved, stop = rng.bit_generator.state if drawn else held, 0
        # past the m-th acceptance, a batch goes on only while the guard
        # would fire on its partial count, as it might not on the full one
        while stop < batch and (accepted < m or _rejecting(accepted, drawn + batch)):
            if stop:
                rng.bit_generator.state = saved
            start = stop
            stop = _range_stop(start, batch, m - accepted, accepted, generated) if selection else m
            cols = _ancestral(bn, batch, rng, range(start, stop))
            rows, hits = slice(None), stop - start  # without selection, all of [0, m)
            if selection:
                hit = np.ones(stop - start, dtype=bool)
                for v, s in selection:
                    hit &= cols[v] == s
                rows = np.flatnonzero(hit)
                rows, hits = rows[: max(m - accepted, 0)], rows.size
            kept.append(np.array([cols[v][rows] for v in keep], dtype=np.int64).T)
            accepted += hits
            generated += stop - start
        drawn += batch
        if _rejecting(accepted, drawn):
            raise RuntimeError(
                f"selection acceptance rate {accepted}/{drawn} below {MIN_ACCEPT_RATE}; "
                "selection event has (near-)zero probability"
            )
    if held.get("has_uint32"):  # PCG64.advance drops it; drawing every row keeps it
        rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1,
                                   "uinteger": held["uinteger"]}
    if len(kept) > 1:
        kept = [np.concatenate(kept)]  # a lone piece is returned uncopied
    return kept[0] if kept else ()


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
        for name in spec.names:
            if name not in doc["cpts"]:
                raise ValueError(f'"cpts" has no table for {name!r}')
        cpts = [np.asarray(doc["cpts"][name], dtype=float) for name in spec.names]
        bn = ParametricBn(structure, spec, cpts)
    return GoldStandard(structure, spec, tuple(observed), tuple(hidden), tuple(selection), bn)


def save_model(gold: GoldStandard, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(gold), fh, indent=2)
        fh.write("\n")


def load_model(path) -> GoldStandard:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
