"""Decomposable scoring criteria over categorical data.

BDeu and BIC local scores computed from contingency counts, plus a
deterministic "oracle" criterion that scores a structure directly against
an exact joint distribution (the large-sample limit of the penalized
likelihood). All criteria decompose per node, so totals are sums of
memoized local terms, and the criteria are score equivalent, so a class is
scored through one member DAG.

Parent-configuration indexing is mixed-radix over the parent list sorted
ascending, lowest index most significant. Every consumer of conditional
tables in this package (tallies, CPT rows, exact conditionals) uses this
one convention, and config_indices is its one implementation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Cpdag, Dag, VariableSpec, canonical_member

CRITERIA = ("bdeu", "bic", "oracle")

# the most cells of one family's dense count table, the same bound as the
# oracle's joint table (oracle.MAX_JOINT_CELLS): scoring a table costs about
# 60 bytes a cell at its peak, so a wider one, say over an ID-like column,
# is refused before it is allocated
MAX_TABLE_CELLS = 10_000_000


@dataclass(frozen=True)
class ScoreConfig:
    """Which criterion to use and its knobs.

    ess is the BDeu equivalent sample size; oracle_pseudo_m is the
    effective sample size of the oracle criterion.
    """

    criterion: str = "bdeu"
    ess: float = 10.0
    oracle_pseudo_m: float = 1e6

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if not 0 < self.ess < math.inf:  # NaN fails too
            raise ValueError("ess must be positive and finite")
        if not 0 < self.oracle_pseudo_m < math.inf:
            raise ValueError("oracle_pseudo_m must be positive and finite")


class CategoricalDataset:
    """m records of integer-coded observations for the variables in spec.

    records may be any integer or bool array, or floats that are all whole
    numbers. They are kept in the smallest unsigned dtype that holds every
    state, uncopied when they come in that dtype; the int64 `records`
    matrix is built only when read. Tallies read the count table (the
    distinct records and how often each occurs), built from the compact
    records once, on first use, so their cost depends on the number of
    distinct records and not on m.
    """

    def __init__(self, spec: VariableSpec, records):
        values = np.asarray(records)
        if values.ndim == 1 and values.size == 0:  # [] is no records
            values = values.reshape(0, spec.n)
        if values.ndim != 2 or values.shape[1] != spec.n:
            raise ValueError(f"records must have shape (m, {spec.n})")
        kind = values.dtype.kind
        if kind not in "biuf" or (kind == "f" and (np.trunc(values) != values).any()):
            raise ValueError("record values must be whole numbers")
        if values.size:
            if values.min() < 0 or (values.max(axis=0) >= spec.cards).any():
                raise ValueError("record values out of range for spec cards")
        values = values.astype(np.min_scalar_type(max(spec.cards, default=0)), copy=False)
        values.setflags(write=False)
        self.spec = spec
        self._values = values

    @cached_property
    def records(self) -> np.ndarray:
        """The read-only int64 (m, n) record matrix."""
        records = self._values.astype(np.int64)
        records.setflags(write=False)
        return records

    @property
    def m(self) -> int:
        return self._values.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, CategoricalDataset)
            and self.spec == other.spec
            and np.array_equal(self._values, other._values)
        )

    @cached_property
    def count_table(self) -> tuple:
        """(configs, counts): the k distinct records as an int64 (k, n)
        array, and the number of records equal to each."""
        cards, values = self.spec.cards, self._values
        size = math.prod(cards)
        if size >= 2**63:  # a record's mixed-radix code would overflow int64
            configs, counts = np.unique(values, axis=0, return_counts=True)
            return configs.astype(np.int64), counts
        # each record's mixed-radix code, in the smallest dtype that holds
        # every code and every cardinality
        code = np.empty(self.m, dtype=np.min_scalar_type(size))
        config_indices(values.T, range(self.spec.n), cards, code)
        if size <= self.m:
            counts = np.bincount(code, minlength=size)
            code = np.flatnonzero(counts)
            counts = counts[code]
        else:
            code, counts = np.unique(code, return_counts=True)
        if not cards:  # no variables: the one empty record, if m > 0
            return np.zeros((len(code), 0), np.int64), counts
        return np.array(np.unravel_index(code, cards), dtype=np.int64).T, counts


def config_indices(columns, variables, cards, out):
    """Write into out, and return, the mixed-radix code of the variables'
    values, the first variable most significant, where columns[v] holds
    v's values; 0 for no variables. The arithmetic runs in out's dtype,
    which must hold every code; the columns' dtype may be narrower."""
    out[...] = columns[variables[0]] if variables else 0
    for v in variables[1:]:
        np.add(np.multiply(out, cards[v], out=out), columns[v], out=out)
    return out


def _variable(data: CategoricalDataset, v) -> int:
    """v as a variable index of data; a float, or an index out of range,
    raises ValueError naming it."""
    try:
        i = operator.index(v)
    except TypeError:
        raise ValueError(f"variable {v!r} is not an integer") from None
    if not 0 <= i < data.spec.n:
        raise ValueError(f"variable {i} out of range")
    return i


class CountTableTooLarge(ValueError):
    """A family's dense count table would pass MAX_TABLE_CELLS cells."""


def tally(data: CategoricalDataset, child, parents) -> np.ndarray:
    """Exact contingency counts of the child against its parent set: an
    int64 array of q parent configurations by r child states. A variable
    that is not an integer index of data's variables, or that appears
    twice in the family, raises ValueError naming it; a table of more than
    MAX_TABLE_CELLS cells raises CountTableTooLarge before it is built."""
    child = _variable(data, child)
    parents = sorted(_variable(data, p) for p in parents)
    for a, b in zip(parents, parents[1:]):
        if a == b:
            raise ValueError(f"parent {a} appears twice")
    if child in parents:
        raise ValueError(f"child {child} must not appear among its parents")
    cards = data.spec.cards
    q = data.spec.config_count(parents)
    r = cards[child]
    if q * r > MAX_TABLE_CELLS:
        names = ", ".join(data.spec.names[p] for p in parents) or "no parents"
        raise CountTableTooLarge(f"the counts of {data.spec.names[child]} given {names} need a "
                                 f"table of {q} x {r} cells, more than {MAX_TABLE_CELLS}")
    configs, weights = data.count_table
    # the family's code, with the child as the lowest digit: j * r + state
    code = np.empty(len(weights), dtype=np.int64)
    config_indices(configs.T, (*parents, child), cards, code)
    # float64 weights sum exactly while every count stays below 2**53
    counts = np.bincount(code, weights=weights, minlength=q * r)
    return counts.astype(np.int64).reshape(q, r)


# integer tables of at most this many cells are scored in one Python pass,
# which costs less than numpy's per-call overhead there; wider or fractional
# tables are scored by numpy, which is faster per cell (the two break even
# at about 40-48 cells)
_PYTHON_CELLS = 40


def _lgamma(x) -> np.ndarray:
    """Log-gamma of each entry of a float array, by math.lgamma, as a flat
    array in row-major order."""
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size)


def bdeu_local(counts: np.ndarray, ess=10.0) -> float:
    """Log marginal likelihood of one node's (q, r) counts under the
    uniform-BDeu prior. Counts may be fractional; a negative count or an
    empty table raises ValueError.

    Log-gammas are taken by math.lgamma, and the row terms and the cell
    terms are each summed by numpy as one float64 array in row-major
    order, so both ways of computing them give the same bits.
    """
    if not 0 < ess < math.inf:
        raise ValueError("ess must be positive and finite")
    q, r = counts.shape
    if not counts.size:
        raise ValueError(f"cannot score an empty {counts.shape} table")
    lgamma = math.lgamma
    a_row, a_cell = ess / q, ess / (q * r)
    lg_row, lg_cell = lgamma(a_row), lgamma(a_cell)
    if counts.size <= _PYTHON_CELLS and counts.dtype.kind in "iu":
        cells = counts.ravel().tolist()
        if min(cells) < 0:
            raise ValueError("counts must be nonnegative")
        totals = map(sum, zip(*[iter(cells)] * r))  # row by row
        row_terms = np.array([lg_row - lgamma(a_row + n) for n in totals])
        cell_terms = np.array([lgamma(a_cell + c) - lg_cell for c in cells])
    else:
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        row_terms = lg_row - _lgamma(a_row + np.add.reduce(counts, axis=1))
        cell_terms = _lgamma(a_cell + counts) - lg_cell
    # numpy's pairwise sums, as ndarray.sum takes them, less its wrapper's cost
    val = np.add.reduce(row_terms)
    val += np.add.reduce(cell_terms)
    return float(val)


def _penalized_loglik(table, weight, size) -> float:
    """weight * sum_jk t_jk log(t_jk / t_j) - (q * (r-1) / 2) * log size.

    Zero cells and zero rows are logged as ones, so that each log still
    runs over a whole array (a masked log runs another loop, whose last
    bits differ); a zero cell's term is then a signed zero, which adds
    nothing to the sum.
    """
    rows = table.sum(axis=1, keepdims=True)
    logs = np.log(np.where(table > 0, table, 1.0)) - np.log(np.where(rows > 0, rows, 1.0))
    ll = float((table * logs).sum())
    q, r = table.shape
    return weight * ll - 0.5 * q * (r - 1) * math.log(size)


def bic_local(counts: np.ndarray, m) -> float:
    """Maximized log likelihood of one node's (q, r) counts minus
    (q * (r-1) / 2) * log m. A negative count or an empty table raises
    ValueError."""
    if m < 1:
        raise ValueError("bic requires at least one record")
    if not counts.size:
        raise ValueError(f"cannot score an empty {counts.shape} table")
    if counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    return _penalized_loglik(counts, 1, m)


def oracle_local(joint, child, parents, pseudo_m) -> float:
    """Local term of the oracle criterion for one node of a structure.

    pseudo_m * sum_jk p(pa_j, x_k) log p(x_k | pa_j) minus half the local
    dimension times log pseudo_m. Conditionals are read off the exact
    joint; zero-probability parent rows carry zero weight.
    """
    probs = joint.probs
    parents = tuple(sorted(parents))
    keep = sorted(set(parents) | {child})
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    axes = [keep.index(p) for p in parents] + [keep.index(child)]
    pjk = np.transpose(marg, axes).reshape(-1, joint.spec.cards[child])
    return _penalized_loglik(pjk, pseudo_m, pseudo_m)


class DecomposableScorer:
    """DAG and class scores from one local-score function.

    Each local score is computed once and kept in locals, keyed by
    (child, sorted parents); each class score is kept too.
    """

    def __init__(self, local_fn):
        self._local_fn = local_fn
        self.locals = {}
        self._classes = {}

    def local(self, child, parents) -> float:
        try:  # a hit, for parents given as the sorted tuple of the key
            return self.locals[child, parents]
        except (KeyError, TypeError):
            pass
        key = (child, tuple(sorted(parents)))
        if key not in self.locals:
            self.locals[key] = self._local_fn(*key)
        return self.locals[key]

    def score_dag(self, g: Dag) -> float:
        return sum((self.local(i, g.parents(i)) for i in range(g.n)), 0.0)

    def score_class(self, c: Cpdag) -> float:
        """The score of c's canonical member. The criteria are score
        equivalent, so the choice of member only pins floating-point
        determinism."""
        if c not in self._classes:
            self._classes[c] = self.score_dag(canonical_member(c))
        return self._classes[c]


def make_scorer(cfg: ScoreConfig, data=None, joint=None) -> DecomposableScorer:
    """A DecomposableScorer for cfg's criterion: oracle scores an exact
    joint table, bdeu and bic a dataset; exactly one of them is given."""
    if (data is None) == (joint is None):
        raise ValueError("provide exactly one of data or joint")
    if (cfg.criterion == "oracle") != (joint is not None):
        needs = "a joint table" if cfg.criterion == "oracle" else "a dataset"
        raise ValueError(f"the {cfg.criterion} criterion scores {needs}")
    if cfg.criterion == "bdeu":
        local = lambda child, parents: bdeu_local(tally(data, child, parents), cfg.ess)
    elif cfg.criterion == "bic":
        local = lambda child, parents: bic_local(tally(data, child, parents), data.m)
    else:
        local = lambda child, parents: oracle_local(
            joint, child, parents, cfg.oracle_pseudo_m
        )
    return DecomposableScorer(local)


def score(g: Dag, data: CategoricalDataset, cfg=None) -> float:
    """Total decomposable score of a DAG on a dataset (bdeu or bic)."""
    cfg = cfg if cfg is not None else ScoreConfig()
    return make_scorer(cfg, data=data).score_dag(g)


# ---------------------------------------------------------------------------
# dataset files: CSV with a header row of names, plus a JSON schema sidecar

def save_schema(spec: VariableSpec, path):
    doc = {
        "version": 1,
        "variables": [
            {"name": s, "cardinality": c} for s, c in zip(spec.names, spec.cards)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_variables(doc) -> VariableSpec:
    """The spec of a schema or model document: its "variables" list of
    {"name", "cardinality"} entries. A missing field raises ValueError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("variables"), list):
        raise ValueError('expected a JSON object with a "variables" list')
    names, cards = [], []
    for i, v in enumerate(doc["variables"]):
        if not isinstance(v, dict) or "name" not in v:
            raise ValueError(f'variables[{i}] has no "name" field')
        names.append(v["name"])
        cards.append(variable_int(v, i, "cardinality"))
    return VariableSpec(tuple(names), tuple(cards))


def variable_int(v, i, key) -> int:
    """The integer field `key` of v, entry i of a "variables" list; a
    missing field, or one that is not a whole number (a boolean, 2.5, a
    string), raises ValueError naming it."""
    if key not in v:
        raise ValueError(f'variables[{i}] has no "{key}" field')
    value = v[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f'variables[{i}] "{key}" is not an integer: {json.dumps(value)}')
    return int(value)


def load_schema(path) -> VariableSpec:
    with open(path) as fh:
        return read_variables(json.load(fh))


def save_dataset(data: CategoricalDataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.spec.names)
        writer.writerows(data._values.tolist())  # Python ints, as from the int64 records


def load_dataset(path, schema=None, infer_cards=False) -> CategoricalDataset:
    """Read a dataset CSV: a header row of names, then integer records.

    State counts come from the schema (a VariableSpec or a sidecar path);
    with infer_cards=True they are inferred as column max + 1, at least 1,
    instead.
    Blank lines are skipped; a malformed file raises ValueError.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        body = fh.read()
    if header is None:
        raise ValueError("no header row")
    names = tuple(h.strip() for h in header)
    if body.strip():
        try:
            records = np.loadtxt(
                io.StringIO(body), delimiter=",", comments=None, dtype=np.int64, ndmin=2
            )
        except ValueError as exc:  # numpy's message, less its advice on usecols
            raise ValueError(str(exc).partition(";")[0]) from None
    else:
        records = np.zeros((0, len(names)), dtype=np.int64)
    if records.shape[1] != len(names):
        raise ValueError(
            f"records have {records.shape[1]} columns, the header has {len(names)}"
        )
    if schema is not None:
        spec = schema if isinstance(schema, VariableSpec) else load_schema(schema)
        if spec.names != names:
            raise ValueError(
                f"schema names {spec.names} do not match CSV header {names}"
            )
    elif infer_cards:
        spec = VariableSpec(names, tuple(int(v) + 1 for v in records.max(axis=0, initial=0)))
    else:
        raise ValueError("need a schema, or pass infer_cards=True explicitly")
    return CategoricalDataset(spec, records)
