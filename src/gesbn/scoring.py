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

numpy is imported only where arrays are built or read: a dataset CSV is
parsed, counted and BDeu-scored in plain Python, so `gesbn learn` and
`gesbn score` with BDeu load no numpy for it.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import re
from collections import Counter
from functools import cached_property, reduce
from itertools import chain, repeat

from .graphs import Cpdag, Dag, Value, VariableSpec, canonical_member

CRITERIA = ("bdeu", "bic", "oracle")

# the most cells of one family's dense count table, the same bound as the
# oracle's joint table (oracle.MAX_JOINT_CELLS): scoring a table costs about
# 60 bytes a cell at its peak, so a wider one, say over an ID-like column,
# is refused before it is allocated
MAX_TABLE_CELLS = 10_000_000

# a count table of at most this many distinct records is tallied for BDeu
# by a Python loop, a longer one by numpy's bincount. The loop needs no
# numpy import (~140 ms), but costs ~8x bincount per record (93 against
# 11.5 us for a four-variable family over 600 records): GES at n = 50 on
# 5000 distinct records took 8.8 s with it for every table, ~4 s without
PYTHON_TALLY_ROWS = 1024


class ScoreConfig(Value):
    """Which criterion to use and its knobs.

    ess is the BDeu equivalent sample size; oracle_pseudo_m is the
    effective sample size of the oracle criterion.
    """

    _fields = ("criterion", "ess", "oracle_pseudo_m")

    def __init__(self, criterion="bdeu", ess=10.0, oracle_pseudo_m=1e6):
        if criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if not 0 < ess < math.inf:  # NaN fails too
            raise ValueError("ess must be positive and finite")
        if not 0 < oracle_pseudo_m < math.inf:
            raise ValueError("oracle_pseudo_m must be positive and finite")
        self.__dict__.update(criterion=criterion, ess=ess, oracle_pseudo_m=oracle_pseudo_m)


def _compact(values, cards):
    """values, read-only, in the smallest unsigned dtype that holds every
    state; uncopied when they come in that dtype."""
    import numpy as np

    values = values.astype(np.min_scalar_type(max(cards, default=0)), copy=False)
    values.setflags(write=False)
    return values


class CategoricalDataset:
    """m records of integer-coded observations for the variables in spec.

    records may be any integer or bool array, or floats that are all whole
    numbers. They are kept in the smallest unsigned dtype that holds every
    state, uncopied when they come in that dtype; the int64 `records`
    matrix is built only when read. Tallies read the count table (the
    distinct records and how often each occurs), built from the compact
    records once, on first use, so their cost depends on the number of
    distinct records and not on m.

    A dataset read by load_dataset keeps its records as int tuples instead
    and counts them with a Counter when it is read; its compact records,
    and the count table's arrays, are built from those tuples on first use.
    """

    _rows = None  # the records as int tuples, for a dataset read from a file

    def __init__(self, spec: VariableSpec, records):
        import numpy as np

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
        self.spec = spec
        self._values = _compact(values, spec.cards)

    @classmethod
    def _from_rows(cls, spec: VariableSpec, rows: list) -> CategoricalDataset:
        """A dataset of rows, int tuples of spec.n values each; a value
        outside its variable's states raises ValueError. The distinct rows
        are counted here, and kept as the Python count table when there are
        at most PYTHON_TALLY_ROWS of them."""
        counts = Counter(rows)
        distinct = sorted(counts)
        columns = [[row[v] for row in distinct] for v in range(spec.n)]
        for column, card in zip(columns, spec.cards):
            if column and (min(column) < 0 or max(column) >= card):
                raise ValueError("record values out of range for spec cards")
        data = cls.__new__(cls)
        data.spec, data._rows = spec, rows
        data._python_table = None
        if len(distinct) <= PYTHON_TALLY_ROWS:
            data._python_table = columns, [counts[row] for row in distinct]
        return data

    @cached_property
    def _values(self):
        """The compact records of a dataset read from a file."""
        import numpy as np

        records = np.array(self._rows, dtype=np.int64).reshape(self.m, self.spec.n)
        return _compact(records, self.spec.cards)

    @cached_property
    def records(self):
        """The read-only int64 (m, n) record matrix."""
        import numpy as np

        records = self._values.astype(np.int64)
        records.setflags(write=False)
        return records

    @property
    def m(self) -> int:
        return len(self._values if self._rows is None else self._rows)

    def __eq__(self, other):
        import numpy as np

        return (
            isinstance(other, CategoricalDataset)
            and self.spec == other.spec
            and np.array_equal(self._values, other._values)
        )

    @cached_property
    def count_table(self) -> tuple:
        """(configs, counts): the k distinct records as an int64 (k, n)
        array, and the number of records equal to each."""
        import numpy as np

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

    @cached_property
    def _python_table(self):
        """The count table as Python lists, (columns, counts), column v
        holding v's state in each distinct record; None when there are more
        than PYTHON_TALLY_ROWS distinct records."""
        configs, counts = self.count_table
        if len(counts) > PYTHON_TALLY_ROWS:
            return None
        return configs.T.tolist(), counts.tolist()


def config_indices(columns, variables, cards, out):
    """Write into out, and return, the mixed-radix code of the variables'
    values, the first variable most significant, where columns[v] holds
    v's values; 0 for no variables. The arithmetic runs in out's dtype,
    which must hold every code; the columns' dtype may be narrower."""
    out[...] = columns[variables[0]] if variables else 0
    for v in variables[1:]:
        out *= cards[v]
        out += columns[v]
    return out


def _variable(v, n) -> int:
    """v as an index of n variables; a bool, a float, or an index out of
    range raises ValueError naming it."""
    if type(v) is not int:  # a numpy integer, say
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"variable {v!r} is not an integer")
        v = int(v)
    if not 0 <= v < n:
        raise ValueError(f"variable {v} out of range")
    return v


class CountTableTooLarge(ValueError):
    """A family's dense count table would pass MAX_TABLE_CELLS cells."""


def _family(data: CategoricalDataset, child, parents) -> tuple:
    """(child, sorted parents, q, r) of a family of data's variables, with
    the checks tally documents."""
    cards = data.spec.cards
    n = len(cards)
    child = _variable(child, n)
    parents = sorted([_variable(p, n) for p in parents])
    for a, b in zip(parents, parents[1:]):
        if a == b:
            raise ValueError(f"parent {a} appears twice")
    if child in parents:
        raise ValueError(f"child {child} must not appear among its parents")
    q = math.prod([cards[p] for p in parents])
    r = cards[child]
    if q * r > MAX_TABLE_CELLS:
        names = ", ".join(data.spec.names[p] for p in parents) or "no parents"
        raise CountTableTooLarge(f"the counts of {data.spec.names[child]} given {names} need a "
                                 f"table of {q} x {r} cells, more than {MAX_TABLE_CELLS}")
    return child, parents, q, r


def tally(data: CategoricalDataset, child, parents):
    """Exact contingency counts of the child against its parent set: an
    int64 array of q parent configurations by r child states. A variable
    that is not an integer index of data's variables (a bool or a float,
    say), or that appears twice in the family, raises ValueError naming
    it; a table of more than MAX_TABLE_CELLS cells raises
    CountTableTooLarge before it is built."""
    import numpy as np

    child, parents, q, r = _family(data, child, parents)
    configs, weights = data.count_table
    # the family's code, with the child as the lowest digit: j * r + state
    code = np.empty(len(weights), dtype=np.int64)
    config_indices(configs.T, (*parents, child), data.spec.cards, code)
    # float64 weights sum exactly while every count stays below 2**53
    counts = np.bincount(code, weights=weights, minlength=q * r)
    return counts.astype(np.int64).reshape(q, r)


def _bdeu_counts(data: CategoricalDataset, child, parents) -> tuple:
    """tally's counts as the BDeu scorer takes them: (cells, q, r), the q x r
    counts as one row-major list, counted by a Python loop over the
    dataset's Python count table, or, when it has none, read off tally's
    array."""
    table = data._python_table
    if table is None:
        counts = tally(data, child, parents)
        return counts.ravel().tolist(), *counts.shape
    child, parents, q, r = _family(data, child, parents)
    columns, weights = table
    cards = data.spec.cards
    # each distinct record's parent configuration j
    code = columns[parents[0]] if parents else repeat(0)
    for p in parents[1:]:
        k = cards[p]
        code = [c * k + s for c, s in zip(code, columns[p])]
    cells = [0] * (q * r)
    for c, s, w in zip(code, columns[child], weights):
        cells[c * r + s] += w
    return cells, q, r


def _pairwise_sum(x) -> float:
    """The sum of a list of numbers with the bits np.add.reduce gives it as
    a float64 vector: 0.0, its identity, plus numpy's pairwise sum, which
    adds a run of under 8 terms in order to 0.0, one of up to 128 in 8
    strided accumulators combined as a tree, and splits a longer run in two
    at a multiple of 8. Adding 0.0 turns only -0.0 into 0.0, which sums
    alike, so each run adds it."""
    n = len(x)
    if n < 8:
        return reduce(operator.add, x, 0.0)
    if n <= 128:
        end = n - n % 8
        r = x[:8]  # accumulator j adds x[j], x[j + 8], ... in order
        for i in range(8, end, 8):
            r = map(operator.add, r, x[i:i + 8])
        a, b, c, d, e, f, g, h = r
        return 0.0 + reduce(operator.add, x[end:], ((a + b) + (c + d)) + ((e + f) + (g + h)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def bdeu_local(counts, ess=10.0) -> float:
    """Log marginal likelihood of one node's (q, r) counts, an array or q
    lists of r numbers, under the uniform-BDeu prior, by the one kernel the
    BDeu scorer calls. Counts may be fractional; rows of unequal length, a
    count that is negative or not finite, or an empty table raise
    ValueError."""
    if not 0 < ess < math.inf:
        raise ValueError("ess must be positive and finite")
    if isinstance(counts, list):
        q, r = len(counts), len(counts[0]) if counts else 0
        if any(len(row) != r for row in counts):
            raise ValueError("count rows must have equal length")
        cells = list(chain.from_iterable(counts))
    else:
        (q, r), cells = counts.shape, counts.ravel().tolist()
    if not q * r:
        raise ValueError(f"cannot score an empty {(q, r)} table")
    if not all(map(math.isfinite, cells)):
        raise ValueError("counts must be finite")
    if min(cells) < 0:
        raise ValueError("counts must be nonnegative")
    return _bdeu(cells, q, r, ess)


def _bdeu(cells, q, r, ess) -> float:
    """bdeu_local of a nonempty q x r table given as one row-major list of
    finite nonnegative counts, unchecked.

    Log-gammas are taken by math.lgamma. Each row's total, the row terms
    and the cell terms, in row-major order, are summed in numpy's pairwise
    order, so the score has the bits that summing them as float64 arrays
    with numpy gives.
    """
    lgamma, add, sub = math.lgamma, operator.add, operator.sub
    a_row, a_cell = ess / q, ess / (q * r)
    if r < 8:  # each row's _pairwise_sum, 0.0 plus its cells in order, column by column
        totals = repeat(0.0)
        for j in range(r):
            totals = map(add, totals, cells[j::r])
    else:
        totals = [_pairwise_sum(cells[i:i + r]) for i in range(0, q * r, r)]
    # lgamma(a_row) - lgamma(a_row + total) for each row, and
    # lgamma(a_cell + count) - lgamma(a_cell) for each cell, by C-level maps
    lg_row = map(lgamma, map(add, repeat(a_row), totals))
    lg_cell = map(lgamma, map(add, repeat(a_cell), cells))
    row_terms = list(map(sub, repeat(lgamma(a_row)), lg_row))
    cell_terms = list(map(sub, lg_cell, repeat(lgamma(a_cell))))
    return _pairwise_sum(row_terms) + _pairwise_sum(cell_terms)


def _penalized_loglik(table, weight, size) -> float:
    """weight * sum_jk t_jk log(t_jk / t_j) - (q * (r-1) / 2) * log size.

    Zero cells and zero rows are logged as ones, so that each log still
    runs over a whole array (a masked log runs another loop, whose last
    bits differ); a zero cell's term is then a signed zero, which adds
    nothing to the sum.
    """
    import numpy as np

    rows = table.sum(axis=1, keepdims=True)
    logs = np.log(np.where(table > 0, table, 1.0)) - np.log(np.where(rows > 0, rows, 1.0))
    ll = float((table * logs).sum())
    q, r = table.shape
    return weight * ll - 0.5 * q * (r - 1) * math.log(size)


def bic_local(counts, m) -> float:
    """Maximized log likelihood of one node's (q, r) counts array minus
    (q * (r-1) / 2) * log m. A count that is negative or not finite, or an
    empty table, raises ValueError."""
    import numpy as np

    if m < 1:
        raise ValueError("bic requires at least one record")
    if not counts.size:
        raise ValueError(f"cannot score an empty {counts.shape} table")
    if not np.isfinite(counts).all():
        raise ValueError("counts must be finite")
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
    pjk = marg.transpose(axes).reshape(-1, joint.spec.cards[child])
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
            value = self.locals.get((child, parents))
        except TypeError:  # unhashable parents
            value = None
        if value is None:
            key = (child, tuple(sorted(parents)))
            value = self.locals.get(key)
            if value is None:
                value = self.locals[key] = self._local_fn(*key)
        return value

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
        local = lambda child, parents: _bdeu(*_bdeu_counts(data, child, parents), cfg.ess)
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


# np.loadtxt's int64 cell, stripped of the whitespace around it: a sign
# and ASCII digits, whose value must also fit in int64
_INT_CELL = re.compile(r"[+-]?[0-9]+")
# a line of such cells with no whitespace and at most 18 digits each, all
# of which int() reads as np.loadtxt does
_PLAIN_LINE = re.compile(r"[+-]?[0-9]{1,18}(?:,[+-]?[0-9]{1,18})*")


def _cell(text, row, column) -> int:
    """One cell as np.loadtxt reads an int64, or its error, which quotes at
    most 100 characters of the cell's repr."""
    value = text.strip()
    if _INT_CELL.fullmatch(value):
        value = int(value)
        if -2**63 <= value < 2**63:
            return value
    raise ValueError(f"could not convert string {repr(text)[:100]} to int64 "
                     f"at row {row}, column {column}.")


def _parse_line(line, row) -> tuple:
    """The cells of one non-empty line, row `row` of the records."""
    if _PLAIN_LINE.fullmatch(line):
        return tuple(map(int, line.split(",")))
    return tuple(_cell(text, row, c) for c, text in enumerate(line.split(","), 1))


def _parse_records(body) -> list:
    """The records of a CSV body as int tuples, read as np.loadtxt reads
    them with delimiter=",", comments=None and dtype=int64, with its error
    messages less their advice on usecols. Lines end at each "\\n", less
    one "\\r" before it; another "\\r" is an error. Empty lines are
    skipped, a line of whitespace is a row of one cell, and every row must
    have the first one's number of cells.

    Each distinct line is parsed once; a body in which one fails, or two
    differ in width, is read again line by line for the first error."""
    text = body.replace("\r\n", "\n")
    text = text[:-1] if text.endswith("\r") else text
    if "\r" not in text:
        lines = text.split("\n")
        parsed = dict.fromkeys(lines)
        parsed.pop("", None)
        try:
            for line in parsed:
                parsed[line] = _parse_line(line, 0)
        except ValueError:
            parsed = {}
        if len({len(cells) for cells in parsed.values()}) == 1:
            return list(map(parsed.__getitem__, filter(None, lines)))
    rows, width = [], None
    for line in body.split("\n"):
        if line.endswith("\r"):
            line = line[:-1]
        if not line:
            continue
        if "\r" in line:
            raise ValueError("Found an unquoted embedded newline within a single line of "
                             "input.  This is currently not supported.")
        cells = line.count(",") + 1
        if width is None:
            width = cells
        elif cells != width:
            raise ValueError(f"the number of columns changed from {width} to {cells} "
                             f"at row {len(rows) + 1}")
        rows.append(_parse_line(line, len(rows)))
    return rows


def load_dataset(path, schema=None, infer_cards=False) -> CategoricalDataset:
    """Read a dataset CSV: a header row of names, then integer records.

    State counts come from the schema (a VariableSpec or a sidecar path);
    with infer_cards=True they are inferred as column max + 1, at least 1,
    instead.
    Blank lines are skipped; a malformed file raises ValueError. The
    records are parsed and counted without numpy.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        body = fh.read()
    if header is None:
        raise ValueError("no header row")
    names = tuple(h.strip() for h in header)
    rows = _parse_records(body) if body.strip() else []
    if rows and len(rows[0]) != len(names):
        raise ValueError(f"records have {len(rows[0])} columns, the header has {len(names)}")
    if schema is not None:
        spec = schema if isinstance(schema, VariableSpec) else load_schema(schema)
        if spec.names != names:
            raise ValueError(
                f"schema names {spec.names} do not match CSV header {names}"
            )
    elif infer_cards:
        maxes = [max(column) for column in zip(*rows)] or [0] * len(names)
        spec = VariableSpec(names, tuple(max(v, 0) + 1 for v in maxes))
    else:
        raise ValueError("need a schema, or pass infer_cards=True explicitly")
    return CategoricalDataset._from_rows(spec, rows)
