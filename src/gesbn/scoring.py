"""Decomposable scoring criteria over categorical data.

BDeu and BIC local scores computed from contingency counts, plus a
deterministic "oracle" criterion that scores a structure directly against
an exact joint distribution (the large-sample limit of the penalized
likelihood). All criteria decompose per node, so totals are sums of
memoized local terms, and the criteria are score equivalent, so a class is
scored through one member DAG. Each local score sums its terms, and each
row total, by math.fsum, which is correctly rounded: a score depends
neither on the order of its terms nor on the zero terms of zero cells.

Parent-configuration indexing is mixed-radix over the parent list sorted
ascending, lowest index most significant. Every consumer of conditional
tables in this package (tallies, CPT rows, exact conditionals) uses this
one convention, and config_indices is its one implementation.

numpy is imported only where arrays are built or read: a dataset CSV is
parsed, counted and scored by BDeu or BIC in plain Python, so `gesbn learn`
and `gesbn score` on it load no numpy.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import re
from collections import Counter
from functools import cached_property
from itertools import chain, compress, repeat

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
        code = _record_codes(values, cards)
        if code is None:  # a code could overflow int64
            configs, counts = np.unique(values, axis=0, return_counts=True)
            return configs.astype(np.int64), counts
        size = math.prod(cards)
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


def _record_codes(values, cards):
    """Each record's mixed-radix code over every variable (config_indices),
    in the smallest dtype that holds every code and every cardinality, for
    compact records `values` of variables with these cards; None when a
    code could overflow int64."""
    import numpy as np

    size = math.prod(cards)
    if size >= 2**63:
        return None
    code = np.empty(len(values), dtype=np.min_scalar_type(size))
    return config_indices(values.T, range(len(cards)), cards, code)


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


def _index(v) -> int:
    """v as a variable index, an int; a bool or a float raises ValueError
    naming it."""
    if type(v) is not int:  # a numpy integer, say
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"variable {v!r} is not an integer")
        v = int(v)
    return v


def _variable(v, n) -> int:
    """v as an index of n variables; a bool, a float, or an index out of
    range raises ValueError naming it."""
    v = _index(v)
    if not 0 <= v < n:
        raise ValueError(f"variable {v} out of range")
    return v


class CountTableTooLarge(ValueError):
    """A family's dense count table would pass MAX_TABLE_CELLS cells."""


def _family(spec: VariableSpec, child, parents) -> tuple:
    """(child, sorted parents, q, r) of a family of spec's variables, with
    the checks tally documents."""
    cards = spec.cards
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
        names = ", ".join(spec.names[p] for p in parents) or "no parents"
        raise CountTableTooLarge(f"the counts of {spec.names[child]} given {names} need a "
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

    child, parents, q, r = _family(data.spec, child, parents)
    configs, weights = data.count_table
    # the family's code, with the child as the lowest digit: j * r + state
    code = np.empty(len(weights), dtype=np.int64)
    config_indices(configs.T, (*parents, child), data.spec.cards, code)
    # float64 weights sum exactly while every count stays below 2**53
    counts = np.bincount(code, weights=weights, minlength=q * r)
    return counts.astype(np.int64).reshape(q, r)


def _family_counts(data: CategoricalDataset, child, parents) -> tuple:
    """tally's counts as the dataset scorers take them: (cells, q, r), the
    q x r counts as one row-major list, counted by a Python loop over the
    dataset's Python count table, or, when it has none, read off tally's
    array."""
    table = data._python_table
    if table is None:
        counts = tally(data, child, parents)
        return counts.ravel().tolist(), *counts.shape
    child, parents, q, r = _family(data.spec, child, parents)
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


def _flat(counts) -> tuple:
    """(cells, q, r) of a (q, r) count table, an array or q lists of r
    numbers, its counts as one row-major list. Rows of unequal length, a
    count that is negative or not finite, or an empty table raise
    ValueError."""
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
    return cells, q, r


def _row_totals(cells, r):
    """The math.fsum of each row of r cells of a row-major list."""
    return map(math.fsum, zip(*[iter(cells)] * r))


def bdeu_local(counts, ess=10.0) -> float:
    """Log marginal likelihood of one node's (q, r) counts, an array or q
    lists of r numbers, under the uniform-BDeu prior, by the one kernel the
    BDeu scorer calls. Counts may be fractional; rows of unequal length, a
    count that is negative or not finite, or an empty table raise
    ValueError."""
    if not 0 < ess < math.inf:
        raise ValueError("ess must be positive and finite")
    return _bdeu(*_flat(counts), ess)


def _bdeu(cells, q, r, ess) -> float:
    """bdeu_local of a nonempty q x r table given as one row-major list of
    finite nonnegative counts, unchecked.

    Log-gammas are taken by math.lgamma, each row's total by math.fsum,
    and the row and cell terms are summed by one math.fsum. fsum is
    correctly rounded, so the score depends neither on the order of the
    terms nor on the zero terms of zero cells and zero rows, which are
    skipped.
    """
    lgamma, add, sub = math.lgamma, operator.add, operator.sub
    a_row, a_cell = ess / q, ess / (q * r)
    # lgamma(a_row) - lgamma(a_row + total) for each nonzero row, and
    # lgamma(a_cell + count) - lgamma(a_cell) for each nonzero cell, by
    # C-level maps
    totals = filter(None, _row_totals(cells, r))
    row_terms = map(sub, repeat(lgamma(a_row)), map(lgamma, map(add, repeat(a_row), totals)))
    lg_cell = map(lgamma, map(add, repeat(a_cell), filter(None, cells)))
    return math.fsum(chain(row_terms, map(sub, lg_cell, repeat(lgamma(a_cell)))))


def _bic(cells, q, r, weight, size) -> float:
    """weight * sum_jk t_jk log(t_jk / t_j) - (q * (r-1) / 2) * log size of
    a nonempty q x r table given as one row-major list of finite
    nonnegative numbers, unchecked: BIC at weight 1 and size m, and the
    oracle criterion at weight = size = pseudo-m.

    Each row's total t_j is taken by math.fsum, and the terms
    t_jk (log t_jk - log t_j) of the nonzero cells are summed by one
    math.fsum, so the sum does not depend on the order of the terms. (The
    ratio t_jk / t_j would underflow to 0 for a subnormal cell in a row
    whose total passes 1.)
    """
    log = math.log
    totals = chain.from_iterable(map(repeat, _row_totals(cells, r), repeat(r)))
    present = list(filter(None, cells))
    logs = map(operator.sub, map(log, present), map(log, compress(totals, cells)))
    ll = math.fsum(map(operator.mul, present, logs))
    return weight * ll - 0.5 * q * (r - 1) * log(size)


def bic_local(counts, m) -> float:
    """Maximized log likelihood of one node's (q, r) counts, an array or q
    lists of r numbers, minus (q * (r-1) / 2) * log m. m < 1, rows of
    unequal length, a count that is negative or not finite, or an empty
    table raise ValueError."""
    if m < 1:
        raise ValueError("bic requires at least one record")
    return _bic(*_flat(counts), 1, m)


def oracle_local(joint, child, parents, pseudo_m) -> float:
    """Local term of the oracle criterion for one node of a structure.

    pseudo_m * sum_jk p(pa_j, x_k) log p(x_k | pa_j) minus half the local
    dimension times log pseudo_m. Conditionals are read off the exact
    joint; zero-probability parent rows carry zero weight. The family is
    checked as tally checks one.
    """
    child, parents, q, r = _family(joint.spec, child, parents)
    probs = joint.probs
    keep = sorted([*parents, child])
    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    axes = [keep.index(p) for p in parents] + [keep.index(child)]
    return _bic(marg.transpose(axes).ravel().tolist(), q, r, pseudo_m, pseudo_m)


class DecomposableScorer:
    """DAG and class scores from one local-score function.

    Each local score is computed once and kept in locals, keyed by
    (child, sorted parents) as ints; each class score is kept too. A
    variable given as a bool or a float raises ValueError naming it, memo
    hit or not, though it compares and hashes as the int it equals.
    """

    def __init__(self, local_fn):
        self._local_fn = local_fn
        self.locals = {}
        self._classes = {}

    def local(self, child, parents) -> float:
        # a hit, for an int child and parents given as the sorted int tuple of the key
        if (type(child) is int and type(parents) is tuple
                and operator.countOf(map(type, parents), int) == len(parents)):
            value = self.locals.get((child, parents))
            if value is not None:
                return value
        key = (_index(child), tuple(sorted(map(_index, parents))))
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
        local = lambda child, parents: _bdeu(*_family_counts(data, child, parents), cfg.ess)
    elif cfg.criterion == "bic":
        if data.m < 1:
            raise ValueError("bic requires at least one record")
        local = lambda child, parents: _bic(*_family_counts(data, child, parents), 1, data.m)
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
    with open(path, "w", encoding="utf-8") as fh:
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
    with open(path, encoding="utf-8") as fh:
        return read_variables(json.load(fh))


def save_dataset(data: CategoricalDataset, path):
    """Write data as a UTF-8 dataset CSV: the names as a header row written
    by the csv module, then one line per record of its states as decimal
    integers joined by commas; every line ends in "\\r\\n". These are the
    bytes csv.writer writes for the rows.

    Each distinct record's line is formatted once, keyed by the record's
    mixed-radix code, and the body is one join over the records' keys.
    Where a code could overflow int64, a record's key is instead its index
    among the distinct records, which np.unique sorts m records to find.

    Raises ValueError, writing nothing, where load_dataset could not read
    the data back: for no variables, whose records would be blank lines,
    and for a name with whitespace around it, which it would strip."""
    import numpy as np

    if not data.spec.n:
        raise ValueError("a dataset with no variables cannot be written as CSV")
    for name in data.spec.names:
        if name != name.strip():
            raise ValueError(f"variable name {name!r} has whitespace around it")
    values = data._values
    codes = _record_codes(values, data.spec.cards)
    if codes is None:
        codes = np.unique(values, axis=0, return_inverse=True)[1]
    keys, first = np.unique(codes, return_index=True)
    rows = values[first].tolist()  # Python ints
    line = dict(zip(keys.tolist(), [",".join(map(str, row)) + "\r\n" for row in rows]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(data.spec.names)
        fh.write("".join(map(line.__getitem__, codes.tolist())))


# a cell: an optional sign and 1-18 ASCII digits, so that every value fits
# in int64, with spaces or tabs around them
_CELL = r"[ \t]*[+-]?[0-9]{1,18}[ \t]*"
_RECORD = re.compile(rf"{_CELL}(?:,{_CELL})*")


def _parse_records(lines, width, first) -> list:
    """The records of a CSV body's lines as int tuples of width values,
    lines[0] being line `first` of the file. A "\\r" at the end of a line
    is dropped, and a line of nothing but spaces and tabs is skipped; the
    first line that is neither blank nor a record raises ValueError naming
    its line, and the column of its first bad cell.

    Each distinct line is parsed once, in the order it first occurs, so
    the first to fail is the first bad line of the file."""
    parsed = dict.fromkeys(lines)
    for line in parsed:
        text = line.removesuffix("\r")
        cells = text.split(",")
        if len(cells) == width and _RECORD.fullmatch(text):
            parsed[line] = tuple(map(int, cells))
        elif not text.strip(" \t"):
            parsed[line] = ()  # blank; no record has zero values
        else:
            where = f"line {first + lines.index(line)}"
            if len(cells) != width:
                raise ValueError(f"{where}: {len(cells)} values, the header has {width} names")
            column = next(c for c, cell in enumerate(cells) if not re.fullmatch(_CELL, cell))
            raise ValueError(f"{where}, column {column + 1}: {cells[column]!r:.100} is not an "
                             f"integer of at most 18 digits")
    return list(filter(None, map(parsed.__getitem__, lines)))


def load_dataset(path, schema=None, infer_cards=False) -> CategoricalDataset:
    """Read a dataset CSV: a header row of names, then integer records.

    The file is UTF-8, less a byte-order mark, and its header is read by
    the csv module, each name stripped. Every later line is blank or holds
    one cell per name: an ASCII integer of at most 18 digits, with an
    optional sign and spaces or tabs around it (see _parse_records). The
    first bad line raises ValueError naming its line, the header being
    line 1: "line 3, column 4: 'x' is not an integer of at most 18 digits"
    or "line 3: 3 values, the header has 4 names".

    State counts come from the schema (a VariableSpec or a sidecar path);
    with infer_cards=True they are inferred as column max + 1, at least 1,
    instead. The records are parsed and counted without numpy.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        lines = fh.read().split("\n")
    if header is None:
        raise ValueError("no header row")
    names = tuple(h.strip() for h in header)
    rows = _parse_records(lines, len(names), reader.line_num + 1)
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
