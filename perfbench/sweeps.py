"""The two sweep workloads: serial `harness.run_replicate` calls.

One op is one replicate. Ops run in passes over a fixed cycle of cells;
a cell that appears c times in the cycle gets replicates r = c*pass + j at
its j-th appearance, and every replicate seed is
`harness.replicate_seed(seed, m, r)`, so the workload seed picks the inputs.
"""

from __future__ import annotations

import itertools
import resource

from gesbn import graphs, harness, search
from gesbn.datagen import GOLD_STANDARDS, RngSeed, observed_sample
from gesbn.oracle import enumerate_classes, enumerate_dags, observed_margin
from gesbn.scoring import ScoreConfig, bdeu_local, tally
from gesbn.search import SearchConfig, run_search

from common import LayerCounters, Tracer, cache_misses

GOLDS = ("w_structure", "four_cycle")
BDEU = ScoreConfig()
EXACT = ScoreConfig(criterion="oracle")
PROBE_MAX_PARENTS = 2


def _clear_memo():
    for fn in (
        graphs.dag_to_cpdag, graphs.consistent_extensions, graphs.dsep_triples,
        search.forward_neighbors, search.backward_neighbors,
        enumerate_dags, enumerate_classes,
    ):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


def check_row(gold_name, row) -> list:
    """Reasons a replicate's (outcome, class) pair is wrong; empty if none."""
    outcome, encoded = row
    reasons = []
    if outcome not in harness.OUTCOMES:
        reasons.append(f"outcome {outcome!r} is not one of harness.OUTCOMES")
    spec = GOLD_STANDARDS[gold_name]().observed_spec
    try:
        back = harness.compact_class(harness.class_from_compact(encoded, spec), spec)
    except Exception as exc:  # any parse failure is a failed check
        return reasons + [f"class {encoded!r} does not parse: {exc}"]
    if back != encoded:
        reasons.append(f"class {encoded!r} round-trips to {back!r}")
    return reasons


def local_probe(data, ess, tracer: Tracer) -> int:
    """Every child with every parent set of size <= 2: tally + BDeu local."""
    n = data.spec.n
    count = 0
    with tracer.span("scoring.probe"):
        for child in range(n):
            others = [v for v in range(n) if v != child]
            for k in range(PROBE_MAX_PARENTS + 1):
                for parents in itertools.combinations(others, k):
                    bdeu_local(tally(data, child, parents), ess)
                    count += 1
    return count


class Sweep:
    """A sweep workload: a cycle of (gold, m, score) cells, one replicate each.

    `calibrated`: whether its times are scaled by the calibration kernel
    (see common.Calibrator)."""

    def __init__(self, name, cells, calibrated=True):
        self.name = name
        self.cells = cells
        self.calibrated = calibrated
        self.pass_len = len(cells)
        self._repeats = [
            (cells.count(cell), cells[:i].count(cell)) for i, cell in enumerate(cells)
        ]
        self.seed = 0
        self.counters = LayerCounters()

    def setup(self, seed):
        """Cold memo caches, then warm them over every class at n = 4."""
        self.seed = seed
        _clear_memo()
        for c in enumerate_classes(4):
            search.forward_neighbors(c)
            search.backward_neighbors(c)
        for gold in GOLDS:
            harness.run_replicate(gold, 10, 0, seed, EXACT)

    def op_at(self, k):
        i = k % self.pass_len
        gold, m, score = self.cells[i]
        count, j = self._repeats[i]
        return gold, m, count * (k // self.pass_len) + j, score

    def run(self, op):
        gold, m, r, score = op
        row = harness.run_replicate(gold, m, r, self.seed, score)
        return row.outcome, row.encoded_class

    def run_traced(self, op, tracer: Tracer):
        """run_replicate, recomposed from the public calls it makes."""
        gold_name, m, r, score = op
        before = cache_misses(graphs, search)
        with tracer.span("harness.replicate"):
            seed = harness.replicate_seed(self.seed, m, r)
            template = GOLD_STANDARDS[gold_name]()
            with tracer.span("datagen.params"):
                gold = template.with_parameters(
                    ess=harness.GENERATIVE_ESS,
                    seed=RngSeed(seed, harness.PARAM_STREAM),
                )
            with tracer.span("oracle.margin"):
                margin = observed_margin(gold)
            cfg = SearchConfig(algorithm="ges", score=score)
            data = None
            if score.criterion == "oracle":
                with tracer.span("search.search"):
                    learned, trace = run_search(cfg, joint=margin)
            else:
                with tracer.span("datagen.sample"):
                    data = observed_sample(gold, m, RngSeed(seed, harness.DATA_STREAM))
                with tracer.span("search.search"):
                    learned, trace = run_search(cfg, data=data)
            with tracer.span("harness.classify"):
                outcome = harness.classify_outcome(learned, margin)
            encoded = harness.compact_class(learned, gold.observed_spec)
        self.counters.add_misses(
            {key: val - before.get(key, 0) for key, val in cache_misses(graphs, search).items()}
        )
        self.counters.steps[tracer.op] = len(trace.steps)
        if data is not None:
            self.counters.sampled += data.m
            self.counters.locals += local_probe(data, score.ess, tracer)
        return outcome, encoded

    def check(self, op, row) -> list:
        return check_row(op[0], row)

    def quality(self, rows) -> dict:
        """Outcome tallies behind incl_opt_frac and param_opt_frac."""
        done = [row for row in rows if row is not None]
        incl = sum(1 for o, _ in done if o in ("parameter_optimal", "inclusion_optimal_only"))
        popt = sum(1 for o, _ in done if o == "parameter_optimal")
        return {"incl_opt": incl, "param_opt": popt, "replicates": len(done)}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cells(sizes, exact_m=None):
    cells = []
    for gold in GOLDS:
        cells += [(gold, m, BDEU) for m in sizes]
        if exact_m is not None:
            cells.append((gold, exact_m, EXACT))
    return tuple(cells)


DESK_LOWER = tuple(10 * 2 ** k for k in range(8))  # 10 .. 1280
LARGE = (163840, 655360)  # the desk cap and the paper cap


def sweep_large_m(sizes=LARGE):
    # the desk cap runs twice per pass, so the median op is a desk-cap
    # replicate and not the midpoint of the gap between the two sizes; the
    # paper-cap ops still take about two thirds of the time.
    # Not calibrated: sampling is memory-bound numpy, whose speed does not
    # follow the interpreter-bound kernel; scaled, the ops spread 2-3x
    # wider than their wall times.
    small, large = sizes
    sizes = (small, large, small)
    return Sweep(
        "sweep_large_m",
        tuple((g, m, BDEU) for m in sizes for g in GOLDS),
        calibrated=False,
    )


def sweep_small_m(sizes=DESK_LOWER):
    # the exact-score replicate shares the largest size's seed, so it
    # scores the same generative parameters exactly
    return Sweep("sweep_small_m", _cells(sizes, exact_m=sizes[-1]))
