"""The learn_cold workload: one fresh `python -m gesbn.cli learn` per op.

Set-up writes DRAWS CSV + schema pairs per network. A pass runs every slot
of SLOTS once, on one draw; pass p uses draw p % DRAWS. The networks
(structure and conditional tables) come from fixed seeds, so every run
searches the same models; the workload seed draws the m = 5000 records.
Across random networks, search time varies by more than 10x, which no run
of a few dozen ops could average. Across data draws of one network it
varies too: in-process GES on n = 10 took 0.6-3.5 s on network 0 and
3.1-6.4 s on network 1 over a few draws, so SLOTS uses n = 10 networks
whose search time held within ~25% (0.5-1.2 s).
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import threading

import numpy as np

from gesbn.datagen import GoldStandard, RngSeed, observed_sample
from gesbn.graphs import (
    Dag,
    GraphError,
    VariableSpec,
    complete_cpdag,
    consistent_extensions,
    cpdag_from_text,
    empty_cpdag,
)
from gesbn.scoring import ScoreConfig, save_dataset, save_schema, score
from gesbn.search import SearchConfig, run_search

from common import OUT, ROOT, LayerCounters, Tracer, child_env, fresh_dir
from sweeps import local_probe

NETWORK_SEED = 2013
RECORDS = 5000
DRAWS = 3
OP_TIMEOUT_S = 60
REL_TOL = 1e-9

# (algorithm, n, network index, start), interleaved so that no stretch of
# a pass is all fast or all slow ops
SLOTS = (
    ("ges", 10, 10, None),
    ("ges", 8, 0, None),
    ("uges", 8, 0, None),
    ("ges", 8, 1, None),
    ("bes", 5, 0, "complete"),
    ("ges", 10, 6, None),
    ("uges", 8, 1, None),
    ("ges", 8, 2, None),
    ("ges", 10, 7, None),
)


def network(n, index) -> GoldStandard:
    """A sparse binary network with n edges, fixed by (n, index)."""
    rng = np.random.default_rng([NETWORK_SEED, n, index])
    order = rng.permutation(n)
    pairs = [(int(order[i]), int(order[j])) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.choice(len(pairs), size=n, replace=False)
    spec = VariableSpec(tuple(f"V{i}" for i in range(n)), (2,) * n)
    template = GoldStandard(
        Dag(n, {pairs[k] for k in chosen}), spec, observed=tuple(range(n))
    )
    return template.with_parameters(ess=10.0, seed=RngSeed(NETWORK_SEED, 100 * n + index))


def parse_trace_scores(text) -> list:
    """The score after each move of a trace.log."""
    scores = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        scores.append(float(line.split("\t")[3]))
    return scores


def check_learn(class_text, trace_text, data, reference) -> list:
    """Reasons a learn op's outputs are wrong; empty if they are right."""
    try:
        learned = cpdag_from_text(class_text, data.spec)
    except Exception as exc:  # any parse failure is a failed check
        return [f"class.txt does not parse: {exc}"]
    try:
        scores = parse_trace_scores(trace_text)
    except (IndexError, ValueError) as exc:
        return [f"trace.log does not parse: {exc}"]
    reasons = []
    if not scores:
        reasons.append("trace.log is empty")
    elif any(b <= a for a, b in zip(scores, scores[1:])):
        reasons.append("trace.log scores do not strictly increase")
    else:
        try:
            member = consistent_extensions(learned)[0]
        except GraphError as exc:
            return reasons + [f"class.txt is not a valid class: {exc}"]
        expected = score(member, data, ScoreConfig())
        if abs(scores[-1] - expected) > REL_TOL * abs(expected):
            reasons.append(f"final score {scores[-1]!r} != member score {expected!r}")
    if learned != reference:
        reasons.append("learned class differs from an in-process run_search")
    return reasons


class LearnCold:
    name = "learn_cold"
    calibrated = True

    def __init__(self, slots=SLOTS, records=RECORDS, run_dir=OUT / "learn_cold"):
        self.slots = slots
        self.pass_len = len(slots)
        self.records = records
        self.data = {}
        self.paths = {}
        self.reference = {}
        self.counters = LayerCounters()
        self.rss_mb = []
        self.run_dir = run_dir
        self._out_dirs = itertools.count()

    def setup(self, seed):
        fresh_dir(self.run_dir)
        self.data.clear()
        self.paths.clear()
        self.reference.clear()
        for draw in range(DRAWS):
            for _, n, index, _ in self.slots:
                key = (n, index, draw)
                if key in self.data:
                    continue
                stream = 10000 * draw + 100 * n + index
                data = observed_sample(network(n, index), self.records, RngSeed(seed, stream))
                stem = self.run_dir / f"n{n}_net{index}_draw{draw}"
                save_dataset(data, f"{stem}.csv")
                save_schema(data.spec, f"{stem}.schema.json")
                self.data[key] = data
                self.paths[key] = (f"{stem}.csv", f"{stem}.schema.json")

    def op_at(self, k):
        """(op index, data key, algorithm, start)."""
        draw, slot = divmod(k, len(self.slots))
        draw %= DRAWS
        alg, n, index, start = self.slots[slot]
        return k, (n, index, draw), alg, start

    def _argv(self, op, script, out):
        _, key, alg, start = op
        csv, schema = self.paths[key]
        argv = [sys.executable, *script, "--data", csv, "--schema", schema,
                "--algorithm", alg, "--out", str(out)]
        return argv + (["--start", start] if start else [])

    def _launch(self, argv, out):
        """Run one child; its stdout and outputs, or raise if it failed.

        The child is reaped with os.wait4, which gives that one process's
        peak RSS; a timer kills it if it overruns.
        """
        out.mkdir(parents=True)
        with open(out / "stdout", "w+") as so, open(out / "stderr", "w+") as se:
            proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=so, stderr=se)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
            self.rss_mb.append(usage.ru_maxrss / 1024.0)
            so.seek(0)
            se.seek(0)
            stdout, stderr = so.read(), se.read()
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {stderr[-300:].strip()}")
        with open(out / "class.txt") as fh:
            class_text = fh.read()
        with open(out / "trace.log") as fh:
            trace_text = fh.read()
        return stdout, (class_text, trace_text)

    def _out(self):
        return self.run_dir / f"out{next(self._out_dirs)}"

    def run(self, op):
        out = self._out()
        return self._launch(self._argv(op, ["-m", "gesbn.cli", "learn"], out), out)[1]

    def run_traced(self, op, tracer: Tracer):
        out = self._out()
        script = [str(ROOT / "perfbench" / "learn_traced.py")]
        root_index = len(tracer.spans)
        with tracer.span("cli.process") as root:
            stdout, row = self._launch(self._argv(op, script, out), out)
        report = json.loads(stdout.strip().splitlines()[-1])
        # interpreter start-up before the script, and shut-down after it
        # (freeing the memo caches), are timed from this side
        edges = [("cli.startup", root.start, report["begin"]),
                 ("cli.exit", report["end"], root.end)]
        tracer.adopt(report["spans"] + edges, root_index)
        self.counters.add_misses(report["misses"])
        self.counters.steps[tracer.op] = report["steps"]
        self.counters.locals += local_probe(self.data[op[1]], ScoreConfig().ess, tracer)
        return row

    def check(self, op, row) -> list:
        _, key, alg, start = op
        if op[1:] not in self.reference:
            n = key[0]
            begin = complete_cpdag(n) if start == "complete" else empty_cpdag(n)
            cfg = SearchConfig(algorithm=alg, start=begin, score=ScoreConfig())
            self.reference[op[1:]] = run_search(cfg, data=self.data[key])[0]
        return check_learn(*row, self.data[key], self.reference[op[1:]])

    def quality(self, rows) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        """Median over ops of each CLI process's own peak RSS."""
        return statistics.median(self.rss_mb)
