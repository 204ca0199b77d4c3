"""Self-tests of the benchmark: tiny workloads, and checks that can fail.

    python3 -m pytest -q perfbench
"""

import statistics

import pytest

import run  # puts the checkout's src on sys.path
import learn_cold
import sweeps
from common import CAL_REF_S, Calibrator, Failures, Tracer, percentile


def _run_and_check(wl, seed=3, trace=False):
    run.set_up(wl, seed, repeats=1)
    tracer = Tracer() if trace else None
    ops, rows, lat, elapsed, failures = run.run_ops(wl, 0.0, tracer)
    run.check_rows(wl, ops, rows, failures)
    if trace:
        run.reproduce(wl, ops, rows, failures)
    assert len(ops) == wl.pass_len and len(lat) == len(ops) and elapsed > 0
    assert failures.reasons == {}
    return tracer, ops, rows


def tiny_learn_cold(tmp_dir):
    return learn_cold.LearnCold(
        slots=(("ges", 4, 0, None), ("uges", 4, 0, None), ("bes", 4, 1, "complete")),
        records=300,
        run_dir=tmp_dir / "learn_cold",
    )


@pytest.mark.parametrize("make", [
    lambda tmp: sweeps.sweep_small_m(sizes=(10, 20)),
    lambda tmp: sweeps.sweep_large_m(sizes=(40, 80)),
    tiny_learn_cold,
])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_completes_at_tiny_size(make, trace, tmp_path):
    wl = make(tmp_path)
    tracer, ops, rows = _run_and_check(wl, trace=trace)
    if trace:
        values, times = run.per_layer(wl, tracer, len(ops), [0.5])
        assert set(values) == set(run.PER_LAYER)
        assert values["search.search_ms"] > 0 and values["search.steps"] >= 1
        assert run.layer_report(times, len(ops))["child_coverage"] > 0.5


def test_sweep_quality_counts_outcomes():
    wl = sweeps.sweep_small_m(sizes=(10,))
    _, _, rows = _run_and_check(wl)
    q = wl.quality(rows)
    assert q["replicates"] == len(rows) == 4
    assert 0 <= q["param_opt"] <= q["incl_opt"] <= q["replicates"]


def test_sweep_check_rejects_bad_outcome_and_class():
    good = ("parameter_optimal", "X1 -> X2;X3 -> X2")
    assert sweeps.check_row("w_structure", good) == []
    assert sweeps.check_row("w_structure", ("error", good[1]))
    assert sweeps.check_row("w_structure", (good[0], "X1 -> Y9"))
    # parses, but is not the canonical encoding
    assert sweeps.check_row("w_structure", (good[0], "X3 -> X2;X1 -> X2"))


@pytest.fixture(scope="module")
def learned_op(tmp_path_factory):
    wl = tiny_learn_cold(tmp_path_factory.mktemp("learned"))
    run.set_up(wl, 5, repeats=1)
    op = wl.op_at(0)
    row = wl.run(op)
    assert wl.check(op, row) == []
    return wl, op, row


def test_learn_check_rejects_wrong_class(learned_op):
    wl, op, (class_text, trace_text) = learned_op
    lines = class_text.splitlines()
    assert len(lines) >= 2, "the tiny network should give at least one edge"
    wrong = lines[0] + "\n"  # the empty class
    reasons = wl.check(op, (wrong, trace_text))
    assert any("in-process run_search" in r for r in reasons)
    assert wl.check(op, ("V0 => V1\n", trace_text))
    # V0 -> V1 -- V2 has no consistent extension
    assert wl.check(op, ("V0 -> V1\nV1 -- V2\n", trace_text))


def test_learn_check_rejects_bad_trace(learned_op):
    wl, op, (class_text, trace_text) = learned_op
    lines = trace_text.splitlines()
    assert len(lines) >= 2
    flat = lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t" + lines[-2].split("\t")[3]]
    reasons = wl.check(op, (class_text, "\n".join(flat) + "\n"))
    assert any("strictly increase" in r for r in reasons)
    shifted = lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t0.0"]
    reasons = wl.check(op, (class_text, "\n".join(shifted) + "\n"))
    assert reasons
    assert wl.check(op, (class_text, ""))


def test_traced_mismatch_is_a_failure(learned_op):
    wl, op, (class_text, trace_text) = learned_op
    failures = Failures()
    run.reproduce(wl, [op], [(class_text + "V0 -> V3\n", trace_text)], failures)
    assert list(failures.reasons) == [0]


class Flaky:
    """A workload whose ops fail three ways: the check raises, the op
    raises, the check finds the output wrong."""

    name = "flaky"
    pass_len = 3

    def op_at(self, k):
        return k

    def run(self, op):
        if op % 3 == 1:
            raise ValueError("boom")
        return op

    def check(self, op, row):
        if op % 3 == 0:
            raise KeyError("lost")
        return ["wrong"] if op % 3 == 2 else []


def test_every_failure_is_counted_with_its_reason():
    wl = Flaky()
    ops, rows, lat, _, failures = run.run_ops(wl, 0.0)
    run.check_rows(wl, ops, rows, failures)
    assert len(ops) == 3 and len(failures) == 3
    assert failures.reasons == {
        0: ["check raised KeyError: 'lost'"], 1: ["ValueError: boom"], 2: ["wrong"],
    }
    values, _ = run.end_to_end(_Rss(), ops, lat, 1.0, failures, [0.1, 0.2, 0.3])
    assert values["success_rate"] == 0.0
    assert values["setup_s"] == 0.2


class _Rss:
    def peak_rss_mb(self):
        return 1.0


def test_op_scales_use_the_burst_after_each_op():
    cal = Calibrator()
    cal.samples = [1.0, 1.0, 1.0, 0.002, 0.002, 0.008, 0.004, 0.004, 0.004]
    cal.at = [-1, -1, -1, 2, 2, 2, 3, 3, 3]  # set-up, after op 1, after op 2
    # ops after the last burst take the last one
    assert cal.op_scales(5) == [CAL_REF_S / 0.002] * 2 + [CAL_REF_S / 0.004] * 3


def test_to_reference_scales_each_op_and_the_elapsed_time():
    ref, elapsed = run.to_reference([1.0, 3.0], 5.0, [2.0, 1.0])
    assert ref == [2.0, 3.0] and elapsed == pytest.approx(6.25)


def test_set_up_scales_by_the_kernels_around_each_repeat():
    cal = Calibrator()
    imports, samples, scales = run.set_up(
        sweeps.sweep_small_m(sizes=(10,)), 3, repeats=2, cal=cal)
    assert len(imports) == len(samples) == len(scales) == 2
    assert len(cal.samples) == 9 and set(cal.at) == {-1}
    # repeat i: the bursts before and after it, three kernels each
    assert scales == [CAL_REF_S / statistics.median(cal.samples[i:i + 6]) for i in (0, 3)]


def test_percentile_reports_samples_beyond():
    value, n, beyond = percentile(range(1, 101), 90)
    assert value == pytest.approx(90.1) and n == 100 and beyond == 10
