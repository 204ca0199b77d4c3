"""Greedy equivalence search step by step: the forward/backward phases,
the trace, and the optimality guarantees under the exact score."""

from gesbn import (
    ScoreConfig,
    SearchConfig,
    canonical_member,
    encode_edges,
    gold_w,
    observed_margin,
    observed_sample,
    optimal_classes,
    parameter_count,
    run_search,
)

gold = gold_w().with_parameters(ess=10.0, seed=0)
margin = observed_margin(gold)
spec = margin.spec
exact = ScoreConfig(criterion="oracle", oracle_pseudo_m=1e6)

print("GES with the exact large-sample score on the w-structure margin:")
learned, trace = run_search(SearchConfig("ges", score=exact), joint=margin)
for step in trace.steps:
    print(f"  {step.phase:<9} {step.move:<14} score={step.score:.2f}")
d = parameter_count(canonical_member(learned), spec)
optimal = optimal_classes(margin)[0]
print(f"landed on a {d}-parameter class; inclusion-optimal? {learned in optimal}")

print("\nBES walking down from the complete class:")
out, trace = run_search(SearchConfig("bes", "complete", exact), joint=margin)
print(f"  {len(trace.steps) - 1} deletions, final class "
      + "; ".join(encode_edges(out, spec).splitlines()))
print("  inclusion-optimal?", out in optimal)

print("\nUGES from both extremes:")
for start in ("empty", "complete"):
    out, _ = run_search(SearchConfig("uges", start, exact), joint=margin)
    print(f"  start={start:<9} -> inclusion-optimal? {out in optimal}")

print("\nGES on finite data (BDeu, ess=10):")
for m in (100, 1000, 10_000, 100_000):
    data = observed_sample(gold, m, seed=42)
    out, _ = run_search(SearchConfig(), data=data)
    verdict = "inclusion-optimal" if out in optimal else "not optimal"
    enc = "; ".join(encode_edges(out, spec).splitlines()) or "(empty)"
    print(f"  m={m:>6}: {verdict:<19} {enc}")
