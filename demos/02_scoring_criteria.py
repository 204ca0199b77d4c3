"""Scoring criteria in action: BDeu and BIC on sampled data, score
equivalence across a class, and the local-consistency sign pattern."""

import numpy as np

from gesbn import (
    Dag,
    ScoreConfig,
    VariableSpec,
    consistent_extensions,
    dag_to_cpdag,
    forward_sample,
    make_scorer,
    sample_parameters,
)

spec = VariableSpec(("A", "B", "C"), (2, 3, 2))
generative = Dag(3, {(0, 1), (1, 2)})
bn = sample_parameters(generative, spec, seed=1)
data = forward_sample(bn, 20_000, seed=2)

bdeu = ScoreConfig("bdeu", ess=10.0)
bic = ScoreConfig("bic")
bdeu_on_data, bic_on_data = make_scorer(bdeu, data=data), make_scorer(bic, data=data)

print(f"{'structure':<22} {'BDeu':>14} {'BIC':>14}")
for name, g in [
    ("empty", Dag(3)),
    ("generative chain", generative),
    ("reversed chain", Dag(3, {(2, 1), (1, 0)})),
    ("collider at B", Dag(3, {(0, 1), (2, 1)})),
    ("complete", Dag(3, {(0, 1), (0, 2), (1, 2)})),
]:
    print(f"{name:<22} {bdeu_on_data.score_dag(g):>14.2f} {bic_on_data.score_dag(g):>14.2f}")

# score equivalence: every member of a class gets the same BDeu total
cls = dag_to_cpdag(generative)
vals = [bdeu_on_data.score_dag(g) for g in consistent_extensions(cls)]
print(f"\nBDeu spread across the chain class: {max(vals) - min(vals):.2e}")

# local consistency: an edge fixing a violated independence helps, a
# superfluous edge hurts
base = bdeu_on_data.score_dag(Dag(3))
dep = bdeu_on_data.score_dag(Dag(3, {(0, 1)}))
indep_bn = sample_parameters(Dag(3), spec, seed=3)
indep_data = forward_sample(indep_bn, 20_000, seed=4)
bdeu_on_indep = make_scorer(bdeu, data=indep_data)
base_i = bdeu_on_indep.score_dag(Dag(3))
extra = bdeu_on_indep.score_dag(Dag(3, {(0, 1)}))
print(f"adding a real edge:        delta = {dep - base:+.2f}")
print(f"adding a superfluous edge: delta = {extra - base_i:+.2f}")

# the BDeu - BIC gap stays bounded while both totals grow linearly
print(f"\n{'m':>7} {'BDeu-BIC':>10} {'gap/log m':>10}")
full = forward_sample(bn, 160_000, seed=5)
m = 10
while m <= 160_000:
    from gesbn import CategoricalDataset

    part = CategoricalDataset(spec, full.records[:m])
    gap = (make_scorer(bdeu, data=part).score_dag(generative)
           - make_scorer(bic, data=part).score_dag(generative))
    print(f"{m:>7} {gap:>10.3f} {gap / np.log(m):>10.3f}")
    m *= 4
