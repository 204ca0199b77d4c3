"""Greedy equivalence search over Bayesian-network equivalence classes.

Structure learning with asymptotically consistent scores (BDeu, BIC, and
an exact large-sample oracle criterion), an exact small-instance oracle
for inclusion/parameter optimality, generative gold standards with hidden
variables and selection bias, and a reproducible benchmark harness.
"""

from .graphs import (
    Cpdag,
    Dag,
    GraphError,
    VariableSpec,
    canonical_key,
    canonical_member,
    complete_cpdag,
    ci_query,
    consistent_extensions,
    d_separated,
    dag_to_cpdag,
    empty_cpdag,
    encode_edges,
    equivalent,
    included_in,
    is_covered,
    parameter_count,
    reverse_covered,
    topological_order,
)
from .scoring import (
    CategoricalDataset,
    ScoreConfig,
    bdeu_local,
    bic_local,
    load_dataset,
    make_scorer,
    save_dataset,
    tally,
)
from .datagen import (
    GoldStandard,
    ParametricBn,
    RngSeed,
    basis_mean,
    forward_sample,
    gold_four_cycle,
    gold_w,
    load_model,
    observed_sample,
    sample_parameters,
    save_model,
    shifted_mean,
)
from .oracle import (
    JointTable,
    ci_holds,
    composition_holds,
    condition_and_marginalize,
    enumerate_classes,
    enumerate_dags,
    includes,
    joint_from_bn,
    observed_margin,
    optimal_classes,
)
from .search import (
    SearchConfig,
    SearchTrace,
    run_search,
)
from .harness import (
    ExperimentPlan,
    ExperimentRow,
    classify_outcome,
    paper_plan,
    replicate_seed,
    run_experiment,
    run_replicate,
    summarize,
)

__version__ = "0.1.0"
