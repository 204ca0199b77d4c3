"""Greedy equivalence search over Bayesian-network equivalence classes.

Structure learning with asymptotically consistent scores (BDeu, BIC, and
an exact large-sample oracle criterion), an exact small-instance oracle
for inclusion/parameter optimality, generative gold standards with hidden
variables and selection bias, and a reproducible benchmark harness.

The names below load their module on first use, so `import gesbn` (and
each CLI command) pays only for the modules it touches.
"""

import importlib

_EXPORTS = {
    "graphs": (
        "Cpdag", "Dag", "GraphError", "VariableSpec", "canonical_key",
        "canonical_member", "complete_cpdag", "ci_query", "consistent_extensions",
        "d_separated", "dag_to_cpdag", "empty_cpdag", "encode_edges", "equivalent",
        "included_in", "is_covered", "parameter_count", "reverse_covered",
        "topological_order",
    ),
    "scoring": (
        "CategoricalDataset", "ScoreConfig", "bdeu_local", "bic_local",
        "load_dataset", "make_scorer", "save_dataset", "tally",
    ),
    "datagen": (
        "GoldStandard", "ParametricBn", "RngSeed", "basis_mean", "forward_sample",
        "gold_four_cycle", "gold_w", "load_model", "observed_sample",
        "sample_parameters", "save_model", "shifted_mean",
    ),
    "oracle": (
        "JointTable", "ci_holds", "composition_holds", "condition_and_marginalize",
        "enumerate_classes", "enumerate_dags", "includes", "is_inclusion_optimal",
        "joint_from_bn", "observed_margin", "optimal_classes",
    ),
    "search": ("SearchConfig", "SearchTrace", "run_search"),
    "harness": (
        "ExperimentPlan", "ExperimentRow", "classify_outcome", "paper_plan",
        "replicate_seed", "run_experiment", "run_replicate", "summarize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # gesbn.graphs after a bare `import gesbn`
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
