"""Command-line surface: generate, learn, score, oracle, experiment."""

from __future__ import annotations

import argparse
import math
import os
import sys

from .datagen import GOLD_STANDARDS, RngSeed, load_model, observed_sample, save_model
from .graphs import (
    canonical_member,
    ci_query,
    cpdag_from_text,
    encode_edges,
    parameter_count,
)
from .harness import (
    DATA_STREAM,
    DESK_SIZES,
    GENERATIVE_ESS,
    PARAM_STREAM,
    ExperimentPlan,
    paper_plan,
    run_experiment,
    write_results,
)
from .oracle import ci_holds, composition_holds, observed_margin, optimal_classes
from .scoring import (
    CRITERIA,
    ScoreConfig,
    load_dataset,
    load_schema,
    make_scorer,
    save_dataset,
    save_schema,
)
from .search import ALGORITHMS, SearchConfig, run_search

GOLD_FLAGS = {"w": "w_structure", "cycle4": "four_cycle"}


def _score_config(args) -> ScoreConfig:
    return ScoreConfig(criterion=args.score, ess=args.ess)


def _add_score_flags(p, criteria=CRITERIA):
    p.add_argument("--score", choices=criteria, default="bdeu")
    p.add_argument("--ess", type=_positive, default=10.0,
                   help="equivalent sample size for bdeu (default 10)")


def _int_at_least(low, stop=None):
    """argparse type: an integer no smaller than low and, given stop, below it."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if stop is not None and value >= stop:
            raise argparse.ArgumentTypeError(f"must be below {stop}, got {value}")
        return value
    return integer


_seed = _int_at_least(0, 2**64)  # a 64-bit seed, as RngSeed and replicate_seed take


def _positive(text):
    """argparse type: a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _sizes(text):
    """argparse type for --sizes, checked as ExperimentPlan checks its sizes."""
    try:
        return ExperimentPlan(sizes=[int(s) for s in text.split(",")]).sizes
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _make_dir(path):
    os.makedirs(path, exist_ok=True)


def cmd_generate(args) -> int:
    _checked(args, args.out, _make_dir)
    gold = GOLD_STANDARDS[GOLD_FLAGS[args.gold]]().with_parameters(
        ess=args.ess, seed=RngSeed(args.seed, PARAM_STREAM)
    )
    data = observed_sample(gold, args.m, RngSeed(args.seed, DATA_STREAM))
    save_model(gold, os.path.join(args.out, "model.json"))
    save_dataset(data, os.path.join(args.out, "data.csv"))
    save_schema(data.spec, os.path.join(args.out, "data.schema.json"))
    print(f"wrote model.json, data.csv, data.schema.json to {args.out}")
    return 0


def _load_learn_inputs(args):
    """Dataset or exact margin, plus the observable spec, per the flags."""
    if args.score == "oracle":
        if not args.joint:
            _fail(args, "--score oracle requires --joint <model file>")
        margin = _checked(args, args.joint, _load_margin)
        return None, margin, margin.spec
    if args.joint:
        _fail(args, "--joint is scored only with --score oracle")
    if not args.data:
        _fail(args, "--data is required unless --score oracle is used")
    data = _load_data_flag(args)
    return data, None, data.spec


def _load_data_flag(args):
    """The --data dataset, checked for the --score criterion."""
    if args.schema is None and not args.infer_schema:
        _fail(args, "--schema or --infer-schema is required with --data")
    schema = args.schema and _checked(args, args.schema, load_schema)
    data = _checked(args, args.data, load_dataset, schema, args.infer_schema)
    if args.score == "bic" and data.m == 0:
        _fail(args, f"{args.data}: bic needs at least one record")
    return data


def _load_class(path, spec):
    """A class file, checked to encode a completed class."""
    with open(path) as fh:
        c = cpdag_from_text(fh.read(), spec)
    canonical_member(c)  # raises unless c is a completed class; memoized
    return c


def _load_margin(path):
    gold = load_model(path)
    if gold.bn is None:
        raise ValueError('the model has no "cpts" field')
    return observed_margin(gold)


def _checked(args, path, action, *extra):
    """action(path, *extra); a path that cannot be read, parsed or written
    exits 2 with one line that names it."""
    try:
        return action(path, *extra)
    except OSError as exc:
        _fail(args, f"{exc.filename or path}: {exc.strerror or exc}")
    except (ValueError, KeyError) as exc:  # str(KeyError) would quote the message
        _fail(args, f"{path}: {exc.args[0] if isinstance(exc, KeyError) else exc}")


def _fail(args, message):
    """Exit 2 with a one-line error, as argparse does for a bad flag."""
    print(f"gesbn {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _resolve_start_flag(args, spec):
    """--start as a SearchConfig start: anything but a class file passes through."""
    if args.start in (None, "empty", "complete"):
        return args.start
    return _checked(args, args.start, _load_class, spec)


def cmd_learn(args) -> int:
    data, joint, spec = _load_learn_inputs(args)
    cfg = SearchConfig(
        algorithm=args.algorithm,
        start=_resolve_start_flag(args, spec),
        score=_score_config(args),
    )
    _checked(args, args.out, _make_dir)
    learned, trace = run_search(cfg, data=data, joint=joint)
    class_path = os.path.join(args.out, "class.txt")
    with open(class_path, "w") as fh:
        fh.write("# vars: " + " ".join(spec.names) + "\n")
        fh.write(encode_edges(learned, spec))
    with open(os.path.join(args.out, "trace.log"), "w") as fh:
        fh.write(trace.to_log())
    print(f"learned class written to {class_path}")
    return 0


def cmd_score(args) -> int:
    data = _load_data_flag(args)
    c = _checked(args, args.graph, _load_class, data.spec)
    total = make_scorer(_score_config(args), data=data).score_class(c)
    print(f"{args.score} score: {total!r}")
    return 0


def _parse_ci_flag(args, text, spec):
    """A --ci 'X,Y|Z1,Z2' query as graphs.ci_query's (x, y, z); a malformed
    one exits 2."""
    lhs, _, zpart = text.partition("|")
    try:
        names = [s.strip() for s in lhs.split(",")]
        if len(names) != 2:
            raise ValueError("expected 'X,Y' or 'X,Y|Z1,Z2'")
        x, y = (spec.index(s) for s in names)
        z = [spec.index(s.strip()) for s in zpart.split(",") if s.strip()]
        return ci_query(spec.n, x, y, z)
    except (ValueError, KeyError) as exc:
        _fail(args, f"--ci {text!r}: {exc.args[0]}")


def cmd_oracle(args) -> int:
    margin = _checked(args, args.model, _load_margin)
    spec = margin.spec
    queries = [(ci, _parse_ci_flag(args, ci, spec)) for ci in args.ci or ()]
    try:
        optimal, popt = optimal_classes(margin)
    except ValueError as exc:  # more observables than the sweep allows
        _fail(args, str(exc))
    print(f"inclusion-optimal classes: {len(optimal)}")
    for c in optimal:
        rep = canonical_member(c)
        d = parameter_count(rep, spec)
        tag = " (parameter optimal)" if c in popt else ""
        enc = "; ".join(encode_edges(c, spec).splitlines()) or "(empty)"
        print(f"  [{d} parameters]{tag} {enc}")
    comp = composition_holds(margin)
    print(f"composition property: {'holds' if comp.holds else 'FAILS'}")
    if not comp.holds:
        x, y, z = ("{" + ",".join(spec.names[v] for v in sorted(vs)) + "}"
                   for vs in comp.counterexample)
        print(f"  counterexample: {x} dep {y} | {z}")
    for ci, query in queries:
        verdict = "independent" if ci_holds(margin, *query) else "dependent"
        print(f"ci {ci}: {verdict}")
    return 0


def cmd_experiment(args) -> int:
    gold = GOLD_FLAGS[args.gold]
    score_cfg = _score_config(args)
    if args.paper_scale:
        if args.replicates is not None:
            args.usage_error("argument --replicates: not allowed with argument --paper-scale")
        plan = paper_plan(gold, args.seed, score=score_cfg, algorithm=args.algorithm)
    else:
        plan = ExperimentPlan(
            gold, args.sizes or DESK_SIZES, args.replicates or ExperimentPlan.replicates,
            args.seed, score_cfg, args.algorithm,
        )
    # a results path that cannot be written fails before the sweep runs
    if os.path.isdir(args.out):
        _fail(args, f"{args.out}: Is a directory")
    if not os.path.isdir(os.path.dirname(args.out) or os.curdir):
        _fail(args, f"{args.out}: No such file or directory")
    if args.save_models is not None:
        _checked(args, args.save_models, _make_dir)
    rows = run_experiment(plan, workers=args.workers, models_dir=args.save_models)
    _checked(args, args.out, write_results, rows, args.timings)
    errors = sum(1 for r in rows if r.outcome == "error")
    print(f"wrote {len(rows)} rows to {args.out}" + (f" ({errors} errors)" if errors else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gesbn",
        description="Greedy equivalence search toolkit with an exact small-instance oracle",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a gold-standard model and dataset")
    p.add_argument("--gold", choices=tuple(GOLD_FLAGS), required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True,
                   help="number of observed records")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--ess", type=_positive, default=GENERATIVE_ESS,
                   help="concentration of the generative parameter prior")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("learn", help="run an equivalence-class search on a dataset")
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--schema", help="schema sidecar JSON")
    p.add_argument("--infer-schema", action="store_true",
                   help="infer cardinalities as column max + 1")
    p.add_argument("--joint", help="model JSON; with --score oracle the exact margin is used")
    _add_score_flags(p)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="ges")
    p.add_argument("--start", default=None,
                   help="empty, complete, or a class file "
                        "(default: complete for bes, empty otherwise)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("score", help="score a class file against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema")
    p.add_argument("--infer-schema", action="store_true")
    p.add_argument("--graph", required=True, help="class encoding text file")
    _add_score_flags(p, tuple(c for c in CRITERIA if c != "oracle"))  # data only
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("oracle", help="exact optimal classes and CI queries for a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--ci", action="append",
                   help="CI query 'X,Y|Z1,Z2' (repeatable)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="replicated sweep over sample sizes")
    p.add_argument("--gold", choices=tuple(GOLD_FLAGS), required=True)
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--sizes", type=_sizes,
                       help="comma-separated sample sizes (default 10..163840)")
    scale.add_argument("--paper-scale", action="store_true",
                       help="published protocol: sizes up to 655360, 100 replicates")
    p.add_argument("--replicates", type=_int_at_least(1),
                   help="replicates per size (default 50; not with --paper-scale)")
    p.add_argument("--seed", type=_seed, default=0)
    _add_score_flags(p)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="ges")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--timings", action="store_true",
                   help="record wall time per row (breaks byte-reproducibility)")
    p.add_argument("--save-models", metavar="DIR",
                   help="store each replicate's generative model JSON")
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_experiment, usage_error=p.error)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
