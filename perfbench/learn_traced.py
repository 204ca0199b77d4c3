"""`gesbn learn`, recomposed from public calls, with a span around each.

Run as a fresh interpreter, the way the learn_cold workload runs the CLI:

    python3 perfbench/learn_traced.py --data D --schema S --algorithm A \
        [--start complete] --out DIR

It writes the same class.txt and trace.log as `python -m gesbn.cli learn`
with the same flags, and prints one JSON line: its spans (perf_counter
readings), when the script began and ended, the memo-cache misses of the
search, and the trace length.
"""

import time

BEGIN = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

SPANS = []


class span:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        SPANS.append((self.name, self.start, time.perf_counter()))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--data", required=True)
    ap.add_argument("--schema", required=True)
    ap.add_argument("--algorithm", required=True)
    ap.add_argument("--start", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with span("cli.import"):
        import gesbn  # noqa: F401  (the import is what is timed)
        from gesbn import graphs, search
        from gesbn.graphs import complete_cpdag, empty_cpdag, encode_edges
        from gesbn.scoring import ScoreConfig, load_dataset
        from gesbn.search import SearchConfig, run_search

    with span("scoring.load"):
        data = load_dataset(args.data, schema=args.schema)
    spec = data.spec
    start = complete_cpdag(spec.n) if args.start == "complete" else empty_cpdag(spec.n)
    cfg = SearchConfig(algorithm=args.algorithm, start=start, score=ScoreConfig())
    with span("search.search"):
        learned, trace = run_search(cfg, data=data)
    with span("cli.write"):
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "class.txt"), "w") as fh:
            fh.write("# vars: " + " ".join(spec.names) + "\n")
            fh.write(encode_edges(learned, spec))
        with open(os.path.join(args.out, "trace.log"), "w") as fh:
            fh.write(trace.to_log())
    from common import cache_misses  # the script's own directory is on sys.path

    print(json.dumps({
        "spans": SPANS,
        "begin": BEGIN,
        "end": time.perf_counter(),
        "misses": cache_misses(graphs, search),
        "steps": len(trace.steps),
    }))


if __name__ == "__main__":
    main()
