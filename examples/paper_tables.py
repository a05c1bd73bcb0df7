#!/usr/bin/env python3
"""Regenerate the paper's evaluation tables (Section VII).

Runs the nine benchmark queries over synthetic XMark/DBLP documents and
prints the dataset table and the query table in the paper's layout.
Scale with --scale (default 0.02; the paper's documents are roughly
scale 100–200 in these units — allow several hours of pure-Python time
if you go there).

    python examples/paper_tables.py --scale 0.05
"""

import argparse

from repro.bench.harness import (PAPER_QUERIES, Workloads, format_report,
                                 run_all)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=0.02,
                    help="dataset scale factor (default 0.02)")
    ap.add_argument("--queries", nargs="*", default=None,
                    choices=sorted(PAPER_QUERIES), metavar="Q",
                    help="subset of Q1..Q9 to run")
    args = ap.parse_args()

    print("generating workloads at scale {} ...".format(args.scale))
    workloads = Workloads(xmark_scale=args.scale, dblp_scale=args.scale)
    datasets = workloads.dataset_stats()
    print("running queries ...")
    rows = run_all(workloads, queries=args.queries)
    print()
    print(format_report(datasets, rows))
    print()
    for row in rows:
        spex = ("(SPEX result {})".format(
            "matches" if row.spex_matches else "DIFFERS")
            if row.spex_matches is not None else "")
        print("{}: {!r} {}".format(row.query, row.result_preview, spex))


if __name__ == "__main__":
    main()
