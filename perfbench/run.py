"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload crawl-pipeline --seed 1 \\
        --seconds 15 --trace 0 [--out results.jsonl]

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is a separate run that times each layer's public calls and
reports the per-layer metrics.  The full result document (envelope,
checks, phase details, ledgers) is printed on the line before the last
and appended to ``--out`` when given; the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys

import common

#: workload name -> module implementing ``measure`` and ``traced``
WORKLOADS = {
    "crawl-pipeline": "crawl_pipeline",
    "stored-reanalysis": "stored_reanalysis",
    "policy-service": "policy_service",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full result document to this file")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    common.require_source()
    module = importlib.import_module(WORKLOADS[args.workload])
    work = common.fresh_dir(
        common.WORK_ROOT / f"{args.workload}-{os.getpid()}")
    try:
        body = (module.traced if args.trace else module.measure)(
            args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = body.pop("checks")
    metrics = body.pop("metrics")
    if not args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
    return {
        "envelope": common.envelope(args.workload, args.seed,
                                    bool(args.trace),
                                    seconds=args.seconds),
        **body,
        "check_failures": checks.failures,
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so the servers and program processes
    # a workload started are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    document = run(args)
    line = json.dumps(document, sort_keys=True)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    print(line)
    print(json.dumps({key: document[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
