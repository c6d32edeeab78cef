#!/usr/bin/env python
"""CI fuzz-smoke drill: the hostile-input pipeline, end to end.

Three stages (DESIGN.md §4g), any failure exits non-zero:

1. **Parser sweep** — every value of the seeded hostile corpus through
   all three policy parsers in lenient mode; none may raise, for every
   seed, at megabyte payload sizes.
2. **Pipeline differential** — a hostile crawl (megabyte headers,
   100-deep iframe chains, oversized scripts) through
   generate → crawl → store → verify → index → summarize for each seed;
   the serial and process backends must produce byte-identical
   datasets and the clean store must verify with zero corrupt rows.
3. **Bit-flip drill** — rows of a stored hostile crawl are corrupted in
   place; ``CrawlStore.verify`` must detect 100 % of them,
   ``load_dataset`` must survive with counted warnings, and
   ``verify(repair=True)`` must quarantine every one.  The final
   :class:`VerifyReport` is written as the ``--report`` JSON artifact CI
   uploads.

Usage::

    PYTHONPATH=src python scripts/fuzz_smoke.py --report report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.analysis.index import DatasetIndex  # noqa: E402
from repro.analysis.summary import summarize  # noqa: E402
from repro.crawler.crawler import CrawlConfig  # noqa: E402
from repro.crawler.guards import ResourceGuards  # noqa: E402
from repro.crawler.integrity import canonical_visit_bytes  # noqa: E402
from repro.crawler.pool import CrawlerPool  # noqa: E402
from repro.crawler.storage import CrawlStore  # noqa: E402
from repro.policy.allow_attr import parse_allow_attribute  # noqa: E402
from repro.policy.feature_policy import (  # noqa: E402
    parse_feature_policy_header,
)
from repro.policy.header import parse_permissions_policy_header  # noqa: E402
from repro.synthweb.generator import SyntheticWeb  # noqa: E402
from repro.synthweb.hostile import (  # noqa: E402
    HostileConfig,
    HostileFetcherSpec,
    hostile_values,
)

GUARDS = ResourceGuards(
    max_header_bytes=1 << 16, max_script_bytes=1 << 16,
    max_allow_attr_length=4096, max_frames_per_visit=64,
    watchdog_deadline_seconds=90.0, breaker_failure_threshold=3)


def parser_sweep(seeds: list[int], payload_bytes: int) -> int:
    checked = 0
    for seed in seeds:
        for value in hostile_values(seed, 64, payload_bytes=payload_bytes):
            parse_permissions_policy_header(value, mode="lenient")
            parse_feature_policy_header(value, mode="lenient")
            parse_allow_attribute(value, mode="lenient")
            checked += 1
    return checked


def pipeline_differential(seed: int, sites: int, payload_bytes: int,
                          workdir: Path) -> Path:
    web = SyntheticWeb(sites, seed=seed)
    spec = HostileFetcherSpec(HostileConfig(seed=seed,
                                            payload_bytes=payload_bytes))
    config = CrawlConfig(guards=GUARDS)
    encodings = {}
    dataset = None
    for backend in ("serial", "process"):
        pool = CrawlerPool(web, workers=2, backend=backend, config=config,
                           fetcher_spec=spec)
        dataset = pool.run(range(sites))
        encodings[backend] = [canonical_visit_bytes(visit)
                              for visit in dataset.visits]
    if encodings["serial"] != encodings["process"]:
        raise AssertionError(f"seed {seed}: backends diverged on hostile "
                             f"input")
    path = workdir / f"hostile-{seed}.sqlite"
    with CrawlStore(path) as store:
        store.save_dataset(dataset)
        report = store.verify()
        if not report.ok or report.verified_rows != sites:
            raise AssertionError(f"seed {seed}: clean store failed verify: "
                                 f"{report.render()}")
        loaded = store.load_dataset()
    DatasetIndex(loaded.visits)
    summarize(loaded)
    return path


def bit_flip_drill(path: Path) -> "tuple[dict, int]":
    with CrawlStore(path) as store:
        total = len(store.stored_ranks())
        flipped = set()
        for rank, statement in (
                (0, "UPDATE visits SET duration_seconds = "
                    "duration_seconds + 1 WHERE rank = ?"),
                (2, "UPDATE frames SET headers = '{broken' WHERE rank = ?"),
                (4, "UPDATE visits SET checksum = checksum + 7 "
                    "WHERE rank = ?")):
            store._conn.execute(statement, (rank,))
            flipped.add(rank)
        store._conn.commit()
        report = store.verify()
        detected = {bad.rank for bad in report.corrupt}
        if detected != flipped:
            raise AssertionError(f"verify detected {sorted(detected)}, "
                                 f"expected {sorted(flipped)}")
        loaded = store.load_dataset()  # must not raise
        if not store.last_corrupt_counts and len(loaded.visits) == total:
            raise AssertionError("tolerant load neither skipped nor "
                                 "counted the corrupt rows")
        repaired = store.verify(repair=True)
        if repaired.quarantined != len(flipped):
            raise AssertionError(f"repair quarantined "
                                 f"{repaired.quarantined} rows, expected "
                                 f"{len(flipped)}")
        clean = store.verify()
        if not clean.ok or clean.previously_quarantined != len(flipped):
            raise AssertionError(f"post-repair store not clean: "
                                 f"{clean.render()}")
        return clean.to_json(), len(flipped)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="hostile-corpus fuzz-smoke drill (DESIGN.md §4g)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--sites", type=int, default=12)
    parser.add_argument("--payload-bytes", type=int, default=1 << 20,
                        help="size of the oversized hostile payloads "
                             "(default: 1 MiB)")
    parser.add_argument("--report", default="quarantine-report.json",
                        help="where to write the final verify report "
                             "(the CI artifact)")
    args = parser.parse_args(argv)

    checked = parser_sweep(args.seeds, args.payload_bytes)
    print(f"parser sweep: {checked} hostile values x 3 parsers, "
          f"0 exceptions")

    with tempfile.TemporaryDirectory(prefix="fuzz-smoke-") as tmp:
        workdir = Path(tmp)
        store_path = None
        for seed in args.seeds:
            store_path = pipeline_differential(
                seed, args.sites, args.payload_bytes, workdir)
            print(f"pipeline differential: seed {seed}, {args.sites} "
                  f"sites — serial/process byte-identical, store "
                  f"verifies clean")
        report, flipped = bit_flip_drill(store_path)
        print(f"bit-flip drill: {flipped}/{flipped} corrupt rows "
              f"detected and quarantined; load_dataset survived")

    Path(args.report).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(f"wrote quarantine report to {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
