"""Bulk-decision throughput benchmark — batch pipeline vs. per-item calls.

The batch pipeline's reason to exist is amortization: a corpus-scale run
should pay schema parsing and engine pre-warming **once**, not once per
item.  This benchmark measures exactly that on a seeded generated corpus
(:func:`repro.workloads.batch_corpus`):

* **per-item** — every item is decided through its own single-item
  :class:`~repro.batch.BatchPlan`, recompiling the schema each time:
  the cost profile of invoking ``repro satisfiable`` once per input;
* **batch-sequential** — one plan, one compile, a plain loop on the
  calling thread: pure amortization, and the loop ``POST /batch`` runs;
* **batch-process** — the process-pool executor, the compiled schema
  shipped once per worker.

Acceptance shape: the sequential batch must be at least 2x the per-item
baseline on a >=1k-item corpus.  Emits a trajectory point to
``BENCH_batch.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch.py [--smoke]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.batch import BatchPlan, run_batch
from repro.workloads import batch_corpus

#: The batch executor the 2x acceptance bar is asserted against.
ACCEPTANCE_MODE = "batch-sequential"
ACCEPTANCE_SPEEDUP = 2.0

#: The throughput corpus is clean: generation reject-and-resamples until
#: every item parses, so any nonzero error count means an executor is
#: failing good items and the benchmark aborts.  (Per-item error
#: isolation on deliberately dirty corpora is CI's batch-smoke job,
#: which passes ``corrupt_rate`` explicitly.)
CORRUPT_RATE = 0.0


def bench_per_item(operation: str, schema_text: str, items: list) -> dict:
    """The baseline: one single-item plan (and one compile) per item."""
    started = time.perf_counter()
    errors = 0
    for item in items:
        plan = BatchPlan(operation=operation, items=(item,), schema_text=schema_text)
        outcome = run_batch(plan, executor="sequential")
        errors += outcome.summary["errors"]
    elapsed = time.perf_counter() - started
    return _point(len(items), errors, elapsed)


def bench_batch(operation: str, schema_text: str, items: list, executor: str) -> dict:
    """One plan over the whole corpus under the named executor."""
    plan = BatchPlan(operation=operation, items=tuple(items), schema_text=schema_text)
    started = time.perf_counter()
    outcome = run_batch(plan, executor=executor)
    elapsed = time.perf_counter() - started
    return _point(outcome.summary["items"], outcome.summary["errors"], elapsed)


def _point(items: int, errors: int, elapsed: float) -> dict:
    return {
        "items": items,
        "errors": errors,
        "elapsed_s": round(elapsed, 4),
        "items_per_s": round(items / elapsed, 2) if elapsed > 0 else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--items", type=int, default=1200, help="corpus size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--operation", default="satisfiable", help="corpus operation to run"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus, no 2x acceptance bar (the amortization floor "
        "batch-sequential >= per-item still applies)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_batch.json"),
    )
    args = parser.parse_args()

    n_items = 60 if args.smoke else args.items
    schema_text, items = batch_corpus(
        operation=args.operation,
        n_items=n_items,
        seed=args.seed,
        n_sections=16,
        corrupt_rate=CORRUPT_RATE,
    )
    # The corpus is 100% valid by construction (reject-and-resample in
    # batch_corpus), so every mode must report exactly zero errors.
    corpus_errors = int(n_items * CORRUPT_RATE)
    assert corpus_errors == 0, "throughput corpus must be clean"

    modes = {}
    modes["per-item"] = bench_per_item(args.operation, schema_text, items)
    print(f"per-item        {modes['per-item']['items_per_s']:>10} items/s")
    for executor in ("sequential", "process"):
        point = bench_batch(args.operation, schema_text, items, executor)
        modes[f"batch-{executor}"] = point
        print(f"batch-{executor:<10}{point['items_per_s']:>10} items/s")

    drifted = {
        name: point["errors"]
        for name, point in modes.items()
        if point["errors"] != corpus_errors
    }
    if drifted:
        print(
            f"FAIL: the corpus is clean but these modes reported errors "
            f"(expected {corpus_errors}): {drifted}",
            file=sys.stderr,
        )
        return 1

    baseline = modes["per-item"]["elapsed_s"]
    speedups = {
        name: round(baseline / point["elapsed_s"], 2)
        for name, point in modes.items()
        if name != "per-item" and point["elapsed_s"] > 0
    }
    accepted = speedups.get(ACCEPTANCE_MODE, 0.0) >= ACCEPTANCE_SPEEDUP
    record = {
        "benchmark": "batch",
        "operation": args.operation,
        "corpus_items": n_items,
        "corpus_errors": corpus_errors,
        "seed": args.seed,
        "smoke": args.smoke,
        "modes": modes,
        "speedup_vs_per_item": speedups,
        "acceptance": {
            "mode": ACCEPTANCE_MODE,
            "required_speedup": ACCEPTANCE_SPEEDUP,
            "passed": accepted,
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"speedups vs per-item: {speedups}")
    print(f"wrote {args.out}")
    if args.smoke:
        # The CI gate: even at smoke scale, one compile amortized over
        # the corpus must not lose to recompiling per item.
        floor = speedups.get("batch-sequential", 0.0)
        if floor < 1.0:
            print(
                f"FAIL: batch-sequential speedup {floor} < 1.0x per-item "
                f"(amortization regressed below the sequential baseline)",
                file=sys.stderr,
            )
            return 1
        return 0
    if not accepted:
        print(
            f"FAIL: {ACCEPTANCE_MODE} speedup "
            f"{speedups.get(ACCEPTANCE_MODE)} < {ACCEPTANCE_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
