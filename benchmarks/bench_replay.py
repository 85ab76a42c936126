"""Replay benchmark: multi-domain traffic against the daemon.

Boots the daemon in-process, drives the ``default`` mix over the
ten-domain corpus with the replay harness, then runs the cache-pressure
scenario against a small-LRU daemon with an artifact store so eviction +
store reload happen under load.

Acceptance shape (asserted here, not just reported):

* the steady run finishes with **zero** 5xx/transport errors
  and an overall throughput above a floor (20 rps — an order of
  magnitude below what a laptop does; this guards pathology, not speed);
* the cache-pressure run shows **nonzero** registry evictions and
  nonzero store-backed reloads with zero 5xx.

Emits a trajectory point to ``BENCH_replay.json``::

    PYTHONPATH=src python benchmarks/bench_replay.py [--smoke]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.engine.store import ArtifactStore
from repro.replay import ReplayConfig, SLOSpec, run_replay
from repro.service import SchemaRegistry, TypedQueryService

#: Generous gate: the benchmark asserts correctness of the loop, not a
#: latency budget — CI machines are too noisy to pin milliseconds.
BENCH_SLO = SLOSpec(error_rate=0.0, min_rps=20.0)

PRESSURE_LRU_BOUND = 6


def _steady(service, duration_s: float, seed: int) -> dict:
    config = ReplayConfig(
        host=service.host,
        port=service.port,
        seed=seed,
        duration_s=duration_s,
        mix="default",
        concurrency=4,
        slo=BENCH_SLO,
        output=None,
    )
    exit_code, report = run_replay(config)
    return {
        "exit_code": exit_code,
        "requests": report["totals"]["requests"],
        "rps": report["totals"]["rps"],
        "error_rate": report["totals"]["error_rate"],
        "errors_5xx": report["totals"]["errors_5xx"],
        "endpoints": {
            endpoint: block["latency_ms"]
            for endpoint, block in report["endpoints"].items()
        },
        "domains": sorted(report["domains"]),
    }


def _pressure(duration_s: float, seed: int, store_root: Path) -> dict:
    store = ArtifactStore(root=store_root)
    registry = SchemaRegistry(max_schemas=PRESSURE_LRU_BOUND, store=store)
    with TypedQueryService(registry=registry) as service:
        config = ReplayConfig(
            host=service.host,
            port=service.port,
            seed=seed,
            duration_s=duration_s,
            mix="read-heavy",
            concurrency=3,
            scenario="cache-pressure",
            pressure_overshoot=PRESSURE_LRU_BOUND,
            output=None,
        )
        exit_code, report = run_replay(config)
    pressure = dict(report["cache_pressure"])
    pressure["exit_code"] = exit_code
    pressure["rps"] = report["totals"]["rps"]
    return pressure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="short run")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_replay.json")
    args = parser.parse_args()
    duration = 2.0 if args.smoke else 8.0

    print(f"steady: default mix, {duration}s")
    with TypedQueryService() as service:
        steady = _steady(service, duration, args.seed)
    print(
        f"  {steady['requests']} requests, {steady['rps']} rps, "
        f"error_rate={steady['error_rate']}"
    )

    print("cache-pressure: LRU bound", PRESSURE_LRU_BOUND)
    with tempfile.TemporaryDirectory(prefix="replay-store-") as tmp:
        pressure = _pressure(max(duration / 2, 1.5), args.seed, Path(tmp))
    print(
        f"  evictions={pressure['evictions']} "
        f"store_hits={pressure['store_hits']} "
        f"reloads={pressure['reloads']} 5xx={pressure['errors_5xx']}"
    )

    point = {
        "bench": "replay",
        "smoke": bool(args.smoke),
        "seed": args.seed,
        "duration_s": duration,
        "mix": "default",
        "slo": BENCH_SLO.as_dict(),
        "steady": steady,
        "cache_pressure": pressure,
    }
    Path(args.out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    failures = []
    if steady["exit_code"] == 2:
        failures.append("the steady run violated the benchmark SLO")
    if steady["errors_5xx"]:
        failures.append(f"the steady run saw {steady['errors_5xx']} 5xx")
    if len(steady["domains"]) < 10:
        failures.append(
            f"the steady run exercised only {len(steady['domains'])} domains"
        )
    if pressure["evictions"] <= 0:
        failures.append("cache pressure produced no registry evictions")
    if pressure["store_hits"] <= 0:
        failures.append("cache pressure never reloaded from the store")
    if pressure["errors_5xx"]:
        failures.append(f"cache pressure saw {pressure['errors_5xx']} 5xx")
    if failures:
        for failure in failures:
            print("FAIL:", failure, file=sys.stderr)
        return 1
    print("ok: the steady run and the cache-pressure loop clear the replay bar")
    return 0


if __name__ == "__main__":
    sys.exit(main())
