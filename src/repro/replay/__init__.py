"""Replay traffic harness: domain workloads vs. a running daemon.

``repro replay`` drives a live ``repro serve`` daemon with a
weighted traffic mix over the multi-domain corpora, records exact
client-side latency percentiles per endpoint and per domain, compares
the server's bucket-interpolated ``/stats`` percentiles alongside, and
gates the result on declared SLO thresholds (exit 0 = pass,
1 = degraded, 2 = violation).  See ``docs/replay.md``.
"""

from .mix import MIXES, REPLAY_OPERATIONS, TrafficMix, resolve_mix
from .report import ReplayRecorder, SampleSet, exact_percentiles
from .runner import ReplayConfig, run_replay
from .slo import (
    EXIT_DEGRADED,
    EXIT_PASS,
    EXIT_VIOLATION,
    SLOSpec,
    evaluate_slo,
    gate_exit_code,
)

__all__ = [
    "EXIT_DEGRADED",
    "EXIT_PASS",
    "EXIT_VIOLATION",
    "MIXES",
    "REPLAY_OPERATIONS",
    "ReplayConfig",
    "ReplayRecorder",
    "SLOSpec",
    "SampleSet",
    "TrafficMix",
    "evaluate_slo",
    "exact_percentiles",
    "gate_exit_code",
    "resolve_mix",
    "run_replay",
]
