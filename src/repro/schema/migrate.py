"""Migration analysis: which registered queries survive a schema change?

The paper's Table-2 machinery answers the production question directly:
re-run type inference (Section 3) for every registered query against the
old and the new schema and compare the inferred type assignments.  Per
query the report says

* ``survives`` — the inferred assignment set is unchanged (including
  the vacuous case where the query was and stays unsatisfiable),
* ``retypes``  — the query still type-checks but its assignment set
  changed (bindings gained, lost, or renamed),
* ``breaks``   — the query was satisfiable against the old schema and
  has **no** typing against the new one; the report attaches a concrete
  counterexample word from the delta's separating-word search, and
* ``invalid``  — the query text itself does not parse (reported, never
  blocking: a broken query file should not veto a migration).

Bulk analysis reuses the batch pipeline's in-order item loop
(:func:`repro.batch.executors.run_items_shared`) on the calling thread,
so a large query set pays each schema's compile once.

Policy levels (the migrate endpoint's acceptance thresholds)::

    any         always accept (report is informational)
    compatible  no query breaks; with no queries registered, the
                whole-schema compatibility must be equivalent/widening
    strict      every query survives verbatim AND the whole-schema
                compatibility is equivalent/widening
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import Engine, get_default_engine
from .delta import (
    EQUIVALENT,
    INCOMPARABLE,
    NARROWING,
    WIDENING,
    ChangeContentModel,
    ChangeEdgeLabel,
    SchemaChange,
    SchemaDelta,
    diff_schemas,
    render_word,
)
from .model import Schema

#: Acceptance thresholds for :func:`analyze_migration` / the service's
#: ``POST /schemas/{fp}/migrate``.
POLICIES: Tuple[str, ...] = ("any", "compatible", "strict")

#: Per-query statuses, most to least comfortable.
QUERY_STATUSES: Tuple[str, ...] = ("survives", "retypes", "breaks", "invalid")

#: Default cap on inferred assignments compared per query per schema.
DEFAULT_INFER_LIMIT = 32


@dataclass(frozen=True)
class QueryReport:
    """One registered query's fate under the migration."""

    index: int
    query: str
    status: str
    satisfiable_before: Optional[bool] = None
    satisfiable_after: Optional[bool] = None
    types_before: Optional[Tuple[dict, ...]] = None
    types_after: Optional[Tuple[dict, ...]] = None
    counterexample: Optional[List[str]] = None
    counterexample_change: Optional[str] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "query": self.query,
            "status": self.status,
            "satisfiable_before": self.satisfiable_before,
            "satisfiable_after": self.satisfiable_after,
            "types_before": None
            if self.types_before is None
            else list(self.types_before),
            "types_after": None
            if self.types_after is None
            else list(self.types_after),
            "counterexample": self.counterexample,
            "counterexample_change": self.counterexample_change,
            "error": self.error,
        }


@dataclass(frozen=True)
class MigrationReport:
    """The full compatibility report the migrate endpoint returns."""

    delta: SchemaDelta
    policy: str
    accepted: bool
    queries: Tuple[QueryReport, ...]
    counts: Dict[str, int]

    @property
    def compatibility(self) -> str:
        return self.delta.compatibility

    def broken(self) -> List[QueryReport]:
        return [report for report in self.queries if report.status == "breaks"]

    def to_dict(self) -> dict:
        return {
            "compatibility": self.compatibility,
            "policy": self.policy,
            "accepted": self.accepted,
            "counts": dict(sorted(self.counts.items())),
            "queries": [report.to_dict() for report in self.queries],
            "delta": self.delta.to_dict(),
        }


def _assignment_key(assignments: Sequence[dict]) -> Tuple[Tuple[Tuple[str, str], ...], ...]:
    """A canonical, order-insensitive key for an inferred assignment set."""
    return tuple(
        sorted(tuple(sorted(assignment.items())) for assignment in assignments)
    )


def _delta_counterexample(
    delta: SchemaDelta,
) -> Tuple[Optional[List[str]], Optional[str]]:
    """The first narrowing/incomparable change carrying a concrete word."""
    for change in delta.changes:
        if not isinstance(change, (ChangeContentModel, ChangeEdgeLabel)):
            continue
        if change.verdict not in (NARROWING, INCOMPARABLE):
            continue
        if change.counterexample is None:
            continue
        return render_word(change.counterexample), change.describe()
    return None, None


def analyze_migration(
    old: Schema,
    new: Schema,
    queries: Sequence[str] = (),
    policy: str = "compatible",
    engine_old: Optional[Engine] = None,
    engine_new: Optional[Engine] = None,
    delta: Optional[SchemaDelta] = None,
    limit: int = DEFAULT_INFER_LIMIT,
) -> MigrationReport:
    """Diff the schemas and re-infer every query's typing on both sides."""
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r} (expected one of {', '.join(POLICIES)})"
        )
    if engine_old is None:
        engine_old = get_default_engine()
    if engine_new is None:
        engine_new = engine_old
    if delta is None:
        delta = diff_schemas(old, new, engine=engine_new)

    reports: List[QueryReport] = []
    if queries:
        from ..batch.executors import run_items_shared

        items = [{"query": text, "limit": limit} for text in queries]
        before = run_items_shared("infer", old, engine_old, items)
        after = run_items_shared("infer", new, engine_new, items)
        word, change_line = _delta_counterexample(delta)
        for index, text in enumerate(queries):
            reports.append(
                _query_report(
                    index, text, before[index], after[index], word, change_line
                )
            )

    counts = {status: 0 for status in QUERY_STATUSES}
    for report in reports:
        counts[report.status] += 1

    accepted = _policy_accepts(policy, delta, reports, counts)
    return MigrationReport(
        delta=delta,
        policy=policy,
        accepted=accepted,
        queries=tuple(reports),
        counts=counts,
    )


def _query_report(
    index: int,
    text: str,
    before: dict,
    after: dict,
    word: Optional[List[str]],
    change_line: Optional[str],
) -> QueryReport:
    if not before["ok"] or not after["ok"]:
        error = (before if not before["ok"] else after)["error"]
        return QueryReport(
            index=index,
            query=text,
            status="invalid",
            error=f"{error['code']}: {error['message']}",
        )
    assignments_before = before["result"]["assignments"]
    assignments_after = after["result"]["assignments"]
    satisfiable_before = bool(assignments_before)
    satisfiable_after = bool(assignments_after)
    if satisfiable_before and not satisfiable_after:
        status = "breaks"
    elif _assignment_key(assignments_before) == _assignment_key(assignments_after):
        status = "survives"
    else:
        # Covers both direction changes: a dead query gaining typings and
        # a live query whose assignment set moved.
        status = "retypes"
    return QueryReport(
        index=index,
        query=text,
        status=status,
        satisfiable_before=satisfiable_before,
        satisfiable_after=satisfiable_after,
        types_before=tuple(assignments_before),
        types_after=tuple(assignments_after),
        counterexample=word if status == "breaks" else None,
        counterexample_change=change_line if status == "breaks" else None,
    )


def _policy_accepts(
    policy: str,
    delta: SchemaDelta,
    reports: Sequence[QueryReport],
    counts: Dict[str, int],
) -> bool:
    compatible_schema = delta.compatibility in (EQUIVALENT, WIDENING)
    if policy == "any":
        return True
    if policy == "compatible":
        if not reports:
            return compatible_schema
        return counts["breaks"] == 0
    # strict
    checked = counts["survives"]
    return compatible_schema and checked == len(reports)
