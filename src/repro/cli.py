"""Command-line interface: ``repro <command> ...`` or ``python -m repro``.

Commands
--------

``validate``  check a data graph against a schema (Definition 2.1)
``satisfiable``  type correctness of a query w.r.t. a schema (Section 3.1)
``check``  partial type checking for a SELECT-variable assignment
``infer``  type inference for the SELECT variables (Section 3.3)
``feedback``  compute the feedback query (Section 4.1)
``evaluate``  run a query on a data graph (Definition 2.3)
``classify``  report the Table-2 cell of a (schema, query) pair
``transform``  apply / type-check a Skolem transformation (Section 4.3)
``dot``  emit Graphviz DOT for a data graph or a schema graph
``diff``  typed change-set + migration compatibility between two schemas
(see ``docs/schema-delta.md``)
``serve``  run the typed-query daemon (see ``docs/service.md``)
``fuzz``  differential-test the decision procedures (see ``docs/testing.md``)
``batch``  run one operation over many NDJSON items, compiling the
schema once (see ``docs/service.md``)
``warm``  pre-bake compiled artifacts for a schema corpus into the
persistent artifact store (see ``docs/architecture.md``)

Schemas may be given as ScmDL text (``--schema``) or as a DTD
(``--dtd``); data graphs as Table-1 text (``--data``) or XML (``--xml``).

Machine use
-----------

Every command takes ``--json``, which replaces the human output with the
same JSON envelope the typed-query service returns (one envelope per
invocation, on stdout).  Exit codes are uniform across commands:

* ``0`` — the question was decided with a positive answer
  (valid / satisfiable / well-typed / results exist);
* ``1`` — decided with a negative answer;
* ``2`` — usage or parse error (bad flags, missing files, syntax errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

from .data import from_xml, parse_data
from .query import evaluate, parse_query, query_to_string
from .schema import find_type_assignment, parse_dtd, parse_schema
from .typing import check_types, classify, infer_types, is_satisfiable

#: The uniform exit codes (mirrored in the envelope ``meta.exit_code``).
EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

#: A handler's return value: (exit code, JSON-able result payload).
Outcome = Tuple[int, dict]


class UsageError(Exception):
    """A bad invocation: missing inputs, unreadable files, parse errors."""


def _load_schema(args: argparse.Namespace):
    if args.dtd:
        with open(args.dtd) as handle:
            return parse_dtd(handle.read(), wrap=bool(getattr(args, "wrap", False)))
    if args.schema:
        with open(args.schema) as handle:
            return parse_schema(handle.read())
    raise UsageError("provide --schema FILE or --dtd FILE")


def _load_data(args: argparse.Namespace):
    if getattr(args, "xml", None):
        with open(args.xml) as handle:
            return from_xml(handle.read())
    if getattr(args, "data", None):
        with open(args.data) as handle:
            return parse_data(handle.read())
    raise UsageError("provide --data FILE or --xml FILE")


def _load_query(args: argparse.Namespace):
    with open(args.query) as handle:
        return parse_query(handle.read())


def _add_schema_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schema", help="ScmDL schema file")
    parser.add_argument("--dtd", help="DTD file")
    parser.add_argument(
        "--wrap",
        action="store_true",
        help="with --dtd: add the synthetic document root (matches XML input)",
    )


def cmd_validate(args: argparse.Namespace) -> Outcome:
    schema = _load_schema(args)
    graph = _load_data(args)
    assignment = find_type_assignment(graph, schema)
    if assignment is None:
        if not args.json:
            print("INVALID: no type assignment exists")
        return EXIT_NEGATIVE, {"valid": False, "assignment": None}
    if not args.json:
        print("VALID")
        if args.verbose:
            for oid, tid in assignment.items():
                print(f"  {oid}: {tid}")
    return EXIT_OK, {"valid": True, "assignment": dict(assignment)}


def cmd_satisfiable(args: argparse.Namespace) -> Outcome:
    schema = _load_schema(args)
    query = _load_query(args)
    verdict = is_satisfiable(query, schema)
    result: dict = {"satisfiable": verdict}
    if not args.json:
        print("SATISFIABLE" if verdict else "UNSATISFIABLE")
    if verdict and args.witness:
        from .data import data_to_string
        from .typing import WitnessError, find_witness

        try:
            witness = find_witness(query, schema)
        except WitnessError as error:
            result["witness"] = None
            result["witness_error"] = str(error)
            if not args.json:
                print(f"(no witness constructed: {error})")
        else:
            result["witness"] = data_to_string(witness) if witness else None
            if witness is not None and not args.json:
                print("witness instance:")
                print(data_to_string(witness))
    return (EXIT_OK if verdict else EXIT_NEGATIVE), result


def cmd_check(args: argparse.Namespace) -> Outcome:
    schema = _load_schema(args)
    query = _load_query(args)
    try:
        assignment = dict(pair.split("=", 1) for pair in args.assign)
    except ValueError:
        raise UsageError("assignments must be VAR=TYPE pairs") from None
    verdict = check_types(query, schema, assignment)
    if not args.json:
        print("OK" if verdict else "FAIL")
    code = EXIT_OK if verdict else EXIT_NEGATIVE
    return code, {"well_typed": verdict, "total": False}


def cmd_infer(args: argparse.Namespace) -> Outcome:
    schema = _load_schema(args)
    query = _load_query(args)
    results = infer_types(query, schema)
    assignments = [dict(assignment) for assignment in results]
    if not args.json:
        if not results:
            print("(no satisfiable type assignment)")
        for assignment in results:
            rendered = ", ".join(f"{k}={v}" for k, v in assignment.items())
            print(rendered or "(boolean query: satisfiable)")
    code = EXIT_OK if results else EXIT_NEGATIVE
    return code, {"assignments": assignments, "count": len(assignments)}


def cmd_feedback(args: argparse.Namespace) -> Outcome:
    from .apps import UnsatisfiableQueryError, feedback_query

    schema = _load_schema(args)
    query = _load_query(args)
    try:
        tightened = feedback_query(query, schema)
    except UnsatisfiableQueryError as error:
        if not args.json:
            print(f"UNSATISFIABLE: {error}")
        return EXIT_NEGATIVE, {
            "satisfiable": False,
            "query": None,
            "reason": str(error),
        }
    text = query_to_string(tightened)
    if not args.json:
        print(text)
    return EXIT_OK, {"satisfiable": True, "query": text}


def cmd_evaluate(args: argparse.Namespace) -> Outcome:
    graph = _load_data(args)
    query = _load_query(args)
    results = evaluate(query, graph, limit=args.limit)
    if not args.json:
        for binding in results:
            print(", ".join(f"{k}={v}" for k, v in binding.items()) or "(match)")
        print(f"-- {len(results)} result(s)")
    return EXIT_OK, {"bindings": results, "count": len(results)}


def cmd_transform(args: argparse.Namespace) -> Outcome:
    from .apps import check_transformation, infer_output_schema, parse_transform
    from .data import data_to_string
    from .schema import schema_to_string

    with open(args.transform) as handle:
        transform = parse_transform(handle.read())
    if args.infer or args.target:
        schema = _load_schema(args)
    if args.infer:
        inferred = infer_output_schema(transform, schema)
        text = schema_to_string(inferred)
        if not args.json:
            print(text)
        return EXIT_OK, {"schema": text}
    if args.target:
        with open(args.target) as handle:
            target = parse_schema(handle.read())
        verdict = check_transformation(transform, schema, target)
        if not args.json:
            print("OK" if verdict else "FAIL")
        code = EXIT_OK if verdict else EXIT_NEGATIVE
        return code, {"well_typed": verdict}
    graph = _load_data(args)
    text = data_to_string(transform.apply(graph))
    if not args.json:
        print(text)
    return EXIT_OK, {"data": text}


def cmd_dot(args: argparse.Namespace) -> Outcome:
    from .data import graph_to_dot, schema_to_dot

    if args.schema or args.dtd:
        text = schema_to_dot(_load_schema(args))
    elif args.data or args.xml:
        text = graph_to_dot(_load_data(args))
    else:
        raise UsageError("provide --schema/--dtd or --data/--xml")
    if not args.json:
        print(text)
    return EXIT_OK, {"dot": text}


def cmd_classify(args: argparse.Namespace) -> Outcome:
    import dataclasses

    schema = _load_schema(args)
    query = _load_query(args)
    cell = classify(query, schema)
    if not args.json:
        print(f"schema row:    {cell.schema_row}")
        print(f"query column:  {cell.query_column}")
        print(f"prediction:    {cell.combined_complexity}")
        print(f"DTD-:          {cell.schema_is_dtd_minus}")
        print(f"DTD+:          {cell.schema_is_dtd_plus}")
        print(f"join width:    {cell.query_join_width}")
    result = dataclasses.asdict(cell)
    result["polynomial"] = cell.polynomial
    return EXIT_OK, result


def _load_schema_file(path: str, wrap: bool):
    """Parse one schema file; ``*.dtd`` parses as DTD, else ScmDL."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".dtd"):
        return parse_dtd(text, wrap=wrap)
    return parse_schema(text)


def cmd_diff(args: argparse.Namespace) -> Outcome:
    from .engine import Engine
    from .schema import POLICIES, analyze_migration, diff_schemas

    if args.policy not in POLICIES:
        raise UsageError(f"--policy must be one of {POLICIES}, got {args.policy!r}")
    old = _load_schema_file(args.old, wrap=bool(args.wrap))
    new = _load_schema_file(args.new, wrap=bool(args.wrap))

    queries = []
    if args.queries:
        with open(args.queries) as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    item = json.loads(line)
                except ValueError:
                    # Bare query text is accepted alongside NDJSON objects.
                    item = line
                if isinstance(item, dict):
                    item = item.get("query")
                if not isinstance(item, str) or not item.strip():
                    raise UsageError(
                        f"{args.queries}:{line_no}: expected a query string "
                        'or {"query": ...} object'
                    )
                queries.append(item)

    engine_old = Engine(backend=args.backend)
    engine_new = Engine(backend=args.backend)
    delta = diff_schemas(old, new, engine=engine_new)
    report = analyze_migration(
        old,
        new,
        queries=queries,
        policy=args.policy,
        engine_old=engine_old,
        engine_new=engine_new,
        delta=delta,
    )
    # The payload is deliberately backend-free: both automata backends
    # must produce byte-identical envelopes (CI compares them with cmp).
    result = report.to_dict()
    if not args.json:
        print(f"old: {delta.old_fingerprint}")
        print(f"new: {delta.new_fingerprint}")
        print(f"compatibility: {delta.compatibility} (composed: {delta.composed})")
        if delta.identical:
            print("(schemas are identical)")
        for change in delta.changes:
            print(f"  {change.describe()}")
        if report.queries:
            print(f"queries: {report.counts}")
            for query in report.queries:
                print(f"  [{query.status:8s}] {query.query}")
                if query.counterexample:
                    print(f"      counterexample: {' '.join(query.counterexample)}")
        print(f"policy {args.policy}: {'ACCEPT' if report.accepted else 'REJECT'}")
    return (EXIT_OK if report.accepted else EXIT_NEGATIVE), result


def cmd_fuzz(args: argparse.Namespace) -> Outcome:
    from .oracle import SECTIONS, run_fuzz

    sections = None
    if args.sections:
        sections = [name.strip() for name in args.sections.split(",") if name.strip()]
        unknown = [name for name in sections if name not in SECTIONS]
        if unknown:
            raise UsageError(
                f"unknown sections {unknown}; choose from {sorted(SECTIONS)}"
            )
    if args.budget < 1:
        raise UsageError(f"--budget must be positive, got {args.budget}")
    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        sections=sections,
        max_len=args.max_len,
        backend=args.backend,
    )
    result = report.to_dict()
    if not args.json:
        print(f"backend: {report.backend}")
        for name in report.sections:
            skipped = report.skipped.get(name, 0)
            note = f" ({skipped} skipped)" if skipped else ""
            print(f"{name}: {report.cases.get(name, 0)} cases{note}")
        if report.ok:
            print(f"OK: no discrepancies (seed={report.seed})")
        else:
            print(f"FOUND {len(report.discrepancies)} discrepancies:")
            for disc in report.discrepancies:
                print(
                    f"  [{disc.section}/{disc.check}] case {disc.case}: "
                    f"{disc.detail}"
                )
                for key, value in disc.inputs.items():
                    print(f"      {key} = {value}")
    return (EXIT_OK if report.ok else EXIT_NEGATIVE), result


def cmd_batch(args: argparse.Namespace) -> Outcome:
    from .batch import BatchPlan, read_ndjson, results_to_ndjson, run_batch

    schema_text = None
    syntax = "scmdl"
    if args.dtd:
        with open(args.dtd) as handle:
            schema_text = handle.read()
        syntax = "dtd"
    elif args.schema:
        with open(args.schema) as handle:
            schema_text = handle.read()
    elif args.operation != "evaluate":
        raise UsageError("provide --schema FILE or --dtd FILE")

    if args.input in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(args.input) as handle:
            text = handle.read()
    items = read_ndjson(text)
    if not items:
        raise UsageError("no items: input must carry one JSON object per line")

    try:
        plan = BatchPlan(
            operation=args.operation,
            items=tuple(items),
            schema_text=schema_text,
            syntax=syntax,
            wrap=bool(args.wrap),
        )
        outcome = run_batch(
            plan,
            executor=args.executor,
            workers=args.workers,
            chunk_size=args.chunk_size,
            store=_resolve_store(args) if args.executor == "process" else None,
        )
    except ValueError as error:
        raise UsageError(str(error)) from None

    ndjson = results_to_ndjson(outcome.results)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(ndjson)
    result: dict = {"summary": outcome.summary}
    if not args.json:
        if not args.output:
            sys.stdout.write(ndjson)
        summary = outcome.summary
        print(
            f"-- {summary['items']} item(s): {summary['ok']} ok, "
            f"{summary['errors']} error(s) in {summary['elapsed_s']}s "
            f"({summary['items_per_s']} items/s, {summary['executor']})",
            file=sys.stderr,
        )
    elif not args.output:
        result["results"] = outcome.results
    code = EXIT_OK if outcome.summary["errors"] == 0 else EXIT_NEGATIVE
    return code, result


def _resolve_store(args: argparse.Namespace, required: bool = False):
    """Build the ArtifactStore named by --cache-dir / $REPRO_CACHE_DIR.

    Returns None when neither names a directory (persistent caching is
    strictly opt-in), unless ``required`` — then it falls back to the
    user-level default cache directory.
    """
    import os as _os

    from .engine import CACHE_DIR_ENV_VAR, ArtifactStore, default_cache_dir

    cache_dir = getattr(args, "cache_dir", None) or _os.environ.get(CACHE_DIR_ENV_VAR)
    if cache_dir is None:
        if not required:
            return None
        cache_dir = default_cache_dir()
    return ArtifactStore(root=cache_dir)


def cmd_warm(args: argparse.Namespace) -> Outcome:
    from .engine import Engine, EngineArtifact, prewarm

    store = _resolve_store(args, required=True)
    sources = []  # (label, schema, syntax)
    for path in args.schemas:
        with open(path) as handle:
            text = handle.read()
        if path.endswith(".dtd"):
            sources.append((path, parse_dtd(text, wrap=bool(args.wrap)), "dtd"))
        else:
            sources.append((path, parse_schema(text), "scmdl"))
    if args.generate:
        from .workloads import schema_corpus

        for index, schema in enumerate(schema_corpus(args.generate, seed=args.seed)):
            sources.append((f"generated[{index}]", schema, "scmdl"))
    if not sources:
        raise UsageError("nothing to warm: give schema files and/or --generate N")

    def bake(schema, syntax: str) -> EngineArtifact:
        engine = Engine()
        prewarm(schema, engine)
        return EngineArtifact.capture(engine, schema, syntax)

    reports = []
    written = hits = nondeterministic = 0
    for label, schema, syntax in sources:
        fingerprint = schema.fingerprint()
        hit = store.get(fingerprint) is not None
        report = {
            "source": label,
            "fingerprint": fingerprint,
            "types": len(list(schema.tids())),
            "outcome": "hit" if hit else "written",
        }
        if hit and not args.check:
            hits += 1
            reports.append(report)
            continue
        artifact = bake(schema, syntax)
        data = artifact.to_bytes()
        if args.check:
            # Determinism gate: re-run the whole compile pipeline and
            # require byte-identical pickles.  (Within one process; across
            # processes byte equality additionally needs a pinned
            # PYTHONHASHSEED — frozensets pickle in hash order.)
            deterministic = bake(schema, syntax).to_bytes() == data
            report["deterministic"] = deterministic
            if not deterministic:
                nondeterministic += 1
        if hit:
            hits += 1
        else:
            store.put(artifact, data=data)
            written += 1
            report["bytes"] = len(data)
            report["entries"] = len(artifact)
        reports.append(report)

    result = {
        "cache_dir": str(store.root),
        "schemas_total": len(sources),
        "written": written,
        "hits": hits,
        "checked": bool(args.check),
        "nondeterministic": nondeterministic,
        "schemas": reports,
        "store": store.stats(),
    }
    if not args.json:
        for report in reports:
            extra = ""
            if "deterministic" in report:
                extra = (
                    "  deterministic"
                    if report["deterministic"]
                    else "  NON-DETERMINISTIC"
                )
            print(
                f"{report['outcome']:8s} {report['fingerprint'][:12]} "
                f"({report['types']} types) {report['source']}{extra}"
            )
        print(
            f"-- {len(sources)} schema(s): {written} written, {hits} hit(s) "
            f"in {store.dir}"
        )
        if args.check:
            print(
                f"-- determinism: {nondeterministic} non-deterministic artifact(s)"
            )
    code = EXIT_NEGATIVE if nondeterministic else EXIT_OK
    return code, result


def cmd_serve(args: argparse.Namespace) -> Outcome:
    from .service import SchemaRegistry, ServiceLimits, serve

    limits = ServiceLimits(
        default_deadline_s=args.deadline,
        max_deadline_s=max(args.deadline, args.max_deadline),
        max_body_bytes=args.max_body_bytes,
    )
    store = _resolve_store(args)
    registry = SchemaRegistry(max_schemas=args.max_schemas, store=store)
    if store is not None and not args.json:
        restored = sum(
            1 for entry in registry.entries() if entry.info.get("restored")
        )
        print(
            f"artifact store at {store.dir}: {restored} schema(s) restored",
            file=sys.stderr,
        )
    serve(
        host=args.host,
        port=args.port,
        registry=registry,
        limits=limits,
        verbose=args.verbose,
    )
    return EXIT_OK, {"served": True}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Type inference for queries on semistructured data "
        "(Milo & Suciu, PODS 1999)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the compilation-engine cache counters after the command",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, **kwargs)
        sub.add_argument(
            "--json",
            action="store_true",
            help="emit the service's JSON result envelope instead of text",
        )
        sub.set_defaults(handler=handler)
        return sub

    validate = add_command(
        "validate", cmd_validate, help="validate data against a schema"
    )
    _add_schema_options(validate)
    validate.add_argument("--data", help="data graph file (Table-1 syntax)")
    validate.add_argument("--xml", help="XML document file")
    validate.add_argument("--verbose", action="store_true")

    satisfiable = add_command(
        "satisfiable", cmd_satisfiable, help="type correctness of a query"
    )
    _add_schema_options(satisfiable)
    satisfiable.add_argument("query", help="query file")
    satisfiable.add_argument(
        "--witness",
        action="store_true",
        help="also print a conforming witness instance (join-free ordered queries)",
    )

    check = add_command("check", cmd_check, help="partial type checking")
    _add_schema_options(check)
    check.add_argument("query", help="query file")
    check.add_argument(
        "assign", nargs="+", help="assignments VAR=TYPE for SELECT variables"
    )

    infer = add_command(
        "infer", cmd_infer, help="type inference for SELECT variables"
    )
    _add_schema_options(infer)
    infer.add_argument("query", help="query file")

    feedback = add_command(
        "feedback", cmd_feedback, help="compute the feedback query"
    )
    _add_schema_options(feedback)
    feedback.add_argument("query", help="query file")

    evaluate_cmd = add_command("evaluate", cmd_evaluate, help="run a query on data")
    evaluate_cmd.add_argument("query", help="query file")
    evaluate_cmd.add_argument("--data", help="data graph file")
    evaluate_cmd.add_argument("--xml", help="XML document file")
    evaluate_cmd.add_argument("--limit", type=int, default=None)

    transform_cmd = add_command(
        "transform", cmd_transform, help="apply / type-check a Skolem transformation"
    )
    _add_schema_options(transform_cmd)
    transform_cmd.add_argument("transform", help="transformation file (WHERE + CONSTRUCT)")
    transform_cmd.add_argument("--data", help="input data graph to transform")
    transform_cmd.add_argument("--xml", help="input XML document to transform")
    transform_cmd.add_argument(
        "--infer", action="store_true", help="print the inferred output schema"
    )
    transform_cmd.add_argument(
        "--target", help="output schema file to type-check against"
    )

    dot_cmd = add_command(
        "dot", cmd_dot, help="emit Graphviz DOT for data or a schema"
    )
    _add_schema_options(dot_cmd)
    dot_cmd.add_argument("--data", help="data graph file")
    dot_cmd.add_argument("--xml", help="XML document file")

    classify_cmd = add_command(
        "classify", cmd_classify, help="report the Table-2 cell"
    )
    _add_schema_options(classify_cmd)
    classify_cmd.add_argument("query", help="query file")

    diff_cmd = add_command(
        "diff",
        cmd_diff,
        help="typed change-set and migration compatibility between two schemas",
    )
    diff_cmd.add_argument(
        "old", help="current schema file (*.dtd parses as DTD, else ScmDL)"
    )
    diff_cmd.add_argument(
        "new", help="candidate schema file (*.dtd parses as DTD, else ScmDL)"
    )
    diff_cmd.add_argument(
        "--queries",
        default=None,
        help="NDJSON file of registered queries to re-typecheck against both "
        'schemas (bare strings or {"query": ...} objects, one per line)',
    )
    diff_cmd.add_argument(
        "--policy",
        default="compatible",
        help="acceptance policy: any, compatible, or strict (default: compatible)",
    )
    diff_cmd.add_argument(
        "--wrap",
        action="store_true",
        help="for *.dtd inputs: add the synthetic document root",
    )
    diff_cmd.add_argument(
        "--backend",
        choices=("nfa", "compiled"),
        default=None,
        help="automata backend for the analysis engines; the JSON envelope "
        "is byte-identical across backends (default: compiled)",
    )

    fuzz_cmd = add_command(
        "fuzz",
        cmd_fuzz,
        help="differential-test the decision procedures against oracles",
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0, help="base seed (cases derive from it)"
    )
    fuzz_cmd.add_argument(
        "--budget",
        type=int,
        default=200,
        help="total number of cases, split across sections",
    )
    fuzz_cmd.add_argument(
        "--sections",
        default=None,
        help="comma-separated subset: automata,containment,eval,"
        "conformance,compiled,backend,delta",
    )
    fuzz_cmd.add_argument(
        "--max-len",
        type=int,
        default=None,
        help="word-length bound for the automata/containment/compiled oracles",
    )
    fuzz_cmd.add_argument(
        "--backend",
        choices=("nfa", "compiled"),
        default=None,
        help="automata backend the production procedures run on "
        "(default: compiled)",
    )

    batch_cmd = add_command(
        "batch",
        cmd_batch,
        help="run one operation over many NDJSON items, compiling the schema once",
    )
    _add_schema_options(batch_cmd)
    batch_cmd.add_argument(
        "operation",
        choices=("conforms", "satisfiable", "check", "infer", "classify", "evaluate"),
        help="the decision procedure to run on every item",
    )
    batch_cmd.add_argument(
        "--input",
        default=None,
        help="NDJSON items file, one JSON object per line (default: stdin)",
    )
    batch_cmd.add_argument(
        "--output",
        default=None,
        help="write per-item NDJSON envelopes here instead of stdout",
    )
    batch_cmd.add_argument(
        "--executor",
        choices=("sequential", "process"),
        default="sequential",
        help="how to run the items (default: sequential)",
    )
    batch_cmd.add_argument(
        "--workers", type=int, default=None, help="worker processes"
    )
    batch_cmd.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="items per process-pool chunk (default: auto)",
    )
    batch_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="persistent artifact store; process-pool workers load the "
        "compiled schema from here instead of receiving pickled bytes "
        "(default: $REPRO_CACHE_DIR if set, else disabled)",
    )

    warm_cmd = add_command(
        "warm",
        cmd_warm,
        help="pre-bake compiled artifacts for a schema corpus into the store",
    )
    warm_cmd.add_argument(
        "schemas",
        nargs="*",
        help="schema files (*.dtd parses as DTD, anything else as ScmDL)",
    )
    warm_cmd.add_argument(
        "--generate",
        type=int,
        default=0,
        metavar="N",
        help="also warm N schemas from the deterministic workload corpus",
    )
    warm_cmd.add_argument(
        "--seed", type=int, default=0, help="seed for --generate (default 0)"
    )
    warm_cmd.add_argument(
        "--wrap",
        action="store_true",
        help="for *.dtd inputs: add the synthetic document root",
    )
    warm_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="store directory (default: $REPRO_CACHE_DIR, else ~/.cache/repro)",
    )
    warm_cmd.add_argument(
        "--check",
        action="store_true",
        help="re-bake every artifact and fail (exit 1) unless the compile "
        "pipeline is byte-deterministic",
    )

    serve_cmd = add_command(
        "serve", cmd_serve, help="run the typed-query HTTP daemon"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8421)
    serve_cmd.add_argument(
        "--max-schemas",
        type=int,
        default=64,
        help="LRU bound on resident compiled schemas",
    )
    serve_cmd.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds",
    )
    serve_cmd.add_argument(
        "--max-deadline",
        type=float,
        default=120.0,
        help="largest per-request deadline a client may ask for",
    )
    serve_cmd.add_argument(
        "--max-body-bytes",
        type=int,
        default=1 << 20,
        help="reject request bodies larger than this",
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="persistent artifact store: registrations persist compiled "
        "artifacts here and a restarted daemon restores them "
        "(default: $REPRO_CACHE_DIR if set, else disabled)",
    )

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    wants_json = bool(getattr(args, "json", False))
    try:
        status, result = args.handler(args)
    except (UsageError, OSError, ValueError, SyntaxError) as error:
        # ValueError/SyntaxError cover every parse error in the package
        # (lexer, schema, DTD, XML, query, data syntax).
        if wants_json:
            from .service.envelope import as_service_error, error_envelope

            envelope = error_envelope(command, as_service_error(error))
            envelope["meta"]["exit_code"] = EXIT_USAGE
            print(json.dumps(envelope, indent=2))
        else:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    if wants_json:
        from .service.envelope import ok_envelope

        envelope = ok_envelope(command, result, meta={"exit_code": status})
        print(json.dumps(envelope, indent=2))
    if getattr(args, "cache_stats", False):
        from .engine import get_default_engine

        print(get_default_engine().stats(), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
