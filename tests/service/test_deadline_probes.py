"""Hostile probes: each answers 503 ``timeout`` near its deadline and
leaves the server free.

Every request is decided on its connection thread with its deadline
bound, and every loop one request can make unbounded polls that
deadline.  Each probe below is a sub-kilobyte request that runs for
seconds or minutes uncancelled.  With a 0.3-s deadline it must
answer 503 ``timeout`` within 0.5 s, count once in ``limits.timeouts``,
and give back its slot and any engine-cache lock it held: right after it,
``/stats`` answers in under 100 ms and a cheap query on the same schema
answers 200, also on a server with one computation slot.

Before, the runner answered 503 by abandoning the computation on a
compute thread, which ran on unpolled: a timed-out ``/check`` left
``/stats`` waiting seconds on the engine lock, two timed-out
``/evaluate`` requests pinned both slots of a 2-slot server, and the
witness search held the process-default engine that fingerprint-less
``/evaluate`` requests use.
"""

import random
import threading
import time

import pytest

from repro.engine import Engine, get_default_engine
from repro.engine.store import ArtifactStore
from repro.query import parse_query, query_to_string
from repro.reductions import random_3sat, reduce_formula
from repro.schema import parse_schema, schema_to_string
from repro.service import ServiceClient, ServiceLimits, TypedQueryService
from repro.service.registry import SchemaRegistry
from repro.typing import find_witness

pytestmark = pytest.mark.usefixtures("frozen_heap")

DEADLINE = 0.3
#: The probe's answer must arrive within this; the deadline plus CI headroom.
ANSWER_WITHIN = 0.5

PATH_SCHEMA = "ROOT = [(a -> ROOT | b -> ROOT)*]"
PATH_CHEAP = "SELECT X WHERE ROOT = [a -> X]"


def blow_up_query(n: int) -> str:
    """``(a|b)*.a.(a|b)^n``: its path determinizes to 2^n states."""
    return "SELECT X WHERE ROOT = [(a|b)*.a" + ".(a|b)" * n + " -> X]"


def _three_sat():
    schema, query = reduce_formula(random_3sat(8, n_clauses=32, rng=random.Random(3)))
    return schema_to_string(schema), query_to_string(query)


def _evaluation(k: int = 8):
    """``k`` ordered arms over a node with ``k - 1`` edges: no binding, and
    (k-1)^k arm combinations to rule out."""
    data = "o0 = [" + ", ".join(f"a -> o{i}" for i in range(1, k)) + "]; "
    data += "; ".join(f'o{i} = "v"' for i in range(1, k))
    query = (
        "SELECT " + ", ".join(f"X{i}" for i in range(k))
        + " WHERE Root = [" + ", ".join(f"a -> X{i}" for i in range(k)) + "]"
    )
    return query, data


CONFORMANCE_SCHEMA = (
    "ROOT = [p -> P1 . q -> P2]; "
    "P1 = [(x -> &A)* . x -> &B . (x -> &A)*]; "
    "P2 = [(x -> &A)* . x -> &B . (x -> &A)* . x -> &B . (x -> &A)*]; "
    "&A = string; &B = string"
)


def _conformance_data(n: int = 16) -> str:
    """``P1`` wants one ``&B`` among the shared nodes and ``P2`` two: no
    assignment exists, and the search tries all 2^n choices."""
    refs = ", ".join(f"x -> &r{i}" for i in range(n))
    shared = "; ".join(f'&r{i} = "v"' for i in range(n))
    return f"o0 = [p -> o1, q -> o2]; o1 = [{refs}]; o2 = [{refs}]; {shared}"


def _probes():
    """name -> (schema text or None, route, hostile payload, cheap payload)."""
    three_sat_schema, three_sat_query = _three_sat()
    eval_query, eval_data = _evaluation()
    path_sat = {"query": blow_up_query(15)}
    return {
        "path-satisfiable": (PATH_SCHEMA, "/satisfiable", path_sat, {"query": PATH_CHEAP}),
        "path-check": (
            PATH_SCHEMA,
            "/check",
            {"query": blow_up_query(15), "assignment": {"X": "ROOT"}},
            {"query": PATH_CHEAP},
        ),
        "3sat": (
            three_sat_schema,
            "/satisfiable",
            {"query": three_sat_query},
            {"query": "SELECT X WHERE Root = {v1 -> X}"},
        ),
        "evaluate": (
            None,
            "/evaluate",
            {"query": eval_query, "data": eval_data},
            {"query": "SELECT X WHERE Root = [a -> X]", "data": 'o1 = [a -> o2]; o2 = "v"'},
        ),
        "validate": (
            CONFORMANCE_SCHEMA,
            "/validate",
            {"data": _conformance_data()},
            {"data": 'o0 = [p -> o1, q -> o2]; o1 = [x -> &b]; '
                     'o2 = [x -> &b, x -> &c]; &b = "v"; &c = "w"'},
        ),
    }


PROBES = _probes()


def _send(client, route, payload):
    started = time.perf_counter()
    status, envelope = client.request("POST", route, payload)
    return status, envelope, time.perf_counter() - started


def _assert_timed_out(status, envelope, elapsed):
    assert status == 503, envelope
    assert envelope["error"]["code"] == "timeout"
    assert elapsed < ANSWER_WITHIN


def _assert_server_free(client, route, cheap, timeouts=1):
    started = time.perf_counter()
    stats = client.stats()
    assert time.perf_counter() - started < 0.1
    assert stats["limits"]["timeouts"] == timeouts
    status, envelope, _ = _send(client, route, cheap)
    assert status == 200, envelope


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_times_out_and_frees_the_server(name):
    schema, route, hostile, cheap = PROBES[name]
    for max_slots in (ServiceLimits().max_slots, 1):
        limits = ServiceLimits(max_slots=max_slots, slot_wait_s=0.1)
        with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            if schema is not None:
                fingerprint = client.register_schema(schema)["fingerprint"]
                hostile = dict(hostile, fingerprint=fingerprint)
                cheap = dict(cheap, fingerprint=fingerprint)
            _assert_timed_out(*_send(client, route, dict(hostile, deadline=DEADLINE)))
            _assert_server_free(client, route, cheap)


def test_path_probe_on_the_nfa_backend(monkeypatch):
    """The nfa backend walks subsets as it goes (``SchemaReach.completions``)."""
    monkeypatch.setenv("REPRO_BACKEND", "nfa")
    limits = ServiceLimits(max_slots=1, slot_wait_s=0.1)
    with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
        svc.host, svc.port
    ) as client:
        fingerprint = client.register_schema(PATH_SCHEMA)["fingerprint"]
        assert svc.state.registry.get(fingerprint).engine.backend == "nfa"
        hostile = {"fingerprint": fingerprint, "query": blow_up_query(14)}
        _assert_timed_out(*_send(client, "/satisfiable", dict(hostile, deadline=DEADLINE)))
        _assert_server_free(
            client, "/satisfiable", {"fingerprint": fingerprint, "query": PATH_CHEAP}
        )


def test_two_evaluations_do_not_pin_both_slots():
    """Two timed-out ``/evaluate`` requests used to hold both slots of a
    2-slot server while they ran on, so a cheap query got 503 ``busy``."""
    _schema, route, hostile, cheap = PROBES["evaluate"]
    limits = ServiceLimits(max_slots=2, slot_wait_s=0.1)
    with TypedQueryService(port=0, limits=limits) as svc:
        answers = []

        def probe():
            with ServiceClient(svc.host, svc.port) as client:
                answers.append(_send(client, route, dict(hostile, deadline=DEADLINE)))

        threads = [threading.Thread(target=probe) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(answers) == 2
        for answer in answers:
            _assert_timed_out(*answer)
        with ServiceClient(svc.host, svc.port) as client:
            _assert_server_free(client, route, cheap, timeouts=2)


GRAPH_SCHEMA = "ROOT = [(paper -> PAPER)*]; PAPER = [title -> TITLE]; TITLE = string"
GRAPH_QUERY = "SELECT X WHERE ROOT = [paper.title -> X]"


def _large_graph(papers: int = 15_000) -> str:
    """A 0.9-MB Table-1 graph, under the 1-MiB body cap."""
    root = "o = [" + ", ".join(f"paper -> p{i}" for i in range(papers)) + "]"
    rest = "; ".join(f'p{i} = [title -> t{i}]; t{i} = "Types"' for i in range(papers))
    return f"{root}; {rest}"


@pytest.mark.parametrize("route", ["/validate", "/evaluate"])
def test_large_graph_times_out_while_parsing(route):
    """Parsing a data graph had no poll point, and ``/evaluate`` parsed
    its body before its deadline started: with a 0.05-s deadline,
    ``/validate`` answered 503 after about 2 s and ``/evaluate`` after
    about 1.4 s."""
    with TypedQueryService(port=0) as svc, ServiceClient(svc.host, svc.port) as client:
        fingerprint = client.register_schema(GRAPH_SCHEMA)["fingerprint"]
        body = {"fingerprint": fingerprint, "query": GRAPH_QUERY}
        hostile = dict(body, data=_large_graph(), deadline=0.05)
        _assert_timed_out(*_send(client, route, hostile))
        cheap = dict(body, data='o = [paper -> p]; p = [title -> t]; t = "T"')
        _assert_server_free(client, route, cheap)


class TestWitnessEngine:
    QUERY = blow_up_query(14)

    def test_witness_search_times_out_on_the_entrys_engine(self):
        """The witness search compiled on the process-default engine, so a
        fingerprint-less ``/evaluate`` waited seconds for its lock."""
        limits = ServiceLimits(max_slots=1, slot_wait_s=0.1)
        with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            fingerprint = client.register_schema(PATH_SCHEMA)["fingerprint"]
            # Memoize the verdict, so the request below runs only the search.
            assert client.satisfiable(fingerprint, self.QUERY)["satisfiable"]
            hostile = {
                "fingerprint": fingerprint,
                "query": self.QUERY,
                "witness": True,
                "deadline": DEADLINE,
            }
            _assert_timed_out(*_send(client, "/satisfiable", hostile))
            _, _, evaluate_cheap = PROBES["evaluate"][1:]
            status, envelope, elapsed = _send(client, "/evaluate", evaluate_cheap)
            assert status == 200, envelope
            assert elapsed < 0.1
            _assert_server_free(
                client, "/satisfiable", {"fingerprint": fingerprint, "query": PATH_CHEAP}
            )

    def test_find_witness_compiles_on_the_given_engine(self):
        schema = parse_schema(PATH_SCHEMA)
        default = get_default_engine()
        before = len(default.cache)
        engine = Engine()
        witness = find_witness(parse_query(blow_up_query(2)), schema, engine=engine)
        assert witness is not None
        assert len(engine.cache) > 0
        assert len(default.cache) == before


def blow_up_schema(n: int) -> str:
    """``ROOT``'s content model determinizes to 2^n states."""
    return (
        "ROOT = [(a -> T | b -> T)* . a -> T" + " . (a -> T | b -> T)" * n + "]; "
        "T = string"
    )


#: A schema the blown-up ones widen.
BLOW_UP_BASE = "ROOT = [(a -> T | b -> T)*]; T = string"


def _wait_until_compiling(cache, within=5.0):
    """Return once another thread has held ``cache``'s lock for 50 ms: a
    compile, not one of the quick lookups before it."""
    stop = time.monotonic() + within
    held_since = None
    while held_since is None or time.monotonic() - held_since < 0.05:
        if cache._lock.acquire(blocking=False):
            cache._lock.release()
            held_since = None
        elif held_since is None:
            held_since = time.monotonic()
        assert time.monotonic() < stop, "the compile never took the engine lock"
        time.sleep(0.005)


@pytest.mark.parametrize("backend", ["compiled", "nfa"])
def test_migration_analysis_times_out_and_frees_the_slot(backend, monkeypatch, tmp_path):
    """The schema diff decides content-model containment by determinizing
    the candidate's model: 2^13 subsets here, then a product with the
    resident model.  Neither loop polled, so a ``/migrate`` ran on past
    its deadline while it held its slot."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    registry = SchemaRegistry(store=ArtifactStore(root=tmp_path), max_schemas=1)
    limits = ServiceLimits(max_slots=1, slot_wait_s=0.1)
    with TypedQueryService(port=0, registry=registry, limits=limits) as svc, ServiceClient(
        svc.host, svc.port
    ) as client:
        # Store the candidate's compiled artifact, so the migration loads
        # it instead of compiling (on the compiled backend that compile
        # alone outlasts the deadline), then make the small schema the
        # only resident one.
        candidate = blow_up_schema(13)
        status, envelope, _ = _send(client, "/schemas", {"schema": candidate, "deadline": 60})
        assert status == 200, envelope
        fingerprint = client.register_schema(BLOW_UP_BASE)["fingerprint"]
        assert svc.state.registry.get(fingerprint).engine.backend == backend
        _assert_timed_out(
            *_send(
                client,
                f"/schemas/{fingerprint}/migrate",
                {"schema": candidate, "deadline": DEADLINE},
            )
        )
        _assert_server_free(
            client, "/satisfiable", {"fingerprint": fingerprint, "query": PATH_CHEAP}
        )
        assert [row["fingerprint"] for row in client.list_schemas()["schemas"]] == [fingerprint]


def test_engine_lock_waiter_times_out_at_its_own_deadline():
    """A cheap query on a schema whose engine another request is compiling
    waits for the engine lock only until its own deadline."""
    limits = ServiceLimits(slot_wait_s=0.1)
    with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
        svc.host, svc.port
    ) as client:
        fingerprint = client.register_schema(PATH_SCHEMA)["fingerprint"]
        hostile = {"fingerprint": fingerprint, "query": blow_up_query(15), "deadline": 2}
        answers = []

        def compile_hostile():
            with ServiceClient(svc.host, svc.port) as other:
                answers.append(_send(other, "/satisfiable", hostile))

        compiling = threading.Thread(target=compile_hostile)
        compiling.start()
        try:
            _wait_until_compiling(svc.state.registry.get(fingerprint).engine.cache)
            cheap = {"fingerprint": fingerprint, "query": PATH_CHEAP, "deadline": DEADLINE}
            _assert_timed_out(*_send(client, "/satisfiable", cheap))
        finally:
            compiling.join(timeout=10)
        assert len(answers) == 1
        status, envelope, _ = answers[0]
        assert (status, envelope["error"]["code"]) == (503, "timeout")
        _assert_server_free(
            client, "/satisfiable", {"fingerprint": fingerprint, "query": PATH_CHEAP}, timeouts=2
        )


class TestRegistrationDeadline:
    def test_registration_times_out_and_leaves_nothing(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        registry = SchemaRegistry(store=store)
        with TypedQueryService(port=0, registry=registry) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            status, envelope, elapsed = _send(
                client, "/schemas", {"schema": blow_up_schema(13), "deadline": DEADLINE}
            )
            _assert_timed_out(status, envelope, elapsed)
            assert client.list_schemas()["schemas"] == []
            assert store.fingerprints() == []
            assert client.stats()["limits"]["timeouts"] == 1
            # A small schema of the same shape still registers.
            assert client.register_schema(blow_up_schema(1))["fingerprint"]


def _chain_scmdl(n: int) -> str:
    """``T0 = [a -> T1]; ...; Tn = string``: the inhabitation fixpoint
    inhabits one more type per round, about n^2 / 2 type visits."""
    return "; ".join([f"T{i} = [a -> T{i + 1}]" for i in range(n)] + [f"T{n} = string"])


def _chain_dtd(n: int) -> str:
    """The same chain as element declarations."""
    declarations = [f"<!ELEMENT e{i} (e{i + 1})>" for i in range(n)]
    return "\n".join(declarations + [f"<!ELEMENT e{n} #PCDATA>"])


def _duplicate_dtd(n: int) -> str:
    """``n`` declarations, the last of them declaring the first again."""
    declarations = [f"<!ELEMENT e{i} (e{i + 1})?>" for i in range(n - 1)]
    return "\n".join(declarations + ["<!ELEMENT e0 #PCDATA>"])


def _wide_dtd(n: int) -> str:
    """A root whose one content model chooses among ``n`` text elements."""
    root = "<!ELEMENT root (" + " | ".join(f"e{i}" for i in range(n)) + ")*>"
    return "\n".join([root] + [f"<!ELEMENT e{i} #PCDATA>" for i in range(n)])


#: name -> (registration body, expected status); each is under the
#: 1-MiB body cap.
REGISTRATION_PROBES = {
    "scmdl-chain": (lambda: {"schema": _chain_scmdl(1000)}, 503),
    "dtd-chain": (lambda: {"schema": _chain_dtd(1000), "syntax": "dtd"}, 503),
    "dtd-duplicate": (lambda: {"schema": _duplicate_dtd(20_000), "syntax": "dtd"}, 400),
    "dtd-wide": (lambda: {"schema": _wide_dtd(29_000), "syntax": "dtd"}, 503),
}


@pytest.mark.parametrize("name", sorted(REGISTRATION_PROBES))
def test_registration_probe_answers_within_its_deadline(name):
    """The inhabitation fixpoint, the schema-graph builder and the DTD
    parser did not poll, and the DTD duplicate check counted every name
    once per name: with a 0.05-s deadline the two 1,000-type chains
    answered 503 after 2-3 s, the 20,000-declaration DTD its 400 after
    5.5 s, and the 0.99-MB wide DTD 503 after 1.4 s."""
    make_body, expected = REGISTRATION_PROBES[name]
    with TypedQueryService(port=0) as svc, ServiceClient(svc.host, svc.port) as client:
        status, envelope, elapsed = _send(client, "/schemas", dict(make_body(), deadline=0.05))
        if expected == 503:
            _assert_timed_out(status, envelope, elapsed)
        else:
            assert status == 400, envelope
            assert envelope["error"]["code"] == "parse-error"
            assert "duplicate element declarations: ['e0']" in envelope["error"]["message"]
            assert elapsed < ANSWER_WITHIN
        _assert_server_free(
            client, "/schemas", {"schema": PATH_SCHEMA}, timeouts=int(expected == 503)
        )


class TestCancelledCompileLeavesNothing:
    def test_no_cache_entry_no_memo_and_the_same_answer_after(self):
        limits = ServiceLimits(max_slots=1)
        with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            fingerprint = client.register_schema(PATH_SCHEMA)["fingerprint"]
            entry = svc.state.registry.get(fingerprint)
            reach = entry.engine.reach(entry.schema)
            cache_keys = set(entry.engine.cache.snapshot(lambda key: True))
            query = blow_up_query(12)
            status, envelope, _ = _send(
                client,
                "/satisfiable",
                {"fingerprint": fingerprint, "query": query, "deadline": 0.05},
            )
            assert (status, envelope["error"]["code"]) == (503, "timeout")
            # The cancelled compile stored nothing: the path's NFA (finished
            # before the compile began) may be cached, its DFA may not.
            cached = set(entry.engine.cache.snapshot(lambda key: True))
            added = {key[0] for key in cached - cache_keys}
            assert added <= {"thompson", "reachable"}
            assert reach._completions == {} and reach._runners == {}
            assert len(entry.decisions) == 0
            # With time to finish, the same request gets the full answer.
            assert client.satisfiable(fingerprint, query, deadline=60)["satisfiable"]
