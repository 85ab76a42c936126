"""Answers that do not depend on the process's hash seed.

A restarted server, or a second one, must answer a request as the first
did.  Two loops used to walk frozensets in hash order: the wildcard
expansion of Thompson's construction and the NFA's shortest-word search.
Both now go in ``repr`` order, so ``/satisfiable`` witnesses and
``/feedback`` query texts agree across ``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys

_ANSWERS = """
import json, sys
from repro.service.daemon import ServiceState
from repro.workloads.domains import domain_corpus

state = ServiceState()
answers = []
for corpus in domain_corpus(seed=0):
    state.handle("POST", "/schemas", json.dumps({"schema": corpus.schema_text}).encode())
    for query in corpus.queries:
        for path, extra in (("/satisfiable", {"witness": True}), ("/feedback", {})):
            body = dict(extra, fingerprint=corpus.fingerprint, query=query)
            status, envelope = state.handle("POST", path, json.dumps(body).encode())
            envelope.pop("meta")
            answers.append([path, status, envelope])
sys.stdout.write(json.dumps(answers, sort_keys=True))
"""


def _answers(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    result = subprocess.run(
        [sys.executable, "-c", _ANSWERS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(result.stdout)


def test_witnesses_and_feedback_agree_across_hash_seeds():
    first, second = _answers("0"), _answers("1")
    assert len(first) == len(second) > 100
    assert {path for path, _status, _envelope in first} == {"/satisfiable", "/feedback"}
    witnesses = [e for path, _s, e in first if path == "/satisfiable" and e["ok"]]
    assert any(e["result"].get("witness") for e in witnesses)
    differing = [pair for pair in zip(first, second) if pair[0] != pair[1]]
    assert differing == []
