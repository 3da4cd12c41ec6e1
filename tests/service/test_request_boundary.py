"""Nothing a client sends can make the service answer 500 or hang up.

Regression tests pin the two boundary bugs found so far -- an
``Infinity`` field value and an infinite or huge deadline header -- and a
property test sends generated ``/v1/plan``, ``/v1/release`` and
``/v1/drain`` requests (wrong types, huge ints, non-finite floats,
unknown and missing fields, non-ASCII job names, garbage deadline
headers, deadlines shorter than the plan) to an in-process service.
Every request must get one of the documented statuses, and a request that
is not granted must leave the core ledger and the journal exactly as they
were -- for a 504, also once the worker has finished with it.
"""

import http.client
import json
import os
import tempfile
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.service.config import DEFAULT_TOKEN, ServiceConfig
from repro.service.server import DecisionService

from tests.service.conftest import SMALL_SAMPLES

#: Statuses each endpoint may answer with.  202 is the drain
#: acknowledgement; 500 and a dropped connection are never allowed.
ALLOWED = {
    "/v1/plan": {200, 400, 503, 504},
    "/v1/release": {200, 400, 404},
    "/v1/drain": {202, 400},
}

#: Keeps every granted plan cheap: larger jobs are a 400.
MAX_SAMPLES = 64


def post(service, path, body, deadline=None):
    """One raw HTTP request; returns (status, decoded body).

    Raises (e.g. ``RemoteDisconnected``) if the server drops the
    connection without a response.
    """
    headers = {
        "Authorization": f"Bearer {DEFAULT_TOKEN}",
        "Content-Type": "application/json",
    }
    if deadline is not None:
        headers["X-Sophon-Deadline-S"] = deadline
    conn = http.client.HTTPConnection(*service.address, timeout=30.0)
    try:
        conn.request("POST", path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def journal_bytes(service):
    with open(service.config.journal_path, "rb") as handle:
        return handle.read()


def fresh_service(directory, delay=0.0):
    """A one-worker service whose first plan is held up by ``delay`` s."""
    return DecisionService(
        ServiceConfig(
            total_storage_cores=16,
            workers=1,
            max_samples=MAX_SAMPLES,
            journal_path=os.path.join(directory, "journal.jsonl"),
            sync_journal=False,
        ),
        disturbance=lambda index: delay if index == 0 else 0.0,
    ).start()


def test_infinite_num_samples_is_a_bad_request(live_service):
    status, body = post(live_service, "/v1/plan", '{"job": "a", "num_samples": Infinity}')
    assert status == 400
    assert "malformed request" in body["error"]
    assert live_service.ledger.committed() == {}


def test_infinite_or_huge_deadline_falls_back_to_the_default(live_service):
    for job, deadline in (("j-inf", "inf"), ("j-1e300", "1e300")):
        request = {"job": job, "num_samples": SMALL_SAMPLES, "storage_cores": 4}
        status, body = post(live_service, "/v1/plan", json.dumps(request), deadline)
        assert status == 200
        assert body["granted_cores"] == live_service.ledger.committed()[job] == 4


# -- the request-boundary property -------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_junk = st.one_of(
    st.none(),
    st.booleans(),
    _numbers,
    st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_jobs = st.one_of(st.sampled_from(["a", "b", "ジョブ-β", ""]), st.text(max_size=8), _junk)
_spec_fields = {
    "dataset": st.one_of(st.sampled_from(["openimages", "imagenet"]), _junk),
    "num_samples": st.one_of(st.integers(min_value=1, max_value=24), _numbers, _junk),
    "seed": st.one_of(st.integers(min_value=0, max_value=3), _numbers, _junk),
    "model": st.one_of(st.sampled_from(["alexnet", "resnet50"]), _junk),
    "gpu": st.one_of(st.sampled_from(["rtx6000", "v100"]), _junk),
    "storage_cores": st.one_of(st.integers(min_value=1, max_value=20), _numbers, _junk),
}
_unknown_fields = st.dictionaries(
    st.text(max_size=8).filter(lambda key: key != "job" and key not in _spec_fields),
    _junk,
    min_size=1,
    max_size=2,
)
_plan_bodies = st.one_of(
    st.fixed_dictionaries({"job": _jobs}, optional=_spec_fields),
    st.fixed_dictionaries({}, optional={"job": _jobs, **_spec_fields}),
    st.fixed_dictionaries({"job": _jobs}, optional=_spec_fields).flatmap(
        lambda body: _unknown_fields.map(lambda extra: {**body, **extra})
    ),
)
_release_bodies = st.fixed_dictionaries({}, optional={"job": _jobs})


def _encoded(bodies):
    """A generated body as JSON (``Infinity``/``NaN`` included), a
    non-object JSON value, or bytes that are not JSON at all.

    Object bodies are listed twice so half the requests reach the field
    parsing, where the interesting failures are.
    """
    return st.one_of(
        bodies.map(json.dumps),
        bodies.map(json.dumps),
        _junk.map(json.dumps),
        st.binary(max_size=12),
    )


#: "0.04" outlasts the worker's pick-up but not a delayed first plan.
_deadlines = st.one_of(
    st.none(),
    st.sampled_from(
        ["inf", "-inf", "nan", "Infinity", "1e300", "-1", "0", "", "x", "30", "0.04"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=8),
)
_requests = st.one_of(
    st.tuples(st.just("/v1/plan"), _encoded(_plan_bodies), _deadlines),
    st.tuples(st.just("/v1/release"), _encoded(_release_bodies), st.none()),
)
_sessions = st.tuples(
    st.lists(_requests, min_size=1, max_size=4),
    st.one_of(st.none(), _encoded(_plan_bodies)),
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(session=_sessions, delay=st.sampled_from([0.0, 0.15]))
@example(
    session=([("/v1/plan", '{"job": "a", "num_samples": 8, "storage_cores": 4}', "0.04")], None),
    delay=0.15,
)
def test_every_request_gets_a_documented_status_and_rejections_change_nothing(
    session, delay
):
    requests, drain_body = session
    if drain_body is not None:
        requests = requests + [("/v1/drain", drain_body, None)]
    with tempfile.TemporaryDirectory() as directory:
        service = fresh_service(directory, delay)
        try:
            for path, body, deadline in requests:
                committed = service.ledger.committed()
                journal = journal_bytes(service)
                status, response = post(service, path, body, deadline)
                assert status in ALLOWED[path], (path, body, deadline, status, response)
                if status == 200 and path == "/v1/plan":
                    assert response["granted_cores"] == (
                        service.ledger.committed()[response["job"]]
                    )
                elif status == 202:
                    until = time.monotonic() + 10.0
                    while service.drain_seconds is None and time.monotonic() < until:
                        time.sleep(0.005)
                    assert service.drain_seconds is not None
                elif status != 200:
                    if status == 504:
                        service.queue.join()  # let the worker finish with it
                    assert service.ledger.committed() == committed, (path, body, status)
                    assert journal_bytes(service) == journal, (path, body, status)
        finally:
            if service.drain_seconds is None:
                service.kill()
