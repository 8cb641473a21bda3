"""In-process daemon end-to-end: submit, stream, dedupe, report, journal
byte-identity with the CLI paths."""

import json
import threading

import pytest

from repro.analysis.report import rebuild_report
from repro.experiments.__main__ import main as cli_main
from repro.service import (
    CampaignService,
    EngineCache,
    ServiceClient,
    ServiceUnavailable,
    execute_submission,
)
from repro.service.protocol import normalize_submission
from repro.store import CampaignStore


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon on an OS-assigned port, torn down after the test."""
    service = CampaignService(
        tmp_path / "daemon-store", port=0, jobs=0, durable=True
    )
    thread = threading.Thread(
        target=service.serve_forever, kwargs={"quiet": True}, daemon=True
    )
    thread.start()
    assert service.ready.wait(timeout=30)
    yield service
    service.request_stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


def _client(daemon, tenant="test"):
    return ServiceClient(port=daemon.port, tenant=tenant, timeout=120)


def test_submit_runs_to_completion_and_streams(daemon):
    client = _client(daemon)
    out = client.run(workload="vcopy", category="pure-data", scale="smoke")
    assert not out["cached"]
    final = out["final"]
    assert final["event"] == "complete"
    assert final["done"] == final["totals"]["total"] > 0
    assert final["misses"] == final["done"]  # fresh store: nothing replayed
    assert out["first_result_latency"] < out["elapsed"] + 1e-9


def test_repeat_submission_is_served_from_the_store(daemon):
    client = _client(daemon)
    first = client.run(workload="vcopy", category="pure-data", scale="smoke")
    again = client.run(workload="vcopy", category="pure-data", scale="smoke")
    assert not first["cached"]
    assert again["cached"]
    assert again["final"]["state"] == "complete"
    assert again["final"]["totals"] == first["final"]["totals"]


def test_cross_tenant_memoization(daemon):
    a = _client(daemon, tenant="alice")
    b = _client(daemon, tenant="bob")
    first = a.run(workload="dot_product", category="pure-data", scale="smoke")
    second = b.run(workload="dot_product", category="pure-data", scale="smoke")
    assert not first["cached"]
    assert second["cached"]  # same content key: bob rides alice's campaign


def test_concurrent_tenants_all_complete(daemon):
    # Distinct seeds -> distinct campaigns; all run through one daemon.
    results = {}

    def one(i):
        client = _client(daemon, tenant=f"tenant{i}")
        results[i] = client.run(
            workload="vcopy", category="pure-data", scale="smoke",
            seed=9000 + i,
        )

    threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(results) == 4
    assert all(r["final"]["event"] == "complete" for r in results.values())
    # Four distinct campaigns landed in one store.
    assert len(daemon.store.manifests()) == 4
    assert all(m["completed"] for m in daemon.store.manifests())


def test_daemon_journal_matches_local_cli_run(daemon, tmp_path):
    client = _client(daemon)
    client.run(workload="vector_sum", category="pure-data", scale="smoke")
    local_store = tmp_path / "local-store"
    assert (
        cli_main(
            [
                "submit", "--local", "--workload", "vector_sum",
                "--category", "pure-data", "--scale", "smoke",
                "--store", str(local_store),
            ]
        )
        == 0
    )
    daemon.store.flush()
    assert (daemon.store.root / "journal.jsonl").read_bytes() == (
        local_store / "journal.jsonl"
    ).read_bytes()


def test_report_endpoint_matches_offline_rebuild(daemon):
    client = _client(daemon)
    client.run(workload="vcopy", category="pure-data", scale="smoke")
    served = client.report("fig11", "json")
    offline = CampaignStore(daemon.store.root)
    try:
        expected = rebuild_report(offline, "fig11").to_json()
    finally:
        offline.close()
    assert served == expected + "\n"


def test_status_endpoint_shares_cli_json_schema(daemon):
    client = _client(daemon)
    client.run(workload="vcopy", category="pure-data", scale="smoke")
    payload = client.status()
    (row,) = payload["campaigns"]
    assert row["state"] == "complete"
    assert row["totals"]["total"] == row["done"] > 0
    assert payload["schema"] == 1
    assert "tenants" in payload


def test_bad_submission_is_rejected_with_400(daemon):
    client = _client(daemon)
    with pytest.raises(ValueError, match="unknown workload"):
        client.submit(workload="not_a_workload")
    with pytest.raises(ValueError, match="priority"):
        client.submit(workload="vcopy", priority=99)


def test_backpressure_returns_429(tmp_path):
    service = CampaignService(
        tmp_path / "store", port=0, jobs=0, durable=False, max_pending=0
    )
    thread = threading.Thread(
        target=service.serve_forever, kwargs={"quiet": True}, daemon=True
    )
    thread.start()
    assert service.ready.wait(timeout=30)
    try:
        client = ServiceClient(port=service.port, timeout=30)
        with pytest.raises(ServiceUnavailable) as exc:
            client.submit(workload="vcopy", category="pure-data")
        assert exc.value.status == 429
    finally:
        service.request_stop()
        thread.join(timeout=30)


def test_events_for_finished_campaign_yield_snapshot(daemon):
    client = _client(daemon)
    out = client.run(workload="vcopy", category="pure-data", scale="smoke")
    events = list(client.events(out["campaign"]))
    names = [name for name, _ in events]
    assert names[0] == "snapshot"
    assert names[-1] in ("snapshot", "complete")
    snap = events[0][1]
    assert snap["state"] == "complete"
    assert snap["totals"]["total"] == out["final"]["totals"]["total"]


def test_unknown_endpoints_and_campaigns_404(daemon):
    client = _client(daemon)
    status, payload = client._request("GET", "/nope")
    assert status == 404
    status, payload = client._request("GET", "/v1/campaigns/deadbeef")
    assert status == 404
    with pytest.raises(ServiceUnavailable):
        client.report("fig12")  # nothing stored under that name


def test_health_reports_engine_reuse(daemon):
    client = _client(daemon)
    client.run(workload="vcopy", category="pure-data", scale="smoke")
    client.run(
        workload="vcopy", category="pure-data", scale="smoke", seed=4242
    )
    health = client.health()
    assert health["ok"]
    # Second campaign on the same spec reused the warm parent engine.
    assert health["engines"]["builds"] == 1
    assert health["engines"]["reuses"] >= 1


def test_engine_is_pooled_before_the_final_event(tmp_path):
    """A client that resubmits on "complete" must find the warm engine."""
    engines = EngineCache()
    seen = []

    def emit(event):
        if event["event"] == "complete":
            seen.append(engines.stats())

    sub = normalize_submission(
        {"workload": "vcopy", "category": "pure-data", "scale": "smoke"}
    )
    store = CampaignStore(tmp_path / "store")
    try:
        execute_submission(store, sub, pool=None, engines=engines, emit=emit)
    finally:
        store.close()
    assert [s["pooled"] for s in seen] == [1]
