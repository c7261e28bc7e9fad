"""HTTP/JSON API: every route answers what the query plane answers."""

import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro.observatory import (
    Observatory,
    ObservatoryServer,
    ResolverStore,
    ingest_checkpoint,
)
from repro.perf import PerfRegistry

from tests.observatory.conftest import FakeGeo


@pytest.fixture(scope="module")
def served(campaign_checkpoint, tmp_path_factory):
    directory, __, campaign = campaign_checkpoint
    store = ResolverStore(
        str(tmp_path_factory.mktemp("observatory-http") / "store"))
    ingest_checkpoint(store, str(directory), geo=FakeGeo())
    observatory = Observatory(store, perf=PerfRegistry())
    server = ObservatoryServer(observatory, port=0).start()
    yield server, observatory, campaign
    server.stop()


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as resp:
        return json.loads(resp.read())


class TestRoutes:
    def test_healthz(self, served):
        server, observatory, __ = served
        body = get(server, "/healthz")
        assert body["ok"] is True
        assert body["generation"] == observatory.store.generation

    def test_stats_carries_query_counters(self, served):
        server, observatory, __ = served
        body = get(server, "/stats")
        assert body["resolvers"] == len(observatory.store)
        assert body["weeks"] == 3
        assert body["queries_served"] >= 0

    def test_resolver_matches_direct_lookup(self, served):
        server, observatory, campaign = served
        ip = sorted(campaign.snapshots[0].result.responders)[0]
        assert get(server, "/resolver/" + ip) == observatory.lookup(ip)

    def test_unknown_resolver_is_404(self, served):
        server, __, __ = served
        with pytest.raises(urllib.error.HTTPError) as error:
            get(server, "/resolver/203.0.113.254")
        assert error.value.code == 404

    def test_rankings_match_query_plane(self, served):
        server, observatory, __ = served
        body = get(server, "/rankings/countries?top=3")
        rows, share = observatory.country_rankings(top=3)
        assert body == json.loads(json.dumps(
            {"rows": rows, "top_share": share}))
        rirs = get(server, "/rankings/rirs")
        assert rirs["rows"] == json.loads(
            json.dumps(observatory.rir_rankings()))

    def test_survival_matches_query_plane(self, served):
        server, observatory, __ = served
        body = get(server, "/survival")
        assert body["curve"] == [[week, pct] for week, pct
                                 in observatory.survival()]

    def test_timeline_route(self, served):
        server, __, campaign = served
        ip = sorted(campaign.snapshots[0].result.responders)[0]
        base = ip.rsplit(".", 1)[0] + ".0"
        body = get(server, "/timeline/%s/24" % base)
        assert body["prefix"] == "%s/24" % base
        assert [row["week"] for row in body["rows"]] == [0, 1, 2]

    def test_bad_prefix_is_400(self, served):
        server, __, __ = served
        with pytest.raises(urllib.error.HTTPError) as error:
            get(server, "/timeline/nonsense/24")
        assert error.value.code == 400

    @pytest.mark.parametrize("top", ["-3", "0", "abc"])
    def test_non_positive_or_bad_top_is_400(self, served, top):
        server, __, __ = served
        with pytest.raises(urllib.error.HTTPError) as error:
            get(server, "/rankings/countries?top=" + top)
        assert error.value.code == 400
        assert "error" in json.loads(error.value.read())

    def test_unknown_route_is_404(self, served):
        server, __, __ = served
        with pytest.raises(urllib.error.HTTPError) as error:
            get(server, "/no/such/thing")
        assert error.value.code == 404

    def test_queries_served_counter_moves(self, served):
        server, observatory, campaign = served
        ip = sorted(campaign.snapshots[0].result.responders)[0]
        before = observatory.perf.counter("observatory_queries_served")
        get(server, "/resolver/" + ip)
        assert observatory.perf.counter("observatory_queries_served") \
            == before + 1


# -- keep-alive serving -------------------------------------------------------

def route_answers(observatory, campaign):
    """``(path, status, answer)`` for every route, as the query plane
    answers it.  Callables are evaluated after the response arrives, so
    counters in ``/stats`` include every earlier query."""
    responders = sorted(campaign.snapshots[0].result.responders)
    base = responders[0].rsplit(".", 1)[0] + ".0"
    perf = observatory.perf

    def stats():
        body = observatory.stats()
        body["queries_served"] = perf.counter(
            "observatory_queries_served")
        body["ingest_lag_records"] = perf.gauge_value(
            "observatory_ingest_lag_records")
        return body

    def countries():
        rows, share = observatory.country_rankings(top=3)
        return {"rows": rows, "top_share": share}

    routes = [
        ("/healthz", 200, lambda: {
            "ok": True, "generation": observatory.store.generation}),
        ("/stats", 200, stats),
        ("/rankings/countries?top=3", 200, countries),
        ("/rankings/rirs", 200, lambda: {
            "rows": observatory.rir_rankings()}),
        ("/survival", 200, lambda: {
            "curve": [[week, pct] for week, pct in observatory.survival()]}),
        ("/timeline/%s/24" % base, 200, lambda: {
            "prefix": "%s/24" % base,
            "rows": observatory.timeline("%s/24" % base)}),
        ("/resolver/203.0.113.254", 404, lambda: {
            "error": "unknown resolver 203.0.113.254"}),
    ]
    for ip in responders:
        routes.append(("/resolver/" + ip, 200,
                       lambda ip=ip: observatory.lookup(ip)))
    return routes


class TestKeepAlive:
    """One persistent connection, many requests: the Nagle stall.

    With headers and body sent as two small writes, every keep-alive
    response waited ~40 ms for the client's delayed ACK; ``urlopen``
    closes after each request, so the route tests above never saw it.
    """

    REQUESTS = 60

    def test_one_connection_serves_every_route_fast(self, served):
        server, observatory, campaign = served
        routes = route_answers(observatory, campaign)
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        latencies = []
        try:
            for index in range(max(self.REQUESTS, len(routes))):
                path, status, answer = routes[index % len(routes)]
                started = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == status, path
                assert not response.will_close
                assert body == json.dumps(answer(), sort_keys=True).encode(
                    "utf-8"), path
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.010

    def test_each_response_is_one_nodelay_socket_write(self, served,
                                                       monkeypatch):
        server, observatory, campaign = served
        port = server.address[1]
        writes = []                     # (bytes, TCP_NODELAY) per send

        def counting(real):
            def write(sock, data, *args):
                if sock.getsockname()[1] == port:     # server side only
                    writes.append((len(data), sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY)))
                return real(sock, data, *args)
            return write

        monkeypatch.setattr(socket.socket, "send",
                            counting(socket.socket.send))
        monkeypatch.setattr(socket.socket, "sendall",
                            counting(socket.socket.sendall))
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            for path, __, __ in route_answers(observatory, campaign)[:8]:
                before = len(writes)
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                # The body has arrived, so every write of this response
                # has already been counted.
                sent = writes[before:]
                assert len(sent) == 1, (path, sent)
                assert sent[0][0] > len(body)         # headers + body
                assert sent[0][1] != 0                # Nagle off
        finally:
            connection.close()
