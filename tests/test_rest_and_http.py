"""The REST API layer and the real HTTP transport."""

import http.client
import json
import socket
import statistics
import threading
import time
from urllib.parse import quote, urlencode

import pytest

from repro.core.service import http_server
from repro.core.service.http_server import (
    UnityCatalogHttpClient,
    UnityCatalogHttpServer,
)
from repro.core.service.rest import RestApi
from repro.core.model.entity import SecurableKind
from repro.errors import UnityCatalogError

from tests.conftest import grant_table_access
from tests import test_pipeline_parity as parity

#: the parity script's fixture, made visible to this module's tests
deterministic_ids = parity.deterministic_ids

TABLE = "sales.q1.orders"
BASE = "/api/2.1/unity-catalog"


@pytest.fixture
def api(service, populated):
    return RestApi(service)


@pytest.fixture
def mid(populated):
    return populated["metastore_id"]


class TestRestApi:
    def test_get_securable(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": "main"},
        )
        assert status == 200
        assert body["name"] == "orders"
        assert body["spec"]["table_type"] == "MANAGED"

    def test_metastore_accepts_raw_id(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": mid},
        )
        assert status == 200

    def test_404_for_missing(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/tables/sales.q1.ghost", principal="alice",
            params={"metastore": "main"},
        )
        assert status == 404
        assert body["error_code"] == "RESOURCE_DOES_NOT_EXIST"

    def test_403_for_denied(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/tables/{TABLE}", principal="bob",
            params={"metastore": "main"},
        )
        assert status == 403
        assert body["error_code"] == "PERMISSION_DENIED"

    def test_create_catalog(self, api, mid):
        status, body = api.handle(
            "POST", f"{BASE}/catalogs", principal="alice",
            body={"metastore": "main", "name": "marketing"},
        )
        assert status == 201
        assert body["kind"] == "CATALOG"

    def test_duplicate_create_is_409(self, api, mid):
        status, _ = api.handle(
            "POST", f"{BASE}/catalogs", principal="alice",
            body={"metastore": "main", "name": "sales"},
        )
        assert status == 409

    def test_list_catalogs(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/catalogs", principal="alice",
            params={"metastore": "main"},
        )
        assert status == 200
        assert [c["name"] for c in body["items"]] == ["sales"]

    def test_patch_comment(self, api, mid):
        status, body = api.handle(
            "PATCH", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": "main"}, body={"comment": "orders fact"},
        )
        assert status == 200 and body["comment"] == "orders fact"

    def test_delete(self, api, mid):
        status, body = api.handle(
            "DELETE", f"{BASE}/tables/{TABLE}", principal="alice",
            params={"metastore": "main"},
        )
        assert status == 200 and body["deleted"] == 1

    def test_grants_roundtrip(self, api, service, mid):
        status, _ = api.handle(
            "POST", f"{BASE}/grants", principal="alice",
            body={"metastore": "main", "securable_kind": "TABLE",
                  "securable_name": TABLE, "principal": "bob",
                  "privilege": "SELECT"},
        )
        assert status == 201
        status, body = api.handle(
            "GET", f"{BASE}/grants", principal="alice",
            params={"metastore": "main", "securable_kind": "TABLE",
                    "securable_name": TABLE},
        )
        assert [g["principal"] for g in body["grants"]] == ["bob"]
        status, _ = api.handle(
            "DELETE", f"{BASE}/grants", principal="alice",
            body={"metastore": "main", "securable_kind": "TABLE",
                  "securable_name": TABLE, "principal": "bob",
                  "privilege": "SELECT"},
        )
        assert status == 200

    def test_temporary_credentials_by_name(self, api, service, mid):
        grant_table_access(service, mid, "bob")
        status, body = api.handle(
            "POST", f"{BASE}/temporary-credentials", principal="bob",
            body={"metastore": "main", "securable_kind": "TABLE",
                  "securable_name": TABLE, "access_level": "READ"},
        )
        assert status == 200
        assert body["token"] and body["scope"].startswith("s3://")

    def test_temporary_credentials_by_path(self, api, service, mid):
        grant_table_access(service, mid, "bob")
        table = service.get_securable(mid, "alice", SecurableKind.TABLE, TABLE)
        status, body = api.handle(
            "POST", f"{BASE}/temporary-credentials", principal="bob",
            body={"metastore": "main", "path": table.storage_path + "/f",
                  "access_level": "READ"},
        )
        assert status == 200
        assert body["resolved_asset"] == "orders"

    def test_batched_resolve(self, api, service, mid):
        grant_table_access(service, mid, "bob")
        status, body = api.handle(
            "POST", f"{BASE}/resolve", principal="bob",
            body={"metastore": "main", "tables": [TABLE]},
        )
        assert status == 200
        asset = body["assets"][TABLE]
        assert asset["credential"]["token"]
        assert asset["columns"][0]["name"] == "id"

    def test_unknown_route_404(self, api):
        status, _ = api.handle("GET", "/nope", principal="alice")
        assert status == 404
        status, _ = api.handle("GET", f"{BASE}/frobnicators", principal="alice")
        assert status == 404

    def test_missing_metastore_param_400(self, api):
        status, body = api.handle("GET", f"{BASE}/catalogs", principal="alice")
        assert status == 400


class TestDiscoveryRoutes:
    def test_information_schema_route(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/information-schema", principal="alice",
            params={"metastore": "main", "kind": "TABLE"},
        )
        assert status == 200
        assert [r["name"] for r in body["rows"]] == ["orders"]

    def test_information_schema_pushdown_via_post(self, api, mid, populated):
        populated["session"].sql(
            "CREATE VIEW sales.q1.v AS SELECT id FROM sales.q1.orders")
        status, body = api.handle(
            "POST", f"{BASE}/information-schema", principal="alice",
            body={"metastore": "main", "kind": "TABLE",
                  "where": [{"column": "table_type", "op": "=",
                             "value": "VIEW"}]},
        )
        assert [r["name"] for r in body["rows"]] == ["v"]

    def test_lineage_route(self, api, service, mid, populated):
        populated["session"].sql(
            "CREATE VIEW sales.q1.v AS SELECT id FROM sales.q1.orders")
        status, body = api.handle(
            "GET", f"{BASE}/lineage", principal="alice",
            params={"metastore": "main", "asset": TABLE,
                    "direction": "downstream"},
        )
        assert status == 200
        assert body["assets"] == ["sales.q1.v"]

    def test_lineage_bad_direction(self, api, mid):
        status, body = api.handle(
            "GET", f"{BASE}/lineage", principal="alice",
            params={"metastore": "main", "asset": TABLE,
                    "direction": "sideways"},
        )
        assert status == 400

    def test_search_route_requires_attachment(self, api, mid):
        status, _ = api.handle(
            "POST", f"{BASE}/search", principal="alice",
            body={"metastore": "main", "query": "orders"},
        )
        assert status == 404

    def test_search_route_with_service(self, service, mid):
        from repro.core.search import SearchService

        api = RestApi(service, search_service=SearchService(service))
        status, body = api.handle(
            "POST", f"{BASE}/search", principal="alice",
            body={"metastore": "main", "query": "orders"},
        )
        assert status == 200
        assert [h["full_name"] for h in body["hits"]] == [TABLE]


@pytest.fixture
def server(service, populated):
    with UnityCatalogHttpServer(service) as running:
        yield running


class TestHttpTransport:
    def test_full_round_trip_over_http(self, server, service, mid):
        host, port = server.address
        with UnityCatalogHttpClient(host, port, "alice") as alice:
            body = alice.request("GET", f"{BASE}/tables/{TABLE}",
                                 params={"metastore": "main"})
        assert body["name"] == "orders"

    def test_http_enforces_authorization(self, server, mid):
        host, port = server.address
        with UnityCatalogHttpClient(host, port, "bob") as bob:
            with pytest.raises(UnityCatalogError):
                bob.request("GET", f"{BASE}/tables/{TABLE}",
                            params={"metastore": "main"})

    def test_http_create_and_list(self, server, mid):
        host, port = server.address
        with UnityCatalogHttpClient(host, port, "alice") as alice:
            alice.request("POST", f"{BASE}/schemas",
                          body={"metastore": "main", "name": "sales.q2"})
            body = alice.request("GET", f"{BASE}/schemas",
                                 params={"metastore": "main", "parent": "sales"})
        assert [s["name"] for s in body["items"]] == ["q1", "q2"]

    def test_http_missing_principal_is_401(self, server):
        host, port = server.address
        connection = http.client.HTTPConnection(host, port)
        connection.request("GET", f"{BASE}/catalogs?metastore=main")
        response = connection.getresponse()
        assert response.status == 401
        connection.close()


# ----------------------------------------------------------------------
# the connection lifecycle, spoken to over a raw socket
# ----------------------------------------------------------------------

GET_ORDERS = f"{BASE}/tables/{TABLE}?metastore=main"


def _wire(method: str, target: str, *, principal: str = "alice",
          body: bytes = b"", version: str = "HTTP/1.1",
          headers: tuple[str, ...] = (), length: object = None) -> bytes:
    """One request as bytes. ``length`` overrides the Content-Length value."""
    lines = [f"{method} {target} {version}", "Host: test"]
    if principal:
        lines.append(f"X-Unity-Principal: {principal}")
    if body or length is not None:
        lines.append(f"Content-Length: {len(body) if length is None else length}")
    lines.extend(headers)
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    """Status, headers (lower-cased names) and body of the next response."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


class _RawConnection:
    """A client socket plus a buffered reader over it."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5)
        self.reader = self.sock.makefile("rb")

    def exchange(self, wire: bytes) -> tuple[int, dict[str, str], bytes]:
        self.sock.sendall(wire)
        return _read_response(self.reader)

    def at_eof(self) -> bool:
        """True once the server has closed its side (waits up to 5 s)."""
        return self.reader.read(1) == b""

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@pytest.fixture
def raw(server):
    connection = _RawConnection(server.address)
    yield connection
    connection.close()


def _connections_total(service) -> float:
    return service.obs.metrics.get("uc_http_connections_total").value


def _open_connections(service) -> float:
    return service.obs.metrics.get("uc_http_open_connections").value


class TestPersistentConnections:
    def test_many_requests_one_accept(self, raw, service):
        for _ in range(25):
            status, headers, body = raw.exchange(_wire("GET", GET_ORDERS))
            assert status == 200
            assert "connection" not in headers
            assert json.loads(body)["name"] == "orders"
        assert _connections_total(service) == 1
        assert _open_connections(service) == 1

    @pytest.mark.parametrize("status, wire", [
        (401, _wire("GET", GET_ORDERS, principal="")),
        (403, _wire("GET", GET_ORDERS, principal="bob")),
        (404, _wire("GET", f"{BASE}/tables/sales.q1.nope?metastore=main")),
        (400, _wire("POST", f"{BASE}/schemas", body=b"{not json")),
    ])
    def test_error_leaves_the_connection_usable(self, raw, service, status, wire):
        answered, headers, body = raw.exchange(wire)
        assert answered == status
        assert "connection" not in headers
        assert "error_code" in json.loads(body)
        assert raw.exchange(_wire("GET", GET_ORDERS))[0] == 200
        assert _connections_total(service) == 1

    def test_pipelined_requests_are_answered_in_order(self, raw):
        raw.sock.sendall(
            _wire("GET", GET_ORDERS)
            + _wire("GET", f"{BASE}/catalogs?metastore=main")
        )
        first = json.loads(_read_response(raw.reader)[2])
        second = json.loads(_read_response(raw.reader)[2])
        assert first["name"] == "orders"
        assert [c["name"] for c in second["items"]] == ["sales"]

    @pytest.mark.parametrize("wire", [
        _wire("GET", GET_ORDERS, headers=("Connection: close",)),
        _wire("GET", GET_ORDERS, version="HTTP/1.0"),
    ], ids=["connection-close", "http-1.0"])
    def test_closes_after_one_response_when_asked(self, raw, wire):
        status, headers, _ = raw.exchange(wire)
        assert status == 200
        assert headers["connection"] == "close"
        assert raw.at_eof()

    def test_idle_connection_is_reaped(self, service, populated, monkeypatch):
        monkeypatch.setattr(http_server, "IDLE_TIMEOUT_SECONDS", 0.2)
        with UnityCatalogHttpServer(service) as running:
            connection = _RawConnection(running.address)
            try:
                assert connection.exchange(_wire("GET", GET_ORDERS))[0] == 200
                started = time.monotonic()
                assert connection.at_eof()
                assert time.monotonic() - started < 2
            finally:
                connection.close()

    def test_stop_joins_idle_connections(self, service, populated):
        before = set(threading.enumerate())
        running = UnityCatalogHttpServer(service).start()
        connection = _RawConnection(running.address)
        try:
            assert connection.exchange(_wire("GET", GET_ORDERS))[0] == 200
            assert _open_connections(service) == 1
            started = time.monotonic()
            running.stop()
            assert time.monotonic() - started < 1
            assert set(threading.enumerate()) - before == set()
            assert _open_connections(service) == 0
            assert connection.at_eof()
        finally:
            connection.close()

    def test_stop_without_clients_leaves_no_thread(self, service, populated):
        before = set(threading.enumerate())
        UnityCatalogHttpServer(service).start().stop()
        assert set(threading.enumerate()) - before == set()

    def test_large_list_on_a_reused_connection_is_not_nagled(
        self, raw, service, mid
    ):
        """Headers and body in two segments would cost ~40 ms a response
        here: Nagle holds the body until the client's delayed ACK."""
        for index in range(100):
            service.create_securable(
                mid, "alice", SecurableKind.TABLE, f"sales.q1.t{index:03d}",
                spec={"table_type": "MANAGED",
                      "columns": [{"name": "id", "type": "INT"}]},
            )
        wire = _wire("GET", f"{BASE}/tables?metastore=main&parent=sales.q1")
        latencies = []
        for _ in range(15):
            started = time.perf_counter()
            status, _, body = raw.exchange(wire)
            latencies.append(time.perf_counter() - started)
            assert status == 200
            assert len(json.loads(body)["items"]) == 101
        assert statistics.median(latencies) < 0.020


class TestRequestFraming:
    """Every request read gets a framed JSON answer or a deliberate close."""

    SCHEMAS = f"{BASE}/schemas"

    @pytest.mark.parametrize("status, wire", [
        (400, _wire("POST", SCHEMAS, length="abc")),
        (400, _wire("POST", SCHEMAS, length=-1)),
        (413, _wire("POST", SCHEMAS, length=http_server.MAX_BODY_BYTES + 1)),
        (411, _wire("POST", SCHEMAS, headers=("Transfer-Encoding: chunked",),
                    body=b"2\r\n{}\r\n0\r\n\r\n", length=None)),
    ], ids=["length-not-a-number", "length-negative", "over-the-cap", "chunked"])
    def test_untrusted_framing_is_answered_then_closed(
        self, raw, status, wire, capfd
    ):
        answered, headers, body = raw.exchange(wire)
        assert answered == status
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert json.loads(body)["error_code"] == "INVALID_PARAMETER_VALUE"
        assert raw.at_eof()
        assert capfd.readouterr().err == ""

    def test_body_shorter_than_declared(self, raw):
        raw.sock.sendall(_wire("POST", self.SCHEMAS, body=b'{"a"', length=40))
        raw.sock.shutdown(socket.SHUT_WR)
        status, headers, body = _read_response(raw.reader)
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(body)["error_code"] == "INVALID_PARAMETER_VALUE"

    def test_non_object_body_is_400_and_keeps_the_connection(self, raw):
        status, headers, body = raw.exchange(
            _wire("POST", self.SCHEMAS, body=b"[1]"))
        assert status == 400
        assert "connection" not in headers
        assert json.loads(body)["error_code"] == "INVALID_PARAMETER_VALUE"
        assert raw.exchange(_wire("GET", GET_ORDERS))[0] == 200

    def test_unexpected_exception_is_a_json_500(self, raw, monkeypatch, capfd):
        def boom(self, *args, **kwargs):
            raise RuntimeError("boom")

        with monkeypatch.context() as patch:
            patch.setattr(RestApi, "handle", boom)
            status, headers, body = raw.exchange(_wire("GET", GET_ORDERS))
        assert status == 500
        assert "connection" not in headers
        assert json.loads(body) == {"error_code": "INTERNAL_ERROR",
                                    "message": "RuntimeError: boom"}
        assert raw.exchange(_wire("GET", GET_ORDERS))[0] == 200
        assert capfd.readouterr().err == ""

    def test_peer_reset_prints_no_traceback(self, server, capfd):
        connection = _RawConnection(server.address)
        connection.sock.sendall(_wire("GET", GET_ORDERS))
        # SO_LINGER 0: close() sends RST, not FIN
        connection.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00\x00\x00\x00\x00")
        connection.close()
        server.stop()
        assert capfd.readouterr().err == ""


class TestHttpClient:
    def test_one_connection_for_many_requests(self, server, service):
        host, port = server.address
        with UnityCatalogHttpClient(host, port, "alice") as alice:
            for _ in range(5):
                alice.request("GET", f"{BASE}/tables/{TABLE}",
                              params={"metastore": "main"})
            alice.request("POST", f"{BASE}/schemas",
                          body={"metastore": "main", "name": "sales.q2"})
            assert _connections_total(service) == 1
        assert alice._connection.sock is None

    def test_param_values_are_escaped(self, server):
        host, port = server.address
        with UnityCatalogHttpClient(host, port, "alice") as alice:
            body = alice.request(
                "GET", f"{BASE}/catalogs",
                params={"metastore": "r&d = lab 1"}, raise_on_error=False)
        assert body["error_code"] == "RESOURCE_DOES_NOT_EXIST"
        assert "r&d = lab 1" in body["message"]

    def test_path_with_a_branch_suffix(self, server, service, mid):
        service.create_branch(mid, "alice", "sales", "dev")
        host, port = server.address
        with UnityCatalogHttpClient(host, port, "alice") as alice:
            body = alice.request("GET", f"{BASE}/tables/sales@dev.q1.orders",
                                 params={"metastore": "main"})
        assert body["name"] == "orders"

    def test_a_read_reconnects_once_and_a_write_never(
        self, service, populated, monkeypatch
    ):
        monkeypatch.setattr(http_server, "IDLE_TIMEOUT_SECONDS", 0.1)
        get = ("GET", f"{BASE}/tables/{TABLE}")
        with UnityCatalogHttpServer(service) as running:
            with UnityCatalogHttpClient(*running.address, "alice") as alice:
                alice.request(*get, params={"metastore": "main"})
                self._wait_until_reaped(service)
                body = alice.request(*get, params={"metastore": "main"})
                assert body["name"] == "orders"
                assert _connections_total(service) == 2

                self._wait_until_reaped(service)
                with pytest.raises(ConnectionError):
                    alice.request("POST", f"{BASE}/schemas",
                                  body={"metastore": "main", "name": "sales.q2"})
                assert _connections_total(service) == 2
                listed = alice.request(
                    "GET", f"{BASE}/schemas",
                    params={"metastore": "main", "parent": "sales"})
                assert [s["name"] for s in listed["items"]] == ["q1"]

    @staticmethod
    def _wait_until_reaped(service) -> None:
        deadline = time.monotonic() + 5
        while _open_connections(service) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _open_connections(service) == 0


def test_http_bodies_match_the_router_byte_for_byte(deterministic_ids):
    """Every REST-bound step of the parity script, once over a socket and
    once through ``RestApi.handle`` on an identical service."""
    deterministic_ids()
    over_http = []
    env: dict = {}
    with UnityCatalogHttpServer(parity._build_service("memory")) as running:
        connection = http.client.HTTPConnection(*running.address, timeout=10)
        try:
            for step in parity._script():
                target = "/" + quote(step.path(env))
                if step.params(env):
                    target += "?" + urlencode(step.params(env))
                body = step.body(env)
                connection.request(
                    step.method, target,
                    body=json.dumps(body).encode() if body else None,
                    headers={"X-Unity-Principal": step.principal},
                )
                response = connection.getresponse()
                data = response.read()
                over_http.append((response.status, data))
                step.after(env, json.loads(data))
        finally:
            connection.close()

    deterministic_ids()
    router = RestApi(parity._build_service("memory"))
    env = {}
    for step, answered in zip(parity._script(), over_http):
        status, payload = router.handle(
            step.method, step.path(env), principal=step.principal,
            params=step.params(env), body=step.body(env),
        )
        step.after(env, payload)
        assert answered == (status, json.dumps(payload).encode()), step.endpoint
