"""Each entity is encoded once per row version, and HTTP bodies are
spliced from those pieces.

An ``Entity`` decoded from a frozen row keeps ``json.dumps(to_dict())``
the first time a response needs it; the REST render functions put an
entity's :class:`~repro.core.model.entity.Rendering` in the payload, and
the HTTP server's :func:`~repro.core.service.http_server.encode_body`
splices the kept text in its place. These tests hold the body to
``json.dumps`` of the payload the router returned, byte for byte, on
memory, SQLite and a branch, across updates and pins, and show that a
rendering changed after it was made is encoded, not spliced.
"""

from __future__ import annotations

import http.client
import json
import math
from urllib.parse import quote, urlencode

import pytest

from repro.core.auth.privileges import Privilege
from repro.core.model.entity import Entity, Rendering, SecurableKind
from repro.core.persistence.sqlite import SqliteMetadataStore
from repro.core.service.catalog_service import UnityCatalogService
from repro.core.service.http_server import UnityCatalogHttpServer, encode_body
from repro.core.service.rest import ServiceRouter, TextResponse

BASE = "/api/2.1/unity-catalog"
ADMIN = "admin"
READER = "rita"
TABLES = [f"c.s.t{i}" for i in range(4)]
SPEC = {"table_type": "MANAGED", "format": "DELTA",
        "columns": [{"name": "id", "type": "BIGINT"},
                    {"name": "note", "type": "STRING"}]}


@pytest.fixture(params=["memory", "sqlite", "branch"])
def estate(request, tmp_path):
    """(service, branch or None, kept): one catalog, one schema, four
    tables a reader may select. ``kept`` says whether the store's rows are
    frozen, so that its entities keep their text: the memory store's are
    (caches on), and so are SQLite's, one per row version (caches off)."""
    sqlite = request.param == "sqlite"
    store = SqliteMetadataStore(str(tmp_path / "catalog.db")) if sqlite else None
    service = UnityCatalogService(store=store, enable_cache=not sqlite)
    service.directory.add_user(ADMIN)
    service.directory.add_user(READER)
    mid = service.create_metastore("main", owner=ADMIN).id
    service.create_securable(mid, ADMIN, SecurableKind.CATALOG, "c")
    service.create_securable(mid, ADMIN, SecurableKind.SCHEMA, "c.s")
    for name in TABLES:
        service.create_securable(mid, ADMIN, SecurableKind.TABLE, name,
                                 spec=SPEC, properties={"owner.team": "core"})
    for kind, name, privilege in [
            (SecurableKind.CATALOG, "c", Privilege.USE_CATALOG),
            (SecurableKind.SCHEMA, "c.s", Privilege.USE_SCHEMA),
            (SecurableKind.SCHEMA, "c.s", Privilege.SELECT)]:
        service.grant(mid, ADMIN, kind, name, READER, privilege)
    branch = None
    if request.param == "branch":
        service.create_branch(mid, ADMIN, "c", "dev")
        branch = "c@dev"
    yield service, branch, True
    if store is not None:
        store.close()


class Recorded:
    """An HTTP server whose router keeps every payload it returns."""

    def __init__(self, service):
        self.server = UnityCatalogHttpServer(service).start()
        router = self.server._httpd.RequestHandlerClass.api
        self.router = router
        self.payloads: list = []
        handle = router.handle

        def recording(*args, **kwargs):
            status, payload = handle(*args, **kwargs)
            self.payloads.append(payload)
            return status, payload

        router.handle = recording
        self.connection = http.client.HTTPConnection(*self.server.address, timeout=10)

    def request(self, method: str, path: str, *, principal: str = READER,
                params: dict | None = None, body: dict | None = None):
        """(status, body bytes, the payload the router returned for it)."""
        target = quote(path) + ("?" + urlencode(params) if params else "")
        self.connection.request(
            method, target, body=json.dumps(body).encode() if body else None,
            headers={"X-Unity-Principal": principal})
        response = self.connection.getresponse()
        return response.status, response.read(), self.payloads[-1]

    def close(self) -> None:
        self.connection.close()
        self.server.stop()


@pytest.fixture
def served(estate):
    service, branch, kept = estate
    recorded = Recorded(service)
    yield recorded, branch, kept
    recorded.close()


def _pin(branch):
    return {"branch": branch} if branch else {}


def _routes(branch):
    """One request per route class the fixture drives: (method, path,
    principal, params, body)."""
    pin = _pin(branch)
    named = {"metastore": "main", **pin}
    return [
        ("GET", f"{BASE}/tables/{TABLES[0]}", READER, named, None),
        ("GET", f"{BASE}/tables", READER, {"parent": "c.s", **named}, None),
        ("POST", f"{BASE}/resolve", READER, pin,
         {"metastore": "main", "tables": TABLES, "engine_trusted": True}),
        ("GET", f"{BASE}/grants", ADMIN,
         {"securable_kind": "SCHEMA", "securable_name": "c.s", **named}, None),
        ("GET", f"{BASE}/has-privilege", READER,
         {"securable_kind": "TABLE", "securable_name": TABLES[1],
          "privilege": "SELECT", **named}, None),
        ("GET", f"{BASE}/tables/c.s.ghost", READER, named, None),
        ("GET", "/metrics", READER, None, None),
    ]


def _expected(payload) -> bytes:
    if isinstance(payload, TextResponse):
        return payload.body.encode()
    return json.dumps(payload).encode()


def test_every_body_is_json_dumps_of_the_router_payload(served):
    recorded, branch, kept = served
    statuses = []
    for _ in range(2):  # the second pass splices what the first one kept
        for method, path, principal, params, body in _routes(branch):
            status, data, payload = recorded.request(
                method, path, principal=principal, params=params, body=body)
            assert data == _expected(payload), path
            statuses.append(status)
    assert statuses[:7] == [200, 200, 200, 200, 200, 404, 200]
    table, _, resolved = recorded.payloads[7:10]
    # the resolve vended a credential for each table
    assert all(asset["credential"]["token"] for asset in resolved["assets"].values())
    # a row keeps its text, on either store
    assert type(table) is Rendering
    assert (table.entity.json_text() is not None) is kept
    assert (table.kept_text() is not None) is kept


def test_an_update_is_served_new_and_a_pin_serves_the_old(served):
    recorded, branch, kept = served
    service = recorded.router._service
    mid = service.metastore_id("main")
    params = {"metastore": "main", **_pin(branch)}
    path = f"{BASE}/tables/{TABLES[0]}"
    _, first, _ = recorded.request("GET", path, params=params)
    before = service.head_version(mid)

    name = TABLES[0].replace("c", branch, 1) if branch else TABLES[0]
    service.update_securable(mid, ADMIN, SecurableKind.TABLE, name, comment="after")
    status, second, payload = recorded.request("GET", path, params=params)
    assert status == 200 and payload["comment"] == "after"
    assert second == json.dumps(payload).encode() != first

    status, pinned, payload = recorded.request(
        "GET", path, params={**params, "at_version": before})
    assert status == 200 and pinned == first
    assert pinned == json.dumps(payload).encode()


@pytest.mark.parametrize("estate", ["branch"], indirect=True)
def test_a_branch_read_is_the_branchs_body(estate):
    service, branch, _ = estate
    recorded = Recorded(service)
    try:
        mid = service.metastore_id("main")
        path = f"{BASE}/tables/{TABLES[0]}"
        service.update_securable(mid, ADMIN, SecurableKind.TABLE, TABLES[0],
                                 comment="trunk only")
        _, on_branch, payload = recorded.request(
            "GET", path, params={"metastore": "main", "branch": branch})
        assert payload["comment"] != "trunk only"
        assert on_branch == json.dumps(payload).encode()
        _, on_trunk, payload = recorded.request(
            "GET", path, params={"metastore": "main"})
        assert payload["comment"] == "trunk only"
        assert on_trunk == json.dumps(payload).encode()
    finally:
        recorded.close()


def test_in_process_payloads_are_plain_json_dicts(estate):
    service, branch, _ = estate
    router = ServiceRouter(service)
    for method, path, principal, params, body in _routes(branch)[:5]:
        status, payload = router.handle(method, path, principal=principal,
                                        params=params, body=body)
        assert status == 200 and isinstance(payload, dict)
        assert json.loads(json.dumps(payload)) == payload
    listed = router.handle(
        "GET", f"{BASE}/tables", principal=READER,
        params={"parent": "c.s", "metastore": "main", **_pin(branch)})[1]
    assert [type(item) for item in listed["items"]] == [Rendering] * len(TABLES)
    for item in listed["items"]:
        assert type(item["spec"]) is dict and type(item["properties"]) is dict
        assert item == item.entity.to_dict()


# -- a rendering changed after it was made ---------------------------------------


def _rendering(estate) -> Rendering:
    service, branch, _ = estate
    _, payload = ServiceRouter(service).handle(
        "GET", f"{BASE}/tables/{TABLES[0]}", principal=READER,
        params={"metastore": "main", **_pin(branch)})
    assert type(payload) is Rendering
    return payload


CHANGES = {
    "set": lambda r: r.__setitem__("comment", "changed"),
    "delete": lambda r: r.__delitem__("deleted_at"),
    "update": lambda r: r.update(owner="mallory"),
    "setdefault": lambda r: r.setdefault("extra", 1),
    "pop": lambda r: r.pop("storage_path"),
    "merge": lambda r: r.__ior__({"name": "other"}),
    "spec": lambda r: r["spec"].__setitem__("format", "PARQUET"),
    "spec-drop": lambda r: r["spec"].pop("columns"),
    "properties": lambda r: r["properties"].__setitem__("owner.team", "edge"),
}


@pytest.mark.parametrize("change", list(CHANGES))
def test_a_changed_rendering_is_never_spliced(estate, change):
    rendering = _rendering(estate)
    original = encode_body(rendering)
    CHANGES[change](rendering)
    assert rendering.kept_text() is None
    assert encode_body(rendering) == json.dumps(rendering) != original
    assert encode_body({"items": [rendering]}) == json.dumps({"items": [rendering]})


def test_a_writers_entity_keeps_no_text():
    entity = Entity(id="e", kind=SecurableKind.TABLE, name="t", metastore_id="m",
                    parent_id="p", owner="o", created_at=1.0, updated_at=1.0,
                    spec={"columns": []})
    assert entity.json_text() is None
    rendering = entity.rendering()
    assert rendering.kept_text() is None
    entity.spec["columns"].append({"name": "late"})  # a plain spec may change
    assert encode_body(entity.rendering()) == json.dumps(entity.to_dict())


# -- the encoder against json.dumps ----------------------------------------------


def test_encode_body_is_json_dumps_on_every_shape(estate):
    rendering = _rendering(estate)
    payloads = [
        rendering,
        {"items": [rendering, rendering]},
        {"items": [1, rendering, "x", rendering, None]},
        {"assets": {"a": {"entity": rendering, "columns": [{"n": 1}]}},
         "version": 3, "more": {"x": [1.5, math.nan]}},
        {"a": {"b": {"c": {"d": rendering}}}},  # deeper than the splice looks
        {1: rendering, None: [rendering], 2.5: True, "s": (1, 2)},
        [rendering, {"e": rendering}, [rendering]],
        {"empty": {}, "list": [], "s": "é☃\n\"", "f": -0.0},
        {}, [], "text", 7, None,
    ]
    for payload in payloads:
        assert encode_body(payload) == json.dumps(payload)


def test_a_cyclic_payload_still_fails():
    cyclic: dict = {"items": []}
    cyclic["items"].append(cyclic)
    with pytest.raises((ValueError, RecursionError)):
        encode_body(cyclic)


@pytest.mark.parametrize("estate", ["memory"], indirect=True)
def test_a_cyclic_payload_is_answered_500(estate):
    service, _, _ = estate
    recorded = Recorded(service)
    cyclic: dict = {"assets": {}}
    cyclic["assets"]["self"] = cyclic
    recorded.router.handle = lambda *args, **kwargs: (200, cyclic)
    try:
        recorded.connection.request("GET", f"{BASE}/catalogs?metastore=main",
                                    headers={"X-Unity-Principal": READER})
        response = recorded.connection.getresponse()
        answer = json.loads(response.read())
    finally:
        recorded.close()
    assert response.status == 500
    assert answer["error_code"] == "INTERNAL_ERROR"
