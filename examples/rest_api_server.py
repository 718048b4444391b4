"""The open REST API over real HTTP (the paper's openness claim).

Boots a Unity Catalog HTTP server on localhost and drives it with a
plain REST client: metastore CRUD, grants, batched query resolution with
credential vending — the same surface the open-source release exposes.

Run:  python examples/rest_api_server.py
"""

from repro import UnityCatalogService
from repro.core.service.http_server import (
    UnityCatalogHttpClient,
    UnityCatalogHttpServer,
)
from repro.errors import UnityCatalogError

BASE = "/api/2.1/unity-catalog"


def main() -> None:
    service = UnityCatalogService()
    service.directory.add_user("admin")
    service.directory.add_user("etl_job")
    service.create_metastore("prod", owner="admin")

    with UnityCatalogHttpServer(service) as server:
        host, port = server.address
        print(f"unity catalog REST server listening on {host}:{port}")

        admin = UnityCatalogHttpClient(host, port, "admin")
        etl = UnityCatalogHttpClient(host, port, "etl_job")

        # -- namespace CRUD over HTTP ----------------------------------
        admin.request("POST", f"{BASE}/catalogs",
                      body={"metastore": "prod", "name": "web"})
        admin.request("POST", f"{BASE}/schemas",
                      body={"metastore": "prod", "name": "web.events"})
        admin.request("POST", f"{BASE}/tables", body={
            "metastore": "prod",
            "name": "web.events.clicks",
            "spec": {"table_type": "MANAGED",
                     "columns": [{"name": "ts", "type": "TIMESTAMP"},
                                 {"name": "url", "type": "STRING"}]},
        })
        catalogs = admin.request("GET", f"{BASE}/catalogs",
                                 params={"metastore": "prod"})
        print(f"catalogs via REST: {[c['name'] for c in catalogs['items']]}")

        # -- authorization is enforced at the HTTP boundary --------------
        try:
            etl.request("GET", f"{BASE}/tables/web.events.clicks",
                        params={"metastore": "prod"})
            raise AssertionError("etl_job should be denied")
        except UnityCatalogError as exc:
            print(f"etl_job denied over HTTP: {exc}")

        for privilege, kind, name in (
            ("USE CATALOG", "CATALOG", "web"),
            ("USE SCHEMA", "SCHEMA", "web.events"),
            ("SELECT", "TABLE", "web.events.clicks"),
        ):
            admin.request("POST", f"{BASE}/grants", body={
                "metastore": "prod", "securable_kind": kind,
                "securable_name": name, "principal": "etl_job",
                "privilege": privilege,
            })

        table = etl.request("GET", f"{BASE}/tables/web.events.clicks",
                            params={"metastore": "prod"})
        print(f"etl_job sees table {table['name']!r} after grants")

        # -- the batched query-path call, REST-shaped ----------------------
        resolution = etl.request("POST", f"{BASE}/resolve", body={
            "metastore": "prod", "tables": ["web.events.clicks"],
        })
        asset = resolution["assets"]["web.events.clicks"]
        print(f"batched resolve returned columns="
              f"{[c['name'] for c in asset['columns']]} and a credential "
              f"scoped to {asset['credential']['scope']}")

        # -- path-based temporary credentials -------------------------------
        credential = etl.request(
            "POST", f"{BASE}/temporary-credentials",
            body={"metastore": "prod",
                  "path": asset["storage_url"] + "/data/part-0",
                  "access_level": "READ"},
        )
        print(f"path-based token resolved asset "
              f"{credential['resolved_asset']!r}")

        # each client kept one connection open for all of its requests
        admin.close()
        etl.close()
    print("rest_api_server OK")


if __name__ == "__main__":
    main()
