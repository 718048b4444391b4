"""The single API registry (one table, every catalog endpoint).

The paper's "life of a query" protocol is a fixed sequence —
authenticate, resolve names, authorize, execute, audit — so every
catalog API is described *declaratively* here instead of hand-weaving
that sequence into each method. An :class:`EndpointDescriptor` names the
endpoint, the domain service that owns it, whether it mutates the
metastore, how the pipeline should resolve and authorize its target, and
(optionally) how the endpoint appears on the REST surface.

Both dispatch paths consume the same table:

* the in-process facade (:class:`~repro.core.service.catalog_service.
  UnityCatalogService`) looks descriptors up by name and runs them
  through the request pipeline, and
* the REST router (:class:`~repro.core.service.rest.ServiceRouter`)
  *generates* its route table from the descriptors' :class:`RestBinding`
  entries — there is no second, hand-maintained copy of the API surface.

Adding an endpoint is therefore: write one handler in the owning domain
module, declare one descriptor, done — metrics, tracing, authn, hot-path
resolution, authorization, deadline enforcement, audit-on-error, and the
REST route all come from the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.model.entity import Entity, SecurableKind
from repro.errors import InvalidRequestError, NotFoundError


@dataclass(frozen=True)
class ResolveSpec:
    """How the resolution interceptor finds a read endpoint's target.

    ``kind_param`` names the request parameter carrying a
    :class:`SecurableKind` (or ``kind`` pins it statically); ``name_param``
    names the parameter carrying the fully qualified name. Mutations skip
    pipeline-level resolution: their build closures must re-resolve
    against each fresh view inside the optimistic commit loop.
    """

    name_param: str = "name"
    kind_param: Optional[str] = "kind"
    kind: Optional[SecurableKind] = None

    def kind_of(self, params: dict[str, Any]) -> SecurableKind:
        if self.kind is not None:
            return self.kind
        return params[self.kind_param]


@dataclass(frozen=True)
class RestRequest:
    """One parsed REST request, handed to a binding's ``bind`` callable."""

    method: str
    principal: str
    params: dict[str, str]
    body: dict[str, Any]
    #: trailing path segment (the securable name), or None
    name: Optional[str] = None
    #: resolved kind for the twelve securable-collection resources
    kind: Optional[SecurableKind] = None
    #: resolves the ``metastore`` param/body field to a metastore id
    metastore_resolver: Optional[Callable[[], str]] = None

    def metastore_id(self) -> str:
        return self.metastore_resolver()

    def require_name(self) -> str:
        if not self.name:
            raise NotFoundError("missing securable name")
        return self.name

    def field_any(self, key: str, default: Any = None) -> Any:
        """A field that may arrive as a query param or a body field."""
        value = self.params.get(key)
        if value is None:
            value = self.body.get(key, default)
        return value

    def require(self, key: str) -> Any:
        value = self.field_any(key)
        if value is None:
            raise InvalidRequestError(f"missing {key!r} parameter")
        return value


#: marker resource: binding applies to every securable-collection
#: resource (``catalogs``, ``schemas``, ``tables`` …)
KIND_RESOURCES = "*kinds*"


def _render_result(result: Any, kwargs: dict[str, Any]) -> Any:
    """The payload of an endpoint without a render of its own: an
    :class:`Entity` result as its rendering, any other as it is."""
    return result.rendering() if type(result) is Entity else result


@dataclass(frozen=True)
class RestBinding:
    """How one endpoint appears on the REST surface.

    The router's table is *generated* from these: ``(method, resource,
    has_name)`` keys a route, ``when`` disambiguates bindings sharing a
    route (e.g. rename vs. update under PATCH), ``bind`` marshals the
    request into endpoint kwargs, and ``render`` marshals the result into
    the response payload. All endpoint-specific marshalling lives here,
    next to the endpoint it describes — the router stays generic.
    """

    method: str
    resource: str
    bind: Callable[[RestRequest], dict[str, Any]]
    #: True when the route carries a trailing name segment
    named: bool = False
    #: disambiguates multiple bindings on one route; first match wins
    when: Optional[Callable[[RestRequest], bool]] = None
    status: int = 200
    #: (result, bound kwargs) -> JSON-able payload
    render: Callable[[Any, dict[str, Any]], Any] = _render_result

    @property
    def route_key(self) -> tuple[str, str, bool]:
        return (self.method, self.resource, self.named)


@dataclass(frozen=True)
class RouteDecision:
    """How the shard router should place one request.

    Produced by a :class:`ClusterBinding`'s ``plan`` callable and consumed
    generically by :class:`~repro.core.cluster.CatalogCluster` — the same
    pattern as :class:`RestBinding`: all endpoint-specific placement logic
    lives next to the endpoint in its domain module, the cluster stays
    generic.

    Kinds:

    ``catalog``
        Route to the shard owning ``key`` (a catalog route key).
    ``home``
        Route to the home shard (shard 0) — used for metastore-scope
        state, which is replicated to every shard.
    ``broadcast``
        A replicated write: two-phase prepare on the home shard, commit
        on the rest. ``mint_params`` names id parameters the cluster
        pre-mints so every replica stores identical rows.
    ``scatter``
        Fan out to every shard and fold the per-shard results with
        ``merge(results, params)``.
    ``move``
        A catalog rename: may migrate the subtree between shards under
        the two-phase protocol (``key`` = old name, ``new_key`` = new).
    ``probe``
        Dispatch only to shards whose local view passes
        ``probe(view, params)`` (all of them when ``all_matches``); when
        none match, dispatch to the home shard so the caller gets the
        canonical error and exactly one error audit record.
    ``partition``
        Split the request into per-catalog sub-requests with
        ``split(params) -> {route_key: sub_params}``, dispatch each to
        its owner, fold with ``merge(results, params)``.
    """

    kind: str
    key: Optional[str] = None
    new_key: Optional[str] = None
    merge: Optional[Callable[[list, dict], Any]] = None
    probe: Optional[Callable[[Any, dict], bool]] = None
    all_matches: bool = False
    split: Optional[Callable[[dict], dict]] = None

    @staticmethod
    def shard(key: str) -> "RouteDecision":
        return RouteDecision(kind="catalog", key=key)

    @staticmethod
    def home() -> "RouteDecision":
        return RouteDecision(kind="home")

    @staticmethod
    def broadcast() -> "RouteDecision":
        return RouteDecision(kind="broadcast")

    @staticmethod
    def scatter(merge: Callable[[list, dict], Any]) -> "RouteDecision":
        return RouteDecision(kind="scatter", merge=merge)

    @staticmethod
    def move(key: str, new_key: str) -> "RouteDecision":
        return RouteDecision(kind="move", key=key, new_key=new_key)

    @staticmethod
    def probe_for(
        probe: Callable[[Any, dict], bool], all_matches: bool = False
    ) -> "RouteDecision":
        return RouteDecision(kind="probe", probe=probe, all_matches=all_matches)

    @staticmethod
    def partition(
        split: Callable[[dict], dict], merge: Callable[[list, dict], Any]
    ) -> "RouteDecision":
        return RouteDecision(kind="partition", split=split, merge=merge)


@dataclass(frozen=True)
class ClusterBinding:
    """How one endpoint is placed on a sharded cluster.

    ``plan`` maps the request parameters to a :class:`RouteDecision`.
    ``stale_ok`` marks reads that may be served from the router's
    last-known-good cache when the owning shard is dark (breaker open);
    writes never degrade. ``mint_params`` names id parameters that
    replicated creates pre-mint cluster-side so every shard stores the
    same row bytes.
    """

    plan: Callable[[dict[str, Any]], RouteDecision]
    stale_ok: bool = False
    mint_params: tuple[str, ...] = ()


def catalog_route_key(full_name: str) -> str:
    """The shard route key of a securable: its catalog (first segment)."""
    return full_name.split(".", 1)[0]


#: metastore-scope root kinds replicated to every shard (location/credential
#: coverage checks and share/recipient lookups must work shard-locally)
REPLICATED_ROOT_KINDS = frozenset(
    kind for kind in SecurableKind
    if kind.is_metastore_root and kind is not SecurableKind.CATALOG
) | {SecurableKind.METASTORE}


def route_securable_write(kind: SecurableKind, name: str) -> RouteDecision:
    """Placement for a (kind, name)-addressed mutation."""
    if kind in REPLICATED_ROOT_KINDS:
        return RouteDecision.broadcast()
    return RouteDecision.shard(catalog_route_key(name))


def route_securable_read(kind: SecurableKind, name: str) -> RouteDecision:
    """Placement for a (kind, name)-addressed read."""
    if kind in REPLICATED_ROOT_KINDS:
        return RouteDecision.home()
    return RouteDecision.shard(catalog_route_key(name))


@dataclass(frozen=True)
class EndpointDescriptor:
    """One catalog API endpoint, as the pipeline and the router see it."""

    name: str
    domain: str
    handler: Callable[[Any, Any], Any]  # (service, ctx) -> result
    #: True when the endpoint writes through the optimistic commit loop
    mutation: bool = False
    #: pipeline-level resolution for read endpoints (None = handler's job)
    resolve: Optional[ResolveSpec] = None
    #: pipeline-level authorization operation (requires ``resolve``)
    operation: Optional[str] = None
    #: request parameter naming the acting principal
    principal_param: str = "principal"
    #: request parameter naming the audit target (for audit-on-error)
    target_param: Optional[str] = "name"
    rest: tuple[RestBinding, ...] = field(default=())
    #: shard placement on a CatalogCluster (None = home shard)
    cluster: Optional[ClusterBinding] = None
    doc: str = ""


class ApiRegistry:
    """Every registered endpoint, keyed by name.

    One instance per service; domain modules contribute their endpoint
    tables at service construction. The REST router and the in-process
    facade both dispatch through this registry, which is what keeps the
    two surfaces byte-identical.
    """

    def __init__(self):
        self._endpoints: dict[str, EndpointDescriptor] = {}

    def register(self, descriptor: EndpointDescriptor) -> None:
        if descriptor.name in self._endpoints:
            raise ValueError(f"endpoint already registered: {descriptor.name}")
        if descriptor.operation is not None and descriptor.resolve is None:
            raise ValueError(
                f"endpoint {descriptor.name}: pipeline authorization "
                "requires a resolve spec"
            )
        self._endpoints[descriptor.name] = descriptor

    def register_all(self, descriptors) -> None:
        for descriptor in descriptors:
            self.register(descriptor)

    def get(self, name: str) -> EndpointDescriptor:
        try:
            return self._endpoints[name]
        except KeyError:
            raise NotFoundError(f"no such endpoint: {name}")

    def __iter__(self):
        return iter(self._endpoints.values())

    def __len__(self) -> int:
        return len(self._endpoints)

    def names(self) -> list[str]:
        return sorted(self._endpoints)

    def rest_routes(self) -> dict[tuple[str, str, bool], list[tuple[RestBinding, EndpointDescriptor]]]:
        """The generated REST routing table: route key -> candidate
        bindings in registration order (``when`` picks among them)."""
        table: dict[tuple[str, str, bool], list[tuple[RestBinding, EndpointDescriptor]]] = {}
        for descriptor in self._endpoints.values():
            for binding in descriptor.rest:
                table.setdefault(binding.route_key, []).append(
                    (binding, descriptor)
                )
        return table


__all__ = [
    "ApiRegistry",
    "ClusterBinding",
    "EndpointDescriptor",
    "KIND_RESOURCES",
    "REPLICATED_ROOT_KINDS",
    "ResolveSpec",
    "RestBinding",
    "RestRequest",
    "RouteDecision",
    "catalog_route_key",
    "route_securable_read",
    "route_securable_write",
]
