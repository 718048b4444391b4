"""REST API layer — a generic router generated from the API registry.

Unity Catalog's openness claim rests on a documented REST surface; this
module maps HTTP-shaped requests onto the same endpoint registry the
in-process facade dispatches through. There is **no per-endpoint logic
here**: each :class:`~repro.core.service.registry.EndpointDescriptor`
declares its REST bindings (route, marshalling, status, rendering) next
to the endpoint itself, and :class:`ServiceRouter` merely parses the
path, picks the matching binding, and runs the request through the
pipeline. The two surfaces therefore cannot drift — a new endpoint
registered by a domain module appears on both at once, with identical
authorization, audit, and deadline behaviour.

The router is transport agnostic: :meth:`ServiceRouter.handle` takes
``(method, path, params, body, principal)`` and returns ``(status,
json-able dict)``, so the same router serves the in-process client used
by tests and the real HTTP server in
:mod:`repro.core.service.http_server`.

Authentication is the upstream gateway's job (paper section 3.4); the
caller principal arrives as a header. A ``timeout`` query parameter
(relative seconds) arms the pipeline's request deadline; a request that
exhausts it maps to HTTP 504. A malformed ``timeout`` or ``at_version``
is a 400, like any other bad input, and so is a body the endpoint's
marshalling cannot read (a missing field, an unknown kind or privilege).

Every refusal leaves one audit record: the pipeline audits what it
refuses, and the router audits what it refuses before a pipeline runs
(an unknown route or metastore, an unsupported method, a bad parameter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.auth.privileges import SYSTEM_PRINCIPAL
from repro.core.model.entity import SecurableKind
from repro.core.service.registry import KIND_RESOURCES, RestRequest
from repro.errors import (
    InvalidRequestError,
    NotFoundError,
    UnityCatalogError,
)

_STATUS = {
    "RESOURCE_DOES_NOT_EXIST": 404,
    "RESOURCE_ALREADY_EXISTS": 409,
    "INVALID_PARAMETER_VALUE": 400,
    "PERMISSION_DENIED": 403,
    "UNTRUSTED_ENGINE": 403,
    "PATH_CONFLICT": 409,
    "CONCURRENT_MODIFICATION": 409,
    "TRANSACTION_CONFLICT": 409,
    "MERGE_CONFLICT": 409,
    "CREDENTIAL_DENIED": 403,
    "FEDERATION_ERROR": 502,
    "THROTTLED": 429,
    "TENANT_THROTTLED": 429,
    "STORAGE_UNAVAILABLE": 503,
    "TEMPORARILY_UNAVAILABLE": 503,
    "CIRCUIT_OPEN": 503,
    "DEADLINE_EXCEEDED": 504,
    "INTERNAL": 500,
}

_KIND_BY_RESOURCE = {
    "catalogs": SecurableKind.CATALOG,
    "schemas": SecurableKind.SCHEMA,
    "tables": SecurableKind.TABLE,
    "volumes": SecurableKind.VOLUME,
    "functions": SecurableKind.FUNCTION,
    "models": SecurableKind.REGISTERED_MODEL,
    "model-versions": SecurableKind.MODEL_VERSION,
    "storage-credentials": SecurableKind.STORAGE_CREDENTIAL,
    "external-locations": SecurableKind.EXTERNAL_LOCATION,
    "connections": SecurableKind.CONNECTION,
    "shares": SecurableKind.SHARE,
    "recipients": SecurableKind.RECIPIENT,
}


@dataclass
class TextResponse:
    """A non-JSON response body — used for the Prometheus text format."""

    body: str
    content_type: str = "text/plain; version=0.0.4; charset=utf-8"


def _error_response(exc: UnityCatalogError) -> tuple[int, dict]:
    return _STATUS.get(exc.code, 500), exc.to_dict()


def _malformed(exc: Exception) -> InvalidRequestError:
    """The caller's 400 for a field that marshalling could not read: a
    ``bind`` (or a kind name) raises plain ``KeyError`` / ``ValueError``
    / ``TypeError`` on a missing field or a value of the wrong shape."""
    if isinstance(exc, KeyError):
        return InvalidRequestError(f"missing field {exc.args[0]!r}")
    return InvalidRequestError(f"malformed request: {str(exc)[:200]}")


def _request_pins(params: dict[str, str]) -> dict[str, Any]:
    """The pipeline's reserved kwargs from the query string: ``?timeout=``
    (relative seconds) arms the deadline, ``?branch=catalog@branch`` pins
    the request to a branch, ``?at_version=N`` pins reads AS OF a past
    metastore version and ``?qos_class=`` requests a priority class.
    A malformed number is the caller's error, never the server's."""
    pins: dict[str, Any] = {}
    if "timeout" in params:
        raw = params["timeout"]
        try:
            timeout = float(raw)
        except (TypeError, ValueError):
            timeout = math.nan
        if not 0 <= timeout < math.inf:
            raise InvalidRequestError(
                "timeout must be a finite, non-negative number of seconds, "
                f"got {str(raw)[:40]!r}")
        pins["_timeout"] = timeout
    if "branch" in params:
        pins["_branch"] = params["branch"]
    if "at_version" in params:
        raw = str(params["at_version"])  # in-process callers pass an int
        if not (raw.isascii() and raw.isdigit()):
            raise InvalidRequestError(
                f"at_version must be a non-negative integer, got {raw[:40]!r}")
        pins["_at_version"] = int(raw)
    if "qos_class" in params:
        pins["_qos_class"] = params["qos_class"]
    return pins


class ServiceRouter:
    """Routes REST requests through the service's API registry.

    ``search_service`` is optional: when a discovery search service is
    attached, the ``/search`` route is served (second-tier services are
    deployed separately from the core service, section 4.4).
    """

    def __init__(self, service, search_service=None):
        self._service = service
        self._search = search_service
        self._routes = service.api_registry.rest_routes()
        self._resources = {key[1] for key in self._routes}

    # -- public entry point ----------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        *,
        principal: str,
        params: Optional[dict[str, str]] = None,
        body: Optional[dict[str, Any]] = None,
    ) -> tuple[int, Any]:
        """Dispatch one request; returns (HTTP status, response body).

        The body is a JSON-able dict for every route except ``/metrics``,
        which returns a :class:`TextResponse`."""
        params = params or {}
        body = body or {}
        method, path = method.upper(), path.strip("/")
        try:
            return self._route(method, path, principal, params, body)
        except UnityCatalogError as exc:
            # refused before the pipeline ran, so nothing has audited it
            self._audit_refusal(method, path, principal, params, body, exc)
            return _error_response(exc)

    def _audit_refusal(self, method: str, path: str, principal: str,
                       params: dict, body: dict, exc: UnityCatalogError) -> None:
        """One denied record for a request refused before any pipeline."""
        try:
            metastore_id = self._metastore_id(params, body)
        except UnityCatalogError:
            metastore_id = ""  # missing or unknown: the refusal itself
        self._service._audit(
            metastore_id, principal or SYSTEM_PRINCIPAL, "rest_request",
            f"/{path}", False, method=method, error=exc.code,
        )

    # -- routing -----------------------------------------------------------------

    def _route(
        self, method: str, path: str, principal: str,
        params: dict, body: dict,
    ) -> tuple[int, Any]:
        segments = [s for s in path.split("/") if s]
        # observability endpoints live outside the /api tree, like the
        # operational endpoints of most services
        if segments == ["metrics"]:
            return self._metrics_route(method)
        if segments and segments[0] == "traces":
            return self._traces_route(method, segments[1:])
        if not segments or segments[0] != "api":
            raise NotFoundError(f"unknown route: /{path}")
        # /api/2.1/unity-catalog/<resource>[/<name>]
        if len(segments) < 4 or segments[2] != "unity-catalog":
            raise NotFoundError(f"unknown route: /{path}")
        resource = segments[3]
        rest = segments[4:]

        if resource == "search":
            return self._search_route(method, principal, params, body)

        kind: Optional[SecurableKind] = None
        route_resource = resource
        if resource in _KIND_BY_RESOURCE:
            kind = _KIND_BY_RESOURCE[resource]
            route_resource = KIND_RESOURCES

        named = bool(rest)
        candidates = self._routes.get((method, route_resource, named))
        if candidates is None and named:
            # unnamed-only resources tolerate trailing segments (the
            # securable is addressed via params/body, not the path)
            candidates = self._routes.get((method, route_resource, False))
        if candidates is None:
            if route_resource not in self._resources:
                raise NotFoundError(f"unknown resource: {resource}")
            if not named and (
                any(key == (method, route_resource, True)
                    for key in self._routes)
            ):
                raise NotFoundError("missing securable name")
            raise InvalidRequestError(f"unsupported method {method}")

        request = RestRequest(
            method=method,
            principal=principal,
            params=params,
            body=body,
            name=rest[0] if rest else None,
            kind=kind,
            metastore_resolver=lambda: self._metastore_id(params, body),
        )
        pins = _request_pins(params)
        for binding, descriptor in candidates:
            if binding.when is None or binding.when(request):
                try:
                    kwargs = binding.bind(request)
                except (KeyError, ValueError, TypeError) as exc:
                    raise _malformed(exc) from None
                kwargs.update(pins)
                try:
                    result = self._service.pipeline.dispatch(descriptor, kwargs)
                except UnityCatalogError as exc:
                    return _error_response(exc)  # the pipeline audited it
                return binding.status, binding.render(result, kwargs)
        raise InvalidRequestError(
            f"no {resource} binding accepts this request shape"
        )

    def _metastore_id(self, params: dict, body: dict) -> str:
        metastore = params.get("metastore") or body.get("metastore")
        if not metastore:
            raise InvalidRequestError("missing 'metastore' parameter")
        try:
            return self._service.metastore_id(metastore)
        except NotFoundError:
            # accept raw ids too
            if metastore in self._service.store.metastore_ids():
                return metastore
            raise

    # -- observability ---------------------------------------------------------------

    def _obs(self):
        obs = getattr(self._service, "obs", None)
        if obs is None:
            raise NotFoundError("service has no observability attached")
        return obs

    def _metrics_route(self, method: str) -> tuple[int, TextResponse]:
        if method != "GET":
            raise InvalidRequestError("metrics is GET-only")
        return 200, TextResponse(self._obs().metrics.render())

    def _traces_route(self, method: str, rest: list[str]) -> tuple[int, dict]:
        if method != "GET":
            raise InvalidRequestError("traces is GET-only")
        tracer = self._obs().tracer
        if not rest:
            return 200, {"trace_ids": tracer.trace_ids()}
        if len(rest) > 1:
            raise NotFoundError(f"unknown route: /traces/{'/'.join(rest)}")
        root = tracer.trace(rest[0])
        if root is None:
            raise NotFoundError(f"no such trace: {rest[0]}")
        return 200, root.to_dict()

    # -- second-tier search service (not a registry endpoint) ------------------

    def _search_route(
        self, method: str, principal: str, params: dict, body: dict
    ) -> tuple[int, dict]:
        if self._search is None:
            raise NotFoundError("no search service attached")
        if method != "POST":
            raise InvalidRequestError("search is POST-only")
        metastore_id = self._metastore_id(params, body)
        self._search.sync(metastore_id)
        kind = body.get("kind")
        try:
            kind = SecurableKind(kind) if kind else None
        except ValueError as exc:
            raise _malformed(exc) from None
        hits = self._search.search(
            metastore_id, principal, body.get("query", ""), kind=kind,
            limit=body.get("limit", 50),
        )
        return 200, {
            "hits": [
                {"full_name": h.full_name, "kind": h.entity.kind.value,
                 "score": h.score}
                for h in hits
            ]
        }


#: Backwards-compatible name: the hand-written router this replaced.
RestApi = ServiceRouter

__all__ = ["RestApi", "ServiceRouter", "TextResponse"]
