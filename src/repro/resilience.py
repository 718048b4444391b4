"""Retry, backoff, and circuit breaking for the catalog's dependencies.

Every outbound dependency of the catalog — object storage, the STS
issuer, the backing metadata store, foreign catalogs — fails transiently
in production. This module gives each call site the same three tools:

* :class:`RetryPolicy` — exponential backoff with **seeded** jitter and
  an optional per-call deadline. Pure arithmetic, no state.
* :class:`Retrier` — executes a callable under a policy, retrying only
  the :class:`~repro.errors.TransientError` family by default, and
  *charging* backoff delays to the injected clock (``SimClock.advance``)
  instead of sleeping, so chaos tests are deterministic and fast.
* :class:`CircuitBreaker` — closed → open → half-open state machine that
  sheds load from a failing dependency instead of piling retries on it.

Observability: retries, exhaustions, breaker state, and breaker
transitions all land in the shared
:class:`~repro.obs.metrics.MetricsRegistry` (``uc_retries_total``,
``uc_retry_exhausted_total``, ``uc_breaker_state``,
``uc_breaker_transitions_total``), and a :class:`Retrier` annotates the
active trace span with the attempt count.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator, Optional, TypeVar

from repro.clock import Clock
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InvalidRequestError,
    TenantThrottledError,
    TransientError,
)

T = TypeVar("T")


_AMBIENT = threading.local()


def ambient_deadline() -> Optional[float]:
    """The absolute deadline of the request active on this thread.

    Armed by the request pipeline's deadline interceptor; every
    :class:`Retrier` (and the service's commit loop) consults it before
    charging a backoff delay, so one request's retries across *all* its
    dependencies share a single budget instead of overshooting it
    component by component.
    """
    return getattr(_AMBIENT, "deadline", None)


@contextmanager
def deadline_scope(deadline: Optional[float]) -> Iterator[None]:
    """Arm ``deadline`` (absolute clock time) for the enclosed calls.

    Nested scopes keep the tighter deadline; ``None`` is a no-op scope.
    """
    previous = getattr(_AMBIENT, "deadline", None)
    if deadline is not None and previous is not None:
        deadline = min(deadline, previous)
    _AMBIENT.deadline = deadline if deadline is not None else previous
    try:
        yield
    finally:
        _AMBIENT.deadline = previous


def charge(clock: Clock, seconds: float) -> None:
    """Spend ``seconds`` on the clock: advance a SimClock, sleep a real one."""
    if seconds <= 0:
        return
    advance = getattr(clock, "advance", None)
    if advance is not None:
        advance(seconds)
    else:  # pragma: no cover - wall-clock path, unused in tests
        time.sleep(seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter and an optional deadline.

    ``backoff(n)`` for the n-th retry (0-based) is
    ``min(base_delay * multiplier**n, max_delay)``, scaled down by up to
    ``jitter`` (a fraction in [0, 1)) using the caller-supplied RNG — so
    a fleet of writers decorrelates, yet a seeded run reproduces
    byte-identical delays.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: Optional[float] = None  # retry budget, from the first failure

    def __post_init__(self):
        if self.max_attempts < 1:
            raise InvalidRequestError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise InvalidRequestError("jitter must be in [0, 1)")

    def backoff(self, retry_index: int, rng: Random) -> float:
        raw = min(self.base_delay * self.multiplier**retry_index, self.max_delay)
        if self.jitter:
            raw *= 1.0 - self.jitter * rng.random()
        return raw


class Retrier:
    """Runs callables under a :class:`RetryPolicy`, charging the clock.

    One retrier is bound per component (``storage``, ``sts``,
    ``metastore`` …); its RNG is seeded at construction, so the jitter
    stream — and therefore every latency a chaos run observes — is a
    deterministic function of (seed, call sequence).
    """

    def __init__(
        self,
        policy: RetryPolicy,
        clock: Clock,
        metrics=None,
        tracer=None,
        component: str = "storage",
        seed: int = 0xB0FF,
    ):
        self.policy = policy
        self._clock = clock
        self._rng = Random(seed)
        #: guards the jitter rng and the retry counters — a retrier is
        #: shared per component and failures may race from many threads
        self._lock = threading.Lock()
        self._tracer = tracer
        self.component = component
        self.retries = 0
        self.exhausted = 0
        self._retries_metric = self._exhausted_metric = None
        if metrics is not None:
            self._retries_metric = metrics.counter(
                "uc_retries_total",
                "Transient-error retries by component.",
                ("component",),
            ).labels(component=component)
            self._exhausted_metric = metrics.counter(
                "uc_retry_exhausted_total",
                "Operations that failed after exhausting their retry budget.",
                ("component",),
            ).labels(component=component)

    def call(
        self,
        fn: Callable[[], T],
        *,
        retryable: Optional[Callable[[BaseException], bool]] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> T:
        """Invoke ``fn`` until it succeeds, its error is non-retryable,
        the attempt budget is spent, or the deadline would be blown.

        ``retryable`` defaults to "is a :class:`TransientError`"; note
        that rebasing errors (``ConcurrentModificationError``) are *not*
        transient — loops that can rebase handle those themselves.

        The first attempt is the fast path: no retry bookkeeping happens
        until something actually fails (keeps the faults-off overhead on
        hot storage calls negligible).
        """
        try:
            return fn()
        except BaseException as exc:
            predicate = retryable if retryable is not None else _is_transient
            if not predicate(exc):
                raise
            pending = exc
        policy = self.policy
        start = self._clock.now()
        attempt = 1
        while True:
            # `pending` is the retryable failure of attempt `attempt`
            if attempt >= policy.max_attempts:
                self._give_up(attempt)
                raise pending
            if isinstance(pending, TenantThrottledError) and \
                    pending.retry_after_seconds is not None:
                # the QoS scheduler computed exactly when the tenant's
                # bucket refills — honor the server hint verbatim rather
                # than guessing with exponential backoff
                delay = pending.retry_after_seconds
            else:
                with self._lock:
                    delay = policy.backoff(attempt - 1, self._rng)
            if policy.deadline is not None:
                elapsed = self._clock.now() - start
                if elapsed + delay > policy.deadline:
                    self._give_up(attempt)
                    raise DeadlineExceededError(
                        f"{self.component} deadline of {policy.deadline}s "
                        f"exhausted after {attempt} attempt(s): {pending}"
                    ) from pending
            request_deadline = ambient_deadline()
            if request_deadline is not None:
                if self._clock.now() + delay > request_deadline:
                    self._give_up(attempt)
                    raise DeadlineExceededError(
                        f"{self.component}: request deadline exhausted "
                        f"after {attempt} attempt(s): {pending}"
                    ) from pending
            with self._lock:
                self.retries += 1
            if self._retries_metric is not None:
                self._retries_metric.inc()
            if on_retry is not None:
                on_retry(attempt, pending)
            charge(self._clock, delay)
            attempt += 1
            try:
                result = fn()
            except BaseException as exc:
                if not predicate(exc):
                    raise
                pending = exc
                continue
            self._annotate(attempt)
            return result

    def _give_up(self, attempts: int) -> None:
        with self._lock:
            self.exhausted += 1
        if self._exhausted_metric is not None:
            self._exhausted_metric.inc()
        self._annotate(attempts)

    def _annotate(self, attempts: int) -> None:
        if attempts > 1 and self._tracer is not None:
            span = self._tracer.current_span
            if span is not None:
                span.attrs["uc.attempts"] = attempts


def _is_transient(exc: BaseException) -> bool:
    return isinstance(exc, TransientError)


class CircuitBreaker:
    """Closed → open → half-open breaker over one dependency.

    * **closed**: calls pass; ``failure_threshold`` consecutive failures
      open the circuit.
    * **open**: calls fail fast with :class:`CircuitOpenError` until
      ``reset_timeout`` elapses on the injected clock.
    * **half-open**: up to ``half_open_max_probes`` trial calls pass at
      a time; one success closes the circuit, one failure re-opens it.

    The probe budget matters under the parallel serving tier: when the
    reset timeout elapses, every waiter that raced into ``before_call``
    used to be admitted at once if the budget was set high — a thundering
    herd onto a dependency that may still be down. The budget is counted
    in *in-flight* probes, and a probe slot is always released, even when
    the probe dies with an exception outside ``failure_types`` (that leak
    used to wedge the breaker half-open forever).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    _STATE_VALUES = {CLOSED: 0.0, OPEN: 1.0, HALF_OPEN: 2.0}

    def __init__(
        self,
        clock: Clock,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        metrics=None,
        name: str = "default",
        failure_types: tuple[type[BaseException], ...] = (Exception,),
        half_open_max_probes: int = 1,
    ):
        if failure_threshold < 1:
            raise InvalidRequestError("failure_threshold must be >= 1")
        if half_open_max_probes < 1:
            raise InvalidRequestError("half_open_max_probes must be >= 1")
        self._clock = clock
        self._threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._half_open_probes = half_open_max_probes
        self._failure_types = failure_types
        self.name = name
        #: one breaker fronts each shard; admissions and outcome
        #: recording race from every serving thread
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.transitions: list[str] = []
        self._state_metric = self._transitions_metric = None
        if metrics is not None:
            self._state_metric = metrics.gauge(
                "uc_breaker_state",
                "Circuit-breaker state (0=closed, 1=open, 2=half-open).",
                ("breaker",),
            ).labels(breaker=name)
            self._state_metric.set(0.0)
            self._transitions_metric = metrics.counter(
                "uc_breaker_transitions_total",
                "Circuit-breaker state transitions.",
                ("breaker", "to"),
            )

    # -- state machine ---------------------------------------------------

    def _transition(self, to: str) -> None:
        self.state = to
        self.transitions.append(to)
        if self._state_metric is not None:
            self._state_metric.set(self._STATE_VALUES[to])
        if self._transitions_metric is not None:
            self._transitions_metric.inc(breaker=self.name, to=to)

    def before_call(self) -> None:
        """Admit or reject one call; may move open → half-open."""
        with self._lock:
            if self.state == self.OPEN:
                remaining = (self._opened_at + self._reset_timeout
                             - self._clock.now())
                if remaining > 0:
                    raise CircuitOpenError(
                        f"circuit {self.name!r} is open for another "
                        f"{remaining:.3f}s",
                        retry_after_seconds=remaining,
                    )
                self._transition(self.HALF_OPEN)
                self._probes_in_flight = 0
            if self.state == self.HALF_OPEN:
                if self._probes_in_flight >= self._half_open_probes:
                    raise CircuitOpenError(
                        f"circuit {self.name!r} is half-open and probe "
                        f"slots are taken",
                        retry_after_seconds=self._reset_timeout,
                    )
                self._probes_in_flight += 1

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self.state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self.state == self.HALF_OPEN:
                self._open()
                return
            self._failures += 1
            if self._failures >= self._threshold:
                self._open()

    def _open(self) -> None:
        self._opened_at = self._clock.now()
        self._failures = 0
        self._transition(self.OPEN)

    def _release_probe(self) -> None:
        """Give back a half-open probe slot without recording an outcome.

        Needed when a probe dies with an exception the breaker does not
        count as a dependency failure (e.g. a validation error raised by
        the caller's own code): without this, the slot stays occupied
        forever — ``before_call`` only resets the count on the
        open → half-open transition, which never happens again.
        """
        with self._lock:
            if self.state == self.HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` through the breaker, recording the outcome."""
        self.before_call()
        try:
            result = fn()
        except self._failure_types:
            self.record_failure()
            raise
        except BaseException:
            self._release_probe()
            raise
        self.record_success()
        return result


__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "Retrier",
    "ambient_deadline",
    "charge",
    "deadline_scope",
]
