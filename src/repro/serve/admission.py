"""Multi-tenant admission control: token buckets, bounded waiting, metrics.

Every request entering the serving layer passes :meth:`AdmissionController.admit`
before any backend byte moves.  A tenant has two token buckets — one
metering *requests per second*, one metering *backend bytes per second* —
and a bounded waiting-room.  The failure modes are deliberately typed and
separable (:mod:`repro.errors`):

* :class:`~repro.errors.QuotaExceededError` — the buckets cannot cover
  the request now and the caller declined to wait.
  Carries ``retry_after``: pacing, client should back off.
* :class:`~repro.errors.AdmissionQueueFullError` — too many requests from
  this tenant are *already waiting*.  Load shedding, drop immediately.

Isolation falls out of per-tenant buckets: a greedy tenant exhausts its
own tokens and queues behind its own bound, while other tenants' buckets
refill independently — ``tests/test_serve_admission.py`` holds that on an
injected clock: the polite tenant's admission wait stays zero.

Refill is lazy (computed from the clock on each call, no background
thread) and waiting is time-based (``Condition.wait`` with the exact
refill deadline), so an idle controller costs nothing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import AdmissionQueueFullError, ConfigError, QuotaExceededError
from repro.rt.metrics import LatencyStats

__all__ = [
    "TokenBucket",
    "TenantQuota",
    "TenantMetrics",
    "Admission",
    "AdmissionController",
]


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s refill up to ``burst``.

    Not self-synchronizing — the owning :class:`AdmissionController`
    serializes access under its lock, which keeps peek-then-take across
    *two* buckets (requests and bytes) atomic without lock nesting.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if rate <= 0:
            raise ConfigError("token rate must be > 0")
        if burst <= 0:
            raise ConfigError("token burst must be > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = float(clock())

    def _refill(self, now: float) -> None:
        if now > self._stamp:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    @property
    def tokens(self) -> float:
        self._refill(self._clock())
        return self._tokens

    def peek(self, n: float) -> float:
        """Seconds until ``n`` tokens are available (0.0 = available now).

        Does not consume anything, so a caller can peek several buckets
        and only take when *all* can cover their cost — no token leaks
        on a partially-satisfiable request.
        """
        self._refill(self._clock())
        if self._tokens >= n:
            return 0.0
        return (n - self._tokens) / self.rate

    def take(self, n: float) -> None:
        """Consume ``n`` tokens; caller must have seen ``peek(n) == 0``."""
        self._refill(self._clock())
        self._tokens -= n

    def settle(self, delta: float) -> None:
        """Post-hoc correction: charge ``delta`` extra tokens (negative
        = refund).

        An under-estimate becomes *debt* — the balance may go negative,
        which ``peek`` prices as extra refill time for the tenant's next
        request; an over-estimate is refunded, clamped at ``burst`` so a
        refund can never mint tokens the bucket could not hold.
        """
        self._refill(self._clock())
        self._tokens = min(self.burst, self._tokens - delta)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant budgets.  ``max_queue`` bounds how many of the tenant's
    requests may *wait* for tokens at once (the waiting room, not the
    bucket): anything beyond it is shed with
    :class:`~repro.errors.AdmissionQueueFullError`."""

    requests_per_s: float = 50.0
    request_burst: float = 20.0
    bytes_per_s: float = 64.0 * 2**20
    byte_burst: float = 32.0 * 2**20
    max_queue: int = 16

    def __post_init__(self) -> None:
        if self.max_queue < 0:
            raise ConfigError("max_queue must be >= 0")


@dataclass
class TenantMetrics:
    """Counters and reservoirs for one tenant (all mutated under the
    controller's lock; ``snapshot`` is the read API)."""

    admitted: int = 0
    rejected_quota: int = 0
    rejected_queue: int = 0
    bytes_admitted: int = 0
    bytes_actual: int = 0
    reconciled: int = 0
    wait: LatencyStats = field(default_factory=LatencyStats)
    latency: LatencyStats = field(default_factory=LatencyStats)

    def snapshot(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected_quota": self.rejected_quota,
            "rejected_queue": self.rejected_queue,
            "bytes_admitted": self.bytes_admitted,
            "bytes_actual": self.bytes_actual,
            "reconciled": self.reconciled,
            "wait": self.wait.snapshot(),
            "latency": self.latency.snapshot(),
        }


@dataclass(frozen=True)
class Admission:
    """A granted ticket: tokens are already consumed.

    ``charged`` is what the byte bucket was actually debited for — the
    *estimate* of the backend cost, clamped at the tenant's burst.  Pass
    the ticket back through :meth:`AdmissionController.reconcile` with
    the measured byte count to square the estimate against reality.
    """

    tenant: str
    nbytes: int
    waited_s: float
    charged: float = 0.0


class _TenantState:
    """Buckets + metrics for one tenant.  Every field (including the
    mutable ``waiting`` depth) is protected by the *controller's* lock —
    the state object itself carries none."""

    def __init__(self, quota: TenantQuota, clock) -> None:
        self.quota = quota
        self.requests = TokenBucket(quota.requests_per_s, quota.request_burst, clock)
        self.bytes = TokenBucket(quota.bytes_per_s, quota.byte_burst, clock)
        self.metrics = TenantMetrics()
        self.waiting = 0


class AdmissionController:
    """Admits requests against per-tenant token buckets.

    One lock serializes everything (bucket math is microseconds; the
    *backend work* a ticket authorizes happens outside the lock).
    Waiters sleep on a condition with the exact bucket-refill deadline,
    so wakeups are time-driven — token refill is a function of the
    clock, not of other threads calling in.
    """

    def __init__(
        self,
        default: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        clock=time.monotonic,
    ):
        self.default_quota = default if default is not None else TenantQuota()
        self._quotas = dict(quotas or {})
        self._clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._tenants: dict[str, _TenantState] = {}  # guarded-by: _lock

    def _state(self, tenant: str) -> _TenantState:  # holds-lock
        state = self._tenants.get(tenant)
        if state is None:
            quota = self._quotas.get(tenant, self.default_quota)
            state = _TenantState(quota, self._clock)
            self._tenants[tenant] = state
        return state

    def admit(
        self,
        tenant: str,
        nbytes: int = 0,
        wait: bool = True,
    ) -> Admission:
        """Admit one request costing 1 request-token and ``nbytes``
        byte-tokens; blocks (bounded) until both buckets can cover it.

        Raises :class:`~repro.errors.AdmissionQueueFullError` when the
        tenant's waiting room is full, and
        :class:`~repro.errors.QuotaExceededError` when the tokens are
        not available and ``wait=False``.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ConfigError("nbytes must be >= 0")
        started = self._clock()
        with self._lock:
            state = self._state(tenant)
            byte_cost = float(min(nbytes, state.quota.byte_burst))
            queued = False
            try:
                while True:
                    needed = max(
                        state.requests.peek(1.0), state.bytes.peek(byte_cost)
                    )
                    if needed <= 0.0:
                        state.requests.take(1.0)
                        state.bytes.take(byte_cost)
                        waited = self._clock() - started
                        state.metrics.admitted += 1
                        state.metrics.bytes_admitted += nbytes
                        state.metrics.wait.record(waited)
                        return Admission(tenant, nbytes, waited, byte_cost)
                    kind = "requests" if state.requests.peek(1.0) > 0 else "bytes"
                    if not wait:
                        state.metrics.rejected_quota += 1
                        raise QuotaExceededError(tenant, kind, retry_after=needed)
                    if not queued:
                        if state.waiting >= state.quota.max_queue:
                            state.metrics.rejected_queue += 1
                            raise AdmissionQueueFullError(
                                tenant, state.quota.max_queue
                            )
                        state.waiting += 1
                        queued = True
                    self._cond.wait(max(needed, 1e-4))
            finally:
                if queued:
                    state.waiting -= 1

    def reconcile(self, admission: Admission, actual_nbytes: int) -> None:
        """Square the admitted estimate against the measured backend
        bytes once the read has completed.

        The byte bucket was debited ``admission.charged`` (an output-size
        estimate) up front; the difference to ``actual_nbytes`` is
        settled now — an under-estimate leaves the bucket in debt (the
        tenant's *next* request pays for it in refill time), an
        over-estimate is refunded up to the burst.  Refunds wake waiters
        so freed tokens are usable immediately.
        """
        actual_nbytes = int(actual_nbytes)
        if actual_nbytes < 0:
            raise ConfigError("actual_nbytes must be >= 0")
        with self._lock:
            state = self._state(admission.tenant)
            delta = float(actual_nbytes) - admission.charged
            state.bytes.settle(delta)
            state.metrics.bytes_actual += actual_nbytes
            state.metrics.reconciled += 1
            if delta < 0:
                self._cond.notify_all()

    def record_latency(self, tenant: str, seconds: float) -> None:
        """Fold a served request's end-to-end latency into the tenant's
        reservoir (called by the session after the backend work)."""
        with self._lock:
            self._state(tenant).metrics.latency.record(seconds)

    def metrics(self, tenant: str) -> dict:
        with self._lock:
            return self._state(tenant).metrics.snapshot()

    def snapshot(self) -> dict:
        """All tenants' metrics, keyed by tenant name."""
        with self._lock:
            return {
                name: state.metrics.snapshot()
                for name, state in sorted(self._tenants.items())
            }
