"""Admission control: buckets, typed rejection, fairness, thread-safety.

The contract under test (``repro.serve.admission``):

* token buckets refill lazily from the clock, capped at burst;
* a request that cannot be covered is rejected with the *typed* taxonomy
  errors — :class:`~repro.errors.QuotaExceededError` carrying a
  ``retry_after`` pacing hint (quota), or
  :class:`~repro.errors.AdmissionQueueFullError` (waiting room full) —
  never a bare exception;
* tenants are isolated: one tenant draining its buckets never consumes
  another's tokens;
* the controller survives a multi-thread hammer with the runtime
  lock sanitizer installed and zero violations.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import (
    AdmissionQueueFullError,
    ConfigError,
    QuotaExceededError,
    ServeError,
)
from repro.serve.admission import (
    AdmissionController,
    TenantQuota,
    TokenBucket,
)


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- token bucket ------------------------------------------------------------

def test_bucket_starts_full_and_refills():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
    assert bucket.peek(5.0) == 0.0
    bucket.take(5.0)
    assert bucket.peek(1.0) == pytest.approx(0.1)
    clock.advance(0.1)
    assert bucket.peek(1.0) == 0.0
    clock.advance(100.0)  # refill caps at burst
    assert bucket.tokens == pytest.approx(5.0)


def test_bucket_peek_does_not_consume():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
    for _ in range(5):
        assert bucket.peek(2.0) == 0.0
    assert bucket.tokens == pytest.approx(2.0)


def test_bucket_validates():
    with pytest.raises(ConfigError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(ConfigError):
        TokenBucket(rate=1.0, burst=0.0)


# -- typed rejection ---------------------------------------------------------

def test_quota_exceeded_is_typed_with_retry_after():
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(requests_per_s=2.0, request_burst=1.0),
        clock=clock,
    )
    ctl.admit("a", wait=False)
    with pytest.raises(QuotaExceededError) as err:
        ctl.admit("a", wait=False)
    assert isinstance(err.value, ServeError)
    assert err.value.tenant == "a"
    assert err.value.kind == "requests"
    assert err.value.retry_after == pytest.approx(0.5)
    # backing off by retry_after is sufficient
    clock.advance(err.value.retry_after)
    ctl.admit("a", wait=False)


def test_byte_quota_kind():
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(
            requests_per_s=100.0,
            request_burst=100.0,
            bytes_per_s=100.0,
            byte_burst=100.0,
        ),
        clock=clock,
    )
    ctl.admit("a", nbytes=100, wait=False)
    with pytest.raises(QuotaExceededError) as err:
        ctl.admit("a", nbytes=50, wait=False)
    assert err.value.kind == "bytes"


def test_oversized_request_clamped_to_burst():
    # a single request larger than the byte burst must not deadlock: its
    # cost clamps to the burst (it pays the whole bucket)
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(bytes_per_s=100.0, byte_burst=100.0), clock=clock
    )
    granted = ctl.admit("a", nbytes=10_000, wait=False)
    assert granted.nbytes == 10_000


def test_queue_full_is_typed_and_immediate():
    ctl = AdmissionController(
        default=TenantQuota(
            requests_per_s=0.001, request_burst=1.0, max_queue=0
        )
    )
    ctl.admit("a")  # consumes the burst
    # max_queue=0: nothing may wait, shed immediately even with wait=True
    with pytest.raises(AdmissionQueueFullError) as err:
        ctl.admit("a")
    assert isinstance(err.value, ServeError)
    assert err.value.tenant == "a"
    assert err.value.depth == 0


def test_admit_waits_for_refill():
    ctl = AdmissionController(
        default=TenantQuota(requests_per_s=50.0, request_burst=1.0)
    )
    ctl.admit("a")
    granted = ctl.admit("a")  # must wait ~20ms for one token
    assert granted.waited_s > 0.0


# -- fairness / isolation ----------------------------------------------------

def test_tenants_draw_from_separate_buckets():
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(requests_per_s=1.0, request_burst=3.0),
        clock=clock,
    )
    for _ in range(3):
        ctl.admit("greedy", wait=False)
    with pytest.raises(QuotaExceededError):
        ctl.admit("greedy", wait=False)
    # the polite tenant's bucket is untouched
    for _ in range(3):
        ctl.admit("polite", wait=False)


def test_greedy_tenant_at_its_quota_costs_a_polite_tenant_no_wait():
    """The isolation promise on an injected clock: a greedy tenant
    hammering past its quota is refused out of its own bucket, and a
    human-paced tenant interleaved with it is admitted every time with a
    zero wait — its whole wait distribution, not a wall-clock p95."""
    clock = FakeClock()
    greedy_quota = TenantQuota(requests_per_s=40.0, request_burst=4.0, max_queue=4)
    ctl = AdmissionController(
        default=TenantQuota(requests_per_s=500.0, request_burst=50.0),
        quotas={"greedy": greedy_quota},
        clock=clock,
    )
    for _ in range(40):
        for _ in range(5):  # five attempts per polite request
            try:
                ctl.admit("greedy", wait=False)
            except QuotaExceededError as err:
                assert err.tenant == "greedy" and err.retry_after > 0.0
        assert ctl.admit("polite", wait=False).waited_s == 0.0
        clock.advance(0.002)
    greedy, polite = ctl.metrics("greedy"), ctl.metrics("polite")
    # the burst of 4, then 40/s over the 78 ms before the last attempt
    assert greedy["admitted"] == 4 + 3
    assert greedy["rejected_quota"] == 200 - greedy["admitted"]
    assert (polite["admitted"], polite["rejected_quota"]) == (40, 0)
    assert polite["wait"]["max_s"] == 0.0


def test_per_tenant_quota_override():
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(requests_per_s=1.0, request_burst=1.0),
        quotas={"vip": TenantQuota(requests_per_s=1.0, request_burst=10.0)},
        clock=clock,
    )
    for _ in range(10):
        ctl.admit("vip", wait=False)
    ctl.admit("other", wait=False)
    with pytest.raises(QuotaExceededError):
        ctl.admit("other", wait=False)


def test_metrics_accounting():
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(requests_per_s=1.0, request_burst=2.0),
        clock=clock,
    )
    ctl.admit("a", nbytes=100, wait=False)
    ctl.admit("a", nbytes=50, wait=False)
    with pytest.raises(QuotaExceededError):
        ctl.admit("a", wait=False)
    ctl.record_latency("a", 0.25)
    snap = ctl.metrics("a")
    assert snap["admitted"] == 2
    assert snap["rejected_quota"] == 1
    assert snap["rejected_queue"] == 0
    assert snap["bytes_admitted"] == 150
    assert snap["latency"]["count"] == 1
    assert snap["latency"]["p50_s"] == pytest.approx(0.25)
    assert set(ctl.snapshot()) == {"a"}


# -- byte-accurate reconciliation --------------------------------------------

def test_settle_debt_prices_into_next_peek():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=10.0, clock=clock)
    bucket.take(4.0)
    bucket.settle(8.0)  # actual cost exceeded the estimate by 8
    assert bucket.tokens == pytest.approx(-2.0)  # debt
    assert bucket.peek(1.0) == pytest.approx(0.3)  # 3 tokens @ 10/s


def test_settle_refund_clamps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=10.0, clock=clock)
    bucket.take(3.0)
    bucket.settle(-100.0)  # over-refund must not mint tokens
    assert bucket.tokens == pytest.approx(10.0)


def test_reconcile_underestimate_charges_the_difference():
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(
            requests_per_s=1000.0,
            request_burst=1000.0,
            bytes_per_s=100.0,
            byte_burst=100.0,
        ),
        clock=clock,
    )
    admission = ctl.admit("a", nbytes=10, wait=False)
    assert admission.charged == pytest.approx(10.0)
    # The read actually moved 90 backend bytes: 80 more drain now.
    ctl.reconcile(admission, actual_nbytes=90)
    with pytest.raises(QuotaExceededError) as err:
        ctl.admit("a", nbytes=50, wait=False)  # only 10 tokens remain
    assert err.value.retry_after == pytest.approx(0.4)
    snap = ctl.metrics("a")
    assert snap["bytes_admitted"] == 10
    assert snap["bytes_actual"] == 90
    assert snap["reconciled"] == 1


def test_reconcile_overestimate_refunds_unused_tokens():
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(
            requests_per_s=1000.0,
            request_burst=1000.0,
            bytes_per_s=100.0,
            byte_burst=100.0,
        ),
        clock=clock,
    )
    admission = ctl.admit("a", nbytes=80, wait=False)
    ctl.reconcile(admission, actual_nbytes=10)  # cache hit: cheap read
    # 100 - 80 + 70 refunded = 90 available right now.
    ctl.admit("a", nbytes=90, wait=False)


def test_reconcile_conserves_over_estimate_and_actual():
    """Whatever the estimates were, after reconciliation the bucket has
    drained exactly the *actual* bytes (modulo the burst clamp)."""
    clock = FakeClock()
    ctl = AdmissionController(
        default=TenantQuota(
            requests_per_s=1000.0,
            request_burst=1000.0,
            bytes_per_s=1.0,
            byte_burst=1000.0,
        ),
        clock=clock,
    )
    for estimate, actual in [(100, 37), (0, 250), (300, 300), (50, 0)]:
        admission = ctl.admit("a", nbytes=estimate, wait=False)
        ctl.reconcile(admission, actual_nbytes=actual)
    state = ctl._tenants["a"]
    assert state.bytes.tokens == pytest.approx(1000.0 - (37 + 250 + 300))
    assert ctl.metrics("a")["bytes_actual"] == 37 + 250 + 300


def test_reconcile_rejects_negative_actual():
    ctl = AdmissionController(clock=FakeClock())
    admission = ctl.admit("a", nbytes=1, wait=False)
    with pytest.raises(ConfigError):
        ctl.reconcile(admission, actual_nbytes=-1)


# -- concurrency -------------------------------------------------------------

def test_hammer_is_sanitizer_clean_and_conserves_tokens(lock_sanitizer):
    """Many threads, two tenants, mixed waiting and non-waiting admits:
    no lock-order inversions or unguarded writes, and the books balance
    (every thread's outcome is exactly one of admitted/typed-rejection)."""
    ctl = AdmissionController(
        default=TenantQuota(
            requests_per_s=400.0,
            request_burst=8.0,
            bytes_per_s=1e9,
            byte_burst=1e9,
            max_queue=4,
        )
    )
    n_threads, per_thread = 8, 25
    outcomes: list[str] = []
    outcomes_lock = threading.Lock()
    start = threading.Barrier(n_threads)

    def viewer(idx: int) -> None:
        tenant = "even" if idx % 2 == 0 else "odd"
        rng = np.random.default_rng(idx)
        start.wait()
        for i in range(per_thread):
            try:
                if rng.integers(2) == 0:
                    ctl.admit(tenant, nbytes=4096)
                else:
                    ctl.admit(tenant, nbytes=4096, wait=False)
                got = "admitted"
            except QuotaExceededError:
                got = "quota"
            except AdmissionQueueFullError:
                got = "queue"
            with outcomes_lock:
                outcomes.append(got)

    threads = [
        threading.Thread(target=viewer, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(outcomes) == n_threads * per_thread
    snap = ctl.snapshot()
    admitted = sum(s["admitted"] for s in snap.values())
    rej_quota = sum(s["rejected_quota"] for s in snap.values())
    rej_queue = sum(s["rejected_queue"] for s in snap.values())
    assert admitted == outcomes.count("admitted") > 0
    assert rej_quota == outcomes.count("quota")
    assert rej_queue == outcomes.count("queue")
    assert admitted + rej_quota + rej_queue == len(outcomes)
    lock_sanitizer.raise_on_violations()
    assert lock_sanitizer.violations == []
