"""Runtime lock sanitizer — the dynamic half of the lock-discipline story.

The static analyzer (:mod:`repro.checks.locks`) proves mutations sit
inside ``with self._lock:`` blocks; this module catches what lexical
analysis cannot — the *order* locks are taken in across threads, and
code paths that reach shared state through an alias.  It is strictly a
test-time tool: production code constructs plain ``threading.Lock``
objects and pays zero overhead; a test installs the sanitizer (via the
``lock_sanitizer`` fixture in ``tests/conftest.py``) and every lock
constructed while it is installed is an instrumented wrapper.

Detections:

* **lock-order inversion** — every acquisition records held-lock →
  acquired-lock edges in a global order graph; acquiring ``A`` then
  ``B`` anywhere while ``B`` then ``A`` was ever observed (any thread,
  any time) is a potential deadlock and is reported immediately — no
  actual deadlock (or even second thread) is needed to catch it.
* **guarded attribute write without the lock** —
  :meth:`LockSanitizer.guard_attributes` rebinds an instance's class to
  a shim whose ``__setattr__``/``__delattr__`` verify the instance's
  lock is held by the current thread for the named attributes (the
  runtime mirror of the ``# guarded-by:`` annotation).

Violations are recorded, not raised, so a seeded race in a regression
test can assert on exactly what was caught; :meth:`LockSanitizer.raise_on_violations`
turns them into a :class:`LockSanitizerError` for strict tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = [
    "LockSanitizer",
    "LockSanitizerError",
    "SanitizerViolation",
    "SanitizedLock",
]


class LockSanitizerError(ReproError):
    """Raised by :meth:`LockSanitizer.raise_on_violations`."""


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected discipline violation."""

    kind: str       # "lock-order-inversion" | "unguarded-write"
    message: str
    thread: str


class SanitizedLock:
    """An instrumented ``threading.Lock``/``RLock`` stand-in.

    Supports the full lock protocol (``acquire``/``release``/``locked``/
    context manager) plus the private RLock hooks ``Condition`` uses, so
    instrumented locks can back conditions transparently.  Acquisition
    and release report to the owning :class:`LockSanitizer`.
    """

    def __init__(self, sanitizer: "LockSanitizer", reentrant: bool, name: str | None = None):
        self._sanitizer = sanitizer
        self._reentrant = reentrant
        self._inner = (
            sanitizer._real_rlock() if reentrant else sanitizer._real_lock()
        )
        self.name = name or f"{'rlock' if reentrant else 'lock'}-{sanitizer._next_id()}"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._on_acquire(self)
        return acquired

    def release(self) -> None:
        self._sanitizer._on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    # -- RLock protocol used by threading.Condition -------------------------
    # A raw Lock has none of these, and Condition binds them at __init__
    # by hasattr — since this wrapper always exposes them, the
    # non-reentrant branch must reproduce Condition's own plain-lock
    # fallbacks (probe-acquire for ownership, full acquire/release for
    # save/restore).
    def _is_owned(self):  # pragma: no cover - exercised via Condition
        if self._reentrant:
            return self._inner._is_owned()
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _acquire_restore(self, state):  # pragma: no cover
        if not self._reentrant:
            self.acquire()
            return
        self._inner._acquire_restore(state)
        self._sanitizer._on_acquire(self)

    def _release_save(self):  # pragma: no cover
        if not self._reentrant:
            self.release()
            return None
        self._sanitizer._on_release(self)
        return self._inner._release_save()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SanitizedLock {self.name}>"


class _ThreadState(threading.local):
    def __init__(self):
        self.held: list[SanitizedLock] = []


def _thread_name() -> str:
    """Name of the calling thread, without ``current_thread()``.

    ``current_thread()`` builds a ``_DummyThread`` for unregistered
    threads, and ``_DummyThread.__init__`` constructs an ``Event`` whose
    lock is instrumented while the sanitizer is installed — which calls
    straight back into the acquire hook, recursing forever.  A thread is
    unregistered exactly during its bootstrap window (``_bootstrap_inner``
    fires ``self._started`` — a sanitized ``Event`` — *before* adding
    itself to ``threading._active``), so every ``Thread.start()`` under
    the sanitizer crosses that window.
    """
    thread = threading._active.get(threading.get_ident())
    return thread.name if thread is not None else f"thread-{threading.get_ident()}"


class LockSanitizer:
    """Records lock acquisition order and guarded-attribute writes.

    Use :meth:`install`/:meth:`uninstall` (or the ``lock_sanitizer``
    pytest fixture) to swap ``threading.Lock``/``threading.RLock`` for
    instrumented factories while a test constructs the objects under
    scrutiny.  Nothing outside an install window is affected — the
    default build of every repro class uses plain ``threading`` locks.
    """

    def __init__(self):
        self._real_lock = threading.Lock
        self._real_rlock = threading.RLock
        self._meta = self._real_lock()  # protects the sanitizer's own state
        self._counter = 0               # guarded-by: _meta
        self._edges: dict[tuple[str, str], str] = {}  # guarded-by: _meta
        self.violations: list[SanitizerViolation] = []  # guarded-by: _meta
        self._locks: list[SanitizedLock] = []  # guarded-by: _meta (keeps ids stable)
        self._state = _ThreadState()
        self._installed = False

    # -- construction --------------------------------------------------------
    def Lock(self, name: str | None = None) -> SanitizedLock:
        lock = SanitizedLock(self, reentrant=False, name=name)
        with self._meta:
            self._locks.append(lock)
        return lock

    def RLock(self, name: str | None = None) -> SanitizedLock:
        lock = SanitizedLock(self, reentrant=True, name=name)
        with self._meta:
            self._locks.append(lock)
        return lock

    def _next_id(self) -> int:
        with self._meta:
            self._counter += 1
            return self._counter

    # -- install/uninstall ---------------------------------------------------
    def install(self) -> "LockSanitizer":
        """Swap ``threading.Lock``/``RLock`` for instrumented factories."""
        if self._installed:
            return self
        threading.Lock = lambda: self.Lock()  # type: ignore[assignment]
        threading.RLock = lambda: self.RLock()  # type: ignore[assignment]
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            threading.Lock = self._real_lock  # type: ignore[assignment]
            threading.RLock = self._real_rlock  # type: ignore[assignment]
            self._installed = False

    def __enter__(self) -> "LockSanitizer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- acquisition tracking ------------------------------------------------
    def _on_acquire(self, lock: SanitizedLock) -> None:
        held = self._state.held
        if lock._reentrant and any(h is lock for h in held):
            held.append(lock)  # reentrant re-acquire: no new edges
            return
        thread = _thread_name()
        with self._meta:
            for prior in held:
                if prior is lock:
                    continue
                edge = (prior.name, lock.name)
                inverse = (lock.name, prior.name)
                if inverse in self._edges and edge not in self._edges:
                    self.violations.append(SanitizerViolation(
                        kind="lock-order-inversion",
                        message=(
                            f"acquired {lock.name!r} while holding "
                            f"{prior.name!r}, but the opposite order was "
                            f"observed on thread {self._edges[inverse]!r} "
                            f"— potential deadlock"
                        ),
                        thread=thread,
                    ))
                self._edges.setdefault(edge, thread)
        held.append(lock)

    def _on_release(self, lock: SanitizedLock) -> None:
        held = self._state.held
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    def holds(self, lock: object) -> bool:
        return any(h is lock for h in self._state.held)

    # -- guarded attributes --------------------------------------------------
    def guard_attributes(
        self, obj: object, attrs: list[str] | tuple[str, ...], lock_attr: str = "_lock"
    ) -> object:
        """Runtime mirror of ``# guarded-by:``: rebind ``obj``'s class so
        writes to ``attrs`` require the calling thread to hold
        ``obj.<lock_attr>`` (which must be a sanitizer lock — construct
        the object with the sanitizer installed).  Returns ``obj``."""
        sanitizer = self
        guarded = frozenset(attrs)
        base = type(obj)
        lock = getattr(obj, lock_attr)
        if not isinstance(lock, SanitizedLock):
            raise LockSanitizerError(
                f"{base.__name__}.{lock_attr} is not a sanitized lock — "
                f"construct the object while the sanitizer is installed"
            )

        def check(name: str) -> None:
            if name in guarded and not sanitizer.holds(lock):
                with sanitizer._meta:
                    sanitizer.violations.append(SanitizerViolation(
                        kind="unguarded-write",
                        message=(
                            f"{base.__name__}.{name} written without "
                            f"holding {lock_attr} ({lock.name})"
                        ),
                        thread=_thread_name(),
                    ))

        namespace = {
            "__setattr__": lambda s, n, v: (check(n), base.__setattr__(s, n, v))[-1],
            "__delattr__": lambda s, n: (check(n), base.__delattr__(s, n))[-1],
        }
        shim = type(f"Guarded{base.__name__}", (base,), namespace)
        object.__setattr__(obj, "__class__", shim)
        return obj

    # -- reporting -----------------------------------------------------------
    def violations_of(self, kind: str) -> list[SanitizerViolation]:
        with self._meta:
            return [v for v in self.violations if v.kind == kind]

    def raise_on_violations(self) -> None:
        with self._meta:
            if self.violations:
                lines = "\n".join(f"  [{v.kind}] {v.message}" for v in self.violations)
                raise LockSanitizerError(
                    f"{len(self.violations)} lock-discipline violation(s):\n{lines}"
                )
