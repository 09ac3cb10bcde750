"""Checks fixture: resource-lifecycle — the blessed shapes.

Twins of ``res_bad.py``: blocking work moved off the lock,
``Condition.wait`` (which releases its lock while sleeping), and a
string ``join`` that only looks like a thread join.  Expected: no RES
findings.
"""

import threading


class ChannelMonitor:
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.sock = None
        self.rows = []

    def fetch(self):
        with self._lock:
            wanted = len(self.rows)
        return self.sock.recv(wanted)  # blocking read happens off-lock

    def wait_for_rows(self):
        with self._lock:
            while not self.rows:
                self._cond.wait()  # releases the lock while sleeping
            return list(self.rows)

    def label(self, parts):
        with self._lock:
            return ", ".join(parts)  # string join, not a thread join
