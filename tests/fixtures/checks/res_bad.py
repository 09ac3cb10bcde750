"""Checks fixture: resource-lifecycle violations.

Expected RES002: a socket recv and a sleep inside ``with self._lock:``,
plus a recv in a ``# holds-lock`` method whose class declares guarded
state (three findings).
"""

import threading
import time


class ChannelMonitor:
    def __init__(self):
        self._lock = threading.Lock()
        self.sock = None
        self.rows = []  # guarded-by: _lock

    def fetch(self):
        with self._lock:
            return self.sock.recv(1024)  # every contender stalls on the read

    def nap(self):
        with self._lock:
            time.sleep(0.5)

    def drain(self):  # holds-lock
        return self.sock.recv(4096)
