"""Low-level binary backend for hdf5lite files.

``FileBackend`` wraps an OS-level file handle, counts every operation in an
:class:`repro.utils.IOStats`, and exposes exactly the primitives the format
needs: header read/write and positioned reads/writes of raw element runs
(``File._append_data`` is the one appender: it writes at the end of the
data region, ahead of the metadata footer).  A backend reads a file
(``"rb"``) or builds a new one (``"w+b"``), never changes one in place.

Header layout (32 bytes, little-endian)::

    bytes  0..7   magic  b"DASH5LT\\0"
    bytes  8..11  format version (u32)
    bytes 12..19  metadata offset (u64)
    bytes 20..27  metadata length (u64)
    bytes 28..31  reserved (zero)
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass

from repro.errors import ConfigError, FormatError
from repro.utils.iostats import IOStats

MAGIC = b"DASH5LT\x00"
FORMAT_VERSION = 1
HEADER_SIZE = 32
_HEADER_STRUCT = struct.Struct("<8sIQQ4x")


@dataclass
class Header:
    version: int
    meta_offset: int
    meta_len: int

    def pack(self) -> bytes:
        return _HEADER_STRUCT.pack(MAGIC, self.version, self.meta_offset, self.meta_len)

    @classmethod
    def unpack(cls, raw: bytes) -> "Header":
        if len(raw) < HEADER_SIZE:
            raise FormatError("file too short to contain an hdf5lite header")
        magic, version, meta_offset, meta_len = _HEADER_STRUCT.unpack(raw[:HEADER_SIZE])
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}; not an hdf5lite file")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        return cls(version=version, meta_offset=meta_offset, meta_len=meta_len)


class FileBackend:
    """Instrumented positioned-I/O wrapper around a binary file."""

    #: Optional fault-injection hook ``hook(path, offset, nbytes)`` called
    #: before every positioned read.  ``None`` (the default) costs one
    #: attribute load per read; :mod:`repro.faults.inject` installs a
    #: dispatcher here to simulate slow and transiently-failing devices.
    read_fault_hook = None

    def __init__(self, path: str | os.PathLike, mode: str, iostats: IOStats | None = None):
        if mode not in ("rb", "w+b"):
            raise ConfigError(f"unsupported backend mode {mode!r}")
        self.path = os.fspath(path)
        self.mode = mode
        self.iostats = iostats if iostats is not None else IOStats()
        self._fh = open(self.path, mode)
        self.iostats.record_open()
        self._pos = 0
        # Positioned ops are seek+read/write pairs; handles shared via a
        # FilePool are hit from several simmpi rank-threads at once, so
        # each pair must be atomic.
        self._io_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._fh.closed

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
            self.iostats.record_close()

    def __enter__(self) -> "FileBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- primitives ----------------------------------------------------------
    def _seek(self, offset: int) -> None:
        if offset != self._pos:
            self._fh.seek(offset)
            self.iostats.record_seek()
        self._pos = offset

    def read_at(self, offset: int, nbytes: int) -> bytes:
        """One positioned read == one I/O request."""
        hook = FileBackend.read_fault_hook
        if hook is not None:
            hook(self.path, offset, nbytes)
        with self._io_lock:
            self._seek(offset)
            data = self._fh.read(nbytes)
            if len(data) != nbytes:
                raise FormatError(
                    f"short read at offset {offset}: wanted {nbytes}, got {len(data)}"
                )
            self._pos = offset + nbytes
        self.iostats.record_read(nbytes)
        return data

    def readinto_at(self, offset: int, buffer: memoryview) -> None:
        """Positioned read directly into a writable buffer (no copy)."""
        hook = FileBackend.read_fault_hook
        if hook is not None:
            hook(self.path, offset, len(buffer))
        with self._io_lock:
            self._seek(offset)
            got = self._fh.readinto(buffer)
            if got != len(buffer):
                raise FormatError(
                    f"short read at offset {offset}: wanted {len(buffer)}, got {got}"
                )
            self._pos = offset + len(buffer)
        self.iostats.record_read(len(buffer))

    def write_at(self, offset: int, data: bytes | memoryview) -> None:
        with self._io_lock:
            self._seek(offset)
            self._fh.write(data)
            self._pos = offset + len(data)
        self.iostats.record_write(len(data))

    def fstat(self) -> os.stat_result:
        return os.fstat(self._fh.fileno())

    # -- header helpers ------------------------------------------------------
    def read_header(self) -> Header:
        return Header.unpack(self.read_at(0, HEADER_SIZE))

    def write_header(self, header: Header) -> None:
        self.write_at(0, header.pack())
