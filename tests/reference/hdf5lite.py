"""Frozen reference implementations the hdf5lite tests check the
program against: each is a kernel as it stood before a faster one replaced
it, kept verbatim as the slow, obviously correct spec.

* :func:`parent_load_unit` — ``Dataset._load_unit`` before the selection
  reached the decoder: decode the chunk whole, admit it, slice;
* :func:`parent_read_chunked` — ``Dataset._read_chunked`` before its codec
  chunks were decoded on a pool: one chunk at a time in grid order, each
  loaded by :func:`parent_load_unit` on the calling thread;
* :func:`parent_encode` / :func:`parent_decode` — ``transpose-zlib`` before
  its planes were told apart: one ``zlib.compress`` over the transposed
  buffer, and the matching unbounded inflate plus one transpose;
* :func:`read_back_sidecar` — the checksum sidecar as the retrofit that
  preceded creation-time CRCs computed it: every stored unit read back
  from the file and CRC'd.
"""

import math
import zlib

import numpy as np

from repro.hdf5lite.checksum import (
    CRC_ATTR,
    CRC_BLOCK_ATTR,
    CRC_KEYS_ATTR,
    DEFAULT_CHECKSUM_BLOCK,
)
from repro.hdf5lite.hyperslab import Hyperslab


def parent_load_unit(self, unit, cache, select=None):
    """``Dataset._load_unit`` as it was before the selection reached the
    decoder (frozen): decode the chunk whole, admit it, slice."""
    stats = self._file._backend.iostats
    data = None
    if cache is not None:
        key = (self._file._cache_key, unit.offset, unit.nbytes)
        data = cache.get(key, stats)
    if data is None:
        data = self._fetch_unit(unit)
        if self.codec is not None:
            data = self.codec.decode(data, unit.shape, self.dtype).tobytes()
        if cache is not None:
            cache.put(key, data, stats)
    if select is None:
        return data
    return np.frombuffer(data, dtype=self.dtype).reshape(unit.shape)[select]


def parent_read_chunked(self, hs, out, pool=None):
    """``Dataset._read_chunked`` as it was before codec chunks were decoded
    on a pool (frozen; ``pool`` is accepted and ignored): every touched
    chunk in grid order, loaded on the calling thread."""
    codec = self.codec
    itemsize = self.itemsize
    backend = self._file._backend
    cache = self._file._cache
    for unit, local, vals in self._touched_chunks(hs):
        cached = (
            cache is not None
            and math.prod(unit.shape) * itemsize <= cache.config.byte_budget
        )
        if codec is None and unit.crc is None and not cached:
            local_slab = Hyperslab(
                start=tuple(sl.start for sl in local),
                count=tuple(v.stop - v.start for v in vals),
                stride=tuple(sl.step for sl in local),
            )
            self._read_spans(
                local_slab,
                unit.shape,
                lambda offset, dest, at=unit.offset: backend.readinto_at(
                    at + offset, dest
                ),
                out[vals],
            )
        else:
            out[vals] = parent_load_unit(self, unit, cache if cached else None, local)


def parent_encode(arr: np.ndarray, level: int) -> bytes:
    """``TransposeZlibCodec.encode`` as it was before planes were told
    apart (frozen): one ``zlib.compress`` over the transposed buffer."""
    arr = np.ascontiguousarray(arr)
    planes = arr.reshape(-1).view(np.uint8).reshape(-1, arr.dtype.itemsize)
    return zlib.compress(np.ascontiguousarray(planes.T).tobytes(), level)


def parent_decode(payload: bytes, shape, dtype) -> np.ndarray:
    """The matching frozen decoder: unbounded inflate, one transpose."""
    dtype = np.dtype(dtype)
    raw = zlib.decompress(payload)
    n = int(np.prod(shape, dtype=np.int64)) if len(shape) else 1
    assert len(raw) == n * dtype.itemsize
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(dtype.itemsize, n)
    return np.ascontiguousarray(planes.T).reshape(-1).view(dtype).reshape(shape)


def read_back_sidecar(ds, block_size=DEFAULT_CHECKSUM_BLOCK):
    """The ``repro:crc32*`` attributes a read-back derives from the file's
    bytes (frozen from the retrofit): one CRC per chunk of its stored,
    encoded bytes, by chunk key, or one per ``block_size`` bytes of a
    contiguous region, by block number."""
    crcs = {
        key: zlib.crc32(ds._fetch_unit(unit))
        for key, unit in ds._stored_units(sidecar=False, span=block_size).items()
    }
    chunked = ds.chunks is not None
    sidecar = {CRC_ATTR: list(crcs.values()), CRC_BLOCK_ATTR: 0 if chunked else block_size}
    if chunked:
        sidecar[CRC_KEYS_ATTR] = list(crcs)
    return sidecar
