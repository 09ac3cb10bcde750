"""File and Group objects — the user-facing hdf5lite API.

A file holds a tree of groups; each group holds attributes, child groups,
and datasets.  The tree is kept in memory as plain dicts (mirroring the
JSON metadata footer), written when a new file is closed.  A file appends
dataset bytes and records where they went; how a dataset's bytes divide
into stored units — and so how a chunk is encoded, sized, checksummed
and found again — is :mod:`repro.hdf5lite.dataset`'s (``create_dataset``
stores the chunk grid through ``Dataset._store_chunks``, and each stored
unit and its CRC are written once, there).

Example::

    with File("minute.h5", "w") as f:
        f.attrs["SamplingFrequency(HZ)"] = 500
        ds = f.create_dataset("DataCT", data=array_2d)
        ch = f.create_group("Measurement/1")
        ch.attrs["Array dimension"] = 1
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import ConfigError, FormatError
from repro.hdf5lite import dtype as _dtype
from repro.hdf5lite.attributes import Attributes
from repro.hdf5lite.binary import FORMAT_VERSION, HEADER_SIZE, FileBackend, Header
from repro.hdf5lite.cache import BlockCache, CacheConfig, FilePool, resolve_cache
from repro.hdf5lite.checksum import DEFAULT_CHECKSUM_BLOCK, _store_crcs
from repro.hdf5lite.codecs import CODEC_ATTR, resolve_codec
from repro.hdf5lite.dataset import (
    LAYOUT_CHUNKED,
    LAYOUT_CONTIGUOUS,
    LAYOUT_VIRTUAL,
    Dataset,
    _chunk_grid,
)
from repro.hdf5lite.virtual import VirtualSource, validate_sources
from repro.utils import durable
from repro.utils.iostats import IOStats


def _empty_node() -> dict[str, Any]:
    return {"attrs": {}, "groups": {}, "datasets": {}}


def _group_node(node: Any, path: str) -> dict[str, Any]:
    """``node`` when it is a group node (missing members become empty),
    else :class:`FormatError`: a footer that parses as JSON but has the
    wrong shape must not escape the error taxonomy."""
    if isinstance(node, dict) and all(
        isinstance(node.setdefault(key, {}), dict)
        for key in ("attrs", "groups", "datasets")
    ):
        return node
    raise FormatError(f"corrupt metadata footer: group {path!r} is malformed")


def _split_path(path: str) -> list[str]:
    parts = [p for p in path.strip("/").split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise FormatError(f"invalid path component {part!r}")
    return parts


class Group:
    """A node in the file's group tree."""

    def __init__(self, file: "File", path: str, node: dict[str, Any]):
        self._file = file
        self.path = path or "/"
        self._node = _group_node(node, self.path)
        self.attrs = Attributes(self._node["attrs"], writable=file.writable)
        self._node["attrs"] = self.attrs._data

    def _child_path(self, name: str) -> str:
        if self.path == "/":
            return "/" + name
        return self.path + "/" + name

    # -- navigation ------------------------------------------------------------
    def __contains__(self, path: str) -> bool:
        try:
            self[path]
            return True
        except KeyError:
            return False

    def __getitem__(self, path: str) -> "Group | Dataset":
        parts = _split_path(path)
        if not parts:
            return self
        node = self._node
        walked = self.path.rstrip("/")
        for i, part in enumerate(parts):
            is_last = i == len(parts) - 1
            if is_last and part in node["datasets"]:
                return self._file._dataset_for(
                    walked + "/" + part, node["datasets"][part]
                )
            if part not in node["groups"]:
                raise KeyError(f"no such group or dataset: {path!r}")
            walked = walked + "/" + part
            node = _group_node(node["groups"][part], walked)
        return Group(self._file, walked, node)

    def keys(self) -> list[str]:
        return sorted(self._node["groups"].keys() | self._node["datasets"].keys())

    def groups(self) -> list[str]:
        return sorted(self._node["groups"])

    def datasets(self) -> list[str]:
        return sorted(self._node["datasets"])

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._node["groups"]) + len(self._node["datasets"])

    def visit(self) -> Iterator[str]:
        """Depth-first iteration of all descendant paths."""
        for name in self.keys():
            child = self[name]
            yield child.path
            if isinstance(child, Group):
                yield from child.visit()

    # -- creation ---------------------------------------------------------------
    def create_group(self, path: str) -> "Group":
        """Create (or descend into existing) groups along ``path``."""
        if not self._file.writable:
            raise FormatError("file is not writable")
        parts = _split_path(path)
        if not parts:
            raise FormatError("empty group name")
        node = self._node
        walked = self.path.rstrip("/")
        for part in parts:
            if part in node["datasets"]:
                raise FormatError(f"{walked}/{part} is a dataset, not a group")
            node = node["groups"].setdefault(part, _empty_node())
            walked = walked + "/" + part
        return Group(self._file, walked, node)

    def create_dataset(
        self,
        name: str,
        data: object = None,
        shape: Sequence[int] | None = None,
        dtype: object = None,
        chunks: Sequence[int] | None = None,
        virtual_sources: Sequence[VirtualSource] | None = None,
        fill: float = 0,
        checksum: bool = False,
        checksum_block: int | None = None,
        codec: object = None,
    ) -> Dataset:
        """Create a dataset under this group.

        Exactly one of the three layouts is chosen:

        * ``virtual_sources`` given → virtual dataset (``shape`` required),
        * ``chunks`` given → chunked (``data`` required),
        * otherwise → contiguous (``data`` or ``shape``+``dtype``).

        ``checksum=True`` stores a per-block CRC32 sidecar (see
        :mod:`repro.hdf5lite.checksum`) verified on every subsequent read,
        taken from the bytes as they are appended — nothing is read back,
        and nothing rewrites them: a chunked or checksummed dataset takes
        no hyperslab write.  ``checksum_block`` overrides the contiguous
        block size.  Virtual
        datasets hold no local bytes, so the flag is a no-op for them.

        ``codec`` — a codec spec string (``"delta-zlib"``,
        ``"transpose-zlib"``, ``"quantize:1e-3"``) or
        :class:`~repro.hdf5lite.codecs.Codec` instance: each chunk is
        stored encoded and the choice recorded in the ``repro:codec``
        attribute, so files without a codec stay readable unchanged.
        Codecs require a chunked layout (contiguous offset arithmetic
        assumes fixed-size elements); combined with ``checksum=True`` the
        CRCs cover the *encoded* bytes — corruption is caught before any
        decode.

        A chunked dataset's chunks are encoded concurrently when there are
        two or more and more than one CPU (``Dataset._store_chunks``), and
        written in grid order, so the file's bytes do not depend on it.  A
        chunk that fails to encode raises its own exception and the
        dataset is not created; the payloads already appended stay behind
        as dead bytes.
        """
        if not self._file.writable:
            raise FormatError("file is not writable")
        if codec is not None and chunks is None:
            raise FormatError(
                "codec requires a chunked layout (pass chunks=...)"
            )
        parts = _split_path(name)
        if not parts:
            raise FormatError("empty dataset name")
        *group_parts, ds_name = parts
        parent = self.create_group("/".join(group_parts)) if group_parts else self
        if ds_name in parent._node["datasets"] or ds_name in parent._node["groups"]:
            raise FormatError(f"object {ds_name!r} already exists in {parent.path}")

        if virtual_sources is not None:
            if shape is None:
                raise FormatError("virtual datasets require an explicit shape")
            token = _dtype.dtype_token(dtype if dtype is not None else np.float32)
            sources = list(virtual_sources)
            validate_sources(shape, sources)
            meta: dict[str, Any] = {
                "shape": [int(s) for s in shape],
                "dtype": token,
                "layout": LAYOUT_VIRTUAL,
                "sources": [s.to_dict() for s in sources],
                "fill": fill,
                "attrs": {},
            }
        elif chunks is not None:
            if data is None:
                raise FormatError("chunked datasets require data at creation")
            arr = np.asarray(data, order="C")
            token = _dtype.dtype_token(dtype if dtype is not None else arr.dtype)
            arr = arr.astype(_dtype.token_dtype(token), copy=False)
            chunks = tuple(int(c) for c in chunks)
            if len(chunks) != arr.ndim or any(c <= 0 for c in chunks):
                raise FormatError(
                    f"chunk shape {chunks} invalid for data of rank {arr.ndim}"
                )
            resolved = resolve_codec(codec) if codec is not None else None
            meta = {
                "shape": [int(s) for s in arr.shape],
                "dtype": token,
                "layout": LAYOUT_CHUNKED,
                "chunks": list(chunks),
                "chunk_index": {},
                "attrs": {},
            }
            if resolved is not None:
                meta["chunk_enc"] = {}
        else:
            if data is not None:
                arr = np.asarray(data, order="C")
                token = _dtype.dtype_token(dtype if dtype is not None else arr.dtype)
                arr = arr.astype(_dtype.token_dtype(token), copy=False)
                if shape is not None and tuple(shape) != arr.shape:
                    raise FormatError(
                        f"shape {tuple(shape)} contradicts data shape {arr.shape}"
                    )
                raw = arr.tobytes()
                final_shape = arr.shape
            else:
                if shape is None:
                    raise FormatError("need data or shape to create a dataset")
                token = _dtype.dtype_token(dtype if dtype is not None else np.float32)
                nbytes = int(np.prod(shape, dtype=np.int64)) * _dtype.itemsize(token)
                raw = bytes(nbytes)
                final_shape = tuple(int(s) for s in shape)
            if checksum_block is None:
                checksum_block = DEFAULT_CHECKSUM_BLOCK
            if checksum and checksum_block < 1:
                raise FormatError(f"block_size must be >= 1, got {checksum_block}")
            offset = self._file._append_data(raw)
            meta = {
                "shape": [int(s) for s in final_shape],
                "dtype": token,
                "layout": LAYOUT_CONTIGUOUS,
                "offset": offset,
                "attrs": {},
            }

        ds = self._file._dataset_for(parent._child_path(ds_name), meta)
        if meta["layout"] == LAYOUT_CHUNKED:
            if resolved is not None:
                ds.attrs[CODEC_ATTR] = resolved.spec
            # Every chunk of the grid is appended once; each payload's CRC
            # is taken in the task that makes it, not by reading the file
            # back.
            def grid() -> Iterator[tuple[str, np.ndarray]]:
                for ckey, start, count in _chunk_grid(arr.shape, chunks):
                    yield ckey, arr[tuple(slice(s, s + n) for s, n in zip(start, count))]

            chunk_crcs = ds._store_chunks(grid(), resolved)
            if checksum:
                _store_crcs(ds, chunk_crcs, 0)
        elif checksum and meta["layout"] == LAYOUT_CONTIGUOUS:
            # The same for the contiguous region: its blocks' CRCs are
            # taken from the bytes just appended.
            view = memoryview(raw)
            crcs = {
                i: zlib.crc32(view[at : at + checksum_block])
                for i, at in enumerate(range(0, len(view), checksum_block))
            }
            _store_crcs(ds, crcs, checksum_block)
        parent._node["datasets"][ds_name] = meta
        return ds

    def __repr__(self) -> str:
        return f"<Group {self.path!r} ({len(self)} members)>"


class File(Group):
    """An hdf5lite file handle (also the root group).

    Modes: ``"r"`` reads a file; ``"w"`` writes one, once: it builds a
    ``path + ".tmp"`` sibling, which a clean :meth:`close` finishes and
    publishes onto ``path`` (:func:`repro.utils.durable.promote`).  A
    ``with`` block that raises publishes nothing and removes the sibling.

    A :class:`FilePool` hands one ``File`` to every reader of a path, so a
    file holds no per-reader state (a degraded-read mode is set on a
    reader's own ``Dataset`` object: ``Dataset.on_source_error``).  A
    virtual dataset's source files are always pool handles: the ``pool``
    given, else one of the file's own, closed with it — either way at most
    :data:`~repro.hdf5lite.cache.DEFAULT_MAX_HANDLES` are open at once,
    however many sources the dataset has.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        mode: str = "r",
        iostats: IOStats | None = None,
        cache: BlockCache | CacheConfig | None = None,
        pool: FilePool | None = None,
        verify_checksums: bool = True,
    ):
        """Open a file.

        ``cache`` — an optional read-side block cache (see
        :mod:`repro.hdf5lite.cache`): a shared :class:`BlockCache`, a
        :class:`CacheConfig` (a private cache is built), or ``None`` /
        budget-0 config for the exact uncached behaviour; keyed on the
        opened file's identity, not its path.  A ``"w"`` file takes none.
        ``pool`` — an optional :class:`FilePool` to acquire virtual-source
        files from (shared, kept open after this file closes); without one
        the file builds its own, with this file's cache, and closes it on
        :meth:`close`.
        ``verify_checksums`` — when True (default), reads of datasets that
        carry a ``repro:crc32`` sidecar verify each block as it is loaded
        and raise :class:`~repro.errors.CorruptDataError` on mismatch;
        False skips verification (unchecksummed files are unaffected
        either way).
        """
        path = os.fspath(path)
        if mode not in ("r", "w"):
            raise ConfigError(f"unsupported file mode {mode!r}")
        if mode == "w" and cache is not None:
            raise ConfigError("a file opened for writing takes no cache")
        self.filename = path
        self.mode = mode
        self.writable = mode == "w"
        self.verify_checksums = bool(verify_checksums)
        # One Dataset object per dataset (it memoises what it parses out of
        # the metadata — its stored-unit map above all), and each
        # virtual-source path resolved once.
        self._datasets: dict[str, Dataset] = {}
        self._source_paths: dict[str, str] = {}
        self._cache = resolve_cache(cache)
        self._owns_pool = pool is None
        self._pool = pool if pool is not None else FilePool(
            cache=self._cache, verify_checksums=self.verify_checksums
        )

        if mode == "w":
            self._backend = FileBackend(path + ".tmp", "w+b", iostats)
            self._backend.write_header(Header(FORMAT_VERSION, HEADER_SIZE, 0))
            self._data_end = HEADER_SIZE
            super().__init__(self, "/", _empty_node())
            return
        self._backend = FileBackend(path, "rb", iostats)
        try:
            st = self._backend.fstat()
            self._cache_key = (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
            header = self._backend.read_header()
            if header.meta_len == 0:
                root = _empty_node()
            else:
                raw = self._backend.read_at(header.meta_offset, header.meta_len)
                try:
                    root = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise FormatError(f"corrupt metadata footer: {exc}") from exc
            self._data_end = header.meta_offset
            super().__init__(self, "/", root)
        except BaseException:  # noqa: TAX001 - closes the backend, then re-raises
            # The caller gets no handle to close: a torn file must not
            # cost an fd per failed open.
            self._backend.close()
            raise

    # -- plumbing used by Group/Dataset ------------------------------------------
    def _append_data(self, payload: bytes) -> int:
        """Append raw dataset bytes to the data region; return the offset."""
        offset = self._data_end
        self._backend.write_at(offset, payload)
        self._data_end = offset + len(payload)
        return offset

    def _dataset_for(self, path: str, meta: dict[str, Any]) -> Dataset:
        ds = self._datasets.get(path)
        if ds is None or ds._meta is not meta:
            ds = self._datasets[path] = Dataset(self, path, meta)
        return ds

    def _resolve_source(self, source_path: str) -> "File":
        """The open source file a virtual dataset references: a handle of
        this file's pool, which owns it (see the class docstring)."""
        resolved = self._source_paths.get(source_path)
        if resolved is None:
            resolved = self._source_paths[source_path] = os.path.normpath(
                os.path.join(os.path.dirname(self.filename), source_path)
            )
        return self._pool.acquire(resolved, iostats=self._backend.iostats)

    def dataset(self, path: str) -> Dataset:
        """Fetch a dataset by absolute path; a missing path or a group is
        :class:`FormatError`."""
        try:
            obj = self[path]
        except KeyError:
            raise FormatError(f"{self.filename}: no dataset {path!r}") from None
        if not isinstance(obj, Dataset):
            raise FormatError(f"{path!r} is a group, not a dataset")
        return obj

    # -- lifecycle ---------------------------------------------------------------
    @property
    def iostats(self) -> IOStats:
        return self._backend.iostats

    @property
    def cache(self) -> BlockCache | None:
        return self._cache

    def set_iostats(self, iostats: IOStats) -> None:
        """Re-point I/O accounting at ``iostats`` (pooled-handle reuse)."""
        self._backend.iostats = iostats

    def close(self) -> None:
        """Close the file; a ``"w"`` file is finished and published."""
        self._close(publish=True)

    def _close(self, publish: bool) -> None:
        if self._backend.closed:
            return
        if self._owns_pool:
            self._pool.close_all()
        if self.writable and publish:
            payload = json.dumps(self._node, separators=(",", ":")).encode("utf-8")
            self._backend.write_at(self._data_end, payload)
            self._backend.write_header(
                Header(FORMAT_VERSION, self._data_end, len(payload))
            )
        self._backend.close()
        if self.writable and publish:
            durable.promote(self._backend.path, self.filename)
        elif self.writable:
            os.remove(self._backend.path)

    @property
    def closed(self) -> bool:
        return self._backend.closed

    def __enter__(self) -> "File":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self._close(publish=False)

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"mode={self.mode!r}"
        return f"<File {self.filename!r} {state}>"
