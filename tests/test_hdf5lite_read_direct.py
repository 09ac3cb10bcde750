"""Destination-passing reads: ``Dataset.read_direct`` is every layout's
one read path.

Invariants:

* ``read_direct`` ≡ ``read_hyperslab`` ≡ numpy slicing for contiguous,
  raw-chunked, codec-chunked and virtual datasets, over N-D strided
  selections, with and without checksums, uncached and through a page +
  chunk cache (cold and warm), into a destination of the dataset's dtype,
  of another dtype, or a non-contiguous view; a wrong-shaped destination
  is a ``SelectionError``;
* the span planner bounds every span when the destination cannot take
  source bytes in place, and ``gather_spans`` fills any destination the
  same, fetched span by span or copied out of resident blocks;
* a virtual dataset pre-fills only when its sources do not tile it
  (``sources_tile`` against a brute-force cover count), and a masked or
  corrupt source marks its own span and nothing else;
* a virtual read intersects only the sources its time range can reach
  (bisected, at most one more than it touches among 1 440), and equals
  the full scan of every source in declaration order — values, fills and
  masked spans — on tiled, channel-grouped and overlapping layouts;
* warm cached reads look each touched unit up once;
* a codec chunk read hands its selection to the decoder — with or without
  a sidecar, verified or not, cached, uncached or under a cache too small
  for the chunk, its decodes serial or on the read's pool — and equals
  numpy while issuing exactly the requests the frozen whole-chunk loop it
  replaced did; one flipped stored byte is refused under any selection.
"""

import itertools
import os
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptDataError, FormatError, SelectionError
from repro.hdf5lite import CacheConfig, File, VirtualSource
from repro.hdf5lite import dataset as dataset_module
from repro.hdf5lite.codecs import TransposeZlibCodec
from repro.hdf5lite.dataset import Dataset
from repro.hdf5lite.hyperslab import (
    Hyperslab,
    gather_spans,
    normalize_selection,
    plan_spans,
)
from repro.hdf5lite.virtual import sources_tile
from repro.utils.iostats import IOStats
from tests.reference.hdf5lite import parent_load_unit, parent_read_chunked

SHAPE = (5, 9, 40)
HALF = SHAPE[:2] + (SHAPE[2] // 2,)
LAYOUTS = {
    "contiguous": {},
    "contiguous-crc": {"checksum": True, "checksum_block": 256},
    "chunked": {"chunks": (2, 4, 16)},
    "chunked-crc": {"chunks": (2, 4, 16), "checksum": True},
    "delta-zlib": {"chunks": (2, 4, 16), "codec": "delta-zlib", "checksum": True},
    "transpose-zlib": {"chunks": (3, 9, 7), "codec": "transpose-zlib"},
    "quantize": {"chunks": (2, 4, 16), "codec": "quantize:0.25", "checksum": True},
}
OPENS = {
    "uncached": {},
    "unverified": {"verify_checksums": False},
    # pages far smaller than a row of chunks, chunks cached whole
    "cached": {"cache": CacheConfig(page_size=512)},
}


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One array under every layout, plus a virtual dataset stitching a
    contiguous and a codec file along the last axis; returns the
    directory and what each dataset holds (``quantize`` is lossy)."""
    root = tmp_path_factory.mktemp("direct")
    data = np.random.default_rng(5).normal(size=SHAPE).astype(np.float32)
    for name, kwargs in LAYOUTS.items():
        with File(str(root / f"{name}.h5"), "w") as f:
            f.create_dataset("d", data=data, **kwargs)
    with File(str(root / "virtual.h5"), "w") as f:
        f.create_dataset(
            "d",
            shape=SHAPE,
            dtype=np.float32,
            virtual_sources=[
                VirtualSource("contiguous-crc.h5", "/d", (0, 0, 0), (0, 0, 0), HALF),
                VirtualSource(
                    "transpose-zlib.h5", "/d", (0, 0, HALF[2]), (0, 0, HALF[2]), HALF
                ),
            ],
        )
    holds = {}
    for name in (*LAYOUTS, "virtual"):
        with File(str(root / f"{name}.h5"), "r") as f:
            holds[name] = f.dataset("d").read()
        if name != "quantize":
            np.testing.assert_array_equal(holds[name], data)
    return root, holds


@st.composite
def selections(draw, shape=SHAPE):
    sel = []
    for dim in shape:
        if draw(st.booleans()):
            sel.append(slice(None))
            continue
        start = draw(st.integers(0, dim))
        stop = draw(st.integers(start, dim))
        sel.append(slice(start, stop, draw(st.sampled_from([1, 2, 3, 7, 50]))))
    return tuple(sel)


def _destination(kind, count):
    """A poisoned destination of shape ``count`` and the array to compare."""
    if kind == "same":
        return np.full(count, -7, dtype=np.float32)
    if kind == "float64":
        return np.full(count, -7, dtype=np.float64)
    # every other element of a larger Fortran-ordered block
    big = np.full(tuple(2 * c + 1 for c in count), -7, dtype=np.float64, order="F")
    return big[tuple(slice(1, 2 * c + 1, 2) for c in count)]


@settings(max_examples=250, deadline=None)
@given(
    sel=selections(),
    layout=st.sampled_from([*LAYOUTS, "virtual"]),
    how=st.sampled_from(sorted(OPENS)),
    dest=st.sampled_from(["same", "float64", "view"]),
)
def test_read_direct_equals_read_hyperslab_equals_numpy(stored, sel, layout, how, dest):
    root, holds = stored
    expected = holds[layout][sel]
    hs, _ = normalize_selection(sel, SHAPE)
    with File(str(root / f"{layout}.h5"), "r", **OPENS[how]) as f:
        ds = f.dataset("d")
        for _temperature in ("cold", "warm"):
            out = _destination(dest, hs.count)
            assert ds.read_direct(hs, out) is None
            np.testing.assert_array_equal(out, expected)
            got = ds.read_hyperslab(hs)
            assert got.dtype == np.float32 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, expected)
        wrong = np.empty(hs.count + (1,), dtype=np.float32)
        with pytest.raises(SelectionError, match="destination shape"):
            ds.read_direct(hs, wrong)
        with pytest.raises(SelectionError, match="outside dataset shape"):
            ds.read_direct(Hyperslab((0, 0, 1), SHAPE, (1, 1, 1)), np.empty(SHAPE))


@pytest.mark.parametrize("layout", [*LAYOUTS, "virtual"])
def test_zero_size_selections_touch_nothing(stored, layout):
    root, _holds = stored
    stats = IOStats()
    with File(str(root / f"{layout}.h5"), "r", iostats=stats) as f:
        ds = f.dataset("d")
        before = stats.snapshot()
        for sel in [(slice(2, 2),), (slice(None), slice(9, 9, 3)), (0, 0, slice(40, 40))]:
            hs, _ = normalize_selection(sel, SHAPE)
            assert ds.read_hyperslab(hs).shape == hs.count
            ds.read_direct(hs, np.empty(hs.count, dtype=np.float64))
        assert stats.snapshot() == before


# ---------------------------------------------------------------------------
# planner and gather, by themselves
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    sel=selections(),
    max_gap=st.sampled_from([0, 3, 45, 10_000]),
    max_span=st.sampled_from([1, 8, 100, 5000]),
    dest=st.sampled_from(["same", "float64", "view"]),
    block_bytes=st.sampled_from([None, 64, 1000]),
)
def test_gather_fills_any_destination_through_bounded_scratch(
    sel, max_gap, max_span, dest, block_bytes
):
    arr = np.arange(int(np.prod(SHAPE)), dtype=np.float32).reshape(SHAPE)
    source = arr.tobytes()
    hs, _ = normalize_selection(sel, SHAPE)
    out = _destination(dest, hs.count)
    in_place = out.dtype == np.float32 and out.flags.c_contiguous
    plan = plan_spans(hs, SHAPE, max_gap, max_span, in_place=in_place)
    fetched = []

    def fetch(offset, buffer):
        fetched.append(len(buffer) // 4)
        buffer[:] = source[offset : offset + len(buffer)]

    def resident(offset):
        start = offset // block_bytes * block_bytes
        return source[start : start + block_bytes], start

    gather_spans(
        plan, out, fetch, np.float32, resident if block_bytes else None
    )
    np.testing.assert_array_equal(out, arr[sel])
    if not in_place:
        # nothing can land in place, so nothing exceeds the scratch bound
        assert all(n <= max_span for n in fetched)


# ---------------------------------------------------------------------------
# virtual datasets: the tiling rule and degraded sources
# ---------------------------------------------------------------------------


def _cut(draw, lo, hi, depth):
    """A random guillotine tiling of the box ``[lo, hi)``."""
    axes = [a for a in range(len(lo)) if hi[a] - lo[a] > 1]
    if not axes or depth == 0 or draw(st.integers(0, 3)) == 0:
        return [(lo, hi)]
    axis = draw(st.sampled_from(axes))
    at = draw(st.integers(lo[axis] + 1, hi[axis] - 1))
    mid_hi = hi[:axis] + (at,) + hi[axis + 1 :]
    mid_lo = lo[:axis] + (at,) + lo[axis + 1 :]
    return _cut(draw, lo, mid_hi, depth - 1) + _cut(draw, mid_lo, hi, depth - 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sources_tile_is_the_cover_count(data):
    shape = tuple(
        data.draw(st.integers(1, 6)) for _ in range(data.draw(st.integers(1, 3)))
    )
    boxes = _cut(data.draw, (0,) * len(shape), shape, depth=4)
    # break the tiling some of the time: drop, duplicate, shift or grow a box
    for _ in range(data.draw(st.integers(0, min(2, len(boxes))))):
        lo, hi = boxes.pop(data.draw(st.integers(0, len(boxes) - 1)))
        kind = data.draw(st.sampled_from(["drop", "twice", "move", "grow"]))
        axis = data.draw(st.integers(0, len(shape) - 1))
        step = tuple(int(a == axis) for a in range(len(shape)))
        if kind == "twice":
            boxes += [(lo, hi), (lo, hi)]
        elif kind == "move":
            boxes.append(
                (tuple(np.add(lo, step).tolist()), tuple(np.add(hi, step).tolist()))
            )
        elif kind == "grow":
            boxes.append((lo, tuple(np.add(hi, step).tolist())))
    sources = [
        VirtualSource("f", "/d", (0,) * len(shape), lo, tuple(np.subtract(hi, lo).tolist()))
        for lo, hi in boxes
    ]
    cover = np.zeros(tuple(s + 2 for s in shape), dtype=int)
    for lo, hi in boxes:
        cover[tuple(slice(a, b) for a, b in zip(lo, hi))] += 1
    inside = tuple(slice(0, s) for s in shape)
    tiles = bool((cover[inside] == 1).all() and cover.sum() == np.prod(shape))
    assert sources_tile(shape, sources) is tiles


class FillSpy(np.ndarray):
    """Records every whole-array scalar assignment, on itself or a view."""

    fills: list = []

    def __setitem__(self, key, value):
        if key is Ellipsis and np.ndim(value) == 0:
            FillSpy.fills.append((self.shape, float(value)))
        super().__setitem__(key, value)


@pytest.fixture
def minutes(tmp_path):
    """Three 4 x 50 float32 files: raw, codec + CRC in one chunk, raw."""
    rng = np.random.default_rng(9)
    blocks = [rng.normal(size=(4, 50)).astype(np.float32) for _ in range(3)]
    kinds = [{}, {"chunks": (4, 50), "codec": "transpose-zlib", "checksum": True}, {}]
    for i, (block, kwargs) in enumerate(zip(blocks, kinds)):
        with File(str(tmp_path / f"m{i}.h5"), "w") as f:
            f.create_dataset("d", data=block, **kwargs)
    return tmp_path, blocks


def _virtual(root, name, shape, placed, fill=0):
    with File(str(root / name), "w") as f:
        f.create_dataset(
            "v",
            shape=shape,
            dtype=np.float32,
            fill=fill,
            virtual_sources=[
                VirtualSource(f"m{i}.h5", "/d", (0, 0), at, (4, 50)) for i, at in placed
            ],
        )
    return str(root / name)


def test_fill_pass_runs_only_when_sources_do_not_tile(minutes):
    root, blocks = minutes
    tiled = _virtual(root, "tiled.h5", (4, 150), [(0, (0, 0)), (1, (0, 50)), (2, (0, 100))])
    gappy = _virtual(root, "gappy.h5", (5, 160), [(0, (0, 0)), (2, (1, 110))], fill=3)

    FillSpy.fills = []
    out = np.full((4, 150), -7.0).view(FillSpy)
    with File(tiled, "r") as f:
        f.dataset("v").read_direct(Hyperslab.full((4, 150)), out)
    np.testing.assert_array_equal(out, np.concatenate(blocks, axis=1))
    assert FillSpy.fills == []

    out = np.full((5, 160), -7.0).view(FillSpy)
    with File(gappy, "r") as f:
        f.dataset("v").read_direct(Hyperslab.full((5, 160)), out)
    assert FillSpy.fills == [((5, 160), 3.0)]
    expected = np.full((5, 160), 3.0)
    expected[0:4, 0:50] = blocks[0]
    expected[1:5, 110:160] = blocks[2]
    np.testing.assert_array_equal(out, expected)


def test_masked_sources_mark_their_own_span(minutes):
    root, blocks = minutes
    path = _virtual(
        root, "v.h5", (4, 150), [(0, (0, 0)), (1, (0, 50)), (2, (0, 100))], fill=5
    )
    os.remove(root / "m1.h5")
    hs = Hyperslab((1, 3), (3, 21), (1, 7))  # samples 3, 10, ..., 143
    whole = np.concatenate(blocks, axis=1)
    seen = []

    def handler(source, overlap, exc):
        seen.append((source.file, overlap, type(exc)))
        return -1.0

    with File(path, "r") as f:
        ds = f.dataset("v")
        with pytest.raises(FileNotFoundError):
            ds.read_direct(hs, np.empty(hs.count))

        ds.on_source_error = handler
        out = np.full(hs.count, -7.0)
        ds.read_direct(hs, out)
        expected = whole[1:4, 3:150:7].astype(np.float64)
        lost = slice(7, 14)  # samples 52 .. 94
        expected[:, lost] = -1.0
        np.testing.assert_array_equal(out, expected)
        # the gap is reported in unit-stride bounding coordinates
        assert seen == [
            ("m1.h5", Hyperslab((1, 52), (3, 43), (1, 1)), FileNotFoundError)
        ]


def test_flipped_byte_is_refused_before_decode_and_stays_in_its_span(
    minutes, monkeypatch
):
    root, blocks = minutes
    path = _virtual(root, "v.h5", (4, 150), [(0, (0, 0)), (1, (0, 50)), (2, (0, 100))])
    with File(str(root / "m1.h5"), "r") as f:
        victim = int(f.dataset("d")._meta["chunk_index"]["0,0"]) + 11
    with open(root / "m1.h5", "r+b") as fh:
        fh.seek(victim)
        byte = fh.read(1)[0]
        fh.seek(victim)
        fh.write(bytes([byte ^ 0x04]))
    decodes = []
    real = TransposeZlibCodec.decode
    monkeypatch.setattr(
        TransposeZlibCodec,
        "decode",
        lambda self, *args, **kwargs: decodes.append(1) or real(self, *args, **kwargs),
    )
    with File(path, "r") as f:
        ds = f.dataset("v")
        out = np.full((4, 150), -7.0)
        with pytest.raises(CorruptDataError, match="crc32"):
            ds.read_direct(Hyperslab.full((4, 150)), out)
        assert decodes == []
        # what came before the corrupt source has landed, nothing after it
        np.testing.assert_array_equal(out[:, :50], blocks[0])
        assert (out[:, 50:] == -7.0).all()

        ds.on_source_error = lambda source, overlap, exc: np.nan
        out = np.full((4, 150), -7.0)
        ds.read_direct(Hyperslab.full((4, 150)), out)
        assert decodes == []
        assert np.isnan(out[:, 50:100]).all()
        np.testing.assert_array_equal(out[:, :50], blocks[0])
        np.testing.assert_array_equal(out[:, 100:], blocks[2])


def test_virtual_values_pass_through_the_virtual_dtype(tmp_path):
    """float64 sources behind a float32 virtual dataset still read as
    float32 values, whatever the destination holds."""
    data = np.random.default_rng(2).normal(size=(3, 8))
    with File(str(tmp_path / "s.h5"), "w") as f:
        f.create_dataset("d", data=data)
    with File(str(tmp_path / "v.h5"), "w") as f:
        f.create_dataset(
            "v", shape=(3, 8), dtype=np.float32,
            virtual_sources=[VirtualSource("s.h5", "/d", (0, 0), (0, 0), (3, 8))],
        )
    with File(str(tmp_path / "v.h5"), "r") as f:
        out = np.empty((3, 8), dtype=np.float64)
        f.dataset("v").read_direct(Hyperslab.full((3, 8)), out)
    np.testing.assert_array_equal(out, data.astype(np.float32).astype(np.float64))
    assert not np.array_equal(out, data)


def test_a_virtual_read_intersects_only_the_sources_it_can_reach(
    tmp_path, monkeypatch
):
    """A day of minute files, by count: a window read bisects to the
    sources its time range reaches instead of intersecting all 1 440."""
    n_sources, width = 1440, 8
    data = np.random.default_rng(4).normal(size=(3, n_sources * width))
    data = data.astype(np.float32)
    with File(str(tmp_path / "day.h5"), "w") as f:
        f.create_dataset("d", data=data)
    with File(str(tmp_path / "v.h5"), "w") as f:
        f.create_dataset(
            "v",
            shape=data.shape,
            dtype=np.float32,
            virtual_sources=[
                VirtualSource("day.h5", "/d", (0, k * width), (0, k * width), (3, width))
                for k in range(n_sources)
            ],
        )
    tests = []
    real = dataset_module._strided_chunk_overlap
    monkeypatch.setattr(
        dataset_module,
        "_strided_chunk_overlap",
        lambda *args: tests.append(1) or real(*args),
    )
    with File(str(tmp_path / "v.h5"), "r") as f:
        ds = f.dataset("v")
        for sel in (
            np.s_[:, 0:1],
            np.s_[:, 4003:4053],
            np.s_[1:2, 9000:9600:7],
            np.s_[:, -3:],
            np.s_[0:2, 5:6000:8],
        ):
            hs, _ = normalize_selection(sel, ds.shape)
            tests.clear()
            np.testing.assert_array_equal(ds.read_hyperslab(hs), data[sel])
            # strides <= width: the lattice lands on every source it spans
            lattice = hs.start[1] + np.arange(hs.count[1]) * hs.stride[1]
            touched = len(np.unique(lattice // width))
            assert len(tests) <= touched + 1


@pytest.fixture(scope="module")
def pieces(tmp_path_factory):
    """Two 8 x 200 float32 files that virtual sources take their regions
    from; a third name, ``gone.h5``, never exists."""
    root = tmp_path_factory.mktemp("pieces")
    rng = np.random.default_rng(13)
    held = {}
    for name in ("a.h5", "b.h5"):
        held[name] = rng.normal(size=(8, 200)).astype(np.float32)
        with File(str(root / name), "w") as f:
            f.create_dataset("d", data=held[name])
    return root, held


@st.composite
def layouts(draw):
    """A virtual dataset's shape and sources, in a drawn declaration order:
    tiled along time (a VCA), tiled as channel groups x time pieces, or
    loose boxes that may overlap and leave holes."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 60)))

    def pieces_of(n, most):
        cuts = draw(st.lists(st.integers(1, n - 1), max_size=most, unique=True)) if n > 1 else []
        edges = [0, *sorted(cuts), n]
        return list(zip(edges, edges[1:]))

    kind = draw(st.sampled_from(["time", "grouped", "loose"]))
    if kind == "loose":
        boxes = []
        for _ in range(draw(st.integers(1, 8))):
            lo = tuple(draw(st.integers(0, dim - 1)) for dim in shape)
            hi = tuple(draw(st.integers(a + 1, dim)) for a, dim in zip(lo, shape))
            boxes.append(((lo[0], hi[0]), (lo[1], hi[1])))
    else:
        rows = pieces_of(shape[0], 3) if kind == "grouped" else [(0, shape[0])]
        boxes = [(r, t) for r in rows for t in pieces_of(shape[1], 10)]
    sources = []
    for (r0, r1), (t0, t1) in draw(st.permutations(boxes)):
        count = (r1 - r0, t1 - t0)
        sources.append(
            VirtualSource(
                draw(st.sampled_from(["a.h5", "a.h5", "b.h5", "gone.h5"])),
                "/d",
                (draw(st.integers(0, 8 - count[0])), draw(st.integers(0, 200 - count[1]))),
                (r0, t0),
                count,
            )
        )
    return shape, sources


@settings(max_examples=150, deadline=None)
@given(layout=layouts(), data=st.data())
def test_indexed_virtual_read_is_the_full_scan(pieces, layout, data):
    root, held = pieces
    shape, sources = layout
    sel = data.draw(selections(shape))
    hs, _ = normalize_selection(sel, shape)
    path = str(root / "v.h5")
    with File(path, "w") as f:
        f.create_dataset(
            "v", shape=shape, dtype=np.float32, fill=3, virtual_sources=sources
        )

    def read(full_scan):
        masked = []
        with File(path, "r") as f:
            ds = f.dataset("v")
            ds.on_source_error = (
                lambda source, overlap, exc: masked.append((source, overlap)) or -1.0
            )
            if full_scan:  # every source is a candidate, in declaration order
                n = len(sources)
                ds.__dict__["_source_index"] = ([0] * n, [float("inf")] * n, list(range(n)))
            out = np.full(hs.count, -7.0)
            ds.read_direct(hs, out)
        return out, masked

    out, masked = read(full_scan=False)
    scan_out, scan_masked = read(full_scan=True)
    np.testing.assert_array_equal(out, scan_out)
    assert masked == scan_masked
    # ... and both are the sources painted in declaration order
    painted = np.full(shape, 3.0)
    for source in sources:
        (r0, t0), (rc, tc), (s0, u0) = source.dst_start, source.count, source.src_start
        if source.file == "gone.h5":
            value = -1.0  # what the handler masks with
        else:
            value = held[source.file][s0 : s0 + rc, u0 : u0 + tc]
        painted[r0 : r0 + rc, t0 : t0 + tc] = value
    np.testing.assert_array_equal(out, painted[sel])


# ---------------------------------------------------------------------------
# unit-grouped warm reads
# ---------------------------------------------------------------------------

# 6 KiB rows.  What is verified is what is admitted: a checksummed dataset
# caches its 4 KiB checksum blocks, whatever the cache's page size (which
# cuts up datasets without a sidecar); no bridged hole is wider than a unit.
ROWS, COLS, PAGE, UNIT = 12, 1536, 16384, 4096


@st.composite
def strided_2d(draw):
    sel = []
    for dim in (ROWS, COLS):
        start = draw(st.integers(0, dim - 1))
        stop = draw(st.integers(start + 1, dim))
        sel.append(slice(start, stop, draw(st.sampled_from([1, 2, 8, 64, 1100]))))
    return tuple(sel)


@pytest.fixture(scope="module")
def paged(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("paged") / "p.h5")
    data = np.random.default_rng(3).normal(size=(ROWS, COLS)).astype(np.float32)
    with File(path, "w") as f:
        f.create_dataset("d", data=data, checksum=True, checksum_block=UNIT)
    return path, data


@settings(max_examples=80, deadline=None)
@given(sel=strided_2d(), dest=st.sampled_from(["same", "float64", "view"]))
def test_warm_reads_look_each_touched_page_up_once(paged, sel, dest):
    path, data = paged
    hs, _ = normalize_selection(sel, (ROWS, COLS))
    touched = {
        (r * COLS + c) * 4 // UNIT
        for r, c in itertools.product(hs.indices(0), hs.indices(1))
    }
    stats = IOStats()
    with File(path, "r", iostats=stats, cache=CacheConfig(page_size=PAGE)) as f:
        ds = f.dataset("d")
        ds.read()
        before = stats.full_snapshot()
        out = _destination(dest, hs.count)
        ds.read_direct(hs, out)
        spent = stats.delta(before)
    with File(path, "r") as f:
        np.testing.assert_array_equal(out, f.dataset("d")[sel])
    np.testing.assert_array_equal(out, data[sel])
    assert spent["cache_misses"] == spent["reads"] == 0
    assert 1 <= spent["cache_hits"] <= len(touched)


# ---------------------------------------------------------------------------
# codec chunks: the selection reaches the decoder, the requests stay put
# ---------------------------------------------------------------------------

PACKED_SHAPE, PACKED_CHUNKS = (6, 20, 300), (4, 8, 128)
PACKED_FILES = {
    "crc": {"checksum": True},
    "plain": {},
}
PACKED_OPENS = {
    "crc": ("crc", {}),
    "plain": ("plain", {}),
    "crc-unverified": ("crc", {"verify_checksums": False}),
}
PACKED_CACHES = {
    "none": None,
    "default": CacheConfig(),
    "too-small": CacheConfig(byte_budget=64),
}


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    root = tmp_path_factory.mktemp("packed")
    data = np.random.default_rng(9).normal(size=PACKED_SHAPE).astype(np.float32)
    data[:, 7:11] = 0.0  # a dead band inside the stored planes
    for name, kwargs in PACKED_FILES.items():
        with File(str(root / f"{name}.h5"), "w") as f:
            f.create_dataset(
                "d", data=data, chunks=PACKED_CHUNKS, codec="transpose-zlib", **kwargs
            )
    return root, data


def _band_destination(kind, count):
    """float32/float64, contiguous or a column band of a wider array."""
    dtype = np.float64 if "64" in kind else np.float32
    if kind.startswith("band"):
        big = np.full(count[:-1] + (count[-1] + 30,), -7, dtype=dtype)
        return big[..., 10 : 10 + count[-1]]
    return np.full(count, -7, dtype=dtype)


@settings(max_examples=150, deadline=None)
@given(
    sel=selections(PACKED_SHAPE),
    how=st.sampled_from(sorted(PACKED_OPENS)),
    cache=st.sampled_from(sorted(PACKED_CACHES)),
    dest=st.sampled_from(["float32", "float64", "band32", "band64"]),
    cpus=st.sampled_from([1, 3]),
)
def test_codec_reads_equal_numpy_and_move_no_request(packed, sel, how, cache, dest, cpus):
    """Against the frozen chunk loop (every chunk loaded whole-then-sliced
    on the calling thread), with the read's decodes serial or pooled: the
    same values and the same requests, bytes, seeks, opens and cache
    traffic, cold and warm."""
    root, data = packed
    name, kwargs = PACKED_OPENS[how]
    hs, _ = normalize_selection(sel, PACKED_SHAPE)

    def run():
        stats = IOStats()
        config = PACKED_CACHES[cache]
        with File(
            str(root / f"{name}.h5"), "r", iostats=stats, cache=config, **kwargs
        ) as f:
            ds = f.dataset("d")
            snapshots = []
            for _temperature in ("cold", "warm"):
                out = _band_destination(dest, hs.count)
                ds.read_direct(hs, out)
                np.testing.assert_array_equal(out, data[sel])
                snapshots.append(stats.full_snapshot())
        return snapshots

    with mock.patch.object(Dataset, "_load_unit", parent_load_unit), mock.patch.object(
        Dataset, "_read_chunked", parent_read_chunked
    ):
        before = run()
    with mock.patch.object(dataset_module, "_cpus", lambda: cpus):
        assert run() == before


@pytest.mark.parametrize("checksum", [True, False])
def test_one_flipped_stored_byte_is_refused_under_any_selection(tmp_path, checksum):
    """Integrity is not traded for the partial decode: with a sidecar the
    CRC refuses the payload before any decode; without one the payload is
    inflated whole and its Adler-32 refuses it — wherever the byte sits
    (stored plane, compressed plane, block header, trailer) and however
    little of the chunk the selection wants."""
    path = str(tmp_path / "f.h5")
    data = np.random.default_rng(4).normal(size=(8, 5000)).astype(np.float32)
    with File(path, "w") as f:
        ds = f.create_dataset(
            "d", data=data, chunks=(8, 5000), codec="transpose-zlib", checksum=checksum
        )
        offset, nbytes = int(ds._meta["chunk_index"]["0,0"]), ds._meta["chunk_enc"]["0,0"]
    selections_ = [
        (slice(None), slice(None)),
        (slice(2, 4), slice(None)),
        (slice(None), slice(0, 5000, 8)),
        (slice(0, 1), slice(0, 1)),
    ]
    decodes = []
    real = TransposeZlibCodec.decode

    def spy(self, *args, **kwargs):
        decodes.append(kwargs)
        return real(self, *args, **kwargs)

    rng = np.random.default_rng(0)
    victims = [0, 1, 2, 3, 7, nbytes - 1, nbytes - 5, *rng.integers(8, nbytes - 5, 24)]
    with open(path, "rb") as fh:
        fh.seek(offset)
        payload = fh.read(nbytes)
    benign = 0
    with mock.patch.object(TransposeZlibCodec, "decode", spy):
        for victim in map(int, victims):
            flipped = bytearray(payload)
            flipped[victim] ^= 0x10
            try:
                # padding bits of a block header belong to no check of the
                # stream's own: the bytes it inflates to are the same
                harmless = zlib.decompress(flipped) == zlib.decompress(payload)
            except zlib.error:
                harmless = False
            benign += harmless
            with open(path, "r+b") as fh:
                fh.seek(offset + victim)
                fh.write(flipped[victim : victim + 1])
            with File(path, "r") as f:
                for sel in selections_:
                    if harmless and not checksum:
                        np.testing.assert_array_equal(f.dataset("d")[sel], data[sel])
                        continue
                    with pytest.raises(CorruptDataError if checksum else FormatError):
                        f.dataset("d")[sel]
            with open(path, "r+b") as fh:
                fh.seek(offset + victim)
                fh.write(payload[victim : victim + 1])
        assert benign <= 2
        if checksum:
            assert decodes == []  # refused by verify_block, before any decode
        else:
            assert decodes and not any(call["verified"] for call in decodes)
        with File(path, "r") as f:
            np.testing.assert_array_equal(f.dataset("d")[2:4, ::8], data[2:4, ::8])
    assert decodes[-1]["verified"] is checksum
