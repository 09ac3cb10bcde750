"""The one chunk-loop kernel and its lowerings agree bit for bit.

The one-branch call ``run_chunks(src, [], [Branch.of(ops)], chunk)``,
``execute(optimize(q))`` (pushdown + shared prefix) and
``execute(..., naive=True)`` (the eager reference) are three ways of choosing what
:func:`repro.core.pipeline.run_chunks` runs; this sweep drives all three
across chunk size x thread count x chain shape — a pre-pass operator, a
decimating operator, a channel-halo operator, a sink with post stages —
and requires byte-identical output.  Multi-branch plans are held to their
own ``naive`` reference, and must honour ``threads`` like a single chain.

The kernel also validates the chunk plan it is about to run — before its
first read, whatever the lowering — and the exhaustive half of that
check, ``verify_geometry``, is swept here over every shipped operator.
So is the streaming contract: a stream-safe operator run incrementally
equals its batch run, and every other operator is refused up front.

Between operators the kernel hands on only what the plan asks for: a
multi-map chain equals its members applied level by level to exactly the
per-level intervals of ``_needed`` (batch and incremental), and recording
probes assert that no ``apply`` ever receives fringe beyond them.

A plan that computes nothing is not chunked at all: one read, each stored
chunk decoded once, the block the source returns handed back as the
result — unless a ``FailurePolicy`` asks for per-chunk gaps.
"""

import os
import sys
import threading
import tracemalloc
import zlib
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter

from repro.core import DASSA
from repro.core.graph import ChannelSelectOp, Query, SubsampleOp, verify_geometry
from repro.core.interferometry import InterferometryConfig, interferometry_operators
from repro.core.local_similarity import LocalSimilarityConfig, LocalSimilarityOp
from repro.core.operators import (
    CorrelateOp,
    DecimateOp,
    DetrendOp,
    FiltFiltOp,
    TaperOp,
    WhitenOp,
)
from repro.core.optimizer import execute, optimize
from repro.core.pipeline import (
    IncrementalRunner,
    Operator,
    _levels,
    _needed,
    _plan_chunks,
)
from repro.core.stalta import StaLtaOp
from repro.daslib import filtfilt
from repro.daslib.filtfilt import _backward, _forward, _odd_ext
from repro.errors import ConfigError
from repro.faults.policy import FailurePolicy
from repro.hdf5lite import BlockCache, CacheConfig, FilePool, codecs
from repro.hdf5lite.codecs import TransposeZlibCodec
from repro.hdf5lite.hyperslab import SPAN_SCRATCH_BYTES
from repro.storage.chunks import ArraySource, ChunkSource, SourceView, open_stream
from repro.storage.dasfile import write_das_file
from repro.storage.metadata import DASMetadata
from tests.reference.core import by_levels
from repro.storage.vca import create_vca
from tests.conftest import run_chain

B, A = butter(2, [0.1, 0.4], btype="band", fs=1.0)
SIMI = LocalSimilarityConfig(half_window=8, half_lag=2, stride=20)
ALG3 = InterferometryConfig(fs=50.0, band=(0.5, 10.0), resample_q=2)


def _prepass(base):
    """A whole-record pre-pass operator *behind* a pushed-down selection."""
    return (
        base.select_channels(1, 11)
        .then(DetrendOp())
        .then(FiltFiltOp(B, A))
        .then(StaLtaOp(4, 16))
    )


def _decimating(base):
    """Pushed-down pointwise subsampling, then a filtering decimator."""
    return base.decimate(2).then(DecimateOp(3)).then(StaLtaOp(3, 11))


def _channel_halo(base):
    """A same-rate map feeding the strided-grid, channel-halo detector."""
    return base.then(TaperOp(0.05)).then(LocalSimilarityOp(SIMI))


def _sink_post(base):
    """The full Alg. 3 graph: pre-pass, decimation, FFT sink, post ops."""
    q = base.decimate(2)
    for op in interferometry_operators(ALG3):
        q = q.then(op)
    return q


CHAINS = {
    "prepass": (_prepass, 1),
    "decimating": (_decimating, 2),
    "channel_halo": (_channel_halo, 1),
    "sink_post": (_sink_post, 2),
}


def _data(seed, total=1500):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(12, total))
    return data + np.linspace(0, 2, total)[None, :] * np.arange(1, 13)[:, None]


@pytest.mark.parametrize("kind", sorted(CHAINS))
@settings(max_examples=20, deadline=None)
@given(
    chunk=st.integers(min_value=60, max_value=1700),
    threads=st.sampled_from([1, 2, 3, 5]),
)
def test_three_lowerings_agree(kind, chunk, threads):
    build, step = CHAINS[kind]
    chunk = -(-chunk // step) * step  # optimized and eager tile alike
    data = _data(chunk)
    q = build(Query.scan(data, fs=100.0))
    plan = optimize(q, chunk_samples=chunk, threads=threads)
    opt = execute(plan)[0]
    naive = execute(plan, naive=True)[0]
    eager = run_chain(
        q.operators(), data, chunk_samples=chunk, threads=threads, fs=100.0
    )
    np.testing.assert_array_equal(opt.output, naive.output)
    np.testing.assert_array_equal(naive.output, eager.output)
    assert opt.profile.threads == naive.profile.threads == eager.profile.threads
    assert opt.profile.n_chunks == -(-1500 // chunk)
    assert opt.profile.cse_hits == 0


@settings(max_examples=20, deadline=None)
@given(
    chunk=st.integers(min_value=60, max_value=1700),
    threads=st.sampled_from([1, 2, 3, 5]),
)
def test_shared_tail_in_one_and_two_branch_plans(chunk, threads):
    """The same tail behind the same prefix, planned alone and next to a
    sibling: each plan equals its own naive reference (a co-run is *not*
    claimed equal to the single run — union-interval halos differ)."""
    data = _data(chunk + 1)
    base = Query.scan(data).select_channels(1, 11).then(DetrendOp()).then(
        FiltFiltOp(B, A)
    )
    trig = base.then(StaLtaOp(4, 16)).with_label("trig")
    simi = base.then(LocalSimilarityOp(SIMI)).with_label("simi")
    for queries in ([trig], [trig, simi]):
        plan = optimize(queries, chunk_samples=chunk, threads=threads)
        opt = execute(plan)
        naive = execute(plan, naive=True)
        assert len(opt) == len(naive) == len(queries)
        for o, n in zip(opt, naive):
            np.testing.assert_array_equal(o.output, n.output)
        hits = opt[0].profile.cse_hits
        assert (hits > 0) == (len(queries) > 1)
        assert hits <= opt[0].profile.n_chunks
        assert naive[0].profile.cse_hits == 0


def test_two_branch_plan_honours_threads():
    """Drift fix: a co-run row-splits like a single chain and reports the
    threads and peak residency it really used."""
    data = _data(5, total=4000)

    def run(threads):
        dassa = DASSA(threads=threads, chunk_samples=1000)
        out = (
            dassa.plan(data)
            .sta_lta(5, 50, label="trig")
            .local_similarity(SIMI, label="simi")
            .run()
        )
        return out, dassa.last_profile

    one, p1 = run(1)
    three, p3 = run(3)
    np.testing.assert_array_equal(three["trig"], one["trig"])
    np.testing.assert_array_equal(three["simi"][0], one["simi"][0])
    assert (p1.threads, p3.threads) == (1, 3)
    assert p3.peak_resident_bytes > 0
    assert p3.as_dict()["cse_hits"] == p3.cse_hits == p3.n_chunks == 4


def test_branch_tail_prepass_rejected_when_chunked():
    """With several branches a pre-pass operator must sit in the shared
    prefix; a lone branch's maps *are* the prefix, so alone it may sit
    anywhere."""
    data = _data(9)
    base = Query.scan(data).then(FiltFiltOp(B, A))
    late = base.then(DetrendOp()).with_label("late")
    other = base.then(StaLtaOp(4, 16)).with_label("other")
    with pytest.raises(ConfigError, match="shared prefix"):
        execute(optimize([late, other], chunk_samples=500))
    alone = execute(optimize(late, chunk_samples=500))[0]
    assert alone.output.shape == data.shape
    whole = execute(optimize([late, other], chunk_samples=1500))
    assert whole[0].output.shape == data.shape


# ---------------------------------------------------------------------------
# the kernel validates the chunk plan it runs, before the first read
# ---------------------------------------------------------------------------


class Untiled(Operator):
    """``out_core`` drops the last sample of every chunk."""

    name = "untiled"

    def out_core(self, lo, hi):
        return lo, max(lo, hi - 1)

    def out_full(self, a, b):
        return a, b

    def apply(self, data, ctx):
        return data


class UnderCovered(Operator):
    """``out_full`` admits to producing one sample less than is owned."""

    name = "under-covered"

    def out_full(self, a, b):
        return a + 1, b

    def apply(self, data, ctx):
        return data[..., 1:]


class RecordingSource(ArraySource):
    """Counts every read that reaches it."""

    def __init__(self, data):
        super().__init__(data, fs=100.0)
        self.reads = 0

    def read_strided(self, r0, r1, t0, t1, tstep=1):
        self.reads += 1
        return super().read_strided(r0, r1, t0, t1, tstep)


def _eager(src, bad):
    run_chain([FiltFiltOp(B, A), bad], src, chunk_samples=400)


def _one_branch(src, bad):
    q = Query.scan(None).select_channels(1, 9).then(bad).then(StaLtaOp(4, 16))
    execute(optimize(q, chunk_samples=400), source=src)


def _two_branch(src, bad):
    base = Query.scan(None).then(FiltFiltOp(B, A))
    trig = base.then(StaLtaOp(4, 16)).with_label("trig")
    broken = base.then(bad).then(LocalSimilarityOp(SIMI)).with_label("broken")
    execute(optimize([trig, broken], chunk_samples=400), source=src)


def _window(src, bad):
    q = Query.scan(None).decimate(2).then(bad)
    execute(optimize(q, chunk_samples=400), source=SourceView(src, t0=100, t1=1400))


@pytest.mark.parametrize("lowering", [_eager, _one_branch, _two_branch, _window])
@pytest.mark.parametrize(
    "bad, invariant",
    [(Untiled, "out_core does not tile"), (UnderCovered, "containment violated")],
)
def test_bad_algebra_is_refused_before_any_read(lowering, bad, invariant):
    src = RecordingSource(_data(3))
    with pytest.raises(ConfigError, match=invariant) as err:
        lowering(src, bad())
    assert repr(bad.name) in str(err.value)
    assert src.reads == 0


def test_single_chunk_run_still_checks_coverage():
    """One whole-record chunk has nothing to tile against: the dropped
    sample shows as the owned interval falling short of the total."""
    src = RecordingSource(_data(3))
    with pytest.raises(ConfigError, match=r"'untiled': out_core covers \[0, 1499\)"):
        run_chain([Untiled()], src)
    assert src.reads == 0


def test_planning_is_a_profile_phase():
    result = run_chain([StaLtaOp(4, 16)], _data(3), chunk_samples=400)
    assert result.profile.phases["plan"] > 0


SHIPPED = [
    DetrendOp(),
    TaperOp(0.05),
    FiltFiltOp(B, A),
    DecimateOp(3),
    WhitenOp(),
    CorrelateOp(),
    StaLtaOp(5, 20),
    LocalSimilarityOp(SIMI),
    LocalSimilarityOp(LocalSimilarityConfig(half_window=10, half_lag=3, stride=1)),
    ChannelSelectOp(2, 6),
    SubsampleOp(1),
    SubsampleOp(8),
]


def _operator_classes(cls=Operator):
    for sub in cls.__subclasses__():
        yield sub
        yield from _operator_classes(sub)


def test_every_shipped_operator_is_swept():
    shipped = {
        cls for cls in _operator_classes() if cls.__module__.startswith("repro.")
    }
    assert shipped == {type(op) for op in SHIPPED}


@pytest.mark.parametrize("total", [1, 2, 7, 97, 1000, 1001, 4099])
@pytest.mark.parametrize("op", SHIPPED, ids=lambda op: op.name)
def test_shipped_algebra_verifies_across_ragged_totals(op, total):
    verify_geometry(op, total)
    verify_geometry(op, total, chunk_sizes=[1, 5, 64, total - 1, total])


@pytest.mark.parametrize("op", SHIPPED, ids=lambda op: op.name)
def test_shipped_operator_streams_like_batch_or_is_refused(op):
    """A stream-safe operator without a pre-pass, pushed through
    ``IncrementalRunner`` in uneven pieces and flushed, equals the batch
    kernel over the whole record; every other operator is refused when
    the runner is built, before any data has been pushed."""
    data = np.cumsum(_data(23, total=3000), axis=1)  # a random walk
    if op.needs_prepass or not op.stream_safe:
        with pytest.raises(ConfigError, match="not stream-safe"):
            IncrementalRunner([op], data.shape[0], fs=100.0)
        return
    runner = IncrementalRunner([op], data.shape[0], fs=100.0)
    cuts = [0, 171, 172, 900, 1750, 2501, 3000]
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces.extend(runner.push(data[:, lo:hi]))
    pieces.extend(runner.flush())
    streamed = np.concatenate([block for _, block in pieces], axis=1)
    batch = run_chain([op], data, fs=100.0).output
    assert streamed.shape == batch.shape
    np.testing.assert_allclose(streamed, batch, rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# the kernel hands each operator exactly what the next level needs
# ---------------------------------------------------------------------------


def _batch_by_levels(ops, data, chunk, fs=100.0, trim=True):
    totals, rates, channels = _levels(ops, data.shape[0], data.shape[1], fs)
    pieces = [
        by_levels(
            ops, data[:, needs[0][0] : needs[0][1]], needs, totals, rates,
            channels, trim,
        )
        for _tgt, needs in _plan_chunks(ops, totals, chunk)
        if needs is not None
    ]
    return np.concatenate(pieces, axis=-1)


def test_batch_chain_equals_members_level_by_level():
    data = _data(21)
    ops = [TaperOp(0.05), FiltFiltOp(B, A), StaLtaOp(4, 16)]
    q = Query.scan(data, fs=100.0).then(ops[0]).then(ops[1]).then(ops[2])
    for chunk in (1500, 700, 333, 90):
        want = _batch_by_levels(ops, data, chunk)
        for threads in (1, 3):
            plan = optimize(q, chunk_samples=chunk, threads=threads)
            assert plan.branches[0].maps == ops  # run as listed, member by member
            np.testing.assert_array_equal(execute(plan)[0].output, want)


def _carried_filtfilt(data, seen, needs, at_edge):
    """What a carried leading ``FiltFiltOp`` hands on over ``needs[1]``:
    the forward half run once over the record so far, the backward half
    from ``needs[0]``'s right edge — or, at the record's edge, whole-record
    ``filtfilt``."""
    (a, b), record = needs[1], data[:, :seen]
    if at_edge:
        return filtfilt(B, A, record)[:, a:b]
    padlen = FiltFiltOp(B, A).padlen
    forward = _forward(B, A, _odd_ext(record, padlen))[0][:, padlen:]
    return _backward(B, A, forward[:, a : needs[0][1]])[:, : b - a]


def test_incremental_chain_equals_members_level_by_level():
    """The same push pattern through ``IncrementalRunner`` and through the
    members applied one by one to the open-edge needs of every emission —
    the leading filter as its two halves (:func:`_carried_filtfilt`),
    every member after it on exactly its planned interval."""
    data = _data(22)
    ops = [FiltFiltOp(B, A), StaLtaOp(4, 16)]
    for piece in (700, 211, 64):
        runner = IncrementalRunner(ops, data.shape[0], fs=100.0)
        emitted = []
        for lo in range(0, data.shape[1], piece):
            seen = min(lo + piece, data.shape[1])
            for target, block in runner.push(data[:, lo:seen]):
                emitted.append((target, block, seen, False))
        for target, block in runner.flush():
            emitted.append((target, block, data.shape[1], True))
        assert emitted[0][0][0] == 0 and emitted[-1][0][1] == data.shape[1]
        for target, block, seen, at_edge in emitted:
            totals, rates, channels = _levels(ops, data.shape[0], seen, 100.0)
            needs = _needed(ops, target, totals if at_edge else None)
            want = by_levels(
                ops[1:], _carried_filtfilt(data, seen, needs, at_edge),
                needs[1:], totals[1:], rates[1:], channels[1:],
            )
            np.testing.assert_array_equal(block, want)


class Probe(Operator):
    """Identity that records the interval and width of every block it is
    handed: one record per chunk of a multi-chunk plan (the chunk is the
    parallel unit), one per row block of a one-chunk plan."""

    def __init__(self, name):
        self.name = name
        self.seen = []

    def apply(self, data, ctx):
        self.seen.append((ctx.start, ctx.stop, data.shape[-1]))
        return data


class Box3(Operator):
    """A 3-tap moving sum: a halo'd map whose every output depends only on
    its own three inputs, so block extents cannot change a bit."""

    name = "box3"
    halo = (1, 1)

    def apply(self, data, ctx):
        pad = np.pad(data, ((0, 0), (1, 1)))
        return pad[:, :-2] + pad[:, 1:-1] + pad[:, 2:]


def _probed_chain():
    return [
        FiltFiltOp(B, A),
        Probe("after-filter"),
        DecimateOp(3),
        Probe("after-decimator"),
        StaLtaOp(3, 11),
    ]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1500, 400, 77])
def test_no_operator_sees_fringe_it_did_not_ask_for(chunk, threads):
    data = _data(23)
    ops = _probed_chain()
    run_chain(ops, data, chunk_samples=chunk, threads=threads, fs=100.0)
    totals, _, _ = _levels(ops, data.shape[0], data.shape[1], 100.0)
    plan = [n for _t, n in _plan_chunks(ops, totals, chunk) if n is not None]
    # every apply gets exactly needs[k]: once per chunk, or — a one-chunk
    # plan, whose rows are what the pool splits — once per row block
    times = threads if len(plan) == 1 else 1
    for k in (1, 3):
        want = [(a, b, b - a) for a, b in (needs[k] for needs in plan)]
        assert sorted(ops[k].seen) == sorted(want * times)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_shared_prefix_probe_sees_the_hull_of_branch_needs(threads):
    data = _data(24)
    probe = Probe("shared")
    base = Query.scan(data, fs=100.0).then(FiltFiltOp(B, A)).then(probe)
    tails = {"trig": StaLtaOp(4, 16), "simi": LocalSimilarityOp(SIMI)}
    execute(
        optimize(
            [base.then(op).with_label(label) for label, op in tails.items()],
            chunk_samples=400,
            threads=threads,
        )
    )
    want = set()
    plans = []
    for op in tails.values():
        chain = [FiltFiltOp(B, A), probe, op]
        totals, _, _ = _levels(chain, data.shape[0], data.shape[1], 100.0)
        plans.append(_plan_chunks(chain, totals, 400))
    for step in zip(*plans):
        level = [needs[1] for _t, needs in step if needs is not None]
        a, b = min(lo for lo, _ in level), max(hi for _, hi in level)
        want.add((a, b, b - a))
    assert len(want) > 1  # a multi-chunk plan: the hull, once per chunk
    assert sorted(probe.seen) == sorted(want)


class CountingSimilarity(LocalSimilarityOp):
    """Records how many cells (rows x columns) each ``apply`` computed."""

    def __init__(self, config):
        super().__init__(config)
        self.computed = []

    def apply(self, data, ctx):
        out = super().apply(data, ctx)
        self.computed.append(out.size)
        return out


def test_incremental_runner_never_computes_fringe():
    """Push/flush: the probe behind the filter sees exactly the open-edge
    need of each emission (once per row block the emission splits into),
    and the detector computes the emitted cells and nothing else (the
    filter's settle halo is dropped, not scored)."""
    data = _data(25, total=3000)
    probe, simi = Probe("after-filter"), CountingSimilarity(SIMI)
    ops = [FiltFiltOp(B, A), probe, simi]
    runner = IncrementalRunner(ops, data.shape[0], fs=100.0)
    for lo in range(0, 3000, 500):
        pieces = runner.push(data[:, lo : lo + 500])
        assert len(pieces) <= 1
        assert len(probe.seen) == len(simi.computed)
        assert bool(probe.seen) == bool(pieces)
        for (j0, j1), block in pieces:
            a, b = _needed(ops, (j0, j1), None)[1]
            assert set(probe.seen) == {(a, b, b - a)}
            assert block.shape[-1] == j1 - j0
            rows = block.shape[0]
            assert rows * (j1 - j0) <= sum(simi.computed) <= rows * (j1 - j0 + 1)
        probe.seen.clear()
        simi.computed.clear()
    ((j0, j1), block), = runner.flush()
    totals, _, _ = _levels(ops, data.shape[0], 3000, 100.0)
    a, b = _needed(ops, (j0, j1), totals)[1]
    assert set(probe.seen) == {(a, b, b - a)}
    assert sum(simi.computed) == block.size and j1 == totals[-1]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunk", [1500, 410, 95])
def test_trimming_moves_no_bit_of_position_independent_chains(chunk, threads):
    """For operators whose outputs depend only on their own input windows,
    dropping the fringe between levels equals forwarding it and cutting
    once at the end."""
    data = _data(26)
    for ops in (
        [Box3(), Probe("p"), LocalSimilarityOp(SIMI)],
        [SubsampleOp(2), Box3(), LocalSimilarityOp(SIMI)],
    ):
        step = ops[0].decimate
        size = -(-chunk // step) * step
        got = run_chain(
            ops, data, chunk_samples=size, threads=threads, fs=100.0
        ).output
        np.testing.assert_array_equal(
            got, _batch_by_levels(ops, data, size, trim=False)
        )


# ---------------------------------------------------------------------------
# a plan that computes nothing is read in one piece
# ---------------------------------------------------------------------------

SCAN_CHANNELS, SCAN_FILE, SCAN_FILES = 48, 10_000, 3
SCAN_CHUNK = 11_000  # executor chunks end inside stored chunks of files 1 and 2
STORED_CHUNK = (16, 2048)


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """One record as a raw and as a packed (chunked + zlib + CRC) VCA."""
    root = tmp_path_factory.mktemp("scan")
    data = (
        np.random.default_rng(8)
        .normal(size=(SCAN_CHANNELS, SCAN_FILE * SCAN_FILES))
        .astype(np.float32)
    )
    packed = dict(chunks=STORED_CHUNK, codec="transpose-zlib", checksum=True)
    vcas = {}
    for layout, kwargs in (("raw", {}), ("packed", packed)):
        paths = []
        for i in range(SCAN_FILES):
            paths.append(str(root / f"{layout}_1701010000{i:02d}.h5"))
            write_das_file(
                paths[-1],
                data[:, i * SCAN_FILE : (i + 1) * SCAN_FILE],
                DASMetadata(
                    sampling_frequency=100.0,
                    spatial_resolution=2.0,
                    timestamp=f"1701010000{i:02d}",
                    n_channels=SCAN_CHANNELS,
                ),
                channel_groups=False,
                **kwargs,
            )
        vcas[layout] = create_vca(str(root / f"{layout}.h5"), paths)
    return vcas, data.astype(np.float64)


class ReadLog(ChunkSource):
    """Forwards the executor's two read calls, keeping what each returned;
    ``broken`` is a sample whose reads fail."""

    def __init__(self, inner, broken=None):
        self._inner, self._broken = inner, broken
        self.n_channels, self.n_samples, self.fs = (
            inner.n_channels, inner.n_samples, inner.fs,
        )
        self.blocks = []

    bytes_streamed = property(lambda self: self._inner.bytes_streamed)

    def _keep(self, block, t0, t1):
        if self._broken is not None and t0 <= self._broken < t1:
            raise OSError("unreadable span")
        self.blocks.append(block)
        return block

    def read_rows(self, r0, r1, t0, t1):
        return self._keep(self._inner.read_rows(r0, r1, t0, t1), t0, t1)

    def read_strided(self, r0, r1, t0, t1, tstep=1):
        return self._keep(self._inner.read_strided(r0, r1, t0, t1, tstep), t0, t1)


def _scan(rows, step):
    query = Query.scan(None)
    if rows is not None:
        query = query.select_channels(*rows)
    if step > 1:
        query = query.decimate(step)
    return optimize(query, chunk_samples=SCAN_CHUNK)


class Decode(NamedTuple):
    """One ``TransposeZlibCodec.decode`` call, as the ``decodes`` spy saw it."""

    payload: bytes
    shape: tuple
    select: object
    verified: bool
    inflated: int  # bytes zlib produced for it
    returned: int  # elements it handed back


@pytest.fixture
def decodes(monkeypatch):
    """Every ``TransposeZlibCodec.decode`` call of the test, with what it
    cost: the codec module's ``zlib`` is swapped for a pass-through whose
    inflaters add up what they produce, per thread (a read decodes its
    chunks on several)."""
    calls, produced = [], threading.local()

    class Inflater:
        def __init__(self, inner):
            self._inner = inner

        def decompress(self, *args):
            raw = self._inner.decompress(*args)
            produced.n = getattr(produced, "n", 0) + len(raw)
            return raw

        def __getattr__(self, name):
            return getattr(self._inner, name)

    class Zlib:
        def __getattr__(self, name):
            return getattr(zlib, name)

        def decompressobj(self, *args, **kwargs):
            return Inflater(zlib.decompressobj(*args, **kwargs))

    real = TransposeZlibCodec.decode

    def decode(self, payload, shape, dtype, **kwargs):
        before = getattr(produced, "n", 0)
        out = real(self, payload, shape, dtype, **kwargs)
        calls.append(
            Decode(
                payload, tuple(shape), kwargs.get("select"),
                kwargs.get("verified", False),
                getattr(produced, "n", 0) - before, out.size,
            )
        )
        return out

    monkeypatch.setattr(codecs, "zlib", Zlib())
    monkeypatch.setattr(TransposeZlibCodec, "decode", decode)
    return calls


def _assert_each_decode_cost_its_selection(decodes):
    """Per touched chunk, exactly what the encoder's own ``plan()``
    predicts: zlib produced the bytes between the stored prefix and the
    last plane's last selected row, and ``decode`` returned the lattice."""
    for call in decodes:
        planes = np.frombuffer(zlib.decompress(call.payload), np.uint8).reshape(4, -1)
        chunk = np.ascontiguousarray(planes.T).view(np.float32).reshape(call.shape)
        first = TransposeZlibCodec().plan(chunk)[0]
        prefix = first[1] if first[2] == "stored" else 0
        assert 0 < prefix < chunk.nbytes  # mantissa planes stored, the last not
        assert call.verified  # the archive carries CRCs
        rows, cols = call.select
        last_needed = 3 * chunk.size + rows.stop * call.shape[1]
        assert call.inflated == max(0, last_needed - prefix)
        assert call.returned == len(range(*rows.indices(call.shape[0]))) * len(
            range(*cols.indices(call.shape[1]))
        )


@pytest.mark.parametrize("window", [None, (1500, 27_000)])
@pytest.mark.parametrize("step", [1, 8])
@pytest.mark.parametrize("rows", [None, (12, 24)])
@pytest.mark.parametrize("layout", ["raw", "packed"])
def test_compute_free_plan_is_one_read(archives, decodes, layout, rows, step, window):
    vcas, whole = archives
    t0, t1 = window or (0, whole.shape[1])
    expected = whole[slice(*rows) if rows else slice(None), t0:t1:step]
    plan = _scan(rows, step)
    with open_stream(vcas[layout]) as src:
        log = ReadLog(src)
        source = SourceView(log, t0=t0, t1=t1) if window else log
        (result,) = execute(plan, source=source)
        assert len(log.blocks) == 1
        assert np.shares_memory(result.output, log.blocks[0])  # not a copy
        assert result.output.dtype == np.float64 and result.output.flags.c_contiguous
        np.testing.assert_array_equal(result.output, expected)
        assert result.profile.n_chunks == 1
        # the only resident array is the output
        assert result.profile.peak_resident_bytes == result.output.nbytes
        if layout == "packed":
            # every stored chunk the selection lands on, once
            row_chunks = {
                r // STORED_CHUNK[0] for r in range(*(rows or (0, SCAN_CHANNELS)))
            }
            col_chunks = {
                (t // SCAN_FILE, t % SCAN_FILE // STORED_CHUNK[1])
                for t in range(t0, t1, step)
            }
            assert len(decodes) == len(row_chunks) * len(col_chunks)
            # ... and each for what the selection needs of it: rows (12, 24)
            # inflate the last plane of chunk row 0 whole and half of chunk
            # row 1's, step 8 returns an eighth, a full scan inflates only
            # what is not stored
            _assert_each_decode_cost_its_selection(decodes)
            assert sum(call.returned for call in decodes) == expected.size
            if rows:
                picked = {(call.select[0].start, call.select[0].stop) for call in decodes}
                assert picked == {(12, 16), (0, 8)}

        # the same plan under a FailurePolicy keeps its chunks, and the
        # eager chain (select/subsample as operators) agrees with both
        log.blocks.clear()
        (chunked,) = execute(plan, source=source, policy=FailurePolicy())
        assert chunked.profile.n_chunks == len(log.blocks) > 1
        np.testing.assert_array_equal(chunked.output, result.output)
        (naive,) = execute(plan, source=source, naive=True)
        np.testing.assert_array_equal(naive.output, result.output)


def test_full_packed_scan_decodes_each_stored_chunk_once(archives, decodes):
    vcas, whole = archives
    stored = (
        SCAN_FILES
        * (SCAN_CHANNELS // STORED_CHUNK[0])
        * -(-SCAN_FILE // STORED_CHUNK[1])
    )
    with open_stream(vcas["packed"]) as src:
        (result,) = execute(_scan(None, 1), source=src)
    assert len(decodes) == stored
    returned = sum(call.returned for call in decodes)
    assert returned == result.output.size
    del decodes[:]
    with open_stream(vcas["packed"]) as src:
        execute(_scan(None, 1), source=src, policy=FailurePolicy())
    # chunk by chunk, the stored chunks under an executor boundary decode
    # twice — each time only the columns on its side of it: nothing is
    # decoded and dropped
    assert len(decodes) > stored
    assert sum(call.returned for call in decodes) == returned


def test_a_cache_that_holds_the_chunk_decodes_it_whole_once(archives, decodes):
    vcas, whole = archives
    cache = BlockCache(CacheConfig())
    with FilePool(cache=cache) as pool, open_stream(vcas["packed"], pool=pool) as src:
        first = src.read_strided(12, 24, 0, SCAN_FILE, 8)
        touched = 2 * -(-SCAN_FILE // STORED_CHUNK[1])
        assert [call.select for call in decodes] == [None] * touched
        assert all(call.returned == np.prod(call.shape) for call in decodes)
        # any later selection of those chunks slices the entries
        again = src.read_strided(0, 32, 100, SCAN_FILE - 100, 1)
        assert len(decodes) == touched
    np.testing.assert_array_equal(first, whole[12:24, 0:SCAN_FILE:8])
    np.testing.assert_array_equal(again, whole[0:32, 100 : SCAN_FILE - 100])


def test_failure_policy_still_reports_gaps_by_chunk(archives):
    vcas, whole = archives
    plan = _scan(None, 1)
    policy = FailurePolicy(mode="continue", retries=0)
    with open_stream(vcas["raw"]) as src:
        (result,) = execute(plan, source=ReadLog(src, broken=12_345), policy=policy)
    assert result.profile.n_chunks == 3
    assert [(g.t0, g.t1) for g in result.gaps] == [(SCAN_CHUNK, 2 * SCAN_CHUNK)]
    assert np.isnan(result.output[:, SCAN_CHUNK : 2 * SCAN_CHUNK]).all()
    np.testing.assert_array_equal(result.output[:, :SCAN_CHUNK], whole[:, :SCAN_CHUNK])
    np.testing.assert_array_equal(
        result.output[:, 2 * SCAN_CHUNK :], whole[:, 2 * SCAN_CHUNK :]
    )


@pytest.mark.parametrize("layout", ["raw", "packed"])
def test_full_scan_holds_the_output_and_little_else(archives, layout):
    vcas, _whole = archives
    plan = _scan(None, 1)
    decoded_chunk = STORED_CHUNK[0] * STORED_CHUNK[1] * 4
    with open_stream(vcas[layout]) as src:
        execute(plan, source=src)  # handles open, metadata parsed
        tracemalloc.start()
        try:
            (result,) = execute(plan, source=src)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= result.output.nbytes + decoded_chunk + 2 * SPAN_SCRATCH_BYTES


def test_explain_says_when_a_plan_is_not_chunked():
    from repro.core.optimizer import explain

    assert "chunking: none" in explain(_scan((12, 24), 8))
    busy = optimize(Query.scan(None).then(StaLtaOp(4, 16)), chunk_samples=SCAN_CHUNK)
    assert f"chunking: {SCAN_CHUNK} samples" in explain(busy)


# ---------------------------------------------------------------------------
# one worker pool per run: chunks pipelined behind a read-ahead
# ---------------------------------------------------------------------------


def _pooled(kind, source, chunk, threads, policy=None):
    """Four shapes of run over ``source``; returns the list of results."""
    if kind == "prepass":  # a pre-pass whose level is computed below a filter
        ops = [FiltFiltOp(B, A), DetrendOp(), StaLtaOp(4, 16)]
        return [
            run_chain(
                ops, source, chunk, threads, fs=100.0, policy=policy
            )
        ]
    if kind == "sink_post":  # Alg. 3: pre-pass first, FFT sink, post operators
        ops = interferometry_operators(ALG3)
        return [
            run_chain(
                ops, source, chunk, threads, fs=100.0, policy=policy
            )
        ]
    base = Query.scan(None, fs=100.0).then(FiltFiltOp(B, A))
    plan = optimize(
        [
            base.then(StaLtaOp(4, 16)).with_label("trig"),
            base.then(LocalSimilarityOp(SIMI)).with_label("simi"),
        ],
        chunk_samples=chunk,
        threads=threads,
    )
    # "two_tails" shares the prefix, "unshared" recomputes it per branch
    return execute(plan, source=source, naive=kind == "unshared", policy=policy)


POOLED = ["prepass", "sink_post", "two_tails", "unshared"]


@pytest.mark.parametrize("chunk", [1500, 400, 77])
@pytest.mark.parametrize("kind", POOLED)
def test_any_thread_count_moves_no_bit(kind, chunk):
    data = _data(31)
    want = _pooled(kind, data, chunk, 1)
    for threads in (2, 3, 5):
        got = _pooled(kind, data, chunk, threads)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.output, w.output)
        n_chunks = got[0].profile.n_chunks
        assert n_chunks == -(-1500 // chunk)
        if n_chunks > 1:  # workers really used; the row rule for one chunk
            assert got[0].profile.threads == min(threads, n_chunks)


def test_more_workers_than_cores_under_a_short_switch_interval():
    """Stress: eight workers, threads switched every 10 us, for a bounded
    number of rounds.  Outputs are allocated uninitialised and filled chunk
    by chunk, so a chunk lost, landed twice at the wrong place or settled
    out of order shows as a bit that differs from the serial run."""
    data = _data(38, total=3000)
    want = {kind: _pooled(kind, data, 77, 1) for kind in POOLED}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(3):
            for kind in POOLED:
                got = _pooled(kind, data, 77, 8)
                assert got[0].profile.threads == 8
                for g, w in zip(got, want[kind]):
                    np.testing.assert_array_equal(g.output, w.output)
                assert got[0].profile.phases.keys() == want[kind][0].profile.phases.keys()
    finally:
        sys.setswitchinterval(interval)


class ThreadSpy(ArraySource):
    """Records which thread issued every read, and says when a second
    read has been asked for."""

    def __init__(self, data):
        super().__init__(data, fs=100.0)
        self.idents = []
        self.read_again = threading.Event()

    def read_strided(self, r0, r1, t0, t1, tstep=1):
        self.idents.append(threading.get_ident())
        if len(self.idents) > 1:
            self.read_again.set()
        return super().read_strided(r0, r1, t0, t1, tstep)


@pytest.mark.parametrize("kind", POOLED)
def test_every_read_happens_on_the_calling_thread(kind):
    src = ThreadSpy(_data(32))
    results = _pooled(kind, src, 200, 3)
    assert len(src.idents) >= results[0].profile.n_chunks == 8
    assert set(src.idents) == {threading.get_ident()}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("kind", POOLED)
def test_a_run_starts_no_more_threads_than_it_was_given(kind, threads, monkeypatch):
    """Watched from outside the profile: one pool per run, whatever the
    number of chunks, branches and pre-passes — never a pool per chunk."""
    started, real_start = [], threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda t: started.append(t.name) or real_start(t)
    )
    assert _pooled(kind, _data(33), 200, threads)[0].profile.n_chunks == 8
    assert len(started) <= threads, started


class Gate(Operator):
    """Identity that counts the chains inside it.  The first ``parties``
    chains meet at a barrier (that many really are in flight at once),
    and the first of all also waits until the source is read again."""

    name = "gate"

    def __init__(self, source, parties):
        self.source = source
        self.barrier = threading.Barrier(parties)
        self.lock = threading.Lock()
        self.entered = self.inside = self.most = 0
        self.read_ahead = self.met = None

    def apply(self, data, ctx):
        with self.lock:
            self.entered += 1
            order = self.entered
            self.inside += 1
            self.most = max(self.most, self.inside)
        try:
            if order == 1:
                self.read_ahead = self.source.read_again.wait(timeout=20)
            if order <= self.barrier.parties:
                try:
                    self.barrier.wait(timeout=20)
                    self.met = self.met is not False
                except threading.BrokenBarrierError:
                    self.met = False
        finally:
            with self.lock:
                self.inside -= 1
        return data


@pytest.mark.parametrize("threads", [2, 3])
def test_chunks_overlap_each_other_and_the_next_read(threads):
    src = ThreadSpy(_data(33))
    gate = Gate(src, threads)
    result = run_chain(
        [gate, StaLtaOp(4, 16)], src, chunk_samples=150, threads=threads
    )
    assert result.profile.n_chunks == gate.entered == 10  # one chain per chunk
    assert gate.read_ahead  # chunk 1 was read while chain 0 was still running
    assert gate.met and gate.most == threads  # never more chains than threads
    np.testing.assert_array_equal(
        result.output,
        run_chain([StaLtaOp(4, 16)], src, chunk_samples=150).output,
    )


class Snap(RuntimeError):
    """What a broken operator raises (not a retryable type)."""


class Snapping(Operator):
    """Identity that raises on the chunk holding sample ``at``."""

    name = "snapping"

    def __init__(self, at):
        self.at = at

    def apply(self, data, ctx):
        if ctx.start <= self.at < ctx.stop:
            raise Snap(f"chunk [{ctx.start}, {ctx.stop})")
        return data


@pytest.mark.parametrize("chunk", [1500, 200])
def test_no_thread_outlives_the_run_and_errors_keep_their_type(chunk):
    data = _data(34)
    idle = threading.active_count()
    good = [FiltFiltOp(B, A), StaLtaOp(4, 16)]
    assert run_chain(good, data, chunk, threads=3).profile.threads == 3
    assert threading.active_count() == idle
    bad = [FiltFiltOp(B, A), Snapping(700), StaLtaOp(4, 16)]
    for threads in (1, 3):
        with pytest.raises(Snap, match=r"chunk \["):
            run_chain(bad, data, chunk, threads)
        assert threading.active_count() == idle


class FlakySource(ArraySource):
    """The first ``fails`` reads covering sample ``at`` raise ``OSError``."""

    def __init__(self, data, at, fails):
        super().__init__(data, fs=100.0)
        self.at, self.fails, self.log = at, fails, []

    def read_strided(self, r0, r1, t0, t1, tstep=1):
        self.log.append((t0, t1))
        if t0 <= self.at < t1 and self.fails > 0:
            self.fails -= 1
            raise OSError(f"unreadable [{t0}, {t1})")
        return super().read_strided(r0, r1, t0, t1, tstep)


class FlakyOp(Operator):
    """Identity whose first ``fails`` calls on the chunk holding sample
    ``at`` raise a retryable error."""

    name = "flaky"

    def __init__(self, at, fails):
        self.at, self.fails, self.calls = at, fails, 0

    def apply(self, data, ctx):
        if ctx.start <= self.at < ctx.stop:
            self.calls += 1
            if self.calls <= self.fails:
                raise OSError(f"attempt {self.calls} failed")
        return data


def _under_policy(kind, threads, policy, read_fails, op_fails):
    """One faulted run; returns everything a policy can change.  Halos are
    short, so sample 650 is read and computed on by one chunk only."""
    src = FlakySource(_data(35), at=650, fails=read_fails)
    flaky = FlakyOp(at=650, fails=op_fails)
    try:
        if kind == "chain":
            results = [
                run_chain(
                    [flaky, StaLtaOp(4, 16)], src, 200, threads, policy=policy
                )
            ]
        else:
            base = Query.scan(None, fs=100.0).then(flaky)
            plan = optimize(
                [
                    base.then(StaLtaOp(4, 16)).with_label("trig"),
                    base.then(LocalSimilarityOp(SIMI)).with_label("simi"),
                ],
                chunk_samples=200,
                threads=threads,
            )
            results = execute(plan, source=src, policy=policy)
    except OSError as exc:
        return "raised", str(exc), src.log, flaky.calls
    gaps = [
        [(g.t0, g.t1, g.attempts, g.reason) for g in (r.gaps or [])] for r in results
    ]
    return [r.output for r in results], gaps, src.log, flaky.calls


@pytest.mark.parametrize("kind", ["chain", "two_tails"])
@pytest.mark.parametrize(
    "mode, retries, read_fails, op_fails",
    [
        ("continue", 2, 2, 0),  # the read recovers on its last attempt
        ("continue", 1, 2, 0),  # the read never recovers: a gap
        ("continue", 2, 0, 2),  # the chain recovers, re-run with its read
        ("continue", 2, 1, 1),  # read and chain draw on the same attempts
        ("continue", 2, 1, 2),  # ... and together they run out: a gap
        ("fail_fast", 1, 0, 2),  # the chain's error, raised as it is
        ("fail_fast", 1, 2, 0),
    ],
)
def test_failure_policy_counts_reads_and_chains_like_one_thread(
    kind, mode, retries, read_fails, op_fails
):
    policy = FailurePolicy(mode=mode, retries=retries, fill=-3.0)
    want = _under_policy(kind, 1, policy, read_fails, op_fails)
    broken = read_fails + op_fails > retries
    assert (want[0] == "raised") == (broken and mode == "fail_fast")
    if mode == "continue":
        assert all(len(g) == int(broken) for g in want[1])
    for threads in (2, 3):
        got = _under_policy(kind, threads, policy, read_fails, op_fails)
        reads = [sorted(got[2]), sorted(want[2])]
        if want[0] == "raised":
            assert got[:2] == want[:2]
            # reading ahead of a chunk that then raises is not a retry
            reads = [[r for r in log if r[0] <= 650 < r[1]] for log in reads]
        else:
            for g, w in zip(got[0], want[0]):
                np.testing.assert_array_equal(g, w)
            assert got[1] == want[1]
        assert reads[0] == reads[1]  # the same reads, re-reads included
        assert got[3] == want[3]


PREPASS_CHAIN = [DetrendOp(), StaLtaOp(4, 16)]


def test_pre_pass_reads_are_retried():
    """The first read covering sample 0 is the detrend pre-pass's."""
    data = _data(38, total=1200)[:4]
    src = FlakySource(data, at=0, fails=2)
    got = run_chain(PREPASS_CHAIN, src, 400, policy=FailurePolicy(retries=2))
    want = run_chain(PREPASS_CHAIN, data, 400, fs=100.0)
    np.testing.assert_array_equal(got.output, want.output)


@pytest.mark.parametrize("mode", ["fail_fast", "continue"])
def test_a_pre_pass_read_broken_past_its_retries_raises(mode):
    """Whole-record state cannot be reported as a gap."""
    src = FlakySource(_data(38, total=1200)[:4], at=0, fails=3)
    policy = FailurePolicy(mode=mode, retries=2)
    with pytest.raises(OSError, match="unreadable"):
        run_chain(PREPASS_CHAIN, src, 400, policy=policy)


def test_one_chunk_plan_splits_rows_over_the_pool():
    """With no second chunk to overlap, ``threads`` buys a static row split
    of the one chunk — on the run's pool, gone when the run returns."""

    class Rows(Probe):
        def apply(self, data, ctx):
            self.seen.append((ctx.channel_lo, data.shape[0], threading.get_ident()))
            return data

    data = _data(36)
    idle = threading.active_count()
    for threads, blocks in ((3, [(0, 4), (4, 4), (8, 4)]), (5, [(0, 3), (3, 3), (6, 2), (8, 2), (10, 2)])):
        rows = Rows("rows")
        result = run_chain(
            [FiltFiltOp(B, A), rows, StaLtaOp(4, 16)], data, threads=threads
        )
        assert result.profile.n_chunks == 1 and result.profile.threads == threads
        assert sorted(seen[:2] for seen in rows.seen) == blocks
        assert threading.get_ident() not in {seen[2] for seen in rows.seen}
    assert threading.active_count() == idle


def test_branch_output_lands_once():
    """A sinkless branch writes each settled chunk into its whole output:
    no per-chunk piece kept, no concatenate at the end."""
    data = np.random.default_rng(37).normal(size=(12, 60_000))
    ops = [StaLtaOp(4, 16)]
    want = run_chain(ops, data).output
    tracemalloc.start()
    try:
        result = run_chain(ops, data, chunk_samples=3000)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = result.output
    np.testing.assert_allclose(out, want, rtol=1e-8)  # running sums restart per chunk
    assert out.flags.c_contiguous and out.base is None
    assert peak < 1.5 * out.nbytes  # pieces plus their concatenation were 2x
    assert out.nbytes < result.profile.peak_resident_bytes < 1.5 * out.nbytes


def test_derived_chunk_length_shares_the_byte_budget():
    """One sizer: an eager facade call and the same analysis as a plan
    derive the same chunk length — the default byte budget over every
    block held at once — and an explicit length is used as given.  (A
    wide-stride Alg. 2 keeps the output of a 64 x 400 000 record small.)"""
    from repro.storage.chunks import DEFAULT_CHUNK_BYTES

    data = np.zeros((64, 400_000), dtype=np.float32)
    cfg = LocalSimilarityConfig(half_window=5, half_lag=1, stride=4000)
    for threads, held, want in ((1, 1, 131_072), (2, 3, 43_690), (4, 5, 26_214)):
        assert want == DEFAULT_CHUNK_BYTES // held // (64 * 8)
        dassa = DASSA(threads=threads)
        dassa.local_similarity(data, cfg)
        eager = dassa.last_profile
        dassa.plan(data).local_similarity(cfg).run()
        planned = dassa.last_profile
        assert eager is not planned
        assert eager.chunk_samples == planned.chunk_samples == want
        assert eager.n_chunks == planned.n_chunks == -(-400_000 // want)
    short = data[:, :5000]
    dassa = DASSA(threads=4, chunk_samples=777)
    dassa.sta_lta(short, 5, 50)
    assert dassa.last_profile.chunk_samples == 777
    dassa.sta_lta(short, 5, 50, chunk_samples=999)
    assert dassa.last_profile.chunk_samples == 999
    dassa.plan(short, chunk_samples=555).sta_lta(5, 50).run()
    assert dassa.last_profile.chunk_samples == 555
