"""The one chunk-loop kernel and its lowerings agree bit for bit.

``StreamPipeline.run`` (the one-branch call), ``execute(optimize(q))``
(pushdown + fusion + shared prefix) and ``execute(..., naive=True)`` (the
eager reference) are three ways of choosing what
:func:`repro.core.pipeline.run_chunks` runs; this sweep drives all three
across chunk size x thread count x chain shape — a pre-pass operator, a
decimating operator, a channel-halo operator, a sink with post stages —
and requires byte-identical output.  Multi-branch plans are held to their
own ``naive`` reference, and must honour ``threads`` like a single chain.

The kernel also validates the chunk plan it is about to run — before its
first read, whatever the lowering — and the exhaustive half of that
check, ``verify_geometry``, is swept here over every shipped operator.
"""

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
from repro.core.optimizer import FusedOp, execute, optimize
from repro.core.pipeline import Operator, StreamPipeline
from repro.core.stalta import StaLtaOp
from repro.errors import ConfigError
from repro.storage.chunks import ArraySource, WindowSource

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
    """A fusable map feeding the strided-grid, channel-halo detector."""
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
    eager = StreamPipeline(q.operators()).run(
        data, chunk_samples=chunk, threads=threads, fs=100.0
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

    def read_rows(self, r0, r1, t0, t1):
        self.reads += 1
        return super().read_rows(r0, r1, t0, t1)

    def read_strided(self, r0, r1, t0, t1, tstep=1):
        self.reads += 1
        return super().read_strided(r0, r1, t0, t1, tstep)


def _eager(src, bad):
    StreamPipeline([FiltFiltOp(B, A), bad]).run(src, chunk_samples=400)


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
    execute(optimize(q, chunk_samples=400), source=WindowSource(src, 100, 1400))


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
        StreamPipeline([Untiled()]).run(src)
    assert src.reads == 0


def test_planning_is_a_profile_phase():
    result = StreamPipeline([StaLtaOp(4, 16)]).run(_data(3), chunk_samples=400)
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
    FusedOp([TaperOp(0.05), FiltFiltOp(B, A), StaLtaOp(5, 20)]),
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
