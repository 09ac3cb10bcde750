"""End-to-end integration tests: the full DASSA path from acquisition
files on disk through search, merge, parallel read, engine execution,
and science output — cross-checked against single-process references.
"""

import numpy as np
import pytest

from repro.cluster import cori_haswell, laptop
from repro.core.detection import detect_events
from repro.core.interferometry import (
    InterferometryConfig,
    interferometry_block,
    master_spectrum,
)
from repro.core.local_similarity import LocalSimilarityConfig, local_similarity_block
from repro.simmpi import run_spmd
from repro.storage.parallel_read import (
    channel_block,
    read_vca_communication_avoiding,
)
from repro.storage.search import das_search
from repro.storage.vca import create_vca, open_vca
from repro.synthetic import fig1b_scene, generate_dataset, synthesize_scene

FS = 50.0
CHANNELS = 48
MINUTES = 4
SPM = 1500  # 30 s "minutes" at 50 Hz keep the test fast


@pytest.fixture(scope="module")
def acquisition(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    scene = fig1b_scene(
        n_channels=CHANNELS, fs=FS, minutes=MINUTES, samples_per_minute=SPM
    )
    paths = generate_dataset(
        str(root / "data"), MINUTES, scene=scene, samples_per_minute=SPM
    )
    full = synthesize_scene(scene, MINUTES, samples_per_minute=SPM)
    return {"root": root, "dir": str(root / "data"), "paths": paths, "full": full}


class TestSearchMergeReadPipeline:
    def test_full_chain_reproduces_ground_truth(self, acquisition):
        """search → VCA → parallel comm-avoiding read == the scene."""
        hits = das_search(acquisition["dir"], start="170620100545", count=MINUTES)
        assert len(hits) == MINUTES
        vca_path = create_vca(
            str(acquisition["root"] / "merged.h5"), hits, assume_uniform=True
        )
        cluster = cori_haswell(4)

        def fn(comm):
            return read_vca_communication_avoiding(comm, vca_path, cluster.storage)

        result = run_spmd(fn, 4, cluster=cluster, ranks_per_node=1)
        assembled = np.concatenate(result.results, axis=0)
        np.testing.assert_allclose(assembled, acquisition["full"], atol=1e-6)

    def test_parallel_local_similarity_matches_serial(self, acquisition):
        """Distributed Algorithm 2 (rank-partitioned channels with ghost
        rows) equals the single-process kernel over the whole array."""
        config = LocalSimilarityConfig(half_window=10, half_lag=2, stride=25)
        full = acquisition["full"].astype(np.float64)
        reference, centers = local_similarity_block(full, config)

        size = 4
        halo = config.channel_halo

        def fn(comm):
            lo, hi = channel_block(CHANNELS, comm.size, comm.rank)
            read_lo = max(0, lo - halo)
            read_hi = min(CHANNELS, hi + halo)
            block = full[read_lo:read_hi]
            # Evaluate only channels whose +-K neighbours exist globally.
            eval_lo = max(lo, halo)
            eval_hi = min(hi, CHANNELS - halo)
            if eval_hi <= eval_lo:
                return np.zeros((0, len(centers)))
            local, _ = local_similarity_block(
                block,
                config,
                channel_range=(eval_lo - read_lo, eval_hi - read_lo),
            )
            return local

        result = run_spmd(fn, size)
        assembled = np.concatenate(result.results, axis=0)
        np.testing.assert_allclose(assembled, reference, atol=1e-10)

    def test_parallel_interferometry_matches_serial(self, acquisition):
        """Distributed Algorithm 3 with a broadcast master spectrum equals
        the single-process kernel."""
        config = InterferometryConfig(
            fs=FS, band=(0.5, 6.0), resample_q=2, master_channel=0
        )
        full = acquisition["full"].astype(np.float64)
        reference = interferometry_block(full, config)

        def fn(comm):
            # Rank 0 computes the master spectrum once and broadcasts it
            # (the HAEE node-shared master of Fig. 8).
            if comm.rank == 0:
                mfft = master_spectrum(full[0:1], config)
            else:
                mfft = None
            mfft = comm.bcast(mfft, root=0)
            lo, hi = channel_block(CHANNELS, comm.size, comm.rank)
            out = interferometry_block(full[lo:hi], config, master_fft=mfft)
            gathered = comm.gather(out, root=0)
            return np.concatenate(gathered) if comm.rank == 0 else None

        result = run_spmd(fn, 4)
        np.testing.assert_allclose(result.results[0], reference, atol=1e-9)

    def test_detection_on_pipeline_output(self, acquisition):
        """Events written to disk as per-minute files survive the whole
        storage+analysis chain and are still detectable."""
        hits = das_search(acquisition["dir"], pattern=r"\d{12}")
        vca_path = create_vca(str(acquisition["root"] / "det.h5"), hits)
        with open_vca(vca_path) as vca:
            data = vca.dataset.read().astype(np.float64)
        config = LocalSimilarityConfig(half_window=25, half_lag=5, stride=50)
        simi, centers = local_similarity_block(data, config)
        # Short scaled records have a high similarity noise floor (short
        # windows + lag search), so the pick threshold is lower than at
        # production scale.
        events = detect_events(
            simi,
            centers,
            fs=FS,
            threshold_sigmas=1.25,
            min_vehicle_speed=0.05,
            remove_channel_bias=True,
            split_array_wide=True,
            earthquake_span_fraction=0.5,
        )
        kinds = {e.kind for e in events}
        assert "earthquake" in kinds
        assert "persistent" in kinds

    def test_vca_metadata_round_trip(self, acquisition):
        hits = das_search(acquisition["dir"], start="170620100545", count=2)
        vca_path = create_vca(str(acquisition["root"] / "meta.h5"), hits)
        with open_vca(vca_path) as vca:
            assert vca.metadata.sampling_frequency == FS
            assert vca.metadata.n_channels == CHANNELS
            assert vca.shape == (CHANNELS, 2 * SPM)
