"""Event picking on local-similarity maps (the Fig. 10 analysis).

The similarity map (channels × window centres) highlights coherent
energy.  Detection thresholds it (robust z-score), groups the hits into
connected components, and classifies each component by its geometry:

* an **earthquake** spans most of the array nearly simultaneously,
* a **vehicle** is channel-local at any instant but *moves* — a diagonal
  ridge with a finite channels-per-second slope,
* a **persistent** source stays at fixed channels for most of the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Share of the record a stationary component must last to be "persistent".
_PERSISTENT_DURATION_FRACTION = 0.7


@dataclass(frozen=True)
class DetectedEvent:
    """One connected high-similarity region."""

    label: int
    kind: str  # "earthquake" | "vehicle" | "persistent" | "unclassified"
    channel_lo: int
    channel_hi: int  # inclusive
    t_start: float  # seconds
    t_end: float
    peak_similarity: float
    n_cells: int
    speed_channels_per_s: float  # fitted ridge slope (0 for stationary)

    @property
    def channel_span(self) -> int:
        return self.channel_hi - self.channel_lo + 1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def _connected_components(mask: np.ndarray) -> np.ndarray:
    """4-connected component labelling.

    Returns an int array: 0 = background, 1..n = component ids, numbered
    in raster order of each component's first cell.  ``scipy.ndimage`` is
    imported here, on first use, so the layers that import ``repro.core``
    to plan or serve never load scipy.
    """
    from scipy import ndimage

    labels, _ = ndimage.label(mask)  # default structure: 4-connected
    return labels


def detect_events(
    similarity: np.ndarray,
    centers: np.ndarray,
    fs: float,
    threshold_sigmas: float = 3.0,
    min_cells: int = 6,
    earthquake_span_fraction: float = 0.6,
    min_vehicle_speed: float = 0.5,
    remove_channel_bias: bool = False,
    split_array_wide: bool = False,
) -> list[DetectedEvent]:
    """Pick and classify events from a similarity map.

    ``similarity`` is (channels, n_centers); ``centers`` are the window-
    centre sample indices; ``fs`` converts samples to seconds.  The
    threshold is ``median + threshold_sigmas * MAD_sigma`` (robust to the
    events themselves).

    With ``remove_channel_bias`` each channel's median over time is
    subtracted before thresholding — standard practice to keep
    stationary sources (machinery hum) from bridging transient events
    into one component; the persistent channels are then detected from
    the removed bias and reported as their own events.

    With ``split_array_wide`` instants where most of the array exceeds
    the threshold at once (earthquake wavefronts) are extracted as
    earthquake events *before* component labelling, so a quake crossing
    a vehicle's ridge does not fuse the two detections — the situation
    of Fig. 1b, where the M4.4 arrival overprints the car signals.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    if similarity.ndim != 2:
        raise ConfigError("similarity map must be 2-D (channels, centers)")
    if similarity.shape[1] != len(centers):
        raise ConfigError(
            f"{similarity.shape[1]} map columns but {len(centers)} centers"
        )
    if fs <= 0:
        raise ConfigError("fs must be positive")
    if similarity.size == 0:
        return []

    persistent_events: list[DetectedEvent] = []
    work = similarity
    if remove_channel_bias:
        row_bias = np.median(similarity, axis=1, keepdims=True)
        work = similarity - row_bias
        bias = row_bias[:, 0]
        bias_median = float(np.median(bias))
        bias_mad = float(np.median(np.abs(bias - bias_median)))
        bias_sigma = 1.4826 * bias_mad if bias_mad > 0 else float(np.std(bias)) or 1.0
        hot = bias > bias_median + threshold_sigmas * bias_sigma
        # Group contiguous hot channels into persistent events.
        channel = 0
        label = -1
        while channel < len(hot):
            if hot[channel]:
                lo = channel
                while channel < len(hot) and hot[channel]:
                    channel += 1
                persistent_events.append(
                    DetectedEvent(
                        label=label,
                        kind="persistent",
                        channel_lo=lo,
                        channel_hi=channel - 1,
                        t_start=float(centers[0] / fs),
                        t_end=float(centers[-1] / fs),
                        peak_similarity=float(similarity[lo:channel].max()),
                        n_cells=(channel - lo) * similarity.shape[1],
                        speed_channels_per_s=0.0,
                    )
                )
                label -= 1
            else:
                channel += 1

    median = float(np.median(work))
    mad = float(np.median(np.abs(work - median)))
    sigma = 1.4826 * mad if mad > 0 else float(np.std(work)) or 1.0
    threshold = median + threshold_sigmas * sigma
    mask = work > threshold

    earthquake_events: list[DetectedEvent] = []
    if split_array_wide and mask.size:
        col_coverage = mask.mean(axis=0)
        eq_cols = col_coverage >= earthquake_span_fraction
        # Group contiguous array-wide columns into earthquake events.
        col = 0
        label = 10000
        while col < len(eq_cols):
            if eq_cols[col]:
                lo = col
                while col < len(eq_cols) and eq_cols[col]:
                    col += 1
                region = mask[:, lo:col]
                hit_channels = np.where(region.any(axis=1))[0]
                earthquake_events.append(
                    DetectedEvent(
                        label=label,
                        kind="earthquake",
                        channel_lo=int(hit_channels.min()),
                        channel_hi=int(hit_channels.max()),
                        t_start=float(centers[lo] / fs),
                        t_end=float(centers[col - 1] / fs),
                        peak_similarity=float(work[:, lo:col].max()),
                        n_cells=int(region.sum()),
                        speed_channels_per_s=0.0,
                    )
                )
                label += 1
            else:
                col += 1
        mask = mask.copy()
        mask[:, eq_cols] = False

    labels = _connected_components(mask)
    similarity = work if remove_channel_bias else similarity

    n_channels, n_centers = similarity.shape
    total_duration = (
        (centers[-1] - centers[0]) / fs if len(centers) > 1 else 1.0 / fs
    )
    # Group the hit cells by component once (raster order within each): a
    # stable sort by label, with the cell counts dropping the specks
    # before any per-event work.
    hit_ch, hit_ct = np.nonzero(labels)
    hit_label = labels[hit_ch, hit_ct]
    by_label = np.argsort(hit_label, kind="stable")
    counts = np.bincount(hit_label)
    ends = np.cumsum(counts)
    events: list[DetectedEvent] = []
    for label in np.flatnonzero(counts >= max(min_cells, 1)).tolist():
        cells = by_label[ends[label] - counts[label] : ends[label]]
        ch = hit_ch[cells]
        ct = hit_ct[cells]
        t_cells = centers[ct] / fs
        ch_lo, ch_hi = int(ch.min()), int(ch.max())
        t0, t1 = float(t_cells.min()), float(t_cells.max())
        peak = float(similarity[ch, ct].max())

        # Ridge slope: channels per second, fitted over the component.
        if t1 > t0:
            slope = float(np.polyfit(t_cells, ch.astype(float), 1)[0])
        else:
            slope = 0.0

        span_fraction = (ch_hi - ch_lo + 1) / n_channels
        duration_fraction = (t1 - t0) / max(total_duration, 1e-12)
        if span_fraction >= earthquake_span_fraction and abs(slope) * (t1 - t0) < (
            0.5 * n_channels
        ):
            kind = "earthquake"
        elif duration_fraction >= _PERSISTENT_DURATION_FRACTION and abs(slope) < min_vehicle_speed:
            kind = "persistent"
        elif abs(slope) >= min_vehicle_speed:
            kind = "vehicle"
        else:
            kind = "unclassified"
        events.append(
            DetectedEvent(
                label=label,
                kind=kind,
                channel_lo=ch_lo,
                channel_hi=ch_hi,
                t_start=t0,
                t_end=t1,
                peak_similarity=peak,
                n_cells=len(cells),
                speed_channels_per_s=slope,
            )
        )
    events.extend(persistent_events)
    events.extend(earthquake_events)
    events.sort(key=lambda e: e.t_start)
    return events
