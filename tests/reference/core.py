"""Frozen reference implementations the ``repro.core`` tests check the
program against: each is a kernel as it stood before a faster one replaced
it, or the member-by-member definition a fused path is held to, kept as the
slow, obviously correct spec.

* :func:`bfs_components` — the event detector's connected-component
  labelling as a per-cell breadth-first flood fill;
* :func:`by_levels` — the chunk kernel's chain, each operator applied on
  its own to exactly the span the next level needs;
* :func:`gathered_ratio` — the STA/LTA windowed ratio as a cumulative sum
  gathered at per-sample window-edge index arrays.
"""

from collections import deque

import numpy as np

from repro.core.pipeline import OpContext, _clamp


def bfs_components(mask):
    """The reference labelling: a per-cell breadth-first flood fill,
    4-connected, numbering components in raster order of discovery."""
    labels = np.zeros(mask.shape, dtype=np.int32)
    current = 0
    rows, cols = mask.shape
    for r in range(rows):
        for c in range(cols):
            if mask[r, c] and labels[r, c] == 0:
                current += 1
                queue = deque([(r, c)])
                labels[r, c] = current
                while queue:
                    rr, cc = queue.popleft()
                    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nr, nc = rr + dr, cc + dc
                        if (
                            0 <= nr < rows
                            and 0 <= nc < cols
                            and mask[nr, nc]
                            and labels[nr, nc] == 0
                        ):
                            labels[nr, nc] = current
                            queue.append((nr, nc))
    return labels


def by_levels(ops, block, needs, totals, rates, channels, trim=True):
    """The reference chain runner: each member applied on its own.  With
    ``trim`` member ``k`` sees exactly ``needs[k]`` and hands on
    ``needs[k + 1]``; without, every member's whole output (core plus
    fringe) is forwarded and only the final level is cut — the hand-off
    the kernel used to make."""
    cur, have = block, needs[0]
    for k, op in enumerate(ops):
        ctx = OpContext(
            start=have[0], stop=have[1], total=totals[k], fs=rates[k],
            state=op.bind(channels[k], totals[k], rates[k]),
        )
        cur, have = op.apply(cur, ctx), _clamp(*op.out_full(*have), totals[k + 1])
        if trim or k == len(ops) - 1:
            ta, tb = needs[k + 1]
            cur, have = cur[..., ta - have[0] : tb - have[0]], (ta, tb)
    return cur


def gathered_ratio(data, nsta, nlta):
    """The windowed ratio as it was first written — a zero-prefixed
    cumulative sum gathered at per-sample window-edge index arrays — kept
    as the cell-for-cell reference of the slice-difference kernel."""
    idx = np.arange(data.shape[-1])
    sta_lo = np.clip(idx - nsta + 1, 0, None)
    lta_lo = np.clip(idx - nlta + 1, 0, None)
    contaminated = np.isnan(data)
    any_bad = bool(contaminated.any())
    energy = np.where(contaminated, 0.0, data) ** 2 if any_bad else data**2
    cumsum = np.concatenate(
        [np.zeros(energy.shape[:-1] + (1,)), np.cumsum(energy, axis=-1)], axis=-1
    )
    sta = (cumsum[..., idx + 1] - cumsum[..., sta_lo]) / nsta
    lta = (cumsum[..., idx + 1] - cumsum[..., lta_lo]) / nlta
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lta > 0, sta / np.where(lta > 0, lta, 1.0), 0.0)
    if any_bad:
        badcum = np.concatenate(
            [
                np.zeros(contaminated.shape[:-1] + (1,)),
                np.cumsum(contaminated, axis=-1),
            ],
            axis=-1,
        )
        ratio[(badcum[..., idx + 1] - badcum[..., lta_lo]) > 0] = np.nan
    return ratio
