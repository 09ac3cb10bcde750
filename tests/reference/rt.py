"""Frozen reference implementations the ``repro.rt`` tests check the
program against.

* :class:`LoopAssembler` — :meth:`EventAssembler.feed
  <repro.rt.events.EventAssembler.feed>` as a loop over columns, the
  definition the vectorised one is held to.
"""

import numpy as np

from repro.rt.events import EventAssembler


class LoopAssembler(EventAssembler):
    """The per-column definition of :meth:`EventAssembler.feed`, kept as
    the reference the vectorised one is held to."""

    def feed(self, j_lo, centers, block):
        block = np.asarray(block, dtype=np.float64)
        policy = self.policy
        finalized = []
        for k in range(block.shape[1]):
            j = j_lo + k
            column = block[:, k]
            hits = column > policy.threshold
            hot = hits.mean() >= policy.min_fraction
            run = self._open
            if run is not None and (not hot or j != run["j_end"] + 1):
                finalized.extend(self._finalize())
                run = None
            if not hot:
                continue
            t = float(centers[k]) / self.fs
            rows = np.flatnonzero(hits)
            channels = rows + self.channel_lo
            if run is None:
                self._open = run = {
                    "j_start": j,
                    "j_end": j,
                    "t_start": t,
                    "t_end": t,
                    "ch_min": int(channels.min()),
                    "ch_max": int(channels.max()),
                    "peak": float(column[rows].max()),
                    "n_cells": 0,
                    "s_t": 0.0,
                    "s_ch": 0.0,
                    "s_tch": 0.0,
                    "s_tt": 0.0,
                }
            else:
                run["j_end"] = j
                run["t_end"] = t
                run["ch_min"] = min(run["ch_min"], int(channels.min()))
                run["ch_max"] = max(run["ch_max"], int(channels.max()))
                run["peak"] = max(run["peak"], float(column[rows].max()))
            run["n_cells"] += int(len(rows))
            run["s_t"] += t * len(rows)
            run["s_ch"] += float(channels.sum())
            run["s_tch"] += t * float(channels.sum())
            run["s_tt"] += t * t * len(rows)
        return finalized
