"""Gap accounting for degraded reads.

When a reader masks an unreadable source instead of failing (``open_vca(...,
on_error="mask")``, the streamed pipelines' ``continue`` policy), the lost
region must be *reported*, not silently filled.  A :class:`GapMap` is that report: a set of
:class:`GapSpan` records in absolute destination sample coordinates (the
VCA's time axis), carrying which source was lost, why, and after how many
attempts.

Downstream consumers use it two ways: :meth:`GapMap.time_mask` gives a
boolean per-sample mask for excluding masked columns from comparisons or
detections, and :meth:`GapMap.widened` pads each span by an operator's
input halo to get the *affected cone* — the output columns a local
operator could have contaminated with fill values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class GapSpan:
    """One masked span: samples ``[t0, t1)`` of ``source`` are fill values."""

    source: str
    t0: int
    t1: int
    reason: str
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ConfigError(f"gap span [{self.t0}, {self.t1}) is inverted")

    @property
    def samples(self) -> int:
        return self.t1 - self.t0

    def overlaps(self, t0: int, t1: int) -> bool:
        return self.t0 < t1 and t0 < self.t1


class GapMap:
    """An ordered collection of masked spans, mergeable and serialisable."""

    def __init__(self, spans: Iterable[GapSpan] = ()):
        self.spans: list[GapSpan] = []
        for span in spans:
            self.add(span)

    # -- building ----------------------------------------------------------
    def add(self, span: GapSpan) -> None:
        """Record a span; overlapping/adjacent spans of the same source and
        reason coalesce (chunked reads report the same lost file once per
        chunk — the map keeps one record).

        Coalescing is transitive: a bridging span that connects two held
        spans collapses all three into one record, so the invariant "no
        two spans of the same (source, reason) overlap or touch" holds
        after every add.
        """
        merged = span
        pool = self.spans
        while True:
            rest: list[GapSpan] = []
            changed = False
            for held in pool:
                if (
                    held.source == merged.source
                    and held.reason == merged.reason
                    and held.t0 <= merged.t1
                    and merged.t0 <= held.t1
                ):
                    merged = GapSpan(
                        source=merged.source,
                        t0=min(held.t0, merged.t0),
                        t1=max(held.t1, merged.t1),
                        reason=merged.reason,
                        attempts=max(held.attempts, merged.attempts),
                    )
                    changed = True
                else:
                    rest.append(held)
            pool = rest
            if not changed:
                break
        pool.append(merged)
        self.spans[:] = pool

    def record(
        self, source: str, t0: int, t1: int, reason: str, attempts: int = 1
    ) -> None:
        self.add(GapSpan(source=source, t0=int(t0), t1=int(t1), reason=reason, attempts=attempts))

    def merge(self, other: "GapMap") -> None:
        for span in other.spans:
            self.add(span)

    def clear(self) -> None:
        self.spans.clear()

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def __bool__(self) -> bool:
        return bool(self.spans)

    def __iter__(self) -> Iterator[GapSpan]:
        return iter(sorted(self.spans, key=lambda s: (s.t0, s.t1, s.source)))

    @property
    def sources(self) -> set[str]:
        return {span.source for span in self.spans}

    @property
    def total_samples(self) -> int:
        """Masked samples counted once even where spans overlap."""
        merged: list[list[int]] = []
        for span in self:
            if merged and span.t0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], span.t1)
            else:
                merged.append([span.t0, span.t1])
        return sum(hi - lo for lo, hi in merged)

    def time_mask(self, n_samples: int, lo: int = 0) -> np.ndarray:
        """Boolean mask over samples ``[lo, lo + n_samples)``: True where a
        gap span covers the sample."""
        mask = np.zeros(int(n_samples), dtype=bool)
        for span in self.spans:
            a = max(span.t0 - lo, 0)
            b = min(span.t1 - lo, n_samples)
            if a < b:
                mask[a:b] = True
        return mask

    def widened(self, pad: int) -> "GapMap":
        """A new map with every span padded by ``pad`` samples on each side
        (the affected cone of an operator with input halo ``pad``)."""
        if pad < 0:
            raise ConfigError("pad must be >= 0")
        out = GapMap()
        for span in self.spans:
            out.add(
                GapSpan(
                    source=span.source,
                    t0=max(0, span.t0 - pad),
                    t1=span.t1 + pad,
                    reason=span.reason,
                    attempts=span.attempts,
                )
            )
        return out

    # -- serialisation -----------------------------------------------------
    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self]

    @classmethod
    def from_json(cls, payload: Iterable[dict]) -> "GapMap":
        return cls(GapSpan(**entry) for entry in payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GapMap {len(self.spans)} spans / {self.total_samples} samples>"
