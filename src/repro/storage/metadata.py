"""DAS metadata model (paper Fig. 4) and timestamp utilities.

The acquisition system stamps every one-minute file with a
``yymmddhhmmss`` timestamp; ``das_search``'s range queries and VCA
ordering are driven by these stamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any

from repro.errors import StorageError

TIMESTAMP_FORMAT = "%y%m%d%H%M%S"

#: Attribute keys, spelled exactly as in the paper's Fig. 4.
KEY_SAMPLING = "SamplingFrequency(HZ)"
KEY_SPATIAL = "SpatialResolution(m)"
KEY_TIMESTAMP = "TimeStamp(yymmddhhmmss)"
KEY_NOBJECTS = "Number of objects"


def parse_timestamp(stamp: str) -> datetime:
    """Parse a ``yymmddhhmmss`` acquisition timestamp."""
    if len(stamp) != 12 or not stamp.isdigit():
        raise StorageError(f"bad timestamp {stamp!r}: want 12 digits yymmddhhmmss")
    try:
        return datetime.strptime(stamp, TIMESTAMP_FORMAT)
    except ValueError as exc:
        raise StorageError(f"bad timestamp {stamp!r}: {exc}") from exc


def format_timestamp(when: datetime) -> str:
    """Format a datetime as ``yymmddhhmmss``."""
    return when.strftime(TIMESTAMP_FORMAT)


def timestamp_add_seconds(stamp: str, seconds: float) -> str:
    """Shift a timestamp by a number of seconds."""
    return format_timestamp(parse_timestamp(stamp) + timedelta(seconds=seconds))


@dataclass
class DASMetadata:
    """Global (file-level) DAS metadata — the first KV level of Fig. 4."""

    sampling_frequency: float = 500.0
    spatial_resolution: float = 2.0
    timestamp: str = "170620100545"
    n_channels: int = 0
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.sampling_frequency > 0 and math.isfinite(self.sampling_frequency)):
            raise StorageError("sampling frequency must be finite and positive")
        if not (self.spatial_resolution > 0 and math.isfinite(self.spatial_resolution)):
            raise StorageError("spatial resolution must be finite and positive")
        parse_timestamp(self.timestamp)  # validates
        if self.n_channels < 0:
            raise StorageError("channel count must be non-negative")

    @property
    def start_time(self) -> datetime:
        return parse_timestamp(self.timestamp)

    def to_attrs(self) -> dict[str, Any]:
        """The attribute dict written at a DAS file's root."""
        attrs: dict[str, Any] = {
            KEY_SAMPLING: self.sampling_frequency,
            KEY_SPATIAL: self.spatial_resolution,
            KEY_TIMESTAMP: self.timestamp,
            KEY_NOBJECTS: self.n_channels,
        }
        attrs.update(self.extras)
        return attrs

    @classmethod
    def from_attrs(cls, attrs: dict[str, Any]) -> "DASMetadata":
        """Rebuild from a file's root attributes."""
        known = {KEY_SAMPLING, KEY_SPATIAL, KEY_TIMESTAMP, KEY_NOBJECTS}
        missing = known - set(attrs)
        if missing:
            raise StorageError(f"not a DAS file: missing metadata keys {sorted(missing)}")
        try:
            fs = float(attrs[KEY_SAMPLING])
            dx = float(attrs[KEY_SPATIAL])
            n_channels = int(attrs[KEY_NOBJECTS])
        except (TypeError, ValueError, OverflowError) as exc:
            raise StorageError(f"not a DAS file: bad metadata value ({exc})") from exc
        return cls(
            sampling_frequency=fs,
            spatial_resolution=dx,
            timestamp=str(attrs[KEY_TIMESTAMP]),
            n_channels=n_channels,
            extras={k: v for k, v in attrs.items() if k not in known},
        )
