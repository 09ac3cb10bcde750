"""Stacking of windowed noise-correlation functions.

The interferometry pipeline (Dou et al. 2017, the paper's [16]) does not
correlate one long record: it splits the recording into windows,
correlates each window, and *stacks* the per-window noise-correlation
functions — "a 3D data array with a striping size as the third
dimension may be produced" during this stage (paper §IV).  Stacking
averages incoherent noise down while the coherent travel-time signal
adds up, so SNR grows ~sqrt(windows).

Provided stacks:

* :func:`linear_stack` — plain mean over windows,
* :func:`phase_weighted_stack` — Schimmel & Paulssen phase-weighted
  stack: the linear stack modulated by the coherence of instantaneous
  phases, which suppresses incoherent energy much harder.
"""

from __future__ import annotations

import numpy as np

from repro.core.interferometry import InterferometryConfig, noise_correlation_functions
from repro.core.pipeline import OpContext, SinkOp
from repro.daslib.analytic import hilbert
from repro.errors import ConfigError


def window_ncfs(
    data: np.ndarray,
    config: InterferometryConfig,
    window_seconds: float,
    overlap: float = 0.0,
    max_lag_seconds: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window noise correlations: the 3-D stacking input.

    Splits ``data`` (channels x samples, at ``config.fs``) into windows
    of ``window_seconds`` with fractional ``overlap``; correlates each
    window against the master channel.  Returns ``(lags, ncfs)`` with
    ``ncfs`` of shape ``(n_windows, channels, n_lags)``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("need a 2-D (channels, samples) array")
    if window_seconds <= 0:
        raise ConfigError("window_seconds must be positive")
    if not (0.0 <= overlap < 1.0):
        raise ConfigError("overlap must be in [0, 1)")
    win = int(round(window_seconds * config.fs))
    if win < 8:
        raise ConfigError(f"window of {win} samples is too short")
    if win > data.shape[1]:
        raise ConfigError(
            f"window ({win} samples) exceeds the record ({data.shape[1]})"
        )
    hop = max(1, int(round(win * (1.0 - overlap))))
    starts = list(range(0, data.shape[1] - win + 1, hop))

    slices = []
    lags = None
    for start in starts:
        lag, ncf = noise_correlation_functions(
            data[:, start : start + win], config, max_lag_seconds=max_lag_seconds
        )
        if lags is None:
            lags = lag
        slices.append(ncf)
    stacked = np.stack(slices, axis=0)
    assert lags is not None
    return lags, stacked


def linear_stack(ncfs: np.ndarray) -> np.ndarray:
    """Mean over the window axis of a ``(windows, channels, lags)`` array."""
    ncfs = np.asarray(ncfs, dtype=np.float64)
    if ncfs.ndim != 3:
        raise ConfigError("expected a 3-D (windows, channels, lags) array")
    if ncfs.shape[0] == 0:
        raise ConfigError("cannot stack zero windows")
    return ncfs.mean(axis=0)


def phase_weighted_stack(ncfs: np.ndarray, power: float = 2.0) -> np.ndarray:
    """Phase-weighted stack (Schimmel & Paulssen 1997).

    The linear stack is weighted by the modulus of the mean unit phasor
    of the windows' analytic signals, raised to ``power``: where window
    phases agree the weight → 1, where they are random it → 0.
    """
    ncfs = np.asarray(ncfs, dtype=np.float64)
    if ncfs.ndim != 3:
        raise ConfigError("expected a 3-D (windows, channels, lags) array")
    if ncfs.shape[0] == 0:
        raise ConfigError("cannot stack zero windows")
    if power < 0:
        raise ConfigError("power must be >= 0")
    analytic = hilbert(ncfs, axis=-1)
    magnitude = np.abs(analytic)
    phasors = np.where(magnitude > 1e-300, analytic / np.where(magnitude > 1e-300, magnitude, 1.0), 0.0)
    coherence = np.abs(phasors.mean(axis=0))
    return ncfs.mean(axis=0) * coherence**power


class NCFStackSink(SinkOp):
    """Windowed NCF stacking as a streaming sink.

    Holds a rolling buffer of at most ``window − 1`` lookback samples
    plus the incoming chunk; whenever a full window is available it is
    correlated (:func:`noise_correlation_functions`) and folded into the
    running stack, so the ``(windows, channels, lags)`` cube of
    :func:`window_ncfs` — the paper's §IV 3-D striped intermediate —
    never materialises.  ``method="linear"`` accumulates the NCF sum;
    ``method="pws"`` additionally accumulates the unit phasors of the
    analytic signal, reproducing :func:`phase_weighted_stack`.
    """

    name = "ncf_stack"

    def __init__(
        self,
        config: InterferometryConfig,
        window_seconds: float,
        overlap: float = 0.0,
        max_lag_seconds: float | None = None,
        method: str = "linear",
        power: float = 2.0,
    ):
        if window_seconds <= 0:
            raise ConfigError("window_seconds must be positive")
        if not (0.0 <= overlap < 1.0):
            raise ConfigError("overlap must be in [0, 1)")
        if method not in ("linear", "pws"):
            raise ConfigError(f"unknown stack method {method!r}")
        if power < 0:
            raise ConfigError("power must be >= 0")
        self.config = config
        self.win = int(round(window_seconds * config.fs))
        if self.win < 8:
            raise ConfigError(f"window of {self.win} samples is too short")
        self.hop = max(1, int(round(self.win * (1.0 - overlap))))
        self.max_lag_seconds = max_lag_seconds
        self.method = method
        self.power = float(power)

    def init(self, n_channels: int, total_in: int, fs_in: float) -> dict:
        if self.win > total_in:
            raise ConfigError(
                f"window ({self.win} samples) exceeds the record ({total_in})"
            )
        return {
            "buf": np.zeros((n_channels, 0)),
            "buf_start": 0,
            "next_start": 0,
            "lags": None,
            "sum": None,
            "phasor_sum": None,
            "count": 0,
        }

    def consume(self, state: dict, chunk: np.ndarray, ctx: OpContext) -> None:
        if ctx.start != state["buf_start"] + state["buf"].shape[-1]:
            raise ConfigError(
                f"stack sink fed out of order at sample {ctx.start}"
            )
        buf = np.concatenate([state["buf"], chunk], axis=-1)
        buf_start = state["buf_start"]
        while state["next_start"] + self.win <= buf_start + buf.shape[-1]:
            lo = state["next_start"] - buf_start
            window = buf[:, lo : lo + self.win]
            lags, ncf = noise_correlation_functions(
                window, self.config, max_lag_seconds=self.max_lag_seconds
            )
            if state["sum"] is None:
                state["lags"] = lags
                state["sum"] = np.zeros_like(ncf)
                if self.method == "pws":
                    state["phasor_sum"] = np.zeros(ncf.shape, dtype=complex)
            state["sum"] += ncf
            if self.method == "pws":
                analytic = hilbert(ncf, axis=-1)
                magnitude = np.abs(analytic)
                state["phasor_sum"] += np.where(
                    magnitude > 1e-300,
                    analytic / np.where(magnitude > 1e-300, magnitude, 1.0),
                    0.0,
                )
            state["count"] += 1
            state["next_start"] += self.hop
        # Drop samples no future window can reach.
        keep_from = max(buf_start, state["next_start"])
        state["buf"] = buf[:, keep_from - buf_start :]
        state["buf_start"] = keep_from

    def finalize(self, state: dict) -> tuple[np.ndarray, np.ndarray]:
        if state["count"] == 0:
            raise ConfigError("cannot stack zero windows")
        stacked = state["sum"] / state["count"]
        if self.method == "pws":
            coherence = np.abs(state["phasor_sum"] / state["count"])
            stacked = stacked * coherence**self.power
        return state["lags"], stacked

    def resident_bytes(self, state: dict) -> int:
        total = state["buf"].nbytes
        for key in ("sum", "phasor_sum"):
            if state[key] is not None:
                total += state[key].nbytes
        return total


def stack_snr(stacked: np.ndarray, lags: np.ndarray, signal_window: tuple[float, float]) -> np.ndarray:
    """Per-channel SNR: peak |amplitude| inside ``signal_window`` (seconds)
    over RMS outside it."""
    stacked = np.atleast_2d(np.asarray(stacked, dtype=np.float64))
    lo, hi = signal_window
    inside = (lags >= lo) & (lags <= hi)
    if not inside.any() or inside.all():
        raise ConfigError("signal window must cover part (not all) of the lags")
    signal = np.abs(stacked[:, inside]).max(axis=1)
    noise = np.sqrt(np.mean(stacked[:, ~inside] ** 2, axis=1))
    return signal / np.where(noise > 0, noise, 1.0)
