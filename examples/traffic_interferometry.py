#!/usr/bin/env python
"""Traffic-noise interferometry (paper Algorithm 3, after Dou et al. 2017).

Builds a noise field containing a common wave travelling along the fiber,
runs the interferometry pipeline (detrend → bandpass → resample → FFT →
cross-correlate with a master channel), and shows that the noise
correlation functions recover the inter-channel travel time — the
empirical Green's function used for shallow-subsurface imaging.

Run:  python examples/traffic_interferometry.py
"""

import numpy as np

from repro import DASSA
from repro.core.interferometry import (
    InterferometryConfig,
    noise_correlation_functions,
)

FS = 100.0
CHANNELS = 24
SECONDS = 120.0
CHANNEL_SPACING = 2.0  # metres
VELOCITY = 40.0  # m/s surface-wave speed between channels


def build_noise_field(rng: np.random.Generator) -> np.ndarray:
    """Ambient noise plus a common wavefield propagating along the fiber
    at VELOCITY (each channel sees it delayed by distance/velocity)."""
    n = int(SECONDS * FS)
    common = rng.normal(size=n)
    data = np.empty((CHANNELS, n))
    for channel in range(CHANNELS):
        delay = int(round(channel * CHANNEL_SPACING / VELOCITY * FS))
        data[channel] = np.roll(common, delay) + 0.5 * rng.normal(size=n)
    return data


def main() -> None:
    rng = np.random.default_rng(7)
    print(f"building {CHANNELS}-channel noise field ({SECONDS:.0f} s at {FS:.0f} Hz)")
    data = build_noise_field(rng)

    config = InterferometryConfig(
        fs=FS, band=(1.0, 12.0), resample_q=2, master_channel=0, whiten_spectra=True
    )

    # Stream Algorithm 3 through the chunked executor: 30-second blocks
    # flow through detrend → taper → filtfilt → resample into the FFT
    # accumulation sink, so only the decimated record is ever resident.
    dassa = DASSA(threads=4, chunk_samples=int(30 * FS))
    corr = dassa.interferometry(data, config)
    profile = dassa.last_profile
    print(
        f"\nstreamed in {profile.n_chunks} chunks; peak resident "
        f"{profile.peak_resident_bytes / 1e6:.2f} MB vs "
        f"{data.nbytes / 1e6:.2f} MB whole array; stage seconds: "
        + ", ".join(f"{k}={v:.3f}" for k, v in profile.phases.items())
    )
    print("\nAlgorithm 3 output - |corr(channel, master)| per channel:")
    for channel in range(0, CHANNELS, 4):
        bar = "#" * int(corr[channel] * 40)
        print(f"  ch {channel:3d}: {corr[channel]:.3f} {bar}")

    print("\nnoise correlation functions (virtual shot gather):")
    lags, ncfs = noise_correlation_functions(data, config, max_lag_seconds=3.0)
    print(f"{'channel':<8} {'distance (m)':<14} {'peak lag (s)':<14} {'expected (s)'}")
    errors = []
    for channel in range(1, CHANNELS, 3):
        peak_lag = lags[np.argmax(np.abs(ncfs[channel]))]
        expected = channel * CHANNEL_SPACING / VELOCITY
        errors.append(abs(peak_lag - expected))
        print(f"{channel:<8} {channel * CHANNEL_SPACING:<14.0f} "
              f"{peak_lag:<14.2f} {expected:.2f}")
    print(f"\nmean |peak - expected| = {np.mean(errors):.3f} s "
          f"(moveout recovered: the EGF carries the travel time)")


if __name__ == "__main__":
    main()
