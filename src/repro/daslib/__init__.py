"""DasLib — sequential, thread-safe DAS signal-processing library.

Reimplements the operations of the paper's Table II with MATLAB signal
toolbox semantics, from scratch on numpy:

=====================================  =========================================
Paper name                             Here
=====================================  =========================================
``Das_abscorr(c1, c2)``                :func:`abscorr`
``Das_detrend(X)``                     :func:`detrend`
``Das_butter(n, fc)``                  :func:`butter`
``Das_filtfilt(c1, c2, X)``            :func:`filtfilt`
``Das_resample(X, 1, R)``              :func:`resample`
``Das_interp1(X0, Y0, X)``             :func:`interp1`
``Das_fft(X)`` / ``Das_ifft(X)``       :func:`fft` / :func:`ifft`
=====================================  =========================================

plus the supporting kit the two case-study pipelines and the NCF stack
need (windows, tapering, spectral whitening, cross-correlation,
decimation, moving statistics, the analytic signal).  All functions are pure (no hidden state) and thread-safe,
which is what lets the hybrid engine run them concurrently from OpenMP-
style threads (paper §V-A).

The inner IIR recursion has a pure-numpy implementation; when scipy is
importable it is used as a faster compiled kernel (``engine="auto"``).
Tests cross-validate the numpy path against scipy.
"""

from repro.daslib.api import (
    Das_abscorr,
    Das_butter,
    Das_detrend,
    Das_fft,
    Das_filtfilt,
    Das_ifft,
    Das_interp1,
    Das_resample,
)
from repro.daslib.analytic import envelope, hilbert
from repro.daslib.butterworth import butter
from repro.daslib.correlate import abscorr, xcorr
from repro.daslib.detrend import demean, detrend
from repro.daslib.fft import fft, ifft, irfft, next_fast_len, rfft
from repro.daslib.filtfilt import filtfilt, settle_length
from repro.daslib.interp import interp1
from repro.daslib.lfilter import lfilter, lfilter_zi
from repro.daslib.moving import moving_average, sliding_windows
from repro.daslib.resample import (
    decimate,
    decimate_chunk,
    decimation_bank,
    design_resample_filter,
    resample,
    resample_halo,
    upfirdn,
)
from repro.daslib.whiten import whiten
from repro.daslib.window import get_window, taper, tukey_slice

__all__ = [
    # Table II MATLAB-style names
    "Das_abscorr",
    "Das_detrend",
    "Das_butter",
    "Das_filtfilt",
    "Das_resample",
    "Das_interp1",
    "Das_fft",
    "Das_ifft",
    # pythonic API
    "abscorr",
    "xcorr",
    "detrend",
    "demean",
    "butter",
    "filtfilt",
    "settle_length",
    "lfilter",
    "lfilter_zi",
    "resample",
    "decimate",
    "decimate_chunk",
    "decimation_bank",
    "design_resample_filter",
    "resample_halo",
    "upfirdn",
    "interp1",
    "fft",
    "ifft",
    "rfft",
    "irfft",
    "next_fast_len",
    "get_window",
    "taper",
    "tukey_slice",
    "whiten",
    "moving_average",
    "sliding_windows",
    "hilbert",
    "envelope",
]
