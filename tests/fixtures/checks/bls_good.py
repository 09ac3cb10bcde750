"""No findings for the BLAS-call (BLS) analyzer: reductions written as
``einsum``, a reasoned inline suppression, and look-alikes that are not
numpy's BLAS-backed products."""

import numpy as np


def slope(block, t):
    return np.einsum("ct,t->c", block, t) / np.einsum("t,t->", t, t)


def gemm(frames, taps, out):
    # strip-mined by the caller: every call stays single-threaded
    np.matmul(frames, taps, out=out)  # noqa: BLS001 - below the threading threshold


class Series:
    def dot(self, other):
        return sum(a * b for a, b in zip(self.values, other.values))


def lookalikes(series, other, decorator):
    @decorator
    def inner(x):
        return x

    return series.dot(other), inner
