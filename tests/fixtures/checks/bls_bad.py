"""Seeded findings for the BLAS-call (BLS) analyzer.

Expected, when loaded as a module of an analysis layer
(``src/repro/{daslib,core,rt,serve}``): BLS001 x7 — the ``@`` operator
twice (binary and augmented), then ``np.dot``, ``np.matmul``,
``np.inner``, ``numpy.vdot`` and ``np.tensordot``.  Outside those layers:
nothing.
"""

import numpy
import numpy as np


def slope(block, t):
    return block @ t / np.dot(t, t)


def accumulate(acc, block, t):
    acc @= np.eye(len(acc))
    return acc + np.matmul(block, t)


def norms(a, b):
    return np.inner(a, a), numpy.vdot(b, b), np.tensordot(a, b, axes=1)
