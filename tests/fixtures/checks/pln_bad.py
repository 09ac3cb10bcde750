"""Seeded findings for the planner-geometry (PLN) codes of the
operator-contract analyzer.

Expected: PLN001 x1 (PartialTrioOp), PLN002 x2 (TotalOnlyOp,
TrioWithoutTotalOp), PLN003 x1 (DecimatedCustomGridOp), PLN004 x1
(DoubleHaloOp).
"""


class Operator:  # stand-in root; the analyzer resolves by name
    pass


class PartialTrioOp(Operator):
    """PLN001: out_core without out_full/in_needed — a half-declared
    grid the planner cannot compose."""

    name = "partial-trio"

    def out_total(self, total_in):
        return total_in // 2

    def out_core(self, lo, hi):
        return lo // 2, hi // 2

    def apply(self, data, ctx):
        return data[..., ::2]


class TotalOnlyOp(Operator):
    """PLN002: a custom output length paired with the default affine
    ownership mapping."""

    name = "total-only"

    def out_total(self, total_in):
        return max(0, total_in - 10)

    def apply(self, data, ctx):
        return data[..., :-10]


class TrioWithoutTotalOp(Operator):
    """PLN002 (converse): a custom grid trio but the default length."""

    name = "trio-no-total"

    def out_core(self, lo, hi):
        return lo // 3, hi // 3

    def out_full(self, a, b):
        return a // 3, b // 3

    def in_needed(self, lo, hi):
        return lo * 3, hi * 3

    def apply(self, data, ctx):
        return data[..., ::3]


class DecimatedCustomGridOp(Operator):
    """PLN003: literal decimate != 1 *and* a custom grid — the affine
    default (still read by ``out_fs``) and the override disagree about
    the lattice."""

    name = "decimated-custom"
    decimate = 5

    def out_total(self, total_in):
        return total_in // 5

    def out_core(self, lo, hi):
        return lo // 5, hi // 5

    def out_full(self, a, b):
        return a // 5, b // 5

    def in_needed(self, lo, hi):
        return lo * 5, hi * 5

    def apply(self, data, ctx):
        return data[..., ::5]


class DoubleHaloOp(Operator):
    """PLN004: literal non-zero halo alongside an in_needed override —
    two declarations of the lookback, only one of which is read."""

    name = "double-halo"

    def __init__(self):
        self.halo = (32, 0)

    def out_total(self, total_in):
        return total_in

    def out_core(self, lo, hi):
        return lo, hi

    def out_full(self, a, b):
        return a, b

    def in_needed(self, lo, hi):
        return lo - 32, hi

    def apply(self, data, ctx):
        return data
