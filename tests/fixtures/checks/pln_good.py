"""Clean fixtures for the planner-geometry (PLN) codes of the
operator-contract analyzer."""


class Operator:  # stand-in root; the analyzer resolves by name
    pass


class PlainOp(Operator):
    """Default algebra throughout: nothing for the planner to distrust."""

    name = "plain"

    def apply(self, data, ctx):
        return data


class AffineOp(Operator):
    """Literal geometry with the default interval methods — the common
    case; the defaults derive the grid from these declarations."""

    name = "affine"
    halo = (16, 16)
    decimate = 4

    def apply(self, data, ctx):
        return data[..., :: self.decimate]


class CustomGridOp(Operator):
    """A strided window grid: overrides the whole trio plus out_total,
    keeps decimate = 1 and halo folded into in_needed."""

    name = "custom-grid"

    def __init__(self, stride):
        self.stride = stride

    def out_total(self, total_in):
        return max(0, total_in // self.stride)

    def out_core(self, lo, hi):
        return lo // self.stride, hi // self.stride

    def out_full(self, a, b):
        return self.out_core(a, b)

    def in_needed(self, lo, hi):
        return lo * self.stride, hi * self.stride

    def apply(self, data, ctx):
        return data[..., :: self.stride]


class ComputedHaloOp(Operator):
    """A non-literal halo (computed from parameters) is planner data, not
    a redundancy — even alongside an in_needed override."""

    name = "computed-halo"

    def __init__(self, width):
        self.width = int(width)
        self.halo = (self.width, self.width)

    def out_total(self, total_in):
        return total_in

    def out_core(self, lo, hi):
        return lo, hi

    def out_full(self, a, b):
        return a, b

    def in_needed(self, lo, hi):
        return lo - self.width, hi + self.width

    def apply(self, data, ctx):
        return data


class DerivedGridOp(CustomGridOp):
    """Inherits a complete custom grid — nothing to re-flag."""

    name = "derived-grid"
