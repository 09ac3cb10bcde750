"""repro.serve — multi-tenant read-serving over DAS archives.

The consumer-facing vertical on top of the whole stack: many viewers
(and downstream monitors) continuously pulling time×channel windows,
zoomed-out previews, and event feeds off one VCA archive — the
"watch seismic like a movie" story.

* :mod:`repro.serve.server` — :class:`DataServer` /
  :class:`ServeSession`: a window is one view read, a preview a pyramid
  slice (or the planner's ``DecimateOp`` over the raw window), all on
  pooled, block-cached, degraded-read-safe strided backend reads.
* :mod:`repro.serve.pyramid` — precomputed decimation pyramids (built
  with the core ``DecimateOp``, stored as codec+CRC hdf5lite datasets in
  the VCA archive, which the build writes again and publishes whole)
  and per-request level selection, so a zoomed-out preview costs
  O(output pixels) rather than O(raw samples).
* :mod:`repro.serve.admission` — per-tenant token-bucket quotas on
  requests and backend bytes, a bounded waiting room with typed
  rejection, and per-tenant latency reservoirs.

Quickstart::

    from repro.serve import DataServer, build_pyramid

    build_pyramid("archive.h5")           # once: re-publishes the VCA
    with DataServer("archive.h5") as server:
        session = server.session("alice")
        pv = session.preview(0, server.n_samples, width=1200)
        win = session.read_window(10_000, 20_000, channels=(32, 64))

Layering: serve sits above core/storage/rt/hdf5lite and nothing imports
it back (``tests/test_misc_api.py::test_imports_follow_the_layer_dag``).
"""

from repro.serve.admission import (
    Admission,
    AdmissionController,
    TenantMetrics,
    TenantQuota,
    TokenBucket,
)
from repro.serve.pyramid import (
    PyramidConfig,
    build_pyramid,
    compute_level,
    level_slice,
    select_level,
)
from repro.serve.server import (
    DataServer,
    Preview,
    ServeConfig,
    ServeSession,
    WindowResult,
)

__all__ = [
    "Admission",
    "AdmissionController",
    "TenantMetrics",
    "TenantQuota",
    "TokenBucket",
    "PyramidConfig",
    "build_pyramid",
    "compute_level",
    "level_slice",
    "select_level",
    "DataServer",
    "Preview",
    "ServeConfig",
    "ServeSession",
    "WindowResult",
]
