"""The measured phase: one workload, one fresh interpreter.

``run.py`` generates the inputs, then starts this script with nothing but
the manifest path, so ``peak_rss_mb`` is the program's footprint (not the
generator's) and the program never sees the seed.  It runs one warm-up
pass, then timed passes for the requested seconds — untraced, or untraced
and traced in alternation — verifies every pass against the workload's
oracle and writes one JSON report.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import common

common.bootstrap_src()

import spec  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Fewest timed passes a report may rest on.
MIN_PASSES = 3
#: Share of ``--seconds`` a traced run spends on passes, untraced and traced
#: in alternation (the rest is left for the probes).
TRACED_SHARE = 0.7

#: IOStats counters -> the hdf5lite metrics every reading workload reports.
_IO_METRICS = {
    "hdf5lite.backend_reads": "reads",
    "hdf5lite.backend_bytes": "bytes_read",
    "hdf5lite.opens": "opens",
    "hdf5lite.seeks": "seeks",
}


def peak_rss_mib() -> float:
    """This process's resident high-water mark.

    ``VmHWM`` belongs to the address space, which ``exec`` replaced;
    ``ru_maxrss`` would not do, because Linux carries the parent's peak
    across fork+exec and the parent is the (fatter) generator."""
    inherited = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:  # no procfs: the inherited-peak reading will have to do
        return inherited
    return inherited


def timed_passes(session, cycle: tuple[bool, ...], seconds: float,
                 at_least: int, at_floor=None) -> list:
    """Whole cycles of passes until the next pass would overrun ``seconds``
    (but ``at_least`` passes).  ``cycle`` says which passes are traced:
    ``(False,)`` for an untraced run, ``(False, True)`` to alternate so that
    both kinds see the same machine and the traced one comes last.  A
    traced pass gets a tracer of its own and a root span around it.
    ``at_floor`` is called once, after pass number ``at_least``."""
    passes = []
    started = time.perf_counter()
    while True:
        tracer = Tracer(enabled=cycle[len(passes) % len(cycle)], iostats=session.stats)
        before = session.stats.full_snapshot()
        with tracer.span("pass", "harness") as root:
            result = session.run_pass(tracer)
        result.io = session.stats.delta(before)
        result.trace = (tracer, root)
        passes.append(result)
        if at_floor is not None and len(passes) == at_least:
            at_floor()
        elapsed = time.perf_counter() - started
        if (
            len(passes) >= at_least
            and len(passes) % len(cycle) == 0
            and elapsed + elapsed / len(passes) > seconds
        ):
            return passes


def layer_report(session, untraced: list, traced: list,
                 trace_out: str | None) -> tuple[dict, dict]:
    """Per-layer numbers from the last traced pass; the tracing overhead
    is the median, over adjacent (untraced, traced) pairs of passes, of the
    traced wall's excess over the untraced one."""
    result = traced[-1]
    tracer, root = result.trace
    summary = tracer.summarize(root, lanes=session.lanes)
    layer = {
        "harness.trace_overhead_share": common.median([
            (t.wall_s - u.wall_s) / u.wall_s for u, t in zip(untraced, traced)
        ]),
        "harness.unattributed_share": summary["unattributed_share"],
        "harness.spans": summary["spans"],
    }
    if spec.BY_NAME["hdf5lite.backend_reads"].on(session.m["workload"]):
        for metric, counter in _IO_METRICS.items():
            layer[metric] = result.io[counter]
        layer["hdf5lite.read_amplification"] = (
            result.io["bytes_read"] / session.delivered if session.delivered else 0.0
        )
    layer.update(session.layer_metrics(tracer, result))
    reads = tracer.total("ChunkSource.read") + tracer.total(
        "ChunkSource.read_strided"
    )
    diagnostics = {
        # the proxies must be transparent: same backend traffic as untraced
        "io_identical": all(p.io == untraced[-1].io for p in traced),
        "layers_s": summary["layers_s"],
        "read_share": reads / (root.duration * session.lanes),
        "traced_passes": len(traced),
        "trace_files": tracer.export(trace_out) if trace_out else [],
    }
    return layer, diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: tamper with one retained answer before verifying",
    )
    args = parser.parse_args(argv)

    manifest = common.read_json(args.manifest)
    session = workloads.load(manifest["workload"]).Session(manifest)
    layer = diagnostics = None
    peak_rss_mb = []
    try:
        # warm-up: caches fill, lazy imports finish
        session.run_pass(Tracer(enabled=False))
        if args.trace:
            passes = timed_passes(
                session, (False, True), args.seconds * TRACED_SHARE, at_least=4
            )
        else:
            # the high-water mark is read after the same number of passes
            # in every run: it creeps up with each pass the allocator sees,
            # and how many fit in the budget depends on the machine's speed
            passes = timed_passes(
                session, (False,), args.seconds, at_least=MIN_PASSES,
                at_floor=lambda: peak_rss_mb.append(peak_rss_mib()),
            )
        stored_bytes = session.stored_bytes()
        if args.trace:
            layer, diagnostics = layer_report(
                session,
                [p for p in passes if not p.trace[0].enabled],
                [p for p in passes if p.trace[0].enabled],
                args.trace_out,
            )
        if args.corrupt:
            session.corrupt()
        session.verify(passes)
    finally:
        session.close()

    ops = [op for result in passes for op in result.ops]
    common.write_json(args.out, {
        "workload": manifest["workload"],
        "trace": args.trace,
        "passes": [
            {
                "wall_s": p.wall_s,
                "raw_wall_s": p.raw_wall_s,
                "ops": [[op.kind, op.seconds, op.raw_seconds] for op in p.ops],
            }
            for p in passes
        ],
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "peak_rss_mb": peak_rss_mb[0] if peak_rss_mb else peak_rss_mib(),
        "stored_bytes": stored_bytes,
        "layer": layer,
        "diagnostics": diagnostics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
