"""One round of one workload, in the fresh interpreter that run.py starts.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT [--trace SPANS.json] [--setup-only]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by every process on the machine), so
``setup_s`` covers interpreter start, imports and input generation.  The
round prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from calibrate import REFERENCE_KERNEL_S, SpeedSampler, time_kernel
from spans import Tracer, layer_metrics, no_span
from workloads import WORKLOADS

SETUP_KERNEL_REPEATS = 10


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("spawned_at", type=float)
    ap.add_argument("--trace", metavar="SPANS_JSON")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = WORKLOADS[args.workload](args.seed, tracer.span if tracer else no_span)
    raw_setup_s = time.monotonic() - args.spawned_at
    # set-up is scaled by the kernel's speed just after it
    setup_s = raw_setup_s * REFERENCE_KERNEL_S / time_kernel(SETUP_KERNEL_REPEATS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    # A traced round reports raw span times: its samples would land inside spans.
    sampler = None if tracer else SpeedSampler()
    if sampler:
        sampler.start()
    bounds, outputs = [], []
    for op in ops:
        t0 = time.perf_counter()
        if tracer:
            with tracer.span("op") as sp:
                sp[4] = {"label": op.label}
                out = _call(op)
        else:
            out = _call(op)
        bounds.append((t0, time.perf_counter()))
        outputs.append(out)
    if sampler:
        sampler.stop()
        raw = [t1 - t0 - sampler.own_time(t0, t1) for t0, t1 in bounds]
        latencies = [dt * sampler.scale(t0, t1) for dt, (t0, t1) in zip(raw, bounds)]
    else:
        raw = latencies = [t1 - t0 for t0, t1 in bounds]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace)
        layers = layer_metrics(tracer.spans)
    status = []
    for op, out in zip(ops, outputs):
        if isinstance(out, _Raised):
            status.append("error")
            print(f"{op.label}: raised\n{out.text}", file=sys.stderr)
        else:
            status.append(op.check(out))
    print(json.dumps({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        # ops run back to back: a round's wall time is the sum of its ops'
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "latencies_s": latencies,
        "labels": [op.label for op in ops],
        "status": status,
        "peak_rss_mb": rss_mb,
        "layers": layers,
    }))
    return 0


class _Raised:
    def __init__(self, text: str):
        self.text = text


def _call(op):
    # an op that raises is a failed op, never a dropped one
    try:
        return op.call()
    except Exception:
        return _Raised(traceback.format_exc())


if __name__ == "__main__":
    sys.exit(main())
