"""voxelcodec benchmark: times encode and decode of one workload and checks
every output.

    python3 perfbench/run.py --workload static-voxel --seed 1 --seconds 10 --trace 0

Set-up (inputs, training, warm-up) runs SETUP_REPEATS times and reports the
median. Then whole rounds of one encode and one decode run until --seconds
have passed. With --trace 0 the last stdout line carries the end-to-end
metrics; every set-up and call is timed at the reference host speed
(hostspeed.py). With --trace 1 untraced and traced rounds alternate, timed by
wall clock alone: the traced ones give the per-layer metrics, the pairs give
the tracing overhead, and the spans are written to perfbench/out/. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Pin the BLAS/OpenMP pools before numpy loads, also when run without the
# command in BENCHMARK.json, which sets them too.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC_DIR))

import voxelcodec  # noqa: E402

if Path(voxelcodec.__file__).resolve().parent != SRC_DIR / "voxelcodec":
    raise SystemExit(f"voxelcodec imported from {voxelcodec.__file__}, not from {SRC_DIR}")

from checks import Reference  # noqa: E402
from hostspeed import timed  # noqa: E402
from spans import Tracer, install  # noqa: E402
from workloads import SIZES, WORKLOADS, Training  # noqa: E402

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "encode_pts_per_s": "points/s", "decode_pts_per_s": "points/s", "bpp": "bits/point",
    "d1_psnr_db": "dB", "peak_rss_mb": "MB", "setup_s": "s",
}

PER_LAYER_UNITS = {
    "pointcloud.normalize_s": "s",
    "octree.build_s": "s", "octree.expand_s": "s",
    "voxelgrid.grid_s": "s", "voxelgrid.crop_s": "s", "voxelgrid.temporal_crop_s": "s",
    "voxelgrid.crop_mb": "MB",
    "entropy.context_s": "s", "entropy.model_s": "s", "entropy.nodes": "count",
    "entropy.nodes_per_s": "nodes/s", "entropy.peak_bytes_per_node": "bytes/node",
    "nn.tower_s": "s", "nn.head_s": "s", "nn.forward_gflop": "GFLOP",
    "nn.gflop_per_s": "GFLOP/s", "nn.train_samples_per_s": "samples/s",
    "coder.quantize_s": "s", "coder.deficit_rows": "count", "coder.loop_s": "s",
    "coder.symbols": "count", "coder.gap_pct": "%", "coder.model_hash_s": "s",
    "dynamic.align_s": "s", "dynamic.schedule_s": "s",
    "refine.apply_s": "s", "refine.leaves": "count", "refine.leaves_per_s": "leaves/s",
    "trace.overhead_pct": "%",
}


class Bench:
    """Runs checked rounds of (encode, decode) on one case."""

    def __init__(self, case, adjust):
        self.case = case
        self.adjust = adjust      # time at reference host speed, else by wall clock
        self.ref = Reference(case)
        self.times = {"encode": [], "decode": []}
        self.timings = {"encode": [], "decode": []}   # hostspeed.Timing, when adjusted
        self.round_s = []          # operation seconds of each round
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def op(self, kind, fn, check, tracer):
        """One timed, checked operation; returns its output or None if it raised."""
        self.attempted += 1
        call = tracer.wrap("op." + kind, fn) if tracer else fn
        paused0 = tracer.paused_s if tracer else 0.0
        t0 = time.perf_counter()
        try:
            if self.adjust:
                out, timing = timed(call)
            else:
                out = call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if self.adjust:
            self.timings[kind].append(timing)
            dt = timing.adjusted_s
        else:
            dt = time.perf_counter() - t0 - ((tracer.paused_s - paused0) if tracer else 0.0)
        self.times[kind].append(dt)
        self.round_s[-1] += dt
        if not check(out):
            print(f"check failed: {kind} on round {len(self.round_s)}", file=sys.stderr)
            self.failed += 1
            self.wrong += 1
        return out

    def round(self, tracer=None):
        """Encode then decode; each output must repeat the run's first one."""
        self.round_s.append(0.0)
        data = self.op("encode", self.case.encode, self.ref.check_encode, tracer)
        if data is None:
            data = self.ref.bitstream

        def decode():
            if data is None:
                raise RuntimeError("no bitstream to decode: every encode so far failed")
            return self.case.decode(data)

        self.op("decode", decode, self.ref.check_decode, tracer)

    def run(self, seconds):
        """Whole rounds until `seconds` have passed."""
        start = time.perf_counter()
        while True:
            self.round()
            if time.perf_counter() - start >= seconds:
                return

    def run_paired(self, seconds, tracer):
        """Pairs of one untraced and one traced round until `seconds` have passed.

        Returns the number of traced rounds; round_s alternates untraced, traced.
        """
        start, rounds = time.perf_counter(), 0
        while True:
            self.round()
            uninstall = install(tracer)
            try:
                self.round(tracer)
            finally:
                uninstall()
            rounds += 1
            if time.perf_counter() - start >= seconds:
                return rounds


def end_to_end(bench, setup_times):
    if not bench.times["encode"] or not bench.times["decode"] or bench.ref.d1 is None:
        raise RuntimeError("no encode or decode completed; nothing to report")
    pts = bench.case.points
    return {
        "encode_pts_per_s": pts / statistics.median(bench.times["encode"]),
        "decode_pts_per_s": pts / statistics.median(bench.times["decode"]),
        "bpp": 8.0 * len(bench.ref.bitstream) / pts,
        "d1_psnr_db": bench.ref.d1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def per_layer(tracer, rounds, bench, training):
    """Per-layer metrics; times and counts are per round (one encode, one decode)."""
    t, c = tracer, tracer.counts
    per = 1.0 / rounds
    model_s = t.total("entropy.model", parent_not="entropy.model")
    nn_s = t.total("nn.tower") + t.total("nn.head")
    untraced_round_s = statistics.median(bench.round_s[0::2])
    traced_round_s = statistics.median(bench.round_s[1::2])
    return {
        "pointcloud.normalize_s": t.total("pointcloud.normalize") * per,
        "octree.build_s": t.total("octree.build") * per,
        "octree.expand_s": t.total("octree.expand") * per,
        "voxelgrid.grid_s": t.total("voxelgrid.grid") * per,
        "voxelgrid.crop_s":
            t.total("voxelgrid.gather", parent_not="voxelgrid.temporal_crop") * per,
        "voxelgrid.temporal_crop_s": t.total("voxelgrid.temporal_crop") * per,
        "voxelgrid.crop_mb": c["crop_bytes"] / 1e6 * per,
        "entropy.context_s": t.self_time("entropy.context") * per,
        "entropy.model_s": t.self_time("entropy.model") * per,
        "entropy.nodes": c["model_nodes"] * per,
        "entropy.nodes_per_s": _ratio(c["model_nodes"], model_s),
        "entropy.peak_bytes_per_node": c["peak_bytes_per_node"],
        "nn.tower_s": t.total("nn.tower") * per,
        "nn.head_s": t.total("nn.head") * per,
        "nn.forward_gflop": c["flop"] / 1e9 * per,
        "nn.gflop_per_s": _ratio(c["flop"] / 1e9, nn_s),
        "nn.train_samples_per_s": _ratio(training.samples, training.seconds),
        "coder.quantize_s": t.total("coder.quantize") * per,
        "coder.deficit_rows": c["deficit_rows"] * per,
        "coder.loop_s": t.self_time("coder.level") * per,
        "coder.symbols": c["symbols"] * per,
        "coder.gap_pct": bench.ref.gap_pct(),
        "coder.model_hash_s": t.total("coder.model_hash") * per,
        "dynamic.align_s": t.self_time("dynamic.align") * per,
        "dynamic.schedule_s": t.self_time("dynamic.schedule") * per,
        "refine.apply_s": t.total("refine.apply") * per,
        "refine.leaves": c["leaves"] * per,
        "refine.leaves_per_s": _ratio(c["leaves"], t.total("refine.apply")),
        "trace.overhead_pct": 100.0 * (traced_round_s / untraced_round_s - 1.0),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input sizes; 'smoke' is for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    size = SIZES[args.size][args.workload]
    setup = WORKLOADS[args.workload]
    adjust = not args.trace
    setup_timings = []
    for _ in range(SETUP_REPEATS):
        training = Training()
        if adjust:
            case, timing = timed(lambda: setup(args.seed, size, training))
            setup_timings.append(timing)
        else:
            case = setup(args.seed, size, training)
    setup_times = [t.adjusted_s for t in setup_timings]
    bench = Bench(case, adjust)
    if args.trace:
        tracer = Tracer()
        rounds = bench.run_paired(args.seconds, tracer)
        values = per_layer(tracer, rounds, bench, training)
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "traced_rounds": rounds, "untraced_round_s": bench.round_s[0::2],
            "traced_round_s": bench.round_s[1::2], "paused_s": tracer.paused_s,
            "counts": tracer.counts, "spans": tracer.records(), "metrics": values,
        }, indent=1))
    else:
        bench.run(args.seconds)
        values = end_to_end(bench, setup_times)
        units = END_TO_END_UNITS
    result = {
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    for kind, times in bench.times.items():
        print(f"{kind} seconds: {' '.join(f'{t:.3f}' for t in times)}", file=sys.stderr)
    for kind, timings in [("setup", setup_timings), *bench.timings.items()]:
        if timings:
            print(f"{kind} wall seconds: {' '.join(f'{t.wall_s:.3f}' for t in timings)}; "
                  f"slowdowns: {' '.join(f'{t.slowdown:.3f}' for t in timings)}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
