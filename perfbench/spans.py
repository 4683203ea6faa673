"""In-memory span tracer installed around the codec's module entry points.

The benchmark wraps library functions at run time (nothing under src/ knows
about tracing). A span records its duration and its self time (duration minus
the child spans it encloses); spans are aggregated in memory by
(root, parent, name), where the root is the timed operation that caused them,
and written out once when the run ends. Work done only to count something
(the quantizer replica, tracemalloc start/stop) runs inside `paused()` and is
subtracted from every open span.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from voxelcodec import coder, dynamic, entropy, nn, octree, refine, voxelgrid

# Every how many sequential node_probability calls one is measured with tracemalloc.
_MEMORY_SAMPLE_EVERY = 1024
_DEFICIT_FLUSH_ROWS = 4096


class Tracer:
    def __init__(self):
        self._stack = []          # (name, [start, child_s, paused_s])
        self.spans = {}           # (root, parent, name) -> [count, total_s, self_s]
        self.counts = {"crop_bytes": 0, "model_nodes": 0, "flop": 0, "deficit_rows": 0,
                       "symbols": 0, "leaves": 0, "peak_bytes_per_node": 0.0}
        self.paused_s = 0.0
        self.largest_call = (0, 0)    # (nodes, peak bytes) of the largest measured model call

    def wrap(self, name, fn):
        """Return fn recorded as span `name`."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, 0.0]
            stack.append((name, frame))
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0] - frame[2]
                parent = stack[-1][0] if stack else ""
                root = stack[0][0] if stack else name
                rec = spans.get((root, parent, name))
                if rec is None:
                    rec = spans[(root, parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1][1] += dur

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.paused_s += dt
            for _, frame in self._stack:
                frame[2] += dt

    def total(self, name, parent_not=None):
        return sum(rec[1] for (_, parent, n), rec in self.spans.items()
                   if n == name and parent != parent_not)

    def self_time(self, name):
        return sum(rec[2] for (_, _, n), rec in self.spans.items() if n == name)

    def records(self):
        return [{"root": r, "parent": p, "name": n, "count": c, "total_s": t, "self_s": s}
                for (r, p, n), (c, t, s) in sorted(self.spans.items())]


# ---------------------------------------------------------------------------
# counters computed beside the spans


def _pre_repair_zero_rows(p: np.ndarray) -> int:
    """Rows whose largest-remainder apportionment leaves a zero before the floor-1 repair."""
    p = p / p.sum(axis=1, keepdims=True)
    scaled = p * float(coder.TOTAL_FREQ)
    base = np.floor(scaled).astype(np.int64)
    leftover = coder.TOTAL_FREQ - base.sum(axis=1)
    order = np.argsort(-(scaled - base), axis=1, kind="stable")
    bump = np.zeros_like(base)
    np.put_along_axis(bump, order, (np.arange(p.shape[1])[None, :] < leftover[:, None])
                      .astype(np.int64), axis=1)
    return int(((base + bump) == 0).any(axis=1).sum())


def _forward_flop(params, x) -> int:
    """Multiply-adds x2 of one forward pass, from the layer shapes and batch size."""
    shape = np.shape(x)
    first_conv = bool(params.layers) and isinstance(params.layers[0], nn.Conv3D)
    sample = shape[1:] if len(shape) == (5 if first_conv else 2) else shape
    batch = shape[0] if len(sample) < len(shape) else 1
    flop = 0
    for layer in params.layers:
        if isinstance(layer, nn.Conv3D):
            c, d, h, w = sample
            sample = (layer.out_channels, d - 2, h - 2, w - 2)
            flop += 2 * (d - 2) * (h - 2) * (w - 2) * layer.out_channels * c * 27
        elif isinstance(layer, nn.FullyConnected):
            flop += 2 * int(np.prod(sample)) * layer.out_dim
            sample = (layer.out_dim,)
    return flop * batch


class _Instruments:
    """Patch table: wraps each module entry point and can undo the patches."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self._undo = []
        self._deficit_buffer = []
        self._deficit_buffered = 0
        self._node_calls = 0

    def patch(self, owner, attr, wrapped):
        had_own = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, had_own, original))

    def span(self, owner, attr, name, after=None):
        """Record calls of owner.attr as span `name`; after(out, *args) counts work."""
        traced = self.t.wrap(name, getattr(owner, attr))
        if after is not None:
            def counted(*args, **kwargs):
                out = traced(*args, **kwargs)
                after(out, *args, **kwargs)
                return out
            self.patch(owner, attr, counted)
        else:
            self.patch(owner, attr, traced)

    def undo(self):
        self.flush_deficits()
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- counters ----------------------------------------------------------

    def add(self, key, value):
        self.t.counts[key] += value

    def crop_bytes(self, out, *args, **kwargs):
        self.add("crop_bytes", out.nbytes)

    def deficit_rows(self, p):
        self._deficit_buffer.append(np.asarray(p, dtype=np.float64))
        self._deficit_buffered += len(p)
        if self._deficit_buffered >= _DEFICIT_FLUSH_ROWS:
            self.flush_deficits()

    def flush_deficits(self):
        if self._deficit_buffer:
            with self.t.paused():
                rows = np.concatenate(self._deficit_buffer)
                self._deficit_buffer.clear()
                self._deficit_buffered = 0
                self.add("deficit_rows", _pre_repair_zero_rows(rows))

    def peak_per_node(self, fn, nodes_of, sample):
        """Wrap a model call so a sample of its calls is measured with tracemalloc.

        The reported figure is peak bytes over nodes of the call with the most
        nodes: small levels are dominated by the fixed cost of the weights.
        """
        def measured(*args, **kwargs):
            if not sample() or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            with self.t.paused():
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                with self.t.paused():
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            nodes = nodes_of(out, *args)
            if nodes and (nodes, peak) > self.t.largest_call:
                self.t.largest_call = (nodes, peak)
                self.t.counts["peak_bytes_per_node"] = peak / nodes
            return out
        return measured

    def sample_node_call(self):
        self._node_calls += 1
        return self._node_calls % _MEMORY_SAMPLE_EVERY == 1


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a function that removes the wrappers."""
    ins = _Instruments(tracer)
    count = ins.add

    # pointcloud: normalization as called by the codec modules
    ins.span(coder, "normalize", "pointcloud.normalize")
    ins.span(dynamic, "normalize", "pointcloud.normalize")

    # octree
    ins.span(octree, "build", "octree.build")
    ins.span(octree, "_expand_children", "octree.expand")

    # voxelgrid: grid construction and crop gathers (bytes gathered counted)
    ins.span(voxelgrid.VoxelGrid, "__init__", "voxelgrid.grid")
    ins.span(entropy.LevelContext, "temporal_crops", "voxelgrid.temporal_crop")
    for owner, attr in ((entropy, "local_crops"), (entropy, "child_region_crops"),
                        (refine, "local_crops")):
        ins.span(owner, attr, "voxelgrid.gather", after=ins.crop_bytes)

    # entropy: level context, context features, and the model calls
    ins.span(entropy, "make_level_context", "entropy.context")
    for attr in ("node_features", "child_indices", "parent_symbols", "neighbor_bits"):
        ins.span(entropy.LevelContext, attr, "entropy.context")
    ins.span(entropy.AdaptiveContextModel, "context_ids", "entropy.context")

    def level_nodes(out, model, ctx, **kwargs):
        return len(ctx) if out is not None else 0

    def count_level(out, model, ctx, **kwargs):
        count("model_nodes", level_nodes(out, model, ctx))

    def count_node(out, *args, **kwargs):
        count("model_nodes", 1)

    for cls in (entropy.UniformModel, entropy.AdaptiveContextModel,
                entropy.VoxelContextModel, entropy.DynamicContextModel):
        ins.span(cls, "level_probabilities", "entropy.model", after=count_level)
        lp = vars(cls)["level_probabilities"]
        ins.patch(cls, "level_probabilities", ins.peak_per_node(lp, level_nodes, lambda: True))
        ins.span(cls, "node_probability", "entropy.model", after=count_node)
        npf = vars(cls)["node_probability"]
        ins.patch(cls, "node_probability",
                  ins.peak_per_node(npf, lambda out, *a: 1, ins.sample_node_call))
        ins.span(cls, "observe", "entropy.model")

    # nn: towers (first layer a convolution) and heads, with FLOPs from shapes
    forward = nn.forward
    tower = tracer.wrap("nn.tower", forward)
    head = tracer.wrap("nn.head", forward)

    def traced_forward(params, x, want_cache=True):
        count("flop", _forward_flop(params, x))
        if params.layers and isinstance(params.layers[0], nn.Conv3D):
            return tower(params, x, want_cache)
        return head(params, x, want_cache)

    ins.patch(nn, "forward", traced_forward)

    # coder: table quantization, deficit rows, level coding loop, model hash
    ins.span(coder, "quantize_level", "coder.quantize")
    ins.span(coder, "quantize_distribution", "coder.quantize")
    quantize_rows = coder._quantize_rows

    def counted_rows(p):
        ins.deficit_rows(p)
        return quantize_rows(p)

    ins.patch(coder, "_quantize_rows", counted_rows)

    def count_symbols(out, ctx, *args, **kwargs):
        count("symbols", len(ctx))

    ins.span(coder, "_code_level", "coder.level", after=count_symbols)
    ins.span(dynamic, "_code_level", "coder.level", after=count_symbols)
    ins.span(entropy.EntropyModel, "content_hash", "coder.model_hash")

    # dynamic: alignment and the sequence schedule (the top-level sequence calls)
    ins.span(dynamic, "align_sequence", "dynamic.align")
    ins.span(dynamic, "encode_sequence", "dynamic.schedule")
    ins.span(dynamic, "decode_sequence", "dynamic.schedule")

    # refine
    def count_leaves(out, tree, *args, **kwargs):
        count("leaves", len(tree.levels[tree.max_depth]))

    ins.span(refine, "refine_apply", "refine.apply", after=count_leaves)
    return ins.undo
