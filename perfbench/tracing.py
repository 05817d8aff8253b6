"""Spans and counts recorded from outside the program, for the traced run.

``install`` wraps the public layer functions that the CLI verbs reach and
rebinds every reference to them inside the ``latentpde`` modules, so a call
from the CLI or from another layer goes through the wrapper.  A wrapper
records a span (name, start, end, parent, run id) and, through a hook,
counts of the work done.  Spans stay in memory until ``Tracer.dump``.
Work counts marked "computed" are derived from array shapes, not measured.

``layer_metrics`` turns one traced repeat into the per-layer metrics that
``PER_LAYER`` lists.
"""

from collections import Counter, defaultdict
import functools
import hashlib
import json
import sys
import time

VERBS = ("generate", "tokenize", "fit", "sweep", "rollout", "metrics", "observability", "export")


class Tracer:
    """In-memory span and counter store for one workload repeat."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # dicts: id, name, start, end, parent, run
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _array_key(a):
    return hashlib.sha1(memoryview(a).cast("B")).hexdigest()


# hooks: (tracer, args, kwargs, result) -> None; they read shapes only


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _conductivity(t, args, kwargs, result):
    t.distinct["conductivity"].add(_arg(args, kwargs, 0, "params", None))


def _operator(kind):
    def hook(t, args, kwargs, result):
        import numpy as np
        a = np.ascontiguousarray(_arg(args, kwargs, 0, "a", None), dtype=float)
        t.distinct["operator"].add((kind, _array_key(a), _arg(args, kwargs, 1, "grid", None)))
        t.counts["operator_builds"] += 1
    return hook


def _simulate_linear(t, args, kwargs, result):
    op, x0 = _arg(args, kwargs, 0, "op", None), _arg(args, kwargs, 1, "x0", None)
    steps, skip = _arg(args, kwargs, 3, "steps", 1), _arg(args, kwargs, 4, "skip", 1)
    euler = (-(-steps // skip) - 1) * skip
    t.counts["euler_steps"] += euler
    # computed: one CSR matvec reads values, column indices, row pointers and
    # the state, and writes the product
    idx = op.indices.dtype.itemsize
    per_step = op.nnz * (8 + idx) + (op.shape[0] + 1) * idx + 2 * 8 * x0.size
    t.counts["spmv_bytes"] += euler * per_step


def _kse1d(t, args, kwargs, result):
    t.counts["kse_steps"] += _arg(args, kwargs, 3, "steps", 0)


def _histories(t, args, kwargs, result):
    t.counts["history_bytes"] += result[0].nbytes


def _lstsq(t, args, kwargs, result):
    hist, targets = _arg(args, kwargs, 0, "histories", None), _arg(args, kwargs, 1, "targets", None)
    ridge, bias = _arg(args, kwargs, 2, "ridge", 0.0), _arg(args, kwargs, 3, "bias", True)
    s = hist.shape[0]
    n_feat = hist.shape[1] * hist.shape[2]
    cols = n_feat + (1 if bias else 0)
    rows = s + (n_feat if ridge > 0 else 0)
    nrhs = targets.reshape(s, -1).shape[1]
    t.counts["factorizations"] += 1
    t.counts["design_rows"] += rows
    t.counts["design_cols"] += cols
    t.counts["design_rank"] += result.design_rank
    # computed: pivoted QR of the design plus applying Q' to the targets
    t.counts["lstsq_flops"] += 2 * rows * cols**2 - (2 * cols**3) // 3 + 4 * rows * cols * nrhs
    t.counts["design_bytes"] += rows * cols * 8


def _sgd(t, args, kwargs, result):
    hist, targets = _arg(args, kwargs, 0, "histories", None), _arg(args, kwargs, 1, "targets", None)
    config = _arg(args, kwargs, 2, "config", None)
    in_dim = hist.shape[1] * hist.shape[2]
    out_dim = targets.reshape(targets.shape[0], -1).shape[1]
    batch = min(config.batch_size, hist.shape[0])
    t.counts["adam_steps"] += config.steps
    # computed: multiply-adds of one batch product per step
    t.counts["adam_macs"] += config.steps * batch * in_dim * out_dim


def _autoregressive(t, args, kwargs, result):
    t.counts["rollout_frames"] += result.tokens.shape[0] - result.seed_len


def _subvideo(t, args, kwargs, result):
    clip, reference = _arg(args, kwargs, 0, "clip", None), _arg(args, kwargs, 1, "reference", None)
    t.counts["subvideo_windows"] += reference.shape[0] - clip.shape[0] + 1


def _lie(t, args, kwargs, result):
    windows = len(result.times)
    t.counts["lie_windows"] += windows
    # computed: one O(dim^3) factorization per window
    t.counts["lie_flops"] += windows * result.dim**3


def _write_dataset(t, args, kwargs, result):
    frame_arrays = _arg(args, kwargs, 0, "frame_arrays", ())
    t.counts["write_dataset_bytes"] += sum(a.nbytes for a in frame_arrays)


def _load_all(t, args, kwargs, result):
    t.counts["load_all_bytes"] += sum(a.nbytes for a in result[0])


# (module, function, hook); the module name is the layer name
TARGETS = [
    ("random_fields", "sample_matern_field", None),
    ("random_fields", "build_conductivity", _conductivity),
    ("lattice_ops", "build_modified_laplacian", _operator("laplacian")),
    ("lattice_ops", "build_wave_generator", _operator("wave")),
    ("lattice_ops", "build_tokenizer_matrix", None),
    ("solvers", "simulate_linear", _simulate_linear),
    ("solvers", "simulate_kse1d", _kse1d),
    ("tokenizer", "tokenize_trajectory", None),
    ("tokenizer", "build_histories", _histories),
    ("tokenizer", "build_reconstruction_pairs", _histories),
    ("learners", "fit_least_squares", _lstsq),
    ("learners", "fit_superres", None),
    ("learners", "history_sweep", None),
    ("learners", "fit_sgd", _sgd),
    ("rollout_metrics", "full_pipeline_rollout", None),
    ("rollout_metrics", "autoregressive_rollout", _autoregressive),
    ("rollout_metrics", "correlation_ensemble_stats", None),
    ("rollout_metrics", "nearest_subvideo_distance", _subvideo),
    ("observability", "kalman_observability_matrix", None),
    ("observability", "rank_test", None),
    ("observability", "hautus_test", None),
    ("observability", "annihilation_witness", None),
    ("observability", "observability_gramian", None),
    ("observability", "linear_reconstruct_initial_state", None),
    ("observability", "empirical_lie_logdet", _lie),
    ("dataset", "generate_dataset", None),
    ("dataset", "write_dataset", _write_dataset),
    ("dataset", "load_all", _load_all),
]


def install(tracer):
    """Route every call of a TARGETS function through ``tracer``."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "latentpde" or name.startswith("latentpde."))]
    for layer, fname, hook in TARGETS:
        orig = getattr(sys.modules[f"latentpde.{layer}"], fname)
        span_name = f"{layer}.{fname}"

        def wrapper(*args, _orig=orig, _name=span_name, _hook=hook, **kwargs):
            result = tracer.call(_name, _orig, *args, **kwargs)
            tracer.counts[_name + ".calls"] += 1
            if _hook is not None:
                _hook(tracer, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


# name -> unit; every traced run reports all of them (0 where a layer is idle)
PER_LAYER = {
    "random_fields.sample_matern_field.s": "s",
    "random_fields.sample_matern_field.calls": "count",
    "random_fields.build_conductivity.s": "s",
    "random_fields.build_conductivity.calls": "count",
    "random_fields.conductivity_builds_per_distinct": "ratio",
    "lattice_ops.build_modified_laplacian.s": "s",
    "lattice_ops.build_modified_laplacian.calls": "count",
    "lattice_ops.build_wave_generator.s": "s",
    "lattice_ops.build_wave_generator.calls": "count",
    "lattice_ops.build_tokenizer_matrix.s": "s",
    "lattice_ops.build_tokenizer_matrix.calls": "count",
    "lattice_ops.operator_builds_per_distinct": "ratio",
    "solvers.simulate_linear.s": "s",
    "solvers.euler_steps": "count",
    "solvers.euler_steps_per_s": "1/s",
    "solvers.spmv_bytes": "B",
    "solvers.simulate_kse1d.s": "s",
    "solvers.kse_steps_per_s": "1/s",
    "tokenizer.tokenize_trajectory.s": "s",
    "tokenizer.build_histories.s": "s",
    "tokenizer.build_reconstruction_pairs.s": "s",
    "tokenizer.history_bytes": "B",
    "learners.fit_least_squares.s": "s",
    "learners.fit_superres.s": "s",
    "learners.history_sweep.s": "s",
    "learners.factorizations": "count",
    "learners.design_rows": "count",
    "learners.design_cols": "count",
    "learners.design_rank_ratio": "ratio",
    "learners.lstsq_flops": "flop",
    "learners.design_bytes": "B",
    "learners.fit_sgd.s": "s",
    "learners.adam_steps_per_s": "1/s",
    "learners.adam_macs": "count",
    "rollout_metrics.full_pipeline_rollout.s": "s",
    "rollout_metrics.autoregressive_rollout.s": "s",
    "rollout_metrics.rollout_frames_per_s": "1/s",
    "rollout_metrics.correlation_ensemble_stats.s": "s",
    "rollout_metrics.nearest_subvideo_distance.s": "s",
    "rollout_metrics.subvideo_windows": "count",
    "observability.kalman_observability_matrix.s": "s",
    "observability.rank_test.s": "s",
    "observability.hautus_test.s": "s",
    "observability.annihilation_witness.s": "s",
    "observability.observability_gramian.s": "s",
    "observability.observability_gramian.calls": "count",
    "observability.linear_reconstruct_initial_state.s": "s",
    "observability.empirical_lie_logdet.s": "s",
    "observability.lie_windows": "count",
    "observability.lie_windows_per_s": "1/s",
    "observability.lie_flops": "flop",
    "dataset.generate_dataset.s": "s",
    "dataset.write_dataset.s": "s",
    "dataset.write_dataset.bytes": "B",
    "dataset.load_all.s": "s",
    "dataset.load_all.bytes": "B",
    "dataset.load_all.calls": "count",
    **{f"cli.{verb}.{kind}": "s" for verb in VERBS for kind in ("s", "self_s")},
    "cli.import.s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


# work counts derived from array shapes rather than measured
COMPUTED = {"solvers.spmv_bytes", "tokenizer.history_bytes", "learners.lstsq_flops",
            "learners.design_bytes", "learners.adam_macs", "observability.lie_flops",
            "dataset.write_dataset.bytes", "dataset.load_all.bytes"}


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, import_s):
    """Per-layer metrics of one traced repeat, all but ``trace.overhead_s``."""
    spans, c = tracer.spans, tracer.counts
    total, child = Counter(), Counter()
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_time = Counter()
    rollout_s = 0.0
    for s in spans:
        self_time[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        # a full-pipeline rollout contains an autoregressive one: count it once
        if s["name"] == "rollout_metrics.full_pipeline_rollout" or (
                s["name"] == "rollout_metrics.autoregressive_rollout"
                and (s["parent"] is None
                     or spans[s["parent"]]["name"] != "rollout_metrics.full_pipeline_rollout")):
            rollout_s += s["end"] - s["start"]

    out = {}
    for layer, fname, _ in TARGETS:
        name = f"{layer}.{fname}"
        if name + ".s" in PER_LAYER:
            out[name + ".s"] = total[name]
        if name + ".calls" in PER_LAYER:
            out[name + ".calls"] = c[name + ".calls"]
    for verb in VERBS:
        out[f"cli.{verb}.s"] = total[f"cli.{verb}"]
        out[f"cli.{verb}.self_s"] = self_time[f"cli.{verb}"]
    out.update({
        "random_fields.conductivity_builds_per_distinct": _per(
            c["random_fields.build_conductivity.calls"], len(tracer.distinct["conductivity"])),
        "lattice_ops.operator_builds_per_distinct": _per(
            c["operator_builds"], len(tracer.distinct["operator"])),
        "solvers.euler_steps": c["euler_steps"],
        "solvers.euler_steps_per_s": _per(c["euler_steps"], total["solvers.simulate_linear"]),
        "solvers.spmv_bytes": c["spmv_bytes"],
        "solvers.kse_steps_per_s": _per(c["kse_steps"], total["solvers.simulate_kse1d"]),
        "tokenizer.history_bytes": c["history_bytes"],
        "learners.factorizations": c["factorizations"],
        "learners.design_rows": c["design_rows"],
        "learners.design_cols": c["design_cols"],
        "learners.design_rank_ratio": _per(c["design_rank"], c["design_cols"]),
        "learners.lstsq_flops": c["lstsq_flops"],
        "learners.design_bytes": c["design_bytes"],
        "learners.adam_steps_per_s": _per(c["adam_steps"], total["learners.fit_sgd"]),
        "learners.adam_macs": c["adam_macs"],
        "rollout_metrics.rollout_frames_per_s": _per(c["rollout_frames"], rollout_s),
        "rollout_metrics.subvideo_windows": c["subvideo_windows"],
        "observability.lie_windows": c["lie_windows"],
        "observability.lie_windows_per_s": _per(
            c["lie_windows"], total["observability.empirical_lie_logdet"]),
        "observability.lie_flops": c["lie_flops"],
        "dataset.write_dataset.bytes": c["write_dataset_bytes"],
        "dataset.load_all.bytes": c["load_all_bytes"],
        "cli.import.s": import_s,
        "trace.spans": len(spans),
    })
    return out
