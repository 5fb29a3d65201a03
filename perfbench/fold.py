"""Folds the harness's raw results into the benchmark's metrics.

The harness (harness.cpp) writes one JSON document per run: per-step
measurements of every trajectory, the benchmark's own spans around its calls
into each module, and, for a traced run, the program's own wall-clock spans
and counters. Everything here is a pure function of that document, so
test_perfbench.py can feed it synthetic input.
"""
import bisect
import math
import statistics

# name -> (unit, better). The end-to-end metrics come from untraced runs.
END_TO_END = {
    "steps_per_s": ("1/s", "higher"),
    "samples_per_s": ("samples/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "warmup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "final_accuracy": ("fraction", "higher"),
    "virtual_s_to_target": ("virtual_s", "lower"),
    "virtual_s_per_step": ("virtual_s", "lower"),
    "client_delivered_share": ("fraction", "higher"),
}

# Model-layer groups of the probe: LeNet-5's two convs, the LSTM, every
# Linear layer summed, and every parameterless layer summed.
LAYER_GROUPS = ("conv1", "conv2", "rnn", "fc", "other")

PER_LAYER = {}
for _group in LAYER_GROUPS:
    PER_LAYER[f"nn.{_group}.forward_us"] = ("us", "lower")
    PER_LAYER[f"nn.{_group}.backward_us"] = ("us", "lower")
PER_LAYER.update({
    "nn.compute_gradients_us": ("us", "lower"),
    "nn.sgd_step_us": ("us", "lower"),
    "data.next_batch_us": ("us", "lower"),
    "tensor.conv_backward_gemm_us": ("us", "lower"),
    "tensor.conv_backward_im2col_us": ("us", "lower"),
    "nn.conv2d.forward_inround_us": ("us", "lower"),
    "nn.conv2d.backward_inround_us": ("us", "lower"),
    "nn.lstm.forward_inround_us": ("us", "lower"),
    "nn.lstm.backward_inround_us": ("us", "lower"),
    "fl.sgd_step_inround_us": ("us", "lower"),
    "core.record_iteration_us": ("us", "lower"),
    "core.finish_round_us": ("us", "lower"),
    "core.early_stop_share": ("fraction", "higher"),
    "core.eager_layers_per_client_round": ("count", "higher"),
    "core.retransmit_share": ("fraction", "lower"),
    "fl.aggregate_us": ("us", "lower"),
    "fl.async_apply_us": ("us", "lower"),
    "fl.evaluate_ms": ("ms", "lower"),
    "fl.train_busy_share": ("fraction", "higher"),
    "fl.iterations_per_step": ("count", "lower"),
    "fl.client_rounds_per_step": ("count", "higher"),
    "fl.bytes_sent_per_step": ("bytes", "lower"),
    "fl.eager_bytes_share": ("fraction", "higher"),
    "fl.async_cycles_per_batch": ("count", "higher"),
    "fl.async_staleness_p50": ("count", "lower"),
    "sim.lease_us": ("us", "lower"),
    "sim.online_at_ns": ("ns", "lower"),
    "sim.offline_share": ("fraction", "lower"),
    "sim.live_loader_bytes": ("bytes", "lower"),
    "setup.model_ms": ("ms", "lower"),
    "setup.data_ms": ("ms", "lower"),
    "setup.partition_ms": ("ms", "lower"),
    "setup.cluster_ms": ("ms", "lower"),
    "setup.engine_ms": ("ms", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
    "obs.recorder_dropped": ("count", "lower"),
})

# The per-model-layer probe must account for compute_gradients to within
# this share, so that no layer goes dark.
LAYER_SUM_TOLERANCE = 0.10


def percentile(values, p):
    """Linear interpolation between closest ranks (p in [0, 100])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n):
    """Highest percentile with at least ten of `n` samples beyond it."""
    if n < 20:
        raise ValueError(f"{n} timed steps leave no tail percentile above the median")
    return 100.0 * (1.0 - 10.0 / n)


def spans_by_name(spans):
    """Bench spans [name, start_us, dur_us, count] -> {name: [dur_us/count]}."""
    out = {}
    for name, _start, dur, count in spans:
        out.setdefault(name, []).append(dur / count)
    return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def time_to_target(trajectory):
    """Virtual time at which the trajectory reached its target. One that never
    did counts with its total virtual time, a lower bound, so it still
    raises the run's figure instead of dropping out of it."""
    if trajectory["virtual_s_to_target"] >= 0:
        return trajectory["virtual_s_to_target"]
    return trajectory["virtual_end"][-1]


def end_to_end(doc):
    """End-to-end metrics of an untraced run -> (metrics, info)."""
    warmup = doc["schedule"]["warmup_steps"]
    trajectories = doc["trajectories"]
    counted = [t for t in trajectories if t["counted"]]
    step_s = [w for t in trajectories for w in t["wall_s"][warmup:]]
    samples = sum(s for t in trajectories for s in t["samples"][warmup:])
    n_min = doc["schedule"]["timed_steps"] * doc["schedule"]["counted_trajectories"]
    tail_p = tail_percentile(n_min)
    setups = spans_by_name(doc["bench_spans"]).get("setup", [])
    attempted = sum(sum(t["attempted"]) for t in counted)
    delivered = sum(sum(t["delivered"]) for t in counted)
    metrics = {
        "steps_per_s": len(step_s) / sum(step_s),
        "samples_per_s": samples / sum(step_s),
        "step_ms_p50": statistics.median(step_s) * 1e3,
        "step_ms_tail": percentile(step_s, tail_p) * 1e3,
        "setup_s": statistics.median(setups) / 1e6,
        "warmup_s": statistics.median(sum(t["wall_s"][:warmup]) for t in trajectories),
        "peak_rss_mb": doc["peak_rss_mb"],
        "final_accuracy": statistics.fmean(t["final_accuracy"] for t in counted),
        "virtual_s_to_target": statistics.fmean(time_to_target(t) for t in counted),
        "virtual_s_per_step": statistics.fmean(
            statistics.fmean(t["virtual_s"]) for t in counted),
        "client_delivered_share": delivered / attempted,
    }
    info = {
        "timed_steps": len(step_s),
        "tail_percentile": round(tail_p, 2),
        "trajectories": len(trajectories),
        "counted_trajectories": len(counted),
        "setups": len(setups),
    }
    return metrics, info


def fold_program_spans(program_spans, windows):
    """Sums the program's wall spans that lie inside one of `windows`.

    `program_spans` are [name, tid, start_us, dur_us]; `windows` are
    (start_us, end_us) of the benchmark's traced steps, non-overlapping. A
    span counts when it starts and ends inside a single window. Returns
    {name: (total_us, calls)}.
    """
    windows = sorted(windows)
    starts = [w[0] for w in windows]
    totals = {}
    for name, _tid, start, dur in program_spans:
        i = bisect.bisect_right(starts, start) - 1
        if i < 0 or start + dur > windows[i][1]:
            continue
        total, calls = totals.get(name, (0.0, 0))
        totals[name] = (total + dur, calls + 1)
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def _mean_span(folded, name):
    total, calls = folded.get(name, (0.0, 0))
    return _ratio(total, calls)


def probe_layers(probe):
    """Per-group forward/backward medians (us) plus per-layer detail."""
    groups = {g: {"forward": 0.0, "backward": 0.0} for g in LAYER_GROUPS}
    layers = {}
    for name, durs in probe.items():
        parts = name.split(".")
        if len(parts) != 5 or parts[:2] != ["probe", "nn"]:
            continue
        _, _, group, layer, direction = parts
        value = statistics.median(durs)
        layers.setdefault(layer, {})[direction] = value
        groups.setdefault(group, {"forward": 0.0, "backward": 0.0})[direction] += value
    return groups, layers


def layer_sum_share(spans):
    """Median over probe repetitions of (sum of the model layers' forward and
    backward times) / (compute_gradients time of the same repetition).

    The probe times each layer, then compute_gradients, once per repetition;
    pairing them per repetition keeps the ratio steady when the host's speed
    drifts during the probe.
    """
    ratios = []
    layers_us = 0.0
    for name, _start, dur, _count in spans:
        if name == "probe.nn.compute_gradients":
            ratios.append(layers_us / dur)
            layers_us = 0.0
        elif name.startswith("probe.nn.") and name.count(".") == 4:
            layers_us += dur
    return median_or_zero(ratios)


def per_layer(doc):
    """Per-layer metrics of a traced run -> (metrics, info)."""
    bench = spans_by_name(doc["bench_spans"])
    batch = doc["schedule"]["batch_size"]
    workers = doc["provenance"]["workers"]
    metrics = {}

    groups, layers = probe_layers(bench)
    for group in LAYER_GROUPS:
        metrics[f"nn.{group}.forward_us"] = groups[group]["forward"]
        metrics[f"nn.{group}.backward_us"] = groups[group]["backward"]
    metrics["nn.compute_gradients_us"] = median_or_zero(bench.get("probe.nn.compute_gradients"))
    metrics["nn.sgd_step_us"] = median_or_zero(bench.get("probe.nn.sgd_step"))
    metrics["data.next_batch_us"] = median_or_zero(bench.get("probe.data.next_batch"))
    conv_layers = sorted({n.split(".")[3] for n in bench if n.startswith("probe.tensor.")})

    def kernel_us(*kernels):
        return batch * sum(median_or_zero(bench.get(f"probe.tensor.{k}.{layer}"))
                           for layer in conv_layers for k in kernels)

    metrics["tensor.conv_backward_gemm_us"] = kernel_us("gemm_nt", "gemm_tn")
    metrics["tensor.conv_backward_im2col_us"] = kernel_us("im2col", "col2im")
    metrics["sim.lease_us"] = median_or_zero(bench.get("probe.sim.lease"))
    metrics["sim.online_at_ns"] = median_or_zero(bench.get("probe.sim.online_at")) * 1e3

    step_windows = [(s, s + d) for n, s, d, _ in doc["bench_spans"] if n == "traced.step"]
    folded = fold_program_spans(doc["program_spans"], step_windows)
    traced = doc["traced"]
    warmup = doc["schedule"]["warmup_steps"]
    timed = len(traced["wall_s"]) - warmup
    # Local iterations trained inside the traced steps: one sgd.step span
    # each on the round engine. The async engine emits no sgd.step span, so
    # there the applied cycles' iterations stand in for it.
    iterations = (folded.get("sgd.step", (0.0, 0))[1]
                  or sum(traced["iterations"][warmup:]))
    for kernel in ("conv2d", "lstm"):
        for direction in ("forward", "backward"):
            metrics[f"nn.{kernel}.{direction}_inround_us"] = _ratio(
                folded.get(f"{kernel}.{direction}", (0.0, 0))[0], iterations)
    metrics["fl.sgd_step_inround_us"] = _mean_span(folded, "sgd.step")
    metrics["core.record_iteration_us"] = _mean_span(folded, "profiler.record_iteration")
    metrics["core.finish_round_us"] = _mean_span(folded, "profiler.finish_round")
    metrics["fl.aggregate_us"] = _mean_span(folded, "server.aggregate")
    metrics["fl.async_apply_us"] = _mean_span(folded, "server.apply_async_update")
    step_us = sum(e - s for s, e in step_windows)
    metrics["fl.train_busy_share"] = _ratio(folded.get("sgd.step", (0.0, 0))[0],
                                            workers * step_us)
    metrics["fl.evaluate_ms"] = median_or_zero(bench.get("evaluate")) / 1e3

    counters = doc["counters"]

    def counter(name):
        return counters.get(name, {}).get("value", 0.0)

    client_rounds = counter("engine.client_rounds")
    metrics["core.early_stop_share"] = _ratio(counter("fedca.early_stops"), client_rounds)
    metrics["core.eager_layers_per_client_round"] = _ratio(counter("fedca.eager_layers"),
                                                           client_rounds)
    metrics["core.retransmit_share"] = _ratio(counter("fedca.retransmissions"),
                                              counter("fedca.eager_layers"))
    metrics["fl.async_cycles_per_batch"] = _ratio(counter("async.speculative_cycles"),
                                                  counter("async.speculative_batches"))
    metrics["fl.async_staleness_p50"] = counters.get("async.staleness", {}).get("p50", 0.0)
    metrics["obs.recorder_dropped"] = counter("obs.recorder.dropped")

    metrics["fl.iterations_per_step"] = sum(traced["iterations"][warmup:]) / timed
    metrics["fl.client_rounds_per_step"] = sum(traced["attempted"][warmup:]) / timed
    metrics["fl.bytes_sent_per_step"] = sum(traced["bytes_sent"][warmup:]) / timed
    metrics["fl.eager_bytes_share"] = _ratio(sum(traced["eager_bytes"]),
                                             sum(traced["bytes_sent"]))
    offline = sum(traced["offline"])
    metrics["sim.offline_share"] = _ratio(offline, offline + sum(traced["attempted"]))
    metrics["sim.live_loader_bytes"] = traced["live_loader_bytes"]

    for phase in ("model", "data", "partition", "cluster", "engine"):
        metrics[f"setup.{phase}_ms"] = median_or_zero(bench.get(f"setup.{phase}")) / 1e3
    metrics["obs.trace_overhead"] = _ratio(median_or_zero(bench.get("traced.step")),
                                           median_or_zero(bench.get("step")))

    info = {
        "layers_us": {name: {k: round(v, 2) for k, v in d.items()}
                      for name, d in layers.items()},
        "layer_sum_share": round(layer_sum_share(doc["bench_spans"]), 4),
    }
    return metrics, info


def check_outputs(doc):
    """Output checks shared by both modes -> list of failure messages."""
    failures = []
    schedule = doc["schedule"]
    trajectories = list(doc["trajectories"])
    if doc.get("traced"):
        trajectories.append(doc["traced"])
    for t in trajectories:
        tag = f"trajectory {t['index']}"
        if not t["finite"]:
            failures.append(f"{tag}: global model has a non-finite value")
        if t["final_accuracy"] < schedule["accuracy_floor"]:
            failures.append(f"{tag}: final accuracy {t['final_accuracy']:.3f} below the "
                            f"floor {schedule['accuracy_floor']}")
    counted = [t for t in doc["trajectories"] if t["counted"]]
    reached = sum(t["virtual_s_to_target"] >= 0 for t in counted)
    if 2 * reached <= len(counted):
        failures.append(f"only {reached} of {len(counted)} trajectories reached the target "
                        f"accuracy {schedule['target_accuracy']}")
    if doc.get("traced"):
        if doc["traced"]["fingerprint"] != doc["trajectories"][0]["fingerprint"]:
            failures.append("traced and untraced trajectory 0 ended with different models")
    return failures


def check_layer_sum(info):
    share = info["layer_sum_share"]
    if abs(share - 1.0) > LAYER_SUM_TOLERANCE:
        return [f"model layers sum to {share:.3f} of compute_gradients "
                f"(tolerance {LAYER_SUM_TOLERANCE})"]
    return []
