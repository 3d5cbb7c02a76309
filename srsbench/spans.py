"""In-memory spans around srslab's public functions, and the per-layer
metrics derived from them.

A span wraps one call: name, start, end and the span that was open when
it began.  Wrappers replace a function's name in the module that *calls*
it (``train`` looks up ``forward_loss`` in ``srslab.training``, not in
``srslab.nets``), so the program itself is never edited.  Self time is a
span's duration minus its children's durations, which makes the layer
self times add up to the traced wall time whatever a later change fuses
or inlines.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

LAYERS = ("samplers", "coverage", "counting", "nets", "optim", "training",
          "data", "config", "csvio", "cli")
SAMPLER_KINDS = ("srs", "replacement", "epoch")


class Tracer:
    """Records spans in call order; `spans[i]` is [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced


def _counting_point(params_or_n) -> str:
    n = getattr(params_or_n, "dataset_size", params_or_n)
    return "" if n == 1_000_000 else f".n{n}"


@contextlib.contextmanager
def patched(tracer: Tracer | None, on_train_result):
    """Install the wrappers for the duration of a pass.

    With `tracer` None only `srslab.cli.train` is wrapped, to hand every
    TrainResult to `on_train_result` for the output checks; that costs one
    extra call per training run and records no time.
    """
    import srslab.cli as cli
    import srslab.counting as counting
    import srslab.coverage as coverage
    import srslab.training as training

    saved = []

    def put(module, attr, fn):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def recording(fn):
        def train(config):
            result = fn(config)
            on_train_result(result)
            return result
        return train

    if tracer is None:
        put(cli, "train", recording(cli.train))
    else:
        wrap = tracer.wrap

        def sampler_factory(make_sampler):
            init = wrap("samplers.init", make_sampler)

            def traced_make_sampler(kind, dataset_size, batch_size, rng):
                next_batch = init(kind, dataset_size, batch_size, rng)
                return wrap(f"samplers.{kind}.draw", next_batch)
            return traced_make_sampler

        def counting_call(name, fn):
            def call(first, *args, **kwargs):
                span = wrap(f"counting.{name}{_counting_point(first)}", fn)
                return span(first, *args, **kwargs)
            return call

        put(coverage, "make_sampler", sampler_factory(coverage.make_sampler))
        put(training, "make_sampler", sampler_factory(training.make_sampler))
        put(coverage, "simulate_coverage",
            wrap("coverage.simulate", coverage.simulate_coverage))
        put(coverage, "visit_stats",
            wrap("coverage.visit_stats", coverage.visit_stats))
        for name in ("configs_one_epoch", "configs_with", "config_ratio"):
            put(counting, name, counting_call(name, getattr(counting, name)))
        put(counting, "binomial", wrap("counting.binomial", counting.binomial))
        put(training, "forward_loss", wrap("nets.forward", training.forward_loss))
        put(training, "backward", wrap("nets.backward", training.backward))
        put(training, "error_rate", wrap("nets.eval", training.error_rate))
        put(training, "sgd_step", wrap("optim.sgd_step", training.sgd_step))
        put(training, "lr_at", wrap("optim.schedule", training.lr_at))
        put(training, "effective_epoch",
            wrap("optim.schedule", training.effective_epoch))
        put(training, "gen_blobs", wrap("data.gen_blobs", training.gen_blobs))
        put(cli, "train", wrap("training.train", recording(cli.train)))
        put(cli, "parse_grid_config",
            wrap("config.parse", cli.parse_grid_config))
        put(cli, "write_csv", wrap("csvio.write", cli.write_csv))
        put(cli, "main", wrap("cli.main", cli.main))
    try:
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _pct(values, scale):
    if not values:
        return 0.0, 0.0
    arr = np.asarray(values, dtype=np.float64) * scale
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def layer_metrics(tracer: Tracer, traced_wall_s: float, rounds: int):
    """Per-layer metrics of one traced pass, the consistency problems
    found in its spans (none when every span nests properly), and the
    calls, total and self seconds per span name for the run record.

    `traced_wall_s` is the summed timed section of the pass; layer self
    times are reported per round so they compare with `wall_s`.
    """
    spans = tracer.spans
    problems = []
    children: list[list[int]] = [[] for _ in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent >= 0:
            children[parent].append(i)
            p = spans[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"span {name} leaves its parent {p[0]}")
    dur = [s[2] - s[1] for s in spans]
    self_t = [d - sum(dur[c] for c in kids) for d, kids in zip(dur, children)]
    for i, t in enumerate(self_t):
        if t < -1e-9:
            problems.append(f"span {spans[i][0]} has negative self time")

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    summary = {name: {"calls": len(ids),
                      "total_s": sum(dur[i] for i in ids),
                      "self_s": sum(self_t[i] for i in ids)}
               for name, ids in by_name.items()}

    metrics: dict[str, tuple[float, str]] = {}

    def durations(name):
        return [dur[i] for i in by_name.get(name, [])]

    def timing(metric, unit, values):
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        p50, p99 = _pct(values, scale)
        metrics[f"{metric}.p50"] = (p50, unit)
        metrics[f"{metric}.p99"] = (p99, unit)
        metrics[f"{metric}.calls"] = (len(values), "count")

    def per_child(parent_name, child_names, summed=None):
        """For each `parent_name` span: its self time, or the time of its
        children named `summed`, divided by how many of its children are
        named in `child_names`."""
        out = []
        for i in by_name.get(parent_name, []):
            kids = [c for c in children[i] if spans[c][0] in child_names]
            if not kids:
                continue
            part = self_t[i] if summed is None else sum(
                dur[c] for c in children[i] if spans[c][0] == summed)
            out.append(part / len(kids))
        return out

    draws = {f"samplers.{k}.draw" for k in SAMPLER_KINDS}
    for kind in SAMPLER_KINDS:
        timing(f"samplers.{kind}.draw_us", "us",
               durations(f"samplers.{kind}.draw"))
    timing("samplers.init_ms", "ms", durations("samplers.init"))
    timing("coverage.count_us_per_draw", "us",
           per_child("coverage.simulate", draws))
    timing("coverage.visit_stats_us", "us", durations("coverage.visit_stats"))
    # The paper-scale point (10^6, 1000) in seconds, (50000, 64) in ms.
    for prefix, suffix, unit in (("counting.", "", "s"),
                                 ("counting.n50000.", ".n50000", "ms")):
        for name in ("configs_one_epoch", "configs_with"):
            timing(f"{prefix}{name}_{unit}", unit,
                   durations(f"counting.{name}{suffix}"))
        timing(f"{prefix}config_ratio_ms", "ms",
               durations(f"counting.config_ratio{suffix}"))
    metrics["counting.binomial_calls"] = (
        len(by_name.get("counting.binomial", [])), "count")
    timing("nets.forward_us", "us", durations("nets.forward"))
    timing("nets.backward_us", "us", durations("nets.backward"))
    timing("nets.eval_ms", "ms", durations("nets.eval"))
    timing("optim.sgd_step_us", "us", durations("optim.sgd_step"))
    timing("optim.schedule_us", "us",
           per_child("training.train", {"nets.forward"}, "optim.schedule"))
    timing("training.self_us_per_iter", "us",
           per_child("training.train", {"nets.forward"}))
    timing("training.run_s", "s", durations("training.train"))
    metrics["training.iterations"] = (
        len(by_name.get("nets.forward", [])), "count")
    timing("data.gen_blobs_ms", "ms", durations("data.gen_blobs"))
    timing("config.parse_ms", "ms", durations("config.parse"))
    timing("csvio.write_ms", "ms", durations("csvio.write"))
    timing("cli.self_ms", "ms", [self_t[i] for i in by_name.get("cli.main", [])])

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_t):
        layer_self[s[0].split(".", 1)[0]] += t
    roots = sum(d for s, d in zip(spans, dur) if s[3] < 0)
    for layer, total in layer_self.items():
        metrics[f"{layer}.self_s"] = (total / rounds, "s")
    metrics["bench.self_s"] = ((traced_wall_s - roots) / rounds, "s")
    metrics["process.traced_wall_s"] = (traced_wall_s / rounds, "s")
    total_self = sum(layer_self.values()) + traced_wall_s - roots
    if abs(total_self - traced_wall_s) > 1e-6 * max(traced_wall_s, 1.0):
        problems.append(f"layer self times sum to {total_self}, "
                        f"traced wall is {traced_wall_s}")
    return metrics, problems, summary

