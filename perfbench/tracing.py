"""Per-layer spans recorded from outside the program.

A `Recorder` replaces public presim functions and methods, at the names
their callers resolve, with wrappers that record one span per call: name,
start, end, parent span and stage id. Spans stay in memory until the stage
process exits and `dump` writes them. `layer_metrics` turns the spans of
all stages of a run into the per-layer metrics the benchmark reports.

Nothing here edits the program's source; a name that a later version of
the program no longer has is reported as absent.
"""

import functools
import importlib
import json
import time
from pathlib import Path

# (span name, module the caller resolves the name in, attribute path).
# Module-level functions are wrapped in the module their caller imported
# them into; methods are wrapped on their class, which every caller shares.
WRAPPED = (
    ("cli.fit", "presim.cli", "cmd_fit"),
    ("cli.simulate", "presim.cli", "cmd_simulate"),
    ("cli.evaluate", "presim.cli", "cmd_evaluate"),
    ("ingest.load_observations", "presim.cli", "load_observations"),
    ("ingest.fill_missing", "presim.cli", "fill_missing"),
    ("ingest.block_average", "presim.cli", "block_average"),
    ("preprocess.fit_stack", "presim.cli", "fit_stack"),
    ("preprocess.apply_stack", "presim.cli", "apply_stack"),
    ("whittle.forward_dft", "presim.cli", "forward_dft"),
    ("whittle.initial_params", "presim.cli", "initial_params"),
    ("whittle.fit_mle", "presim.cli", "fit_mle"),
    ("whittle.loglik", "presim.whittle", "WhittleObjective.loglik"),
    ("whittle.numeric_gradient", "presim.whittle", "numeric_gradient"),
    ("whittle.numeric_hessian", "presim.whittle", "numeric_hessian"),
    ("whittle.sample_params", "presim.condsim", "sample_params"),
    ("spectrum.cross_spectrum_stack", "presim.spectrum", "SpectralModel.cross_spectrum_stack"),
    ("spectrum.eval_S", "presim.spectrum", "SpectralModel.eval_S"),
    ("splines.design", "presim.splines", "ConstrainedBasis.design"),
    ("geometry.site_geometry", "presim.geometry", "SiteGeometry.__post_init__"),
    ("condsim.sampler_build", "presim.condsim", "ConditionalSampler.__init__"),
    ("condsim.draw", "presim.condsim", "ConditionalSampler.draw"),
    ("rng.substream", "presim.condsim", "substream"),
    ("whittle.inverse_dft", "presim.condsim", "inverse_dft"),
    ("preprocess.invert_stack", "presim.condsim", "invert_stack"),
    ("condsim.run_ensemble", "presim.condsim", "run_ensemble"),
    ("condsim.write_ensemble", "presim.condsim", "write_ensemble"),
    ("meanfield.select_model", "presim.meanfield", "select_model"),
    ("meanfield.sample_means", "presim.meanfield", "sample_means"),
    ("verify.rank_histogram", "presim.verify", "rank_histogram"),
    ("verify.nearest_neighbor_baseline", "presim.verify", "nearest_neighbor_baseline"),
    ("synth.generate", "presim.synth", "generate"),
    ("synth.write_dataset", "presim.synth", "write_dataset"),
)


def _count_ridges(args, result):
    return "condsim.ridge_frequencies", len(getattr(args[0], "ridge_frequencies", ()))


def _count_rows(args, result):
    return "ingest.rows_parsed", sum(len(s.values) for s in result)


# Exact counts read off a call's arguments or result after it returns.
COUNTERS = {
    "condsim.sampler_build": _count_ridges,
    "ingest.load_observations": _count_rows,
}

# Per-layer metrics derived from spans: (metric name, span name, statistic).
LAYER_METRICS = (
    ("whittle.fit_mle.s", "whittle.fit_mle", "s"),
    ("whittle.initial_params.s", "whittle.initial_params", "s"),
    ("whittle.loglik.calls", "whittle.loglik", "calls"),
    ("whittle.loglik.s", "whittle.loglik", "s"),
    ("whittle.loglik.self_s", "whittle.loglik", "self_s"),
    ("whittle.numeric_gradient.calls", "whittle.numeric_gradient", "calls"),
    ("whittle.numeric_gradient.s", "whittle.numeric_gradient", "s"),
    ("whittle.numeric_hessian.s", "whittle.numeric_hessian", "s"),
    ("whittle.forward_dft.s", "whittle.forward_dft", "s"),
    ("whittle.sample_params.s", "whittle.sample_params", "s"),
    ("spectrum.cross_spectrum_stack.calls", "spectrum.cross_spectrum_stack", "calls"),
    ("spectrum.cross_spectrum_stack.s", "spectrum.cross_spectrum_stack", "s"),
    ("spectrum.cross_spectrum_stack.self_s", "spectrum.cross_spectrum_stack", "self_s"),
    ("spectrum.eval_S.calls", "spectrum.eval_S", "calls"),
    ("spectrum.eval_S.s", "spectrum.eval_S", "s"),
    ("splines.design.calls", "splines.design", "calls"),
    ("splines.design.s", "splines.design", "s"),
    ("condsim.sampler_build.calls", "condsim.sampler_build", "calls"),
    ("condsim.sampler_build.s", "condsim.sampler_build", "s"),
    ("geometry.site_geometry.calls", "geometry.site_geometry", "calls"),
    ("condsim.draw.calls", "condsim.draw", "calls"),
    ("condsim.draw.s", "condsim.draw", "s"),
    ("rng.substream.calls", "rng.substream", "calls"),
    ("rng.substream.s", "rng.substream", "s"),
    ("whittle.inverse_dft.calls", "whittle.inverse_dft", "calls"),
    ("whittle.inverse_dft.s", "whittle.inverse_dft", "s"),
    ("preprocess.invert_stack.calls", "preprocess.invert_stack", "calls"),
    ("preprocess.invert_stack.s", "preprocess.invert_stack", "s"),
    ("condsim.run_ensemble.s", "condsim.run_ensemble", "s"),
    ("condsim.write_ensemble.s", "condsim.write_ensemble", "s"),
    ("cli.simulate.self_s", "cli.simulate", "self_s"),
    ("cli.evaluate.self_s", "cli.evaluate", "self_s"),
    ("ingest.load_observations.calls", "ingest.load_observations", "calls"),
    ("ingest.load_observations.s", "ingest.load_observations", "s"),
    ("ingest.fill_missing.s", "ingest.fill_missing", "s"),
    ("ingest.block_average.s", "ingest.block_average", "s"),
    ("preprocess.fit_stack.s", "preprocess.fit_stack", "s"),
    ("preprocess.apply_stack.s", "preprocess.apply_stack", "s"),
    ("cli.fit.self_s", "cli.fit", "self_s"),
    ("meanfield.select_model.s", "meanfield.select_model", "s"),
    ("meanfield.sample_means.s", "meanfield.sample_means", "s"),
    ("verify.rank_histogram.calls", "verify.rank_histogram", "calls"),
    ("verify.rank_histogram.s", "verify.rank_histogram", "s"),
    ("verify.nearest_neighbor_baseline.s", "verify.nearest_neighbor_baseline", "s"),
    ("synth.generate.s", "synth.generate", "s"),
    ("synth.write_dataset.s", "synth.write_dataset", "s"),
)
COUNTER_METRICS = ("condsim.ridge_frequencies", "ingest.rows_parsed")


def _resolve(module_name, path):
    """(owner, attribute name, current value) of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Recorder:
    """Spans of one stage process, kept in memory until `dump`."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self.absent = []
        self._open = []
        self._restore = []

    def wrap(self, name, fn):
        spans, open_, counter = self.spans, self._open, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if counter is not None:
                key, n = counter(args, result)
                self.counts[key] = self.counts.get(key, 0) + n
            return result

        return traced

    def install(self, table=WRAPPED):
        """Wrap every name in `table`; names the program lacks are recorded as absent."""
        for name, module_name, path in table:
            try:
                owner, attr, fn = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "spans": [[n, s, e, p] for n, s, e, p in self.spans],
            "counts": self.counts,
            "absent": self.absent,
        }

    def dump(self, path):
        Path(path).write_text(json.dumps(self.to_dict()))


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def span_stats(spans) -> dict:
    """Calls, inclusive seconds and self seconds per span name.

    Inclusive time counts only spans with no enclosing span of the same
    name, so recursion is not counted twice. Self time is a span's
    duration minus the part of it that its child spans cover.
    """
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    stats = {}
    for i, (name, start, end, parent) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        covered = _union_length(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(i, ())
            if spans[c][2] > start and spans[c][1] < end
        )
        st["self_s"] += (end - start) - covered
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            st["s"] += end - start
    return stats


def layer_metrics(traces) -> dict:
    """Per-layer metrics summed over the stage traces of one run."""
    totals, counts = {}, {}
    for trace in traces:
        for name, st in span_stats(trace["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for key, n in trace["counts"].items():
            counts[key] = counts.get(key, 0) + n
    out = {}
    for metric, span, stat in LAYER_METRICS:
        out[metric] = totals.get(span, {}).get(stat, 0)
    for key in COUNTER_METRICS:
        out[key] = counts.get(key, 0)
    return out
