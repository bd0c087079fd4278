"""Per-layer spans recorded from outside psrates.

`instrumented` replaces each traced public function with a wrapper at every
psrates module binding it can be called through, including the names the
simulator imports from other modules, and restores the originals on exit.
Each psrates module is a layer. Spans stay in memory until the run writes
them out.
"""

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# Functions traced per module; None traces every public function. The
# simulator's own dispatch helpers stay untraced so that simulator.run's
# self time is its trial loop (codebook draw and decode scoring).
TRACED = {
    "channel": None,
    "metric": None,
    "rates": None,
    "typicality": ("typical_set_size", "rate_of_typical_set", "is_typical_counts"),
    "empirical": ("sample_channel_outputs", "monte_carlo_t_c", "empirical_code_rate"),
    "simulator": ("run",),
}


def _simulator_work(args, result):
    cfg = args[0]
    return {
        "trials": result.trials,
        "layered_trials": result.trials if cfg.mode == "layered-ps" else 0,
        "codewords": result.codebook_size * result.trials,
        "codebook_bytes": result.codebook_size * cfg.n * 8,
    }


# Work counts computed from a call's arguments and result.
WORK = {
    "channel.awgn_quantized": lambda args, ch: {"cells": int(ch.w.size)},
    "empirical.sample_channel_outputs": lambda args, y: {"symbols": len(y)},
    "simulator.run": _simulator_work,
}

UNITS = {
    "cli.self_s": "s",
    "channel.awgn_quantized.calls": "count",
    "channel.awgn_quantized.s": "s",
    "channel.cells_built": "count",
    "channel.cells_per_s": "1/s",
    "channel.bit_marginal.s": "s",
    "metric.calls": "count",
    "metric.self_s": "s",
    "metric.power_transform.calls": "count",
    "rates.achievable_transmission_rate.calls": "count",
    "rates.achievable_transmission_rate.self_s": "s",
    "rates.uncertainty.s": "s",
    "rates.optimize_metric_exponent.s": "s",
    "rates.optimize_metric_exponent.evals": "count",
    "rates.gmi.calls": "count",
    "rates.gmi.s": "s",
    "typicality.typical_set_size.calls": "count",
    "typicality.typical_set_size.s": "s",
    "typicality.size_calls_per_n": "ratio",
    "typicality.is_typical_counts.calls": "count",
    "typicality.scan_per_trial": "count",
    "empirical.sample_channel_outputs.calls": "count",
    "empirical.sample_channel_outputs.s": "s",
    "empirical.symbols_sampled": "count",
    "empirical.symbols_per_s": "1/s",
    "empirical.monte_carlo_t_c.self_s": "s",
    "empirical.empirical_code_rate.s": "s",
    "simulator.run.s": "s",
    "simulator.run.self_s": "s",
    "simulator.trials": "count",
    "simulator.codewords_scored": "count",
    "simulator.codewords_per_s": "1/s",
    "simulator.codebook_mb": "MB",
    "trace.overhead": "ratio",
}


@dataclass
class Span:
    id: int
    parent: int
    job: str
    name: str
    start: float = 0.0
    end: float = 0.0
    work: dict = None


class Tracer:
    """Collects spans; `job` labels the spans of the job being run."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._open = []

    def call(self, name, fn, /, *args, **kwargs):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.job, name)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if name in WORK:
            span.work = WORK[name](args, result)
        return result


@contextlib.contextmanager
def instrumented(tracer):
    """Route calls of the traced psrates functions through `tracer`."""
    wrappers = {}
    for layer, names in TRACED.items():
        module = sys.modules[f"psrates.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and (names is None or attr in names)):
                wrappers[obj] = functools.partial(tracer.call, f"{layer}.{attr}", obj)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "psrates":
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                patched.append((module, attr, obj))
    try:
        yield
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def layer_metrics(spans, n_requested):
    """Per-layer metrics of one traced pass.

    `n_requested` is the number of block lengths the pass's `typical` jobs
    asked for, the base of `typicality.size_calls_per_n`.
    """
    covered = defaultdict(float)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            covered[s.parent] += s.end - s.start

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_s(key):
        # a key ending in "." selects every span of that layer
        return sum(s.end - s.start - covered[s.id] for s in spans
                   if s.name == key or (key.endswith(".") and s.name.startswith(key)))

    def work(name, key):
        return sum(s.work[key] for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    optimizer_ids = {s.id for s in by_name["rates.optimize_metric_exponent"]}
    optimizer_evals = sum(1 for s in by_name["rates.achievable_transmission_rate"]
                          if s.parent in optimizer_ids)
    cells = work("channel.awgn_quantized", "cells")
    symbols = work("empirical.sample_channel_outputs", "symbols")
    codewords = work("simulator.run", "codewords")
    runs = by_name["simulator.run"]
    return {
        "cli.self_s": self_s("cli.main"),
        "channel.awgn_quantized.calls": calls("channel.awgn_quantized"),
        "channel.awgn_quantized.s": total("channel.awgn_quantized"),
        "channel.cells_built": cells,
        "channel.cells_per_s": ratio(cells, total("channel.awgn_quantized")),
        "channel.bit_marginal.s": total("channel.bit_marginal"),
        "metric.calls": sum(1 for s in spans if s.name.startswith("metric.")),
        "metric.self_s": self_s("metric."),
        "metric.power_transform.calls": calls("metric.power_transform"),
        "rates.achievable_transmission_rate.calls": calls("rates.achievable_transmission_rate"),
        "rates.achievable_transmission_rate.self_s": self_s("rates.achievable_transmission_rate"),
        "rates.uncertainty.s": total("rates.uncertainty"),
        "rates.optimize_metric_exponent.s": total("rates.optimize_metric_exponent"),
        "rates.optimize_metric_exponent.evals": ratio(optimizer_evals, len(optimizer_ids)),
        "rates.gmi.calls": calls("rates.gmi"),
        "rates.gmi.s": total("rates.gmi"),
        "typicality.typical_set_size.calls": calls("typicality.typical_set_size"),
        "typicality.typical_set_size.s": total("typicality.typical_set_size"),
        "typicality.size_calls_per_n": ratio(calls("typicality.typical_set_size"), n_requested),
        "typicality.is_typical_counts.calls": calls("typicality.is_typical_counts"),
        "typicality.scan_per_trial": ratio(calls("typicality.is_typical_counts"),
                                           work("simulator.run", "layered_trials")),
        "empirical.sample_channel_outputs.calls": calls("empirical.sample_channel_outputs"),
        "empirical.sample_channel_outputs.s": total("empirical.sample_channel_outputs"),
        "empirical.symbols_sampled": symbols,
        "empirical.symbols_per_s": ratio(symbols, total("empirical.sample_channel_outputs")),
        "empirical.monte_carlo_t_c.self_s": self_s("empirical.monte_carlo_t_c"),
        "empirical.empirical_code_rate.s": total("empirical.empirical_code_rate"),
        "simulator.run.s": total("simulator.run"),
        "simulator.run.self_s": self_s("simulator.run"),
        "simulator.trials": work("simulator.run", "trials"),
        "simulator.codewords_scored": codewords,
        "simulator.codewords_per_s": ratio(codewords, total("simulator.run")),
        "simulator.codebook_mb": max((s.work["codebook_bytes"] for s in runs), default=0) / 2**20,
    }
