"""Spans for the traced run, and the per-layer metrics made from them.

`Recorder.install` wraps the layer functions listed in TRACED at their
module attribute, and rebinds every other topica module attribute that
holds the same function object, so calls made through names imported
with `from .x import f` (for example `estimation.whiten` and
`activation.whiten`) are recorded too. The program's source is left
untouched. A span is [name, start, end, parent, maxrss_start_kb,
maxrss_end_kb, info]; spans stay in memory and are written out once,
when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "images": ("load_images", "load_sequence", "read_image", "extract_patches_from_images",
               "extract_fixed_patches", "normalize_image", "write_image"),
    "matrixio": ("read_matrix", "write_matrix", "content_hash"),
    "whitening": ("fit_whitening", "whiten"),
    "estimation": ("train", "tica_gradient", "tica_objective", "symmetric_orthonormalize",
                   "save_basis", "load_basis"),
    "activation": ("compute_activation", "reconstruct", "save_trace", "load_trace"),
    "analysis": ("autocorrelation", "adjacent_correlation", "permutation_test", "cluster_locality"),
    "stimulus": ("generate_dead_leaves", "generate_panning_sequence"),
    "cli": ("main", "cmd_train", "cmd_activate", "cmd_analyze", "cmd_render", "_prepare_frames",
            "render_energy_heatmaps", "render_reconstructions", "render_montage"),
}


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _gradient_flop(args, kwargs, result):
    """Multiply-adds of the four products in tica_gradient, counted from shapes."""
    n, k = args[0].shape
    t = args[1].shape[0] if args[1].ndim == 2 else 1
    return 4 * t * n * k + 4 * t * n * n


# A number recorded with each span of these functions.
INFO = {
    "images.write_image": _file_size,
    "matrixio.read_matrix": _file_size,
    "matrixio.write_matrix": _file_size,
    "whitening.fit_whitening": lambda args, kwargs, result: args[0].data.nbytes,
    "estimation.tica_gradient": _gradient_flop,
    "activation.compute_activation": lambda args, kwargs, result: result.n_frames,
    "analysis.permutation_test": lambda args, kwargs, result: result.n_permutations,
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, _maxrss_kb(), 0, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[5] = _maxrss_kb()
                self._open.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result
        return traced

    def install(self):
        importlib.import_module("topica.cli")     # the package imports every other module
        modules = [m for name, m in sys.modules.items() if name == "topica" or name.startswith("topica.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"topica.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrapped = self.wrap(f"{layer}.{name}", fn, INFO.get(f"{layer}.{name}"))
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapped)

    def dump(self, path, main_entered, blas_threads):
        with open(path, "w", encoding="ascii") as f:
            json.dump({"main_entered": main_entered, "blas_threads": blas_threads,
                       "spans": self.spans}, f)


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(processes, passes, accepted) -> dict:
    """Per-layer metrics of one traced pipeline, with units.

    `processes` holds one dict per traced process (the set-up and every
    command): its stage, spawn time (time.monotonic), cpu seconds and the
    loaded span dump. Times are totals over all processes; counts are
    totals. Self time is a span's duration minus that of its child spans.
    """
    total, self_time, info = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, rss_rise = Counter(), defaultdict(float)
    gradient_ms, startup = [], 0.0
    cli_self, cli_cpu = defaultdict(float), defaultdict(float)
    for proc in processes:
        spans = proc["trace"]["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, parent, rss0, rss1, extra), child in zip(spans, children):
            duration = end - start
            total[name] += duration
            self_time[name] += duration - child
            calls[name] += 1
            rss_rise[name] = max(rss_rise[name], (rss1 - rss0) / 1024)
            if extra is not None:
                info[name] += extra
            if name == "estimation.tica_gradient":
                gradient_ms.append(duration * 1e3)
            if name.startswith("cli."):
                cli_self[proc["stage"]] += duration - child
        if proc["stage"] != "setup":
            startup += proc["trace"]["main_entered"] - proc["spawn"]
            cli_cpu[proc["stage"]] += proc["cpu"]

    s, count, mb = "s", "count", "MB"
    metrics = {
        # stimulus: moves setup_s on both workloads
        "stimulus.dead_leaves_s": (total["stimulus.generate_dead_leaves"], s),
        "stimulus.dead_leaves_calls": (calls["stimulus.generate_dead_leaves"], count),
        "stimulus.panning_s": (total["stimulus.generate_panning_sequence"], s),
        # images: moves setup_s and activate_s
        "images.load_s": (total["images.load_images"] + total["images.load_sequence"], s),
        "images.files_read": (calls["images.read_image"], count),
        "images.extract_s": (total["images.extract_patches_from_images"]
                             + total["images.extract_fixed_patches"], s),
        "images.normalize_s": (total["images.normalize_image"], s),
        "images.normalize_calls": (calls["images.normalize_image"], count),
        "images.write_s": (total["images.write_image"], s),
        "images.files_written": (calls["images.write_image"], count),
        "images.bytes_written": (info["images.write_image"], "bytes"),
        # matrixio: moves train_s and activate_s on wide (4096-row whitening matrices)
        "matrixio.read_s": (total["matrixio.read_matrix"], s),
        "matrixio.write_s": (total["matrixio.write_matrix"], s),
        "matrixio.bytes_read": (info["matrixio.read_matrix"], "bytes"),
        "matrixio.bytes_written": (info["matrixio.write_matrix"], "bytes"),
        "matrixio.hash_s": (total["matrixio.content_hash"], s),
        # whitening: moves train_s and peak_rss_mb on wide, train_s on desk
        "whitening.fit_s": (total["whitening.fit_whitening"], s),
        "whitening.fit_rss_rise_mb": (rss_rise["whitening.fit_whitening"], mb),
        "whitening.whiten_s": (total["whitening.whiten"], s),
        "whitening.data_mb": (info["whitening.fit_whitening"] / 1e6, "MB_computed"),
        # estimation: moves train_s on desk; little on wide
        "estimation.train_s": (total["estimation.train"], s),
        "estimation.self_s": (self_time["estimation.train"], s),
        "estimation.passes": (passes, count),
        "estimation.accepted": (accepted, count),
        "estimation.accept_ratio": (accepted / passes if passes else 0.0, "ratio"),
        "estimation.gradient_s": (total["estimation.tica_gradient"], s),
        "estimation.gradient_calls": (calls["estimation.tica_gradient"], count),
        "estimation.gradient_ms.p50": (_percentile(gradient_ms, 50), "ms"),
        "estimation.gradient_ms.p90": (_percentile(gradient_ms, 90), "ms"),
        "estimation.gradient_gflop": (info["estimation.tica_gradient"] / 1e9, "GFLOP_computed"),
        "estimation.ortho_s": (total["estimation.symmetric_orthonormalize"], s),
        "estimation.ortho_calls": (calls["estimation.symmetric_orthonormalize"], count),
        "estimation.objective_s": (total["estimation.tica_objective"], s),
        "estimation.objective_calls": (calls["estimation.tica_objective"], count),
        "estimation.save_s": (total["estimation.save_basis"], s),
        "estimation.load_s": (total["estimation.load_basis"], s),
        # activation: moves activate_s and analyze_s
        "activation.compute_s": (total["activation.compute_activation"], s),
        "activation.frames": (info["activation.compute_activation"], count),
        "activation.reconstruct_s": (total["activation.reconstruct"], s),
        "activation.save_s": (total["activation.save_trace"], s),
        "activation.load_s": (total["activation.load_trace"], s),
        # analysis: moves analyze_s (the permutation test on both)
        "analysis.autocorr_s": (total["analysis.autocorrelation"], s),
        "analysis.adjacency_s": (total["analysis.adjacent_correlation"], s),
        "analysis.permutation_s": (total["analysis.permutation_test"], s),
        "analysis.permutations": (info["analysis.permutation_test"], count),
        "analysis.locality_s": (total["analysis.cluster_locality"], s),
        # cli: moves pipeline_s on both; process start-up is a fixed cost per command
        "cli.startup_s": (startup, s),
        "cli.prepare_frames_s": (total["cli._prepare_frames"], s),
        "cli.render_heatmaps_s": (total["cli.render_energy_heatmaps"], s),
        "cli.render_recon_s": (total["cli.render_reconstructions"], s),
        "cli.render_montage_s": (total["cli.render_montage"], s),
        "cli.render_rss_rise_mb": (max(rss_rise["cli.render_energy_heatmaps"],
                                       rss_rise["cli.render_reconstructions"]), mb),
    }
    for command in ("train", "activate", "analyze", "render"):
        metrics[f"cli.{command}.self_s"] = (cli_self[command], s)
        metrics[f"cli.{command}.cpu_s"] = (cli_cpu[command], s)
    return metrics
