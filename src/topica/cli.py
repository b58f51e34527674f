"""Command-line entry point: train, activate, analyze, render.

Every command is deterministic given its config, its seed and the BLAS
thread count: rerunning a command with the same three writes
bit-identical files. Given the same whitening, training is bit-identical
across thread counts; the whitening fit is not. Inputs are never mutated
and all outputs land under the directory (or file path) named by --out.
Every command builds its output (a directory, or render's montage file),
with any missing parents of --out, in a `.topica-*` directory made in the
nearest existing ancestor of --out, and moves it into place with one
rename only on success, replacing an existing --out as a whole. A command
returns the report it prints, and `main` prints it only once the output
is in place.
Every usage error (exit 1), a refused --out included (`_check_output`), is
found before any input is read and before anything is created, so a
command that fails leaves the file system as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import signal
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import activation as act
from . import analysis, estimation, images, stimulus, whitening as whit
from .errors import BadDimensions, ConfigError, DataError, ModelMismatch, TopicaError
from .matrixio import format_float, read_meta
from .topography import Topography, build_topography, shuffle_topography

HEATMAP_SCALE = 16
HEATMAP_FILE = "heatmaps.pgm"
RECON_FILE = "recon.pgm"
# Path arguments a command reads; its --out may not be or contain any of them.
INPUT_ARGS = ("images", "config", "model", "frames", "trace", "compare", "compare_model")
# Per command, each flag that applies only where its conditions hold, in the
# order they are checked ("--mode a or b": one of these modes; "--flag": that
# flag is given), and the value it takes where it applies and is not given.
# These flags parse to None, so that `_check_command_line` sees which were given.
_SCOPED_FLAGS = {
    "activate": {"origin": (["--frames"], None), "crop": (["--frames"], None),
                 "resize_width": (["--frames"], None),
                 "bar_frames": (["--bar"], stimulus.BarStimulusSpec.n_frames),
                 "bar_thickness": (["--bar"], stimulus.BarStimulusSpec.thickness)},
    "analyze": {"compare": (["--mode adjacency"], None),
                "compare_model": (["--mode adjacency", "--compare"], None),
                "shuffle_topo": (["--mode adjacency or locality"], None),
                "k": (["--mode locality"], 5), "max_lag": (["--mode autocorr"], 10),
                "shuffle_baseline": (["--mode autocorr"], 0),
                "energy": (["--mode autocorr"], False),
                "permutations": (["--mode adjacency"], analysis.N_PERMUTATIONS),
                "seed": (["--mode adjacency"], 0),
                "model": (["--mode adjacency or locality"], None)}}


def _parse_ints(text: str, name: str, layout: str) -> tuple:
    """Comma-separated integers, one for each comma-separated name in `layout`."""
    parts = text.split(",")
    if len(parts) != len(layout.split(",")):
        raise argparse.ArgumentTypeError(f"{name} must be {layout}, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{name} values must be integers, got {text!r}") from None


def _int_at_least(lo: int):
    """argparse type of an integer flag whose values below `lo` are usage errors."""
    def integer(text: str) -> int:    # argparse names it in "invalid integer value"
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return value
    return integer


def _frame_rate(text: str) -> float:
    """argparse type of --frame-rate: `images.check_frame_rate`'s rule."""
    try:
        return images.check_frame_rate(text)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_origin(text: str) -> tuple:
    left, top = _parse_ints(text, "origin", "left,top")
    if left < 0 or top < 0:
        raise argparse.ArgumentTypeError(f"origin values must be >= 0, got {text!r}")
    return left, top


def parse_crop(text: str) -> tuple:
    left, top, width, height = _parse_ints(text, "crop", "left,top,width,height")
    if width < 1 or height < 1 or left < 0 or top < 0:
        raise argparse.ArgumentTypeError(f"bad crop rectangle {text!r}")
    return left, top, width, height


@dataclass
class RunConfig(estimation.TrainConfig):
    """Training pipeline settings from a `key = value` file and/or flags.

    The training fields, their defaults and their range checks come from
    `TrainConfig`; this class adds the pipeline fields.
    Each field is both a config key and the `train` flag `--name` (with
    `-` for `_`). Both are parsed by `type(default)`, or by the field's
    `parse` metadata when it has one.
    """

    patch_side: int = 9
    n_patches: int = 20000
    k: int = field(default=64, metadata={"help": "retained principal components (= map cells)"})
    map_width: int = 8
    map_height: int = 8
    radius: int = field(default=1, metadata={"help": "pooling radius; 0 trains plain ICA"})
    crop: tuple | None = field(default=None, metadata={
        "parse": parse_crop, "help": "left,top,width,height applied to every image"})

    def validate(self) -> None:
        super().validate()
        if self.patch_side < 2:
            raise ConfigError(f"patch_side must be >= 2, got {self.patch_side}")
        if self.n_patches < 1:
            raise ConfigError(f"n_patches must be >= 1, got {self.n_patches}")
        try:
            build_topography(self.map_width, self.map_height, self.radius)
        except BadDimensions as exc:
            raise ConfigError(str(exc)) from None
        if self.k != self.map_width * self.map_height:
            raise ConfigError(f"k = {self.k} but the map has "
                              f"{self.map_width * self.map_height} cells")


_FIELD_PARSERS = {f.name: f.metadata.get("parse", type(f.default)) for f in fields(RunConfig)}


def _validation_error(values: dict) -> str | None:
    """The message with which `RunConfig` rejects these values over its
    defaults, or None if it accepts them."""
    try:
        RunConfig(**values)
    except ConfigError as exc:
        return str(exc)
    return None


def load_run_config(path=None, overrides=None) -> RunConfig:
    """Config file first, then flag overrides; unknown keys are rejected.

    The merged settings are validated once, so a flag may mend a value
    of the file. A validation error names the file unless the flags
    alone, over the defaults, fail with the same message.
    """
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    file_values = {}
    if path is not None:
        for key, raw in read_meta(path).items():
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            try:
                file_values[key] = _FIELD_PARSERS[key](raw)
            except (ValueError, argparse.ArgumentTypeError):
                raise ConfigError(f"{path}: bad value for {key}: {raw!r}") from None
    try:
        return RunConfig(**{**file_values, **flags})
    except ConfigError as exc:
        if path is not None and str(exc) != _validation_error(flags):
            raise ConfigError(f"{path}: {exc}") from None
        raise


def cmd_train(args, out) -> str:
    """Cut the patches once, from images that are freed as soon as they are
    cut, fit the whitening, then train on the patches whitened in place:
    the patch buffer is shrunk to the (n_patches, k) rows once whitened,
    so training holds those rows only, and reorders them in place."""
    config = args.settings
    patches = images.extract_patches_from_images(
        _prepare_frames(images.load_images(args.images), "image", config.crop),
        config.patch_side, config.n_patches, config.seed)
    model_w = whit.fit_whitening(patches, config.k)
    topo = build_topography(config.map_width, config.map_height, config.radius)
    rows = whit.whiten(model_w, patches, in_place=True)    # takes patches.data
    del patches
    model_b = estimation.train(rows, model_w, topo, config)
    whit.save_whitening(model_w, out)
    estimation.save_basis(model_b, out)
    return (f"trained {model_b.kind} model: {model_b.n_units} units, "
            f"{model_b.iterations} iterations, "
            f"final objective {format_float(model_b.training_log[-1].objective)}, "
            f"stopped by {model_b.stop_reason}\n")


def _prepare_frames(frames, noun, crop=None, resize_width=None) -> list:
    """Each image of the list `frames` cropped to `crop` (a `parse_crop`
    tuple), resized to `resize_width`, then normalized; None skips a step.
    Each entry is replaced in place, so the list never holds two versions
    of one image; it is also returned. A DataError is prefixed with
    `noun` and the image's position in the list, counted from 0."""
    for i, frame in enumerate(frames):
        try:
            if crop is not None:
                frame = images.crop_image(frame, *crop)
            if resize_width is not None:
                frame = images.resize_to_width(frame, resize_width)
            frames[i] = images.normalize_image(frame)
        except DataError as exc:
            raise type(exc)(f"{noun} {i}: {exc}") from None
    return frames


def _upscale(grid: np.ndarray, scale: int) -> np.ndarray:
    return np.repeat(np.repeat(grid, scale, axis=0), scale, axis=1)


def render_energy_heatmaps(trace: act.ActivationTrace, topo: Topography, path) -> None:
    """A multi-image PGM, one image per frame: unit energies on the lattice,
    all frames scaled by the sequence-wide peak energy, then nearest-neighbor
    upscaled (quantizing before upscaling gives the same pixels)."""
    grid_index = topo.unit_grid()
    hi = float(trace.energies.max())
    images.write_stack(path, (_upscale(images.quantize(e[grid_index], 0.0, hi), HEATMAP_SCALE)
                              for e in trace.energies))


def render_reconstructions(model: estimation.BasisModel, trace: act.ActivationTrace,
                           path) -> None:
    """A multi-image PGM of each frame's reconstructed patch, all frames
    scaled by the sequence-wide range."""
    recon = act.reconstruct(model, trace)
    side = recon.patch_side
    lo, hi = float(recon.data.min()), float(recon.data.max())
    images.write_stack(path, (images.quantize(row, lo, hi).reshape(side, side)
                              for row in recon.data))


def cmd_activate(args, out) -> str:
    model = estimation.load_basis(args.model)
    model_w = whit.load_whitening(args.model)
    if args.frames is not None:
        seq = images.load_sequence(args.frames)
        _prepare_frames(seq.frames, "frame", args.crop, args.resize_width)
    elif args.bar is not None:
        spec = stimulus.BarStimulusSpec(
            patch_side=model.patch_side, thickness=args.bar_thickness,
            orientation=args.bar, n_frames=args.bar_frames)
        seq = stimulus.generate_moving_bar(spec)
    else:
        seq = images.FrameSequence([stimulus.generate_single_basis_probe(model, args.probe)])
    origin = args.origin
    if origin is None:    # the frame's centre; (0, 0) for a bar or probe, one patch wide
        frame = seq.frames[0]
        origin = (frame.width - model.patch_side) // 2, (frame.height - model.patch_side) // 2
    patches = images.extract_fixed_patches(seq, origin, model.patch_side)
    frame_rate = args.frame_rate if args.frame_rate is not None else seq.frame_rate
    del seq    # the patches hold all that is used of the frames
    trace = act.compute_activation(model, model_w, patches, frame_rate)
    act.save_trace(trace, out)
    render_energy_heatmaps(trace, model.topo, os.path.join(out, HEATMAP_FILE))
    render_reconstructions(model, trace, os.path.join(out, RECON_FILE))
    return f"activated {trace.n_frames} frames x {trace.n_units} units\n"


def cmd_analyze(args, out) -> str:
    trace = act.load_trace(args.trace)
    if args.mode == "autocorr":
        report = analysis.autocorrelation(trace, args.max_lag,
                                          shuffle_seed=args.shuffle_baseline,
                                          use_energy=args.energy)
        analysis.write_autocorr_csv(report, os.path.join(out, "autocorr.csv"))
        summary = analysis.format_summary(autocorr=report)
    elif args.mode == "adjacency":
        topo = _analysis_topo(args, trace)
        report = analysis.adjacent_correlation(trace, topo)
        if args.compare is not None:
            other_trace = act.load_trace(args.compare)
            other_topo = topo
            if args.compare_model:
                other_topo = _trace_model(args.compare, other_trace, args.compare_model).topo
            other = analysis.adjacent_correlation(other_trace, other_topo)
            report = analysis.compare_adjacency(report, other,
                                                n_permutations=args.permutations,
                                                seed=args.seed)
        analysis.write_adjacency_csv(report, os.path.join(out, "adjacency.csv"))
        summary = analysis.format_summary(adjacency=report)
    else:
        topo = _analysis_topo(args, trace)
        value = analysis.cluster_locality(trace, topo, args.k)
        summary = analysis.format_summary(locality=value, locality_k=args.k)
    with open(os.path.join(out, "summary.txt"), "w", encoding="ascii") as f:
        f.write(summary)
    return summary


def _trace_model(trace_dir, trace: act.ActivationTrace, model_dir) -> estimation.BasisModel:
    """The model in `model_dir`, after checking that it computed the trace."""
    model = estimation.load_basis(model_dir)
    if trace.model_ref != model.identity_hash():
        raise ModelMismatch(f"trace {trace_dir} was not computed by the model in {model_dir}")
    return model


def _analysis_topo(args, trace: act.ActivationTrace) -> Topography:
    topo = _trace_model(args.trace, trace, args.model).topo
    if args.shuffle_topo is not None:
        topo = shuffle_topography(topo, args.shuffle_topo)
    return topo


def cmd_render(args, out) -> str:
    montage = render_montage(estimation.load_basis(args.model))
    images.write_image(out, montage, lo=0.0, hi=1.0)
    return f"wrote {montage.width}x{montage.height} montage to {args.out}\n"


def render_montage(model: estimation.BasisModel) -> images.GrayImage:
    """Grid of basis images laid out by lattice cell, 1-pixel separators.

    Tile (x, y) holds the basis of the unit at lattice cell (x, y), each
    tile normalized to the full gray range on its own.
    """
    topo, side = model.topo, model.patch_side
    tiles = model.basis[:, topo.unit_grid()]    # (side * side, height, width)
    lo, hi = tiles.min(axis=0), tiles.max(axis=0)
    fit = hi > lo    # False for a constant or NaN tile, which stays 0
    scaled = np.zeros_like(tiles)
    scaled[:, fit] = (tiles[:, fit] - lo[fit]) / (hi[fit] - lo[fit])
    grid = scaled.reshape(side, side, topo.height, topo.width).transpose(2, 0, 3, 1)
    canvas = np.pad(grid, ((0, 0), (1, 0), (0, 0), (1, 0)))    # separators above and left
    canvas = canvas.reshape(topo.height * (side + 1), topo.width * (side + 1))
    return images.GrayImage(np.pad(canvas, ((0, 1), (0, 1))))


class _Parser(argparse.ArgumentParser):
    """argparse prints the usage, then the message, and exits 2; this tool
    exits 1 and puts the message first, so stderr starts `topica: error:`."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topica",
                     description="Topographic ICA on image patches: train a model, "
                                 "activate it on frame sequences, analyze the traces.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = sub.add_parser("train", help="estimate a model from a directory of images")
    p_train.add_argument("--images", required=True, help="directory of PGM/PPM images")
    p_train.add_argument("--out", required=True, help="output directory for model files")
    p_train.add_argument("--config", help="key = value config file")
    for f in fields(RunConfig):
        p_train.add_argument("--" + f.name.replace("_", "-"),
                             type=_FIELD_PARSERS[f.name], help=f.metadata.get("help"))
    p_train.set_defaults(func=cmd_train, directory=True)

    p_act = sub.add_parser("activate", help="run a model over frames, a bar, or a probe")
    p_act.add_argument("--model", required=True, help="directory written by train")
    p_act.add_argument("--out", required=True)
    source = p_act.add_mutually_exclusive_group(required=True)
    source.add_argument("--frames", help="directory of frame_NNNNNN.pgm files")
    source.add_argument("--bar", choices=["horizontal", "vertical"],
                        help="synthetic moving-bar stimulus")
    source.add_argument("--probe", type=_int_at_least(0), metavar="UNIT",
                        help="single-basis probe patch for one unit")
    p_act.add_argument("--origin", type=_parse_origin,
                       help="top-left patch corner as left,top (default: frame center)")
    p_act.add_argument("--crop", type=parse_crop,
                       help="left,top,width,height applied to every frame")
    p_act.add_argument("--resize-width", type=_int_at_least(1))
    p_act.add_argument("--frame-rate", type=_frame_rate)
    p_act.add_argument("--bar-frames", type=_int_at_least(1))
    p_act.add_argument("--bar-thickness", type=_int_at_least(1))
    p_act.set_defaults(func=cmd_activate, directory=True)

    p_an = sub.add_parser("analyze", help="temporal/spatial statistics of a trace")
    p_an.add_argument("--trace", required=True, help="directory written by activate")
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--mode", required=True, choices=["autocorr", "adjacency", "locality"])
    p_an.add_argument("--model", help="model directory (topography source)")
    p_an.add_argument("--max-lag", type=_int_at_least(1))
    p_an.add_argument("--shuffle-baseline", type=_int_at_least(0),
                      help="seed for the frame-shuffled autocorrelation control")
    p_an.add_argument("--energy", action="store_true", default=None,
                      help="autocorrelation of energies instead of activations")
    p_an.add_argument("--compare", help="second trace directory for the permutation test")
    p_an.add_argument("--compare-model", help="model directory for the second trace's topography")
    p_an.add_argument("--shuffle-topo", type=_int_at_least(0),
                      help="seed to shuffle unit positions before adjacency")
    p_an.add_argument("--permutations", type=_int_at_least(1))
    p_an.add_argument("--k", type=_int_at_least(1), help="cluster size for locality mode")
    p_an.add_argument("--seed", type=_int_at_least(0))
    p_an.set_defaults(func=cmd_analyze, directory=True)

    p_r = sub.add_parser("render", help="montage of all basis images on the lattice")
    p_r.add_argument("--model", required=True)
    p_r.add_argument("--out", required=True, help="output PGM path")
    p_r.set_defaults(func=cmd_render, directory=False)
    return parser


def _highest_missing(path: str) -> str:
    """The highest missing ancestor of the absolute `path`, or `path` if its parent exists."""
    while not os.path.lexists(os.path.dirname(path)):
        path = os.path.dirname(path)
    return path


@contextlib.contextmanager
def _replacing_output(out: str, directory: bool):
    """Yield a temporary path, which replaces `out` on success.

    `top` is the highest missing ancestor of `out`, or `out` itself when
    its parent exists. The output is built in `new`, inside a `.topica-*`
    directory made beside `top`: the yielded path, an empty directory or,
    with `directory` False, the path of a file, lies at `out`'s place
    relative to `top`, so `new` holds the missing parents of `out` too. On
    success one rename moves `new` onto `top`. An existing `out`, which is
    then `top` itself, is moved aside into the `.topica-*` directory first,
    and back if the new output does not move in. If the command fails or
    is interrupted, the `.topica-*` directory is removed and the file
    system is left as it was. A `.topica-*` directory that cannot be
    removed is left behind with a warning naming it.
    """
    out = os.path.abspath(out)
    top = _highest_missing(out)
    tmp = os.path.join(os.path.dirname(top), ".topica-" + os.urandom(8).hex())
    new, aside = os.path.join(tmp, "new"), os.path.join(tmp, "old")
    result = new + out[len(top):]
    try:
        os.mkdir(tmp, 0o700)    # within `try`, so a signal just after it still removes it
        os.makedirs(result if directory else os.path.dirname(result), exist_ok=True)
        yield result
        if directory and os.path.isdir(out):
            os.replace(out, aside)
        os.replace(new, top)
    finally:
        if os.path.lexists(aside) and not os.path.lexists(out):
            os.replace(aside, out)    # the new output never moved in
        if os.path.lexists(tmp):    # not if os.mkdir failed
            try:
                shutil.rmtree(tmp)
            except OSError as exc:
                warnings.warn(f"left {tmp} behind: {exc}")


def _holds(args, condition: str) -> bool:
    """Whether `args` meets one condition of `_SCOPED_FLAGS`."""
    flag, _, values = condition.partition(" ")
    value = getattr(args, flag[2:].replace("-", "_"))
    return value in values.split(" or ") if values else value is not None


def _check_output(flag: str, path: str, directory: bool, inputs: list) -> None:
    """Refuse the output path `path`, named by `flag`, before anything is
    created: a directory if `directory`, else a file. In order, on the
    absolute path that is replaced: a path beneath a non-directory; one
    that is, or contains, one of `inputs` or the working directory; an
    existing path that the final move could not replace (a non-directory
    for a directory, a directory for a file); and, for a file, a last
    component that is empty, `.` or `..`, or a path inside one of `inputs`.
    """
    replaced = os.path.abspath(path)    # the path `_replacing_output` replaces
    parent = os.path.dirname(_highest_missing(replaced))
    if not os.path.isdir(parent):
        raise ConfigError(f"{flag} {path} is beneath {parent}, which is not a directory")
    real = os.path.realpath(replaced)
    for other in [os.getcwd()] + inputs:
        if os.path.commonpath([real, os.path.realpath(other)]) == real:
            raise ConfigError(f"{flag} {path} contains {other}, which replacing it would delete")
    if not directory:
        if os.path.isdir(replaced) and not os.path.islink(replaced):
            raise ConfigError(f"{flag} {path} is a directory")
        if os.path.basename(path) in ("", ".", ".."):
            raise ConfigError(f"{flag} {path} must name a file")
        for other in inputs:
            if os.path.commonpath([real, os.path.realpath(other)]) == os.path.realpath(other):
                raise ConfigError(f"{flag} {path} is inside {other}, whose files it could replace")
    elif os.path.lexists(replaced) and not os.path.isdir(replaced):
        raise ConfigError(f"{flag} {path} exists and is not a directory")


def _check_command_line(args) -> None:
    """Refuse a command line before any file is read or created, then fill in
    what the command reads from `args`.

    In order: a scoped flag given where it does not apply (otherwise its
    default is filled in) and an analysis without the --model it needs;
    then --out, by `_check_output`'s rules; last, for train, the --config
    file and the flags merged into `args.settings`.
    """
    for name, (conditions, default) in _SCOPED_FLAGS.get(args.command, {}).items():
        unmet = next((condition for condition in conditions if not _holds(args, condition)), None)
        if unmet is not None and getattr(args, name) is not None:
            raise ConfigError(f"argument --{name.replace('_', '-')}: applies only with {unmet}")
        if unmet is None and getattr(args, name) is None:
            setattr(args, name, default)
    if args.command == "analyze" and args.mode != "autocorr" and args.model is None:
        raise ConfigError(f"--model is required for {args.mode} analysis")
    _check_output("--out", args.out, args.directory,
                  [path for path in (getattr(args, name, None) for name in INPUT_ARGS)
                   if path is not None])
    if args.command == "train":
        args.settings = load_run_config(
            args.config, {name: getattr(args, name) for name in _FIELD_PARSERS})


class _Terminated(TopicaError):
    exit_code = 143


@contextlib.contextmanager
def _sigterm_raises():
    """Within the block, SIGTERM raises `_Terminated`, so that `finally`
    clauses run; the previous handler is restored on exit. Python runs the
    handler only between bytecodes, so a long BLAS call delays it, and
    `signal.signal` works only in the main thread, so `main` must run there."""
    def terminated(signum, frame):
        raise _Terminated("terminated")

    previous = signal.signal(signal.SIGTERM, terminated)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """`warnings.showwarning` for the command line: the message alone, on one line."""
    print(f"topica: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings(), _sigterm_raises():
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            _check_command_line(args)
            with _replacing_output(args.out, args.directory) as out:
                report = args.func(args, out)
            try:
                sys.stdout.write(report)
                sys.stdout.flush()
            except BrokenPipeError:
                # Python flushes stdout again at exit; on a closed pipe that
                # flush would fail too, so stdout is pointed at os.devnull.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise
            return 0
        except TopicaError as exc:
            print(f"topica: error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"topica: error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:    # exit 2, as for OSError's ENOMEM
            print(f"topica: error: out of memory: {str(exc) or 'allocation failed'}",
                  file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            print("topica: error: interrupted", file=sys.stderr)
            return 130


if __name__ == "__main__":
    sys.exit(main())
