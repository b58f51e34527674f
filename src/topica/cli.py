"""Command-line entry point: train, activate, analyze, render.

Every command is deterministic given its config, its seed and the BLAS
thread count: rerunning a command with the same three writes
bit-identical files. Inputs are never mutated and all outputs land under
the directory (or file path) named by --out. Every command builds its
output in a temporary sibling (a directory, or render's montage file)
and moves it into place only on success, replacing an existing --out as
a whole.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import activation as act
from . import analysis, estimation, images, stimulus, whitening as whit
from .errors import BadDimensions, ConfigError, ModelMismatch, TopicaError
from .matrixio import format_float, read_meta
from .topography import Topography, build_topography, shuffle_topography

HEATMAP_SCALE = 16
HEATMAP_FILE = "heatmaps.pgm"
RECON_FILE = "recon.pgm"
# Path arguments a command reads; its --out may not be or contain any of them.
INPUT_ARGS = ("images", "config", "model", "frames", "trace", "compare", "compare_model")
# Per command, flags that apply only with another of its flags; all default to None.
_FLAG_NEEDS = {"activate": {"origin": "frames", "crop": "frames", "resize_width": "frames"},
               "analyze": {"compare_model": "compare"}}


def _parse_ints(text: str, name: str, layout: str) -> tuple:
    """Comma-separated integers, one for each comma-separated name in `layout`."""
    parts = text.split(",")
    if len(parts) != len(layout.split(",")):
        raise ConfigError(f"{name} must be {layout}, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{name} values must be integers, got {text!r}") from None


def _int_at_least(lo: int):
    """argparse type of an integer flag whose values below `lo` are usage errors."""
    def integer(text: str) -> int:    # argparse names it in "invalid integer value"
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return value
    return integer


def _positive_float(text: str) -> float:
    """argparse type of a finite float flag above 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _flag_type(parse):
    """argparse type of `parse`, whose ConfigError becomes argparse's own
    error, so that the message names the flag."""
    def flag_type(text: str):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    flag_type.__name__ = parse.__name__    # argparse names it in "invalid int value"
    return flag_type


def parse_crop(text: str) -> tuple:
    left, top, width, height = _parse_ints(text, "crop", "left,top,width,height")
    if width < 1 or height < 1 or left < 0 or top < 0:
        raise ConfigError(f"bad crop rectangle {text!r}")
    return left, top, width, height


@dataclass
class RunConfig(estimation.TrainConfig):
    """Training pipeline settings from a `key = value` file and/or flags.

    The training fields and their range checks come from `TrainConfig`;
    this class adds the pipeline fields and the CLI's `max_iters` default.
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
    max_iters: int = 200
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
    config = RunConfig()
    if path is not None:
        for key, raw in read_meta(path).items():
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            try:
                setattr(config, key, _FIELD_PARSERS[key](raw))
            except (ValueError, ConfigError):
                raise ConfigError(f"{path}: bad value for {key}: {raw!r}") from None
    for key, value in flags.items():
        setattr(config, key, value)
    try:
        config.validate()
    except ConfigError as exc:
        if path is not None and str(exc) != _validation_error(flags):
            raise ConfigError(f"{path}: {exc}") from None
        raise
    return config


def cmd_train(args, out) -> int:
    overrides = {name: getattr(args, name) for name in _FIELD_PARSERS}
    config = load_run_config(args.config, overrides)
    patches = images.extract_patches_from_images(
        _prepare_frames(images.load_images(args.images), config.crop),
        config.patch_side, config.n_patches, config.seed)
    model_w = whit.fit_whitening(patches, config.k)
    topo = build_topography(config.map_width, config.map_height, config.radius)
    model_b = estimation.train(patches, model_w, topo, config)
    whit.save_whitening(model_w, out)
    estimation.save_basis(model_b, out)
    last = model_b.training_log[-1]
    print(f"trained {model_b.kind} model: {model_b.n_units} units, "
          f"{model_b.iterations} iterations, "
          f"final objective {format_float(last.objective)}, "
          f"stopped by {model_b.stop_reason}")
    return 0


def _centered_origin(seq: images.FrameSequence, patch_side: int) -> tuple:
    frame = seq.frames[0]
    return (frame.height - patch_side) // 2, (frame.width - patch_side) // 2


def _prepare_frames(frames, crop=None, resize_width=None) -> list:
    """Each image of the list `frames` cropped to `crop` (a `parse_crop`
    tuple), resized to `resize_width`, then normalized; None skips a step.
    Each entry is replaced in place, so the list never holds two versions
    of one image; it is also returned."""
    for i, frame in enumerate(frames):
        if crop is not None:
            left, top, width, height = crop
            frame = images.crop_image(frame, top, left, height, width)
        if resize_width is not None:
            frame = images.resize_to_width(frame, resize_width)
        frames[i] = images.normalize_image(frame)
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


def cmd_activate(args, out) -> int:
    model = estimation.load_basis(args.model)
    model_w = whit.load_whitening(args.model)
    origin = (0, 0)
    if args.frames is not None:
        seq = images.load_sequence(args.frames)
        _prepare_frames(seq.frames, args.crop, args.resize_width)
        if args.origin is not None:
            left, top = args.origin
            origin = (top, left)
        else:
            origin = _centered_origin(seq, model.patch_side)
    elif args.bar is not None:
        spec = stimulus.BarStimulusSpec(
            patch_side=model.patch_side, thickness=args.bar_thickness,
            orientation=args.bar, n_frames=args.bar_frames)
        seq = stimulus.generate_moving_bar(spec)
    else:
        seq = images.FrameSequence([stimulus.generate_single_basis_probe(model, args.probe)])
    patches = images.extract_fixed_patches(seq, origin, model.patch_side)
    frame_rate = args.frame_rate if args.frame_rate is not None else seq.frame_rate
    del seq    # the patches hold all that is used of the frames
    trace = act.compute_activation(model, model_w, patches, frame_rate)
    act.save_trace(trace, out)
    render_energy_heatmaps(trace, model.topo, os.path.join(out, HEATMAP_FILE))
    render_reconstructions(model, trace, os.path.join(out, RECON_FILE))
    print(f"activated {trace.n_frames} frames x {trace.n_units} units")
    return 0


def cmd_analyze(args, out) -> int:
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
    sys.stdout.write(summary)
    return 0


def _trace_model(trace_dir, trace: act.ActivationTrace, model_dir) -> estimation.BasisModel:
    """The model in `model_dir`, after checking that it computed the trace."""
    model = estimation.load_basis(model_dir)
    if trace.model_ref != model.identity_hash():
        raise ModelMismatch(f"trace {trace_dir} was not computed by the model in {model_dir}")
    return model


def _analysis_topo(args, trace: act.ActivationTrace) -> Topography:
    if args.model is None:
        raise ConfigError(f"--model is required for {args.mode} analysis")
    topo = _trace_model(args.trace, trace, args.model).topo
    if args.shuffle_topo is not None:
        topo = shuffle_topography(topo, args.shuffle_topo)
    return topo


def cmd_render(args) -> int:
    with _replacing_output(args, directory=False) as tmp:
        montage = render_montage(estimation.load_basis(args.model))
        images.write_image(tmp, montage, lo=0.0, hi=1.0)
    print(f"wrote {montage.width}x{montage.height} montage to {args.out}")
    return 0


def render_montage(model: estimation.BasisModel) -> images.GrayImage:
    """Grid of basis images laid out by lattice cell, 1-pixel separators.

    Tile (x, y) holds the basis of the unit at lattice cell (x, y), each
    tile normalized to the full gray range on its own.
    """
    topo = model.topo
    side = model.patch_side
    tile = side + 1
    canvas = np.zeros((topo.height * tile + 1, topo.width * tile + 1))
    grid_index = topo.unit_grid()
    for y in range(topo.height):
        for x in range(topo.width):
            patch = model.basis[:, grid_index[y, x]].reshape(side, side)
            lo, hi = patch.min(), patch.max()
            if hi > lo:
                patch = (patch - lo) / (hi - lo)
            else:
                patch = np.zeros_like(patch)
            canvas[y * tile + 1:y * tile + 1 + side,
                   x * tile + 1:x * tile + 1 + side] = patch
    return images.GrayImage(canvas)


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
        p_train.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                             type=_flag_type(_FIELD_PARSERS[f.name]), help=f.metadata.get("help"))
    p_train.set_defaults(func=cmd_train)

    p_act = sub.add_parser("activate", help="run a model over frames, a bar, or a probe")
    p_act.add_argument("--model", required=True, help="directory written by train")
    p_act.add_argument("--out", required=True)
    source = p_act.add_mutually_exclusive_group(required=True)
    source.add_argument("--frames", help="directory of frame_NNNNNN.pgm files")
    source.add_argument("--bar", choices=["horizontal", "vertical"],
                        help="synthetic moving-bar stimulus")
    source.add_argument("--probe", type=_int_at_least(0), metavar="UNIT",
                        help="single-basis probe patch for one unit")
    p_act.add_argument("--origin",
                       type=_flag_type(lambda text: _parse_ints(text, "origin", "left,top")),
                       help="top-left patch corner as left,top (default: frame center)")
    p_act.add_argument("--crop", type=_flag_type(parse_crop),
                       help="left,top,width,height applied to every frame")
    p_act.add_argument("--resize-width", dest="resize_width", type=_int_at_least(1))
    p_act.add_argument("--frame-rate", dest="frame_rate", type=_positive_float)
    p_act.add_argument("--bar-frames", dest="bar_frames", type=_int_at_least(1), default=16)
    p_act.add_argument("--bar-thickness", dest="bar_thickness", type=_int_at_least(1), default=1)
    p_act.set_defaults(func=cmd_activate)

    p_an = sub.add_parser("analyze", help="temporal/spatial statistics of a trace")
    p_an.add_argument("--trace", required=True, help="directory written by activate")
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--mode", required=True, choices=["autocorr", "adjacency", "locality"])
    p_an.add_argument("--model", help="model directory (topography source)")
    p_an.add_argument("--max-lag", dest="max_lag", type=_int_at_least(1), default=10)
    p_an.add_argument("--shuffle-baseline", dest="shuffle_baseline", type=_int_at_least(0),
                      default=0,
                      help="seed for the frame-shuffled autocorrelation control")
    p_an.add_argument("--energy", action="store_true",
                      help="autocorrelation of energies instead of activations")
    p_an.add_argument("--compare", help="second trace directory for the permutation test")
    p_an.add_argument("--compare-model", dest="compare_model",
                      help="model directory for the second trace's topography")
    p_an.add_argument("--shuffle-topo", dest="shuffle_topo", type=_int_at_least(0),
                      help="seed to shuffle unit positions before adjacency")
    p_an.add_argument("--permutations", type=_int_at_least(1), default=analysis.N_PERMUTATIONS)
    p_an.add_argument("--k", type=_int_at_least(1), default=5,
                      help="cluster size for locality mode")
    p_an.add_argument("--seed", type=_int_at_least(0), default=0)
    p_an.set_defaults(func=cmd_analyze)

    p_r = sub.add_parser("render", help="montage of all basis images on the lattice")
    p_r.add_argument("--model", required=True)
    p_r.add_argument("--out", required=True, help="output PGM path")
    p_r.set_defaults(func=cmd_render)
    return parser


@contextlib.contextmanager
def _replacing_output(args, directory=True):
    """Yield a temporary sibling of --out, which replaces --out on success.

    The sibling is an empty directory or, with `directory` False, the path
    of a file in one. If the command fails, it is removed and --out is left
    as it was. An --out that is, or contains, an input or the working
    directory is refused before anything is computed, and so is a file
    --out inside an input directory, whose files it could replace.
    """
    out = os.path.realpath(args.out)
    inputs = [path for path in (getattr(args, name, None) for name in INPUT_ARGS)
              if path is not None]
    for path in [os.getcwd()] + inputs:
        if os.path.commonpath([out, os.path.realpath(path)]) == out:
            raise ConfigError(f"--out {args.out} contains {path}, which replacing it would delete")
    if not directory:
        for path in inputs:
            if os.path.commonpath([out, os.path.realpath(path)]) == os.path.realpath(path):
                raise ConfigError(f"--out {args.out} is inside {path}, "
                                  f"whose files it could replace")
    parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".topica-", dir=parent)
    result = tmp if directory else os.path.join(tmp, os.path.basename(out))
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o777 & ~umask)
        yield result
        if directory and os.path.isdir(args.out):
            shutil.rmtree(args.out)
        os.replace(result, args.out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, needed in _FLAG_NEEDS.get(args.command, {}).items():
            if getattr(args, name) is not None and getattr(args, needed) is None:
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"argument {flag}: applies only with --{needed}")
        if args.command == "render":
            return args.func(args)
        with _replacing_output(args) as out:
            return args.func(args, out)
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


if __name__ == "__main__":
    sys.exit(main())
