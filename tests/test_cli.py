import argparse
import dataclasses
import json
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import topica
from topica.cli import (RunConfig, build_parser, cmd_activate, load_run_config, main,
                        parse_crop, render_energy_heatmaps)
from topica.errors import ConfigError
from topica.images import FrameSequence, GrayImage, extract_fixed_patches, read_image, write_image
from topica.matrixio import content_hash, read_matrix, read_meta, write_matrix
from topica.topography import build_topography


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("imgs")
    for s in (21, 22, 23):
        img = topica.generate_dead_leaves(96, 96, 110, seed=s, min_radius=2, max_radius=12)
        write_image(directory / f"leaves_{s}.pgm", img, lo=0.0, hi=1.0)
    return directory


TRAIN_FLAGS = ["--patch-side", "5", "--n-patches", "2000", "--k", "16",
               "--map-width", "4", "--map-height", "4", "--max-iters", "30",
               "--seed", "3"]


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, image_dir):
    out = tmp_path_factory.mktemp("model")
    code = main(["train", "--images", str(image_dir), "--out", str(out)] + TRAIN_FLAGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def frames_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("frames")
    scene = topica.generate_dead_leaves(96, 96, 120, seed=30, min_radius=2, max_radius=12)
    seq = topica.generate_panning_sequence(scene, 32, 40, speed=0.5, seed=2,
                                           normalize=False)
    topica.save_sequence(seq, directory)
    return directory


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory, model_dir, frames_dir):
    out = tmp_path_factory.mktemp("trace")
    code = main(["activate", "--model", str(model_dir), "--frames", str(frames_dir),
                 "--out", str(out)])
    assert code == 0
    return out


class TestRunConfig:
    def test_defaults_are_consistent(self):
        config = RunConfig()
        config.validate()
        assert config.k == config.map_width * config.map_height

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\npatch_side = 6\nk = 9\nmap_width = 3\n"
                        "map_height = 3\ncrop = 1,2,30,40\n")
        config = load_run_config(path)
        assert config.patch_side == 6
        assert config.k == 9
        assert config.crop == (1, 2, 30, 40)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("patchside = 6\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("patch_side = six\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_bad_crop_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text("crop = 1,2\n")
        with pytest.raises(ConfigError, match="run.conf: bad value for crop"):
            load_run_config(path)
        out = tmp_path / "m"
        assert main(["train", "--images", str(tmp_path), "--out", str(out),
                     "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"topica: error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("text, flags, message", [
        ("seed = -1\n", {}, "{path}: seed must be >= 0, got -1"),
        ("k = 65\n", {}, "{path}: k = 65 but the map has 64 cells"),
        ("seed = -1\n", {"k": 65}, "{path}: seed must be >= 0, got -1"),
        ("seed = -1\n", {"seed": -2}, "seed must be >= 0, got -2"),
        ("seed = 1\n", {"k": 65}, "k = 65 but the map has 64 cells"),
    ], ids=["file", "file-combination", "file-first", "flag-replaces-file", "flag"])
    def test_out_of_range_value_names_its_source(self, tmp_path, text, flags, message):
        path = tmp_path / "run.conf"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_run_config(path, flags)
        assert str(info.value) == message.format(path=path)

    def test_flag_mends_a_file_combination(self, tmp_path):
        # The file's k = 9 only fits the map the flags give.
        path = tmp_path / "run.conf"
        path.write_text("k = 9\n")
        config = load_run_config(path, {"map_width": 3, "map_height": 3})
        assert (config.k, config.map_width, config.map_height) == (9, 3, 3)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 5\n")
        config = load_run_config(path, {"seed": 9, "tol": None})
        assert config.seed == 9
        assert config.tol == RunConfig.tol

    def test_k_map_consistency_enforced(self):
        with pytest.raises(ConfigError):
            load_run_config(None, {"k": 10})

    def test_crop_parsing_errors(self):
        with pytest.raises(ConfigError):
            parse_crop("1,2,3")
        with pytest.raises(ConfigError):
            parse_crop("1,2,3,x")
        with pytest.raises(ConfigError):
            parse_crop("1,2,0,4")


TRAIN_DESTS = ["patch_side", "n_patches", "k", "map_width", "map_height", "radius",
               "epsilon", "step0", "max_iters", "tol", "seed", "crop"]


def _train_subparser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["train"]


class TestGeneratedTrainFlags:
    def test_one_option_per_field(self):
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert sorted(names) == sorted(TRAIN_DESTS)
        options = [a for a in _train_subparser()._actions
                   if a.dest not in ("help", "images", "out", "config")]
        assert sorted(a.dest for a in options) == sorted(TRAIN_DESTS)
        for action in options:
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]
            assert action.default is None

    def test_every_field_is_a_config_key(self, tmp_path):
        values = {"patch_side": 6, "n_patches": 500, "k": 9, "map_width": 3, "map_height": 3,
                  "radius": 0, "epsilon": 0.01, "step0": 0.2, "max_iters": 7, "tol": 0.001,
                  "seed": 4, "crop": (1, 2, 30, 40)}
        assert sorted(values) == sorted(TRAIN_DESTS)
        path = tmp_path / "run.conf"
        path.write_text("".join(
            f"{key} = {','.join(map(str, value)) if key == 'crop' else value}\n"
            for key, value in values.items()))
        assert dataclasses.asdict(load_run_config(path)) == values

    def test_crop_same_from_file_and_flag(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("crop = 1,2,30,40\n")
        args = _train_subparser().parse_args(["--images", "i", "--out", "o",
                                              "--crop", "1,2,30,40"])
        assert args.crop == load_run_config(path).crop == (1, 2, 30, 40)
        assert load_run_config(None, {"crop": args.crop}).crop == (1, 2, 30, 40)

    def test_frame_rate_key_rejected(self, tmp_path, image_dir, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("frame_rate = 30\n")
        out = tmp_path / "m"
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--config", str(conf)]) == 1
        assert "unknown config key 'frame_rate'" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_size_is_unknown(self, tmp_path, image_dir, capsys):
        # Training is full batch only; neither the flag nor the key exists.
        out = tmp_path / "m"
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--batch-size", "10"]) == 1
        assert "--batch-size" in capsys.readouterr().err
        conf = tmp_path / "run.conf"
        conf.write_text("batch_size = 10\n")
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--config", str(conf)]) == 1
        assert "unknown config key 'batch_size'" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_writes_model_files(self, model_dir):
        for name in ["whitening_matrix.ticm", "dewhitening_matrix.ticm",
                     "whitening.meta", "filter_matrix.ticm", "basis_matrix.ticm",
                     "basis.meta", "training_log.csv"]:
            assert (model_dir / name).exists()

    def test_model_loads_cleanly(self, model_dir):
        model = topica.load_basis(model_dir)
        assert model.kind == "TICA"
        assert model.n_units == 16
        whitening = topica.load_whitening(model_dir)
        assert whitening.k == 16

    def test_radius_zero_trains_ica(self, tmp_path, image_dir):
        out = tmp_path / "ica"
        code = main(["train", "--images", str(image_dir), "--out", str(out),
                     "--radius", "0", "--max-iters", "3"] + TRAIN_FLAGS[:-2])
        assert code == 0
        assert topica.load_basis(out).kind == "ICA"

    def test_config_file_used(self, tmp_path, image_dir):
        conf = tmp_path / "run.conf"
        conf.write_text("patch_side = 5\nn_patches = 1500\nk = 16\nmap_width = 4\n"
                        "map_height = 4\nmax_iters = 3\nseed = 1\n")
        out = tmp_path / "model"
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--config", str(conf)]) == 0
        assert topica.load_basis(out).seed == 1

    def test_empty_image_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["train", "--images", str(empty), "--out", str(tmp_path / "m")]) == 2

    def test_missing_image_dir_is_data_error(self, tmp_path):
        assert main(["train", "--images", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize("flag, value, named", [
        ("--step0", "0", "step0"), ("--epsilon", "0", "epsilon"), ("--tol", "-1", "tol"),
        ("--max-iters", "0", "max_iters"),
        ("--radius", "4", "exceeds lattice side"),
    ])
    def test_bad_setting_is_usage_error_before_reading_images(self, tmp_path, capsys,
                                                               flag, value, named):
        out = tmp_path / "m"
        assert main(["train", "--images", str(tmp_path / "nope"), "--out", str(out),
                     flag, value]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_inconsistent_k_is_usage_error(self, tmp_path, image_dir):
        assert main(["train", "--images", str(image_dir), "--out", str(tmp_path / "m"),
                     "--k", "10"]) == 1

    def test_non_integer_pnm_header_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "imgs"
        bad.mkdir()
        (bad / "x.pgm").write_bytes(b"P5\n4 x\n255\n" + bytes(16))
        assert main(["train", "--images", str(bad), "--out", str(tmp_path / "m")]) == 2
        assert "x.pgm" in capsys.readouterr().err

    def test_prints_stop_reason(self, tmp_path, image_dir, capsys):
        out = tmp_path / "m"
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--max-iters", "2", "--tol", "0"] + TRAIN_FLAGS[:-4]) == 0
        assert capsys.readouterr().out.rstrip().endswith(", stopped by max_iters")
        assert read_meta(out / "basis.meta")["stop_reason"] == "max_iters"

    def test_meta_iterations_match_cli(self, tmp_path, image_dir, capsys):
        out = tmp_path / "m"
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--max-iters", "3"] + TRAIN_FLAGS[:-4]) == 0
        printed = capsys.readouterr().out.split(" iterations")[0].rsplit(" ", 1)[1]
        meta = read_meta(out / "basis.meta")
        log_rows = (out / "training_log.csv").read_text().strip().splitlines()[1:]
        assert meta["iterations"] == printed == str(len(log_rows) - 1)


def _edit_meta(path, key, value):
    """Rewrite one ``key = value`` line; value None drops the line."""
    lines = [line for line in path.read_text().splitlines()
             if line.split("=", 1)[0].strip() != key]
    if value is not None:
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")


class TestMalformedModelMeta:
    @pytest.mark.parametrize("meta_file, key, value", [
        ("whitening.meta", "k", "four"),
        ("whitening.meta", "k", None),
        ("whitening.meta", "eigenvalues", "1,x"),
        ("basis.meta", "map_width", "four"),
        ("basis.meta", "seed", None),
    ])
    def test_activate_exits_2(self, tmp_path, model_dir, meta_file, key, value):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        _edit_meta(model / meta_file, key, value)
        # A separate interpreter, so an escaping exception shows as a traceback.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topica.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "topica.cli", "activate", "--model", str(model),
             "--bar", "vertical", "--out", str(tmp_path / "t")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("topica: error: ") and "Traceback" not in proc.stderr
        assert meta_file in proc.stderr and repr(key) in proc.stderr

    def test_kind_contradicting_radius_exits_2(self, tmp_path, model_dir):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        _edit_meta(model / "basis.meta", "kind", "ICA")     # the model has radius 1
        proc = _run_cli("activate", "--model", str(model), "--bar", "vertical",
                        "--out", str(tmp_path / "t"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("topica: error: ") and "Traceback" not in proc.stderr
        assert "basis.meta" in proc.stderr
        assert not (tmp_path / "t").exists()

    def test_non_ascii_meta_exits_2(self, tmp_path, model_dir, capsys):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        (model / "basis.meta").write_bytes(b"kind = \xff\n")
        assert main(["render", "--model", str(model), "--out", str(tmp_path / "m.pgm")]) == 2
        assert "basis.meta" in capsys.readouterr().err


def _run_cli(*argv, **kwargs):
    """Run the CLI in a separate interpreter, so an escaping exception shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topica.__file__)))
    return subprocess.run([sys.executable, "-m", "topica.cli", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


class TestMalformedTrainingLog:
    @pytest.mark.parametrize("row", ["2,abc,0.1", "2,0.5"])
    def test_render_exits_2(self, tmp_path, model_dir, capsys, row):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        with open(model / "training_log.csv", "a", encoding="ascii") as f:
            f.write(row + "\n")
        assert main(["render", "--model", str(model), "--out", str(tmp_path / "m.pgm")]) == 2
        assert "training_log.csv" in capsys.readouterr().err


def _assert_data_error_naming(capsys, name):
    err = capsys.readouterr().err
    assert err.startswith("topica: error: ") and name in err


class TestOversizedHeaders:
    """A header that declares more data than its file holds is a format error."""

    def test_huge_matrix_header_in_render(self, tmp_path, model_dir, capsys):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        (model / "filter_matrix.ticm").write_bytes(
            b"TICM\x01" + struct.pack("<II", 2**32 - 1, 2**32 - 1) + bytes(64))
        assert main(["render", "--model", str(model), "--out", str(tmp_path / "m.pgm")]) == 2
        _assert_data_error_naming(capsys, "filter_matrix.ticm")

    def test_wide_matrix_header_in_analyze(self, tmp_path, trace_dir, capsys):
        trace = tmp_path / "trace"
        shutil.copytree(trace_dir, trace)
        (trace / "activations.ticm").write_bytes(
            b"TICM\x01" + struct.pack("<II", 300, 2**31) + bytes(64))
        out = tmp_path / "a"
        assert main(["analyze", "--mode", "autocorr", "--trace", str(trace),
                     "--out", str(out)]) == 2
        _assert_data_error_naming(capsys, "activations.ticm")
        assert not out.exists()

    def test_huge_pgm_header_in_train(self, tmp_path, capsys):
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        (imgs / "big.pgm").write_bytes(b"P5\n100000000 100000000\n255\n" + bytes(64))
        out = tmp_path / "m"
        assert main(["train", "--images", str(imgs), "--out", str(out)]) == 2
        _assert_data_error_naming(capsys, "big.pgm")
        assert not out.exists()


FRAMES = "<frames>"     # replaced by the frames directory
ACTIVATE_SOURCES = [["activate", "--frames", FRAMES], ["activate", "--bar", "vertical"],
                    ["activate", "--probe", "3"]]


def _model_argv(command, model, frames_dir, out) -> list:
    """`command` run on `model` into `out`, with FRAMES replaced by `frames_dir`."""
    return ([str(frames_dir) if arg == FRAMES else arg for arg in command]
            + ["--model", str(model), "--out", str(out)])


def _cut_columns(path, cols):
    write_matrix(path, read_matrix(path)[:, :cols])


class TestModelShapes:
    @pytest.mark.parametrize("command", [["render"], ["activate", "--bar", "vertical"]])
    def test_basis_cut_to_ten_columns(self, tmp_path, model_dir, capsys, command):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        _cut_columns(model / "basis_matrix.ticm", 10)
        out = tmp_path / "out"
        assert main(command + ["--model", str(model), "--out", str(out)]) == 2
        _assert_data_error_naming(capsys, "basis_matrix.ticm")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["render"], *ACTIVATE_SOURCES],
                             ids=lambda argv: argv[-2] if len(argv) > 1 else argv[0])
    def test_basis_cut_to_ten_rows(self, tmp_path, model_dir, frames_dir, capsys, command):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        write_matrix(model / "basis_matrix.ticm", read_matrix(model / "basis_matrix.ticm")[:10])
        out = tmp_path / "out"
        assert main(_model_argv(command, model, frames_dir, out)) == 2
        _assert_data_error_naming(capsys, "basis_matrix.ticm")
        assert not out.exists()

    @pytest.mark.parametrize("source", ACTIVATE_SOURCES, ids=lambda argv: argv[1])
    def test_square_basis_for_another_patch_size(self, tmp_path, model_dir, frames_dir,
                                                 capsys, source):
        # 16 rows make 4x4 patches, but the whitening has 25 pixels.
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        write_matrix(model / "basis_matrix.ticm", read_matrix(model / "basis_matrix.ticm")[:16])
        out = tmp_path / "out"
        assert main(_model_argv(source, model, frames_dir, out)) == 2
        _assert_data_error_naming(capsys, "basis_matrix.ticm")
        assert not out.exists()

    def test_filters_cut_to_ten_columns(self, tmp_path, model_dir, capsys):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        _cut_columns(model / "filter_matrix.ticm", 10)
        out = tmp_path / "out"
        assert main(["activate", "--model", str(model), "--bar", "vertical",
                     "--out", str(out)]) == 2
        _assert_data_error_naming(capsys, "filter_matrix.ticm")
        assert not out.exists()


def _read_stack(path) -> list:
    """The images of a multi-image PGM as uint8 arrays, walked header by header."""
    data = path.read_bytes()
    frames, pos = [], 0
    while pos < len(data):
        end = pos
        for _ in range(3):    # magic, dimensions, maxval lines
            end = data.index(b"\n", end) + 1
        magic, width, height, maxval = data[pos:end].split()
        assert (magic, maxval) == (b"P5", b"255")
        width, height = int(width), int(height)
        frames.append(np.frombuffer(data, np.uint8, width * height, end).reshape(height, width))
        pos = end + width * height
    return frames


def _concatenated_images(tmp_path, frames, lo, hi) -> bytes:
    """The bytes of each frame written alone by `write_image`, in order."""
    path = tmp_path / "one.pgm"
    parts = []
    for values in frames:
        write_image(path, GrayImage(values), lo, hi)
        parts.append(path.read_bytes())
    return b"".join(parts)


def _upscaled(grid):
    return np.repeat(np.repeat(grid, 16, axis=0), 16, axis=1)


TRACE_FILES = ["activations.ticm", "energies.ticm", "heatmaps.pgm", "recon.pgm", "trace.meta"]


class TestActivateCommand:
    def test_frames_activation_outputs(self, trace_dir):
        trace = topica.load_trace(trace_dir)
        assert trace.n_frames == 40
        assert trace.n_units == 16
        assert len(_read_stack(trace_dir / "heatmaps.pgm")) == 40
        recon = _read_stack(trace_dir / "recon.pgm")
        assert len(recon) == 40
        assert recon[0].shape == (5, 5)

    @pytest.mark.parametrize("source", ["frames", "bar", "probe"])
    def test_stacks_are_the_per_frame_images_in_order(self, tmp_path, model_dir, trace_dir,
                                                      source):
        if source == "frames":
            out = trace_dir
        else:
            out = tmp_path / source
            flags = ["--bar", "vertical"] if source == "bar" else ["--probe", "3"]
            assert main(["activate", "--model", str(model_dir), *flags, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == TRACE_FILES    # no heatmaps/ or recon/ directory
        trace = topica.load_trace(out)
        model = topica.load_basis(model_dir)
        energies = trace.energies
        heatmaps = [_upscaled(e[model.topo.unit_grid()]) for e in energies]
        assert (out / "heatmaps.pgm").read_bytes() == _concatenated_images(
            tmp_path, heatmaps, 0.0, float(energies.max()))
        recon = topica.reconstruct(model, trace).data
        assert (out / "recon.pgm").read_bytes() == _concatenated_images(
            tmp_path, [row.reshape(5, 5) for row in recon], float(recon.min()), float(recon.max()))

    @pytest.mark.parametrize("activations", [
        [[0.0, 1.0, -2.0, 0.5], [2.0, -0.25, 0.0, 1.5], [-1e-3, 0.75, 1.25, -0.5]],
        np.zeros((3, 4)),
    ], ids=["saturating", "all-zero"])
    def test_quantizing_before_upscaling_changes_no_pixel(self, tmp_path, activations):
        trace = topica.ActivationTrace(np.asarray(activations), 24.0, "m")
        topo = build_topography(2, 2, 0)
        path = tmp_path / "heatmaps.pgm"
        render_energy_heatmaps(trace, topo, path)
        hi = float(trace.energies.max())
        frames = [_upscaled(e[topo.unit_grid()]) for e in trace.energies]
        assert path.read_bytes() == _concatenated_images(tmp_path, frames, 0.0, hi)
        stack = _read_stack(path)
        if hi > 0:    # the frames holding +-2 reach exactly hi
            assert [frame.max() for frame in stack] == [255, 255, 100]
        else:
            assert not any(frame.any() for frame in stack)

    def test_heatmap_geometry(self, trace_dir):
        heatmap = _read_stack(trace_dir / "heatmaps.pgm")[0]
        assert heatmap.shape == (64, 64)   # 4x4 map, x16

    def test_probe_lights_single_cell(self, tmp_path, model_dir):
        out = tmp_path / "probe"
        assert main(["activate", "--model", str(model_dir), "--probe", "5",
                     "--out", str(out)]) == 0
        trace = topica.load_trace(out)
        assert trace.n_frames == 1
        assert np.argmax(np.abs(trace.activations[0])) == 5
        heatmaps = _read_stack(out / "heatmaps.pgm")
        assert len(heatmaps) == 1
        heatmap = heatmaps[0] / 255.0
        model = topica.load_basis(model_dir)
        x, y = model.topo.cells()[5]
        block = heatmap[y * 16:(y + 1) * 16, x * 16:(x + 1) * 16]
        assert block.min() == 1.0    # the probed cell saturates
        mask = np.ones((4, 4), dtype=bool)
        mask[y, x] = False
        others = heatmap.reshape(4, 16, 4, 16).max(axis=(1, 3))[mask]
        assert others.max() < 0.05

    def test_bar_produces_one_heatmap_per_frame(self, tmp_path, model_dir):
        out = tmp_path / "bar"
        assert main(["activate", "--model", str(model_dir), "--bar", "horizontal",
                     "--bar-frames", "7", "--out", str(out)]) == 0
        assert len(_read_stack(out / "heatmaps.pgm")) == 7
        assert topica.load_trace(out).n_frames == 7

    def test_origin_and_mismatch_errors(self, tmp_path, model_dir, frames_dir):
        out = tmp_path / "t"
        assert main(["activate", "--model", str(model_dir), "--frames", str(frames_dir),
                     "--origin", "90,0", "--out", str(out)]) == 2

    def test_empty_frames_dir_no_partial_output(self, tmp_path, model_dir):
        empty = tmp_path / "frames"
        empty.mkdir()
        out = tmp_path / "t"
        assert main(["activate", "--model", str(model_dir), "--frames", str(empty),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_crop_exits_1_without_output(self, tmp_path, model_dir, frames_dir):
        out = tmp_path / "t"
        assert main(["activate", "--model", str(model_dir), "--frames", str(frames_dir),
                     "--crop", "1,2", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["-5", "0", "nan", "inf", "fast"])
    def test_bad_frame_rate_exits_1_without_output(self, tmp_path, model_dir, rate):
        out = tmp_path / "t"
        assert main(["activate", "--model", str(model_dir), "--bar", "horizontal",
                     "--frame-rate", rate, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["0", "-1", "nan", "inf"])
    def test_bad_sequence_frame_rate_exits_2(self, tmp_path, model_dir, frames_dir, rate):
        frames = tmp_path / "frames"
        shutil.copytree(frames_dir, frames)
        _edit_meta(frames / "sequence.meta", "frame_rate", rate)
        proc = _run_cli("activate", "--model", str(model_dir), "--frames", str(frames),
                        "--out", str(tmp_path / "t"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("topica: error: ") and "Traceback" not in proc.stderr
        assert "sequence.meta" in proc.stderr and "frame_rate" in proc.stderr
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("origin", ["abc", "1", "1,2,3"])
    def test_bad_origin_exits_1(self, tmp_path, model_dir, frames_dir, origin):
        proc = _run_cli("activate", "--model", str(model_dir), "--frames", str(frames_dir),
                        "--origin", origin, "--out", str(tmp_path / "t"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("topica: error: ") and "Traceback" not in proc.stderr
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("source", ACTIVATE_SOURCES, ids=lambda argv: argv[1])
    def test_hashes_whitening_once_and_basis_twice(self, tmp_path, model_dir, frames_dir,
                                                   monkeypatch, source):
        # The basis is hashed for the trace's model_ref and again by `reconstruct`.
        tags = []

        def counting_hash(tag, *parts):
            tags.append(tag)
            return content_hash(tag, *parts)

        monkeypatch.setattr(topica.estimation, "content_hash", counting_hash)
        monkeypatch.setattr(topica.whitening, "content_hash", counting_hash)
        assert main(_model_argv(source, model_dir, frames_dir, tmp_path / "t")) == 0
        assert sorted(tags) == ["topica-basis-v1", "topica-basis-v1", "topica-whitening-v1"]

    def test_trace_meta_keys(self, trace_dir):
        assert list(read_meta(trace_dir / "trace.meta")) == ["format_version", "frame_rate",
                                                             "model_ref"]

    @pytest.mark.parametrize("source", ACTIVATE_SOURCES, ids=lambda argv: argv[1])
    def test_whitening_of_another_training_exits_2(self, tmp_path, model_dir, frames_dir,
                                                   image_dir, source):
        other = tmp_path / "other"
        assert main(["train", "--images", str(image_dir), "--out", str(other),
                     "--max-iters", "1", "--n-patches", "1500"] + TRAIN_FLAGS[:-4]) == 0
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        for name in ("whitening_matrix.ticm", "dewhitening_matrix.ticm", "whitening.meta"):
            shutil.copy(other / name, model / name)
        out = tmp_path / "t"
        proc = _run_cli(*_model_argv(source, model, frames_dir, out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("topica: error: ") and "Traceback" not in proc.stderr
        assert "different whitening" in proc.stderr
        assert not out.exists()

    def test_probe_is_extracted_like_every_source(self, tmp_path, model_dir):
        out = tmp_path / "probe"
        assert main(["activate", "--model", str(model_dir), "--probe", "3",
                     "--out", str(out)]) == 0
        model = topica.load_basis(model_dir)
        seq = FrameSequence([topica.generate_single_basis_probe(model, 3)])
        patches = extract_fixed_patches(seq, (0, 0), model.patch_side)
        expected = topica.compute_activation(model, topica.load_whitening(model_dir), patches)
        np.testing.assert_array_equal(topica.load_trace(out).activations, expected.activations)

    def test_rerun_replaces_existing_out(self, tmp_path, model_dir):
        out = tmp_path / "bar"
        for frames in ("16", "8"):
            assert main(["activate", "--model", str(model_dir), "--bar", "horizontal",
                         "--bar-frames", frames, "--out", str(out)]) == 0
        assert len(_read_stack(out / "heatmaps.pgm")) == 8
        assert len(_read_stack(out / "recon.pgm")) == 8
        assert topica.load_trace(out).n_frames == 8
        assert os.listdir(tmp_path) == ["bar"]

    def test_failure_keeps_existing_out(self, tmp_path, model_dir):
        out = tmp_path / "bar"
        assert main(["activate", "--model", str(model_dir), "--bar", "horizontal",
                     "--bar-frames", "16", "--out", str(out)]) == 0
        before = (out / "heatmaps.pgm").read_bytes()
        empty = tmp_path / "frames"
        empty.mkdir()
        assert main(["activate", "--model", str(model_dir), "--frames", str(empty),
                     "--out", str(out)]) == 2
        assert (out / "heatmaps.pgm").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["bar", "frames"]

    def test_holds_one_frame_stack(self, tmp_path, model_dir, monkeypatch):
        # The frames are normalized in place and dropped once the patches are
        # cut, so activate holds at most one stack (plus a frame or two), and
        # none by the time the activations are computed.
        frames = tmp_path / "frames"
        rng = np.random.default_rng(0)
        topica.save_sequence(FrameSequence([GrayImage(rng.random((128, 128)))
                                            for _ in range(40)]), frames)
        stack_bytes = 40 * 128 * 128 * 8
        args = build_parser().parse_args(["activate", "--model", str(model_dir),
                                          "--frames", str(frames), "--out", "unused"])
        out = tmp_path / "out"
        out.mkdir()
        held = []
        compute = topica.activation.compute_activation

        def compute_activation(*a, **kw):
            held.append(tracemalloc.get_traced_memory()[0])
            return compute(*a, **kw)

        monkeypatch.setattr(topica.activation, "compute_activation", compute_activation)
        cmd_activate(args, str(out))    # imports made on first use
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cmd_activate(args, str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * stack_bytes
        assert held[-1] - start < 0.25 * stack_bytes

    def test_out_containing_an_input_is_refused(self, tmp_path, model_dir):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        for out in (tmp_path, model):
            assert main(["activate", "--model", str(model), "--bar", "horizontal",
                         "--out", str(out)]) == 1
        assert sorted(os.listdir(model)) == sorted(os.listdir(model_dir))


class TestAnalyzeCommand:
    def test_autocorr_outputs(self, tmp_path, trace_dir):
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace_dir), "--mode", "autocorr",
                     "--max-lag", "5", "--out", str(out)]) == 0
        lines = (out / "autocorr.csv").read_text().strip().splitlines()
        assert lines[0] == "lag,mean_r,shuffled_mean_r"
        assert len(lines) == 7
        assert (out / "summary.txt").exists()

    def test_adjacency_with_compare(self, tmp_path, trace_dir, model_dir):
        out = tmp_path / "adj"
        assert main(["analyze", "--trace", str(trace_dir), "--mode", "adjacency",
                     "--model", str(model_dir), "--compare", str(trace_dir),
                     "--compare-model", str(model_dir), "--permutations", "200",
                     "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "p = 1.0000" in summary     # identical traces
        assert (out / "adjacency.csv").exists()

    def test_adjacency_needs_model(self, tmp_path, trace_dir):
        assert main(["analyze", "--trace", str(trace_dir), "--mode", "adjacency",
                     "--out", str(tmp_path / "x")]) == 1

    def test_locality_value_in_summary(self, tmp_path, trace_dir, model_dir):
        out = tmp_path / "loc"
        assert main(["analyze", "--trace", str(trace_dir), "--mode", "locality",
                     "--model", str(model_dir), "--k", "1", "--out", str(out)]) == 0
        assert "0.0000" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("flags, code", [
        (["--mode", "locality", "--k", "0"], 1),
        (["--mode", "adjacency", "--permutations", "0"], 1),
    ])
    def test_failure_leaves_no_output(self, tmp_path, trace_dir, model_dir, flags, code):
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace_dir), "--model", str(model_dir),
                     "--compare", str(trace_dir), "--out", str(out)] + flags) == code
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["0", "-5", "nan", "inf"])
    def test_bad_trace_frame_rate_is_format_error(self, tmp_path, trace_dir, capsys, rate):
        bad = tmp_path / "trace"
        shutil.copytree(trace_dir, bad)
        _edit_meta(bad / "trace.meta", "frame_rate", rate)
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(bad), "--mode", "autocorr",
                     "--out", str(out)]) == 2
        assert "trace.meta" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_replaces_existing_out(self, tmp_path, trace_dir, model_dir):
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace_dir), "--mode", "autocorr",
                     "--max-lag", "5", "--out", str(out)]) == 0
        assert main(["analyze", "--trace", str(trace_dir), "--mode", "locality",
                     "--model", str(model_dir), "--k", "1", "--out", str(out)]) == 0
        assert os.listdir(out) == ["summary.txt"]
        assert "spread" in (out / "summary.txt").read_text()

    def test_energies_file_is_not_read(self, tmp_path, trace_dir, model_dir):
        trace = tmp_path / "trace"
        shutil.copytree(trace_dir, trace)
        write_matrix(trace / "energies.ticm", np.abs(read_matrix(trace / "activations.ticm")))
        summaries = []
        for source in (trace_dir, trace):
            out = tmp_path / f"adj-{len(summaries)}"
            assert main(["analyze", "--trace", str(source), "--mode", "adjacency",
                         "--model", str(model_dir), "--out", str(out)]) == 0
            summaries.append((out / "summary.txt").read_text())
        assert summaries[0] == summaries[1]

    def test_trace_with_whitening_ref_still_loads(self, tmp_path, trace_dir, model_dir):
        # Traces written before model_ref alone identified the model also held whitening_ref.
        trace = tmp_path / "trace"
        shutil.copytree(trace_dir, trace)
        _edit_meta(trace / "trace.meta", "whitening_ref",
                   topica.load_whitening(model_dir).identity_hash())
        summaries = []
        for source in (trace_dir, trace):
            out = tmp_path / f"adj-{len(summaries)}"
            assert main(["analyze", "--trace", str(source), "--mode", "adjacency",
                         "--model", str(model_dir), "--out", str(out)]) == 0
            summaries.append((out / "summary.txt").read_text())
        assert summaries[0] == summaries[1]

    def test_shuffle_topo_changes_adjacency(self, tmp_path, trace_dir, model_dir):
        base = tmp_path / "base"
        shuf = tmp_path / "shuf"
        main(["analyze", "--trace", str(trace_dir), "--mode", "adjacency",
              "--model", str(model_dir), "--out", str(base)])
        main(["analyze", "--trace", str(trace_dir), "--mode", "adjacency",
              "--model", str(model_dir), "--shuffle-topo", "4", "--out", str(shuf)])
        assert (base / "adjacency.csv").read_text() != (shuf / "adjacency.csv").read_text()


class TestNegativeSeeds:
    @pytest.mark.parametrize("flag", ["--seed", "--shuffle-baseline", "--shuffle-topo"])
    def test_analyze_flag_exits_1(self, tmp_path, trace_dir, model_dir, flag):
        out = tmp_path / "a"
        proc = _run_cli("analyze", "--trace", str(trace_dir), "--mode", "adjacency",
                        "--model", str(model_dir), flag, "-1", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("topica: error: ") and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("use_config", [False, True])
    def test_train_seed_exits_1(self, tmp_path, image_dir, use_config):
        out = tmp_path / "m"
        if use_config:
            (tmp_path / "run.conf").write_text("seed = -1\n")
            flags = ["--config", str(tmp_path / "run.conf")]
        else:
            flags = ["--seed", "-1"]
        proc = _run_cli("train", "--images", str(image_dir), "--out", str(out), *flags)
        assert proc.returncode == 1
        assert proc.stderr.startswith("topica: error: ") and "Traceback" not in proc.stderr
        assert "seed" in proc.stderr
        assert not out.exists()


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


# Far above what the CLI needs, far below what the resize asks for.
ADDRESS_SPACE_CAP = 2 * 1024**3


class TestOutOfMemory:
    def test_exits_2_and_leaves_nothing(self, tmp_path, model_dir):
        # Resizing to width 10^10 fails at its first array (80 GB), before any
        # memory is touched; width 999999 would first fill 250 MB.
        frames = tmp_path / "frames"
        rng = np.random.default_rng(0)
        topica.save_sequence(FrameSequence([GrayImage(rng.random((8, 8))) for _ in range(2)]),
                             frames)
        out = tmp_path / "out"
        proc = _run_cli("activate", "--model", str(model_dir), "--frames", str(frames),
                        "--resize-width", str(10**10), "--out", str(out),
                        preexec_fn=_cap_address_space)
        assert proc.returncode == 2
        assert proc.stderr.startswith("topica: error: out of memory: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".topica-")]


# Reports the ru_maxrss, in MB, of `python -c "import topica.cli"` and of
# `python -m topica.cli ARGV...`. A child's ru_maxrss starts from the memory
# of the process that spawned it, so they are spawned from this small
# interpreter and not from the test process.
_MAXRSS_DRIVER = """
import json, os, subprocess, sys
def maxrss_mb(argv):
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert status == 0, argv
    return usage.ru_maxrss / 1024
print(json.dumps([maxrss_mb(["-c", "import topica.cli"]),
                  maxrss_mb(["-m", "topica.cli", *sys.argv[1:]])]))
"""


class TestProcessMemory:
    def test_train_rise_is_about_its_arrays(self, tmp_path):
        # Desk size: 20000 patches of 9x9 pixels whitened to 64 dimensions.
        # Whitening all rows in one product would touch ~12 MB of OpenBLAS
        # packing buffers and rise ~42.7 MB; in row blocks train rises
        # ~31.3 MB. The margin covers the images, the held-out rows, the
        # kernel scratch and one block's buffers.
        images = tmp_path / "images"
        images.mkdir()
        for i in range(4):
            write_image(images / f"leaves_{i}.pgm",
                        topica.generate_dead_leaves(256, 256, 220, seed=i))
        n_patches, n_pixels, k = 20000, 81, 64
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.path.dirname(os.path.dirname(topica.__file__)))
        proc = subprocess.run([sys.executable, "-c", _MAXRSS_DRIVER, "train",
                               "--images", str(images), "--out", str(tmp_path / "model"),
                               "--n-patches", str(n_patches), "--max-iters", "1"],
                              capture_output=True, text=True, env=env, check=True)
        imported, trained = json.loads(proc.stdout)
        arrays_mb = n_patches * (n_pixels + k) * 8 / 2**20
        assert trained - imported < arrays_mb + 13


class TestOutOfRangeFlags:
    """A value wrong whatever the inputs is a usage error, found before any file is read;
    a value wrong only for the given model is a data error."""

    @pytest.mark.parametrize("argv", [
        ["activate", "--bar", "horizontal", "--resize-width", "0"],
        ["activate", "--bar", "horizontal", "--bar-frames", "0"],
        ["activate", "--bar", "horizontal", "--bar-thickness", "0"],
        ["activate", "--probe", "-1"],
        ["analyze", "--mode", "locality", "--k", "-2"],
        ["analyze", "--mode", "locality", "--k", "0"],
        ["analyze", "--mode", "autocorr", "--max-lag", "0"],
        ["analyze", "--mode", "adjacency", "--permutations", "0"],
        ["analyze", "--mode", "locality", "--k", "abc"],
        ["activate", "--bar", "horizontal", "--frame-rate", "0"],
        ["activate", "--bar", "horizontal", "--frame-rate", "abc"],
        ["activate", "--bar", "horizontal", "--crop", "1,2"],
        ["activate", "--bar", "horizontal", "--origin", "abc"],
        ["train", "--images", "missing", "--crop", "1,2,3"],
    ], ids=lambda argv: " ".join(argv[-2:]))
    def test_exits_1_without_reading_inputs(self, tmp_path, argv):
        missing = str(tmp_path / "missing")
        inputs = {"activate": ["--model", missing], "analyze": ["--model", missing,
                                                                "--trace", missing]}
        out = tmp_path / "out"
        proc = _run_cli(*argv, *inputs.get(argv[0], []), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("topica: error: ") and "Traceback" not in proc.stderr
        assert f"argument {argv[-2]}: " in proc.stderr
        assert not re.search(r"invalid _\w+ value", proc.stderr)    # no private function name
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["activate", "--bar", "horizontal", "--origin", "5,5"],
        ["activate", "--bar", "horizontal", "--crop", "0,0,2,2"],
        ["activate", "--probe", "0", "--resize-width", "8"],
        ["analyze", "--mode", "adjacency", "--compare-model", "MODEL"],
    ], ids=lambda flags: " ".join(flags[-2:]))
    def test_flag_that_does_not_apply_exits_1(self, tmp_path, model_dir, trace_dir, capsys,
                                              flags):
        # Each flag is valid and the inputs are good, so ignoring the flag would exit 0.
        flags = [str(model_dir) if flag == "MODEL" else flag for flag in flags]
        inputs = ["--model", str(model_dir)]
        if flags[0] == "analyze":
            inputs += ["--trace", str(trace_dir)]
        out = tmp_path / "out"
        assert main(flags + inputs + ["--out", str(out)]) == 1
        assert f"argument {flags[-2]}: applies only with --" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["activate", "--probe", "16"],
        ["activate", "--bar", "vertical", "--bar-thickness", "6"],
        ["analyze", "--mode", "locality", "--k", "17"],
    ], ids=lambda flags: " ".join(flags[-2:]))
    def test_value_wrong_for_the_model_exits_2(self, tmp_path, model_dir, trace_dir, flags):
        # The model has 16 units on 5x5 patches.
        inputs = ["--model", str(model_dir)]
        if flags[0] == "analyze":
            inputs += ["--trace", str(trace_dir)]
        out = tmp_path / "out"
        assert main(flags + inputs + ["--out", str(out)]) == 2
        assert not out.exists()


class TestTraceChecks:
    @pytest.mark.parametrize("mode", ["autocorr", "adjacency", "locality"])
    def test_zero_frame_trace_exits_2(self, tmp_path, trace_dir, model_dir, capsys, mode):
        trace = tmp_path / "trace"
        shutil.copytree(trace_dir, trace)
        write_matrix(trace / "activations.ticm", np.empty((0, 16)))
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace), "--model", str(model_dir),
                     "--mode", mode, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("topica: error: ")
        assert not out.exists()

    @pytest.fixture
    def other_model(self, tmp_path, model_dir):
        """The same lattice, but not the model that computed `trace_dir`."""
        other = tmp_path / "other"
        shutil.copytree(model_dir, other)
        _edit_meta(other / "basis.meta", "epsilon", "0.25")
        return other

    @pytest.mark.parametrize("mode", ["adjacency", "locality"])
    def test_trace_of_another_model_exits_2(self, tmp_path, trace_dir, other_model, capsys,
                                            mode):
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace_dir), "--model", str(other_model),
                     "--mode", mode, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(trace_dir) in err and str(other_model) in err
        assert not out.exists()

    def test_compared_trace_of_another_model_exits_2(self, tmp_path, trace_dir, model_dir,
                                                     other_model, capsys):
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace_dir), "--model", str(model_dir),
                     "--mode", "adjacency", "--compare", str(trace_dir),
                     "--compare-model", str(other_model), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(trace_dir) in err and str(other_model) in err
        assert not out.exists()


class TestRenderCommand:
    def test_montage_geometry(self, tmp_path, model_dir):
        out = tmp_path / "montage.pgm"
        assert main(["render", "--model", str(model_dir), "--out", str(out)]) == 0
        montage = read_image(out)
        # 4 tiles of side 5 plus 5 separator lines in each direction.
        assert (montage.width, montage.height) == (25, 25)

    def test_failed_write_keeps_earlier_montage(self, tmp_path, model_dir, monkeypatch):
        out = tmp_path / "renders" / "montage.pgm"
        assert main(["render", "--model", str(model_dir), "--out", str(out)]) == 0
        before = out.read_bytes()

        def failing_write(path, img, lo=None, hi=None):
            with open(path, "wb") as f:
                f.write(b"P5\n25 25\n255\n" + bytes(10))
            raise OSError("disk full")

        monkeypatch.setattr(topica.images, "write_image", failing_write)
        assert main(["render", "--model", str(model_dir), "--out", str(out)]) == 2
        assert out.read_bytes() == before
        assert os.listdir(out.parent) == ["montage.pgm"]

    def test_out_inside_model_is_refused(self, tmp_path, model_dir):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        before = _tree_bytes(model)
        for name in sorted(before) + ["montage.pgm"]:
            assert main(["render", "--model", str(model), "--out", str(model / name)]) == 1
        assert _tree_bytes(model) == before
        assert os.listdir(tmp_path) == ["model"]

    def test_montage_unreadable_model(self, tmp_path):
        assert main(["render", "--model", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m.pgm")]) == 2


class TestUsageErrors:
    def test_unknown_flag(self):
        assert main(["train", "--bogus"]) == 1

    def test_missing_required(self):
        assert main(["activate"]) == 1

    def test_unknown_command(self):
        assert main(["explode"]) == 1


def _tree_bytes(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


class TestDeterminism:
    def test_train_activate_analyze_bit_identical(self, tmp_path, image_dir):
        results = []
        for run in ("one", "two"):
            base = tmp_path / run
            model = base / "model"
            trace = base / "trace"
            report = base / "report"
            assert main(["train", "--images", str(image_dir), "--out", str(model),
                         "--max-iters", "8"] + TRAIN_FLAGS[:-4]) == 0
            assert main(["activate", "--model", str(model), "--bar", "horizontal",
                         "--out", str(trace)]) == 0
            assert main(["analyze", "--trace", str(trace), "--mode", "adjacency",
                         "--model", str(model), "--permutations", "50",
                         "--out", str(report)]) == 0
            results.append(_tree_bytes(base))
        assert results[0].keys() == results[1].keys()
        for name in results[0]:
            assert results[0][name] == results[1][name], f"{name} differs between runs"
