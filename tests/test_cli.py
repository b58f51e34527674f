import argparse
import dataclasses
import errno
import json
import os
import re
import resource
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import topica
from topica.cli import (RunConfig, _check_command_line, _check_output, build_parser,
                        cmd_activate, load_run_config, main, parse_crop, render_energy_heatmaps)
from topica.errors import MAX_ARRAY_BYTES, ConfigError
from topica.images import (FrameSequence, GrayImage, crop_image, extract_fixed_patches, read_image,
                           resize_to_width, write_image)
from topica.matrixio import content_hash, read_matrix, read_meta, write_matrix, write_meta
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
    seq = topica.generate_panning_sequence(scene, 32, 40, speed=0.5, seed=2)
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
        ("step0 = nan\n", {}, "{path}: step0 must be finite and > 0, got nan"),
    ], ids=["file", "file-combination", "file-first", "flag-replaces-file", "flag",
            "file-not-finite"])
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
        with pytest.raises(argparse.ArgumentTypeError):
            parse_crop("1,2,3")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_crop("1,2,3,x")
        with pytest.raises(argparse.ArgumentTypeError):
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

    def test_one_sample_trains_on_its_holdout(self, tmp_path, image_dir, capsys):
        # The one patch is held out, which leaves no other row to train on.
        out = tmp_path / "one"
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--n-patches", "1", "--k", "1", "--map-width", "1", "--map-height", "1",
                     "--radius", "0", "--max-iters", "3"]) == 0
        assert capsys.readouterr().out.startswith("trained ICA model: 1 units, 3 iterations,")
        model = topica.load_basis(out)
        assert model.filters.shape == (1, 1) and np.isclose(abs(model.filters[0, 0]), 1.0)
        assert all(np.isfinite(record.objective) for record in model.training_log)

    def test_config_file_used(self, tmp_path, image_dir):
        conf = tmp_path / "run.conf"
        conf.write_text("patch_side = 5\nn_patches = 1500\nk = 16\nmap_width = 4\n"
                        "map_height = 4\nmax_iters = 3\nseed = 1\n")
        out = tmp_path / "model"
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--config", str(conf)]) == 0
        assert topica.load_basis(out).seed == 1

    def test_config_with_a_repeated_key_exits_2(self, tmp_path, image_dir, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 1\nseed = 2\n")
        out = tmp_path / "model"
        assert main(["train", "--images", str(image_dir), "--out", str(out),
                     "--config", str(conf)] + TRAIN_FLAGS[:-2]) == 2
        assert capsys.readouterr() == (
            "", f"topica: error: {conf}:2: key 'seed' repeats line 1\n")
        assert not out.exists()

    def test_constant_image_is_named(self, tmp_path, image_dir, capsys):
        # In name order, leaves_22a.pgm comes third, after leaves_21 and leaves_22.
        images = tmp_path / "images"
        shutil.copytree(image_dir, images)
        write_image(images / "leaves_22a.pgm", GrayImage(np.full((96, 96), 0.5)), 0.0, 1.0)
        assert main(["train", "--images", str(images), "--out", str(tmp_path / "m")]
                    + TRAIN_FLAGS) == 2
        assert capsys.readouterr() == ("", "topica: error: image 2: image has zero pixel "
                                           "variance\n")
        assert os.listdir(tmp_path) == ["images"]

    def test_crop_leaving_an_image_is_named(self, tmp_path, image_dir, capsys):
        assert main(["train", "--images", str(image_dir), "--out", str(tmp_path / "m"),
                     "--crop", "0,0,100,8"] + TRAIN_FLAGS) == 2
        assert capsys.readouterr() == ("", "topica: error: image 0: crop 100x8 at left 0, "
                                           "top 0 leaves the 96x96 image\n")
        assert os.listdir(tmp_path) == []

    def test_empty_image_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["train", "--images", str(empty), "--out", str(tmp_path / "m")]) == 2

    def test_missing_image_dir_is_data_error(self, tmp_path):
        assert main(["train", "--images", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize("flag, value, named", [
        ("--step0", "0", "step0"), ("--epsilon", "0", "epsilon"), ("--tol", "-1", "tol"),
        ("--step0", "nan", "step0"), ("--epsilon", "inf", "epsilon"), ("--tol", "nan", "tol"),
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

    def test_overflowing_step_exits_3_on_one_line(self, tmp_path, image_dir, capsys):
        # The first candidate's Gram matrix overflows to inf.
        assert main(["train", "--images", str(image_dir), "--out", str(tmp_path / "m"),
                     "--step0", "1e300"] + TRAIN_FLAGS) == 3
        assert capsys.readouterr() == ("", "topica: error: filter Gram matrix is not finite\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("side", ["100000", "100000000000"])
    def test_patch_side_beyond_the_images_exits_2_before_allocating(self, tmp_path, image_dir,
                                                                    capsys, side):
        # (n_patches, side^2) would not fit in memory, or not even in numpy's shape limit.
        assert main(["train", "--images", str(image_dir), "--out", str(tmp_path / "m")]
                    + TRAIN_FLAGS + ["--patch-side", side]) == 2
        assert capsys.readouterr() == (
            "", f"topica: error: patch_side {side} exceeds image size 96x96\n")
        assert os.listdir(tmp_path) == []

    def test_inconsistent_k_is_usage_error(self, tmp_path, image_dir):
        assert main(["train", "--images", str(image_dir), "--out", str(tmp_path / "m"),
                     "--k", "10"]) == 1

    def test_non_integer_pnm_header_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "imgs"
        bad.mkdir()
        (bad / "x.pgm").write_bytes(b"P5\n4 x\n255\n" + bytes(16))
        assert main(["train", "--images", str(bad), "--out", str(tmp_path / "m")]) == 2
        assert "x.pgm" in capsys.readouterr().err

    def test_fifo_image_is_a_data_error_naming_it(self, tmp_path, image_dir, fed_fifo, capsys):
        images = tmp_path / "imgs"
        shutil.copytree(image_dir, images)
        fifo = images / "zz_fifo.pgm"
        fed_fifo(fifo, (image_dir / "leaves_21.pgm").read_bytes())
        assert main(["train", "--images", str(images), "--out", str(tmp_path / "m")]
                    + TRAIN_FLAGS) == 2
        assert capsys.readouterr() == ("", f"topica: error: {fifo}: not a regular file\n")
        assert os.listdir(tmp_path) == ["imgs"]

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


# Two shapes on the 96x96 images of `image_dir`, both whitened to 16
# dimensions: fewer pixels than patches, and more.
TRAIN_SHAPES = {"p<=T": {"patch_side": 5, "n_patches": 2000},
                "p>T": {"patch_side": 8, "n_patches": 40}}


@pytest.fixture(scope="class", params=list(TRAIN_SHAPES))
def cli_trained(request, tmp_path_factory, image_dir):
    """A `train` run in process at one of TRAIN_SHAPES: its settings, its
    output directory and how many times it cut patches from the images."""
    settings = dict(TRAIN_SHAPES[request.param], k=16, map_width=4, map_height=4,
                    max_iters=10, seed=3)
    out = tmp_path_factory.mktemp("trained") / "model"
    cut = topica.images.extract_patches_from_images
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return cut(*args, **kwargs)

    flags = [flag for key, value in settings.items()
             for flag in (f"--{key.replace('_', '-')}", str(value))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topica.images, "extract_patches_from_images", counted)
        assert main(["train", "--images", str(image_dir), "--out", str(out)] + flags) == 0
    return settings, out, len(calls)


class TestTrainPipeline:
    def test_cuts_the_patches_once(self, cli_trained):
        assert cli_trained[2] == 1

    def test_writes_the_library_path_bytes(self, tmp_path, image_dir, cli_trained):
        settings, out, _ = cli_trained
        frames = [topica.normalize_image(img) for img in topica.load_images(image_dir)]
        patches = topica.extract_patches_from_images(frames, settings["patch_side"],
                                                     settings["n_patches"], settings["seed"])
        whitening = topica.fit_whitening(patches, settings["k"])
        model = topica.train(patches, whitening,
                             build_topography(settings["map_width"], settings["map_height"],
                                              radius=1),
                             topica.TrainConfig(max_iters=settings["max_iters"],
                                                seed=settings["seed"]))
        topica.save_whitening(whitening, tmp_path)
        topica.save_basis(model, tmp_path)
        for name in ["whitening_matrix.ticm", "dewhitening_matrix.ticm", "whitening.meta",
                     "filter_matrix.ticm", "basis_matrix.ticm", "basis.meta",
                     "training_log.csv"]:
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


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
        ("whitening.meta", "eigenvalues", ""),
        ("basis.meta", "map_width", "four"),
        ("basis.meta", "permutation", "1,,2"),
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

    def test_map_larger_than_the_filters(self, tmp_path, model_dir):
        # The filter count is checked before the lattice's arrays are sized by
        # the map: a 30000x30000 lattice would first allocate 6.7 GiB. The
        # child runs under the address-space cap, so a regression fails
        # without filling the host's memory.
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        meta = read_meta(model / "basis.meta")
        meta.update(map_width="30000", map_height="30000")
        write_meta(model / "basis.meta", meta)
        out = tmp_path / "out"
        proc = _run_cli("render", "--model", str(model), "--out", str(out),
                        preexec_fn=_cap_address_space)
        assert (proc.returncode, proc.stderr) == (
            2, f"topica: error: {model}: 16 filters for {30000**2} units\n")
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

    def test_errors_echo_left_and_top(self, tmp_path, model_dir, frames_dir, capsys):
        # --origin and --crop are given as left,top; the 32x32 frames are 32 wide.
        argv = ["activate", "--model", str(model_dir), "--frames", str(frames_dir),
                "--out", str(tmp_path / "t")]
        assert main(argv + ["--origin", "30,2"]) == 2
        assert capsys.readouterr() == ("", "topica: error: patch at left 30, top 2 with side 5 "
                                           "leaves the 32x32 frame\n")
        assert main(argv + ["--crop", "0,0,40,8"]) == 2
        assert capsys.readouterr() == ("", "topica: error: frame 0: crop 40x8 at left 0, top 0 "
                                           "leaves the 32x32 image\n")
        assert os.listdir(tmp_path) == []

    def test_constant_frame_is_named(self, tmp_path, model_dir, frames_dir, capsys):
        frames = tmp_path / "frames"
        shutil.copytree(frames_dir, frames)
        write_image(frames / "frame_000004.pgm", GrayImage(np.full((32, 32), 0.5)), 0.0, 1.0)
        assert main(["activate", "--model", str(model_dir), "--frames", str(frames),
                     "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr() == ("", "topica: error: frame 4: image has zero pixel "
                                           "variance\n")
        assert os.listdir(tmp_path) == ["frames"]

    def test_empty_frames_dir_no_partial_output(self, tmp_path, model_dir):
        empty = tmp_path / "frames"
        empty.mkdir()
        out = tmp_path / "t"
        assert main(["activate", "--model", str(model_dir), "--frames", str(empty),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_frames_are_cropped_then_resized_then_normalized(self, tmp_path, model_dir,
                                                            frames_dir):
        out = tmp_path / "t"
        assert main(["activate", "--model", str(model_dir), "--frames", str(frames_dir),
                     "--crop", "2,3,24,20", "--resize-width", "12", "--origin", "1,2",
                     "--out", str(out)]) == 0
        seq = topica.load_sequence(frames_dir)
        frames = [topica.normalize_image(resize_to_width(crop_image(frame, 2, 3, 24, 20), 12))
                  for frame in seq.frames]
        patches = extract_fixed_patches(FrameSequence(frames, seq.frame_rate), (1, 2), 5)
        expected = topica.compute_activation(topica.load_basis(model_dir),
                                             topica.load_whitening(model_dir), patches,
                                             seq.frame_rate)
        assert np.array_equal(topica.load_trace(out).activations, expected.activations)

    def test_bad_crop_exits_1_without_output(self, tmp_path, model_dir, frames_dir):
        out = tmp_path / "t"
        assert main(["activate", "--model", str(model_dir), "--frames", str(frames_dir),
                     "--crop", "1,2", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["-5", "0", "nan", "inf", "fast"])
    def test_bad_frame_rate_exits_1_without_output(self, tmp_path, model_dir, capsys, rate):
        out = tmp_path / "t"
        assert main(["activate", "--model", str(model_dir), "--bar", "horizontal",
                     "--frame-rate", rate, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("topica: error: argument --frame-rate: ")
        assert not out.exists()

    def test_non_numeric_frame_rate_names_the_rule(self, tmp_path, model_dir, capsys):
        assert main(["activate", "--model", str(model_dir), "--bar", "horizontal",
                     "--frame-rate", "abc", "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err.startswith(
            "topica: error: argument --frame-rate: frame_rate must be finite and > 0, "
            "got 'abc'\n")

    def test_sequence_frame_rate_message_names_the_rule(self, tmp_path, model_dir, frames_dir,
                                                        capsys):
        frames = tmp_path / "frames"
        shutil.copytree(frames_dir, frames)
        _edit_meta(frames / "sequence.meta", "frame_rate", "0")
        assert main(["activate", "--model", str(model_dir), "--frames", str(frames),
                     "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr() == (
            "", f"topica: error: {frames}/sequence.meta: bad value for 'frame_rate': '0' "
                f"(frame_rate must be finite and > 0, got 0.0)\n")

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

    def test_interrupt_exits_130_and_keeps_existing_out(self, tmp_path, model_dir,
                                                         monkeypatch, capsys):
        out = tmp_path / "bar"
        argv = ["activate", "--model", str(model_dir), "--bar", "horizontal",
                "--bar-frames", "4", "--out", str(out)]
        assert main(argv) == 0
        before = _tree_bytes(out)
        capsys.readouterr()

        def interrupted(args, tmp_out):
            open(os.path.join(tmp_out, "partial"), "w").close()
            raise KeyboardInterrupt

        monkeypatch.setattr(topica.cli, "cmd_activate", interrupted)
        try:
            code = main(argv)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "topica: error: interrupted\n"
        assert _tree_bytes(out) == before
        assert os.listdir(tmp_path) == ["bar"]

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

    @pytest.mark.parametrize("mode", ["adjacency", "locality"])
    def test_missing_model_exits_1_before_reading_the_trace(self, tmp_path, capsys, mode):
        assert main(["analyze", "--trace", str(tmp_path / "missing"), "--mode", mode,
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == f"topica: error: --model is required for {mode} analysis\n"
        assert os.listdir(tmp_path) == []

    def test_constant_unit_warns_on_one_line(self, tmp_path, trace_dir):
        trace = tmp_path / "trace"
        shutil.copytree(trace_dir, trace)
        activations = read_matrix(trace / "activations.ticm")
        activations[:, 3] = 0.5
        write_matrix(trace / "activations.ticm", activations)
        proc = _run_cli("analyze", "--trace", str(trace), "--mode", "autocorr",
                        "--out", str(tmp_path / "a"))
        assert proc.returncode == 0
        assert proc.stderr == ("topica: warning: excluding 1 constant unit series "
                               "from autocorrelation\n")

    @pytest.mark.parametrize("mode", ["autocorr", "adjacency"])
    def test_static_movie_exits_2(self, tmp_path, model_dir, frames_dir, capsys, mode):
        # Thirty copies of one frame: every unit's series is constant, at values
        # whose mean over the frames need not be exact.
        frames = tmp_path / "frames"
        topica.save_sequence(FrameSequence([topica.load_sequence(frames_dir).frames[0]] * 30),
                             frames)
        trace = tmp_path / "trace"
        assert main(["activate", "--model", str(model_dir), "--frames", str(frames),
                     "--out", str(trace)]) == 0
        capsys.readouterr()
        flags = [] if mode == "autocorr" else ["--model", str(model_dir)]
        assert main(["analyze", "--trace", str(trace), "--mode", mode, "--out",
                     str(tmp_path / "a")] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == {
            "autocorr": "topica: error: every unit series is constant",
            "adjacency": "topica: error: no adjacent pair of units has two varying energy series",
        }[mode]
        assert sorted(os.listdir(tmp_path)) == ["frames", "trace"]

    def test_constant_unit_is_counted_in_the_summary(self, tmp_path, trace_dir, capsys):
        trace = tmp_path / "trace"
        shutil.copytree(trace_dir, trace)
        activations = read_matrix(trace / "activations.ticm")
        activations[:, [3, 7]] = 0.5
        write_matrix(trace / "activations.ticm", activations)
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace), "--mode", "autocorr",
                     "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert summary.splitlines()[1] == "  excluded constant units: 2"
        assert capsys.readouterr().out == summary

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
        if not use_config:    # the merged settings are checked, so the message names the setting
            assert proc.stderr == "topica: error: seed must be >= 0, got -1\n"
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


class TestBeyondAnyArray:
    @pytest.mark.parametrize("flags, code, message", [
        (["train", "--images", "IMAGES"] + TRAIN_FLAGS + ["--n-patches", str(10**18)], 2,
         f"{10**18} patches of side 5 exceed {MAX_ARRAY_BYTES} bytes"),
        (["activate", "--model", "MODEL", "--frames", "FRAMES", "--resize-width", str(10**30)],
         2, f"frame 0: resampling to {32 * 10**30} pixels exceeds {MAX_ARRAY_BYTES} bytes"),
        (["activate", "--model", "MODEL", "--frames", "FRAMES", "--resize-width", str(10**17)],
         2, f"frame 0: resampling to {32 * 10**17} pixels exceeds {MAX_ARRAY_BYTES} bytes"),
        (["train", "--images", "IMAGES", "--map-width", str(10**18), "--map-height", "3"], 1,
         f"lattice {10**18}x3: its neighborhood matrix exceeds {MAX_ARRAY_BYTES} bytes"),
    ], ids=["n-patches", "resize-width-1e30", "resize-width-1e17", "map-width"])
    def test_exits_on_one_line_before_allocating(self, tmp_path, image_dir, model_dir,
                                                 frames_dir, capsys, flags, code, message):
        # numpy refuses these sizes with a ValueError; each is refused first.
        paths = {"IMAGES": image_dir, "MODEL": model_dir, "FRAMES": frames_dir}
        argv = [str(paths.get(flag, flag)) for flag in flags]
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr() == ("", f"topica: error: {message}\n")
        assert os.listdir(tmp_path) == []


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


def _train_rise_mb(tmp_path, n_images, *flags):
    """How far the ru_maxrss of a `train` process on `n_images` dead-leaves
    images of 256x256 rises above that of a process that only imports
    topica.cli, in MB."""
    images = tmp_path / "images"
    images.mkdir()
    for i in range(n_images):
        write_image(images / f"leaves_{i}.pgm",
                    topica.generate_dead_leaves(256, 256, 220, seed=i))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.path.dirname(os.path.dirname(topica.__file__)))
    proc = subprocess.run([sys.executable, "-c", _MAXRSS_DRIVER, "train",
                           "--images", str(images), "--out", str(tmp_path / "model"),
                           "--max-iters", "1", *flags],
                          capture_output=True, text=True, env=env, check=True)
    imported, trained = json.loads(proc.stdout)
    return trained - imported


# Desk size: 20000 patches of 9x9 pixels whitened to 64 dimensions.
DESK_PATCHES, DESK_PIXELS, DESK_K = 20000, 81, 64
# Wide size: more pixels than patches, 1500 patches of 64x64 whitened to 144.
WIDE_PATCHES, WIDE_SIDE, WIDE_K = 1500, 64, 144


@pytest.fixture(scope="class")
def desk_train_rise_mb(tmp_path_factory):
    return _train_rise_mb(tmp_path_factory.mktemp("desk"), 4, "--n-patches", str(DESK_PATCHES))


@pytest.fixture(scope="class")
def wide_train_rise_mb(tmp_path_factory):
    return _train_rise_mb(tmp_path_factory.mktemp("wide"), 3, "--patch-side", str(WIDE_SIDE),
                          "--n-patches", str(WIDE_PATCHES), "--k", str(WIDE_K),
                          "--map-width", "12", "--map-height", "12")


class TestProcessMemory:
    # The margins cover the images, the held-out rows, the kernel scratch and
    # one block's buffers.

    def test_train_rise_is_about_its_arrays(self, desk_train_rise_mb):
        # Whitening all rows in one product would touch ~12 MB of OpenBLAS
        # packing buffers and rise ~42.7 MB; in row blocks into a second
        # array train rose ~31.3 MB.
        arrays_mb = DESK_PATCHES * (DESK_PIXELS + DESK_K) * 8 / 2**20
        assert desk_train_rise_mb < arrays_mb + 13

    def test_train_holds_one_patch_array(self, desk_train_rise_mb):
        # The patches are whitened in their own buffer, so no (n, k) array is
        # held beside the (n, p) one: ~22 MB in place of ~31.3 MB.
        patches_mb = DESK_PATCHES * DESK_PIXELS * 8 / 2**20
        assert desk_train_rise_mb < patches_mb + 13

    def test_wide_train_holds_no_patch_buffer_past_the_whitening(self, wide_train_rise_mb):
        # At p > T the fit solves the T x T Gram for its top k eigenpairs, and
        # the map back holds two (k, p) arrays beside the patches. Whitened in
        # place, the patch buffer is shrunk to its (T, k) rows, so the peak is
        # the patches, the Gram and the solver's eigenvectors during the
        # solve: a rise of ~76 MB. Training on the whole (T, p) buffer rose
        # ~90 MB, and `eigh` of all T eigenpairs, about 4 Grams of workspace
        # and output, ~143 MB.
        patches_mb = WIDE_PATCHES * WIDE_SIDE**2 * 8 / 2**20
        gram_mb = WIDE_PATCHES**2 * 8 / 2**20
        assert wide_train_rise_mb < patches_mb + 2 * gram_mb


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
        ["activate", "--frames", "missing", "--origin", "0,-1"],
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
        ["activate", "--probe", "0", "--bar-thickness", "6"],
        ["activate", "--probe", "0", "--bar-frames", "4"],
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

    @pytest.mark.parametrize("mode, flag, value, modes", [
        pytest.param(mode, flag, value, modes, id=f"{mode} {flag}")
        for mode, flag, value, modes in [
            ("autocorr", "--compare", "TRACE", "adjacency"),
            ("locality", "--compare", "TRACE", "adjacency"),
            ("autocorr", "--compare-model", "MODEL", "adjacency"),
            ("locality", "--compare-model", "MODEL", "adjacency"),
            ("autocorr", "--shuffle-topo", "3", "adjacency or locality"),
            ("autocorr", "--k", "9", "locality"),
            ("adjacency", "--k", "3", "locality"),
            ("locality", "--max-lag", "3", "autocorr"),
            ("adjacency", "--shuffle-baseline", "2", "autocorr"),
            ("locality", "--energy", None, "autocorr"),
            ("autocorr", "--permutations", "5", "adjacency"),
            ("locality", "--seed", "3", "adjacency"),
            ("autocorr", "--model", "MODEL", "adjacency or locality"),
        ]])
    def test_analyze_flag_outside_its_modes_exits_1(self, tmp_path, model_dir, trace_dir,
                                                    capsys, mode, flag, value, modes):
        # Good inputs, so ignoring the flag would exit 0. --energy takes no value.
        value = {"TRACE": str(trace_dir), "MODEL": str(model_dir)}.get(value, value)
        out = tmp_path / "out"
        assert main(["analyze", "--mode", mode, "--trace", str(trace_dir), "--model",
                     str(model_dir), flag, *([value] if value else []),
                     "--out", str(out)]) == 1
        assert f"argument {flag}: applies only with --mode {modes}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, defaults", [
        (["activate", "--model", "m", "--bar", "vertical"], {"bar_frames": 16, "bar_thickness": 1}),
        (["analyze", "--trace", "t", "--mode", "autocorr"],
         {"max_lag": 10, "shuffle_baseline": 0, "energy": False}),
        (["analyze", "--trace", "t", "--mode", "locality", "--model", "m"], {"k": 5}),
        (["analyze", "--trace", "t", "--mode", "adjacency", "--model", "m"],
         {"permutations": 10000, "seed": 0}),
    ], ids=["bar", "autocorr", "locality", "adjacency"])
    def test_defaults_where_flags_apply(self, tmp_path, monkeypatch, argv, defaults):
        # The values README states, as the command receives them.
        seen = {}

        def command(args, out):
            seen.update(vars(args))
            return ""

        monkeypatch.setattr(topica.cli, "cmd_" + argv[0], command)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert {name: seen[name] for name in defaults} == defaults

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
        model = ["--model", str(model_dir)] if mode != "autocorr" else []
        assert main(["analyze", "--trace", str(trace), *model,
                     "--mode", mode, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("topica: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["autocorr", "adjacency", "locality"])
    def test_non_finite_trace_exits_2(self, tmp_path, trace_dir, model_dir, capsys, mode):
        trace = tmp_path / "trace"
        shutil.copytree(trace_dir, trace)
        activations = read_matrix(trace / "activations.ticm")
        activations[1, 2] = np.nan
        write_matrix(trace / "activations.ticm", activations)
        out = tmp_path / "a"
        model = ["--model", str(model_dir)] if mode != "autocorr" else []
        assert main(["analyze", "--trace", str(trace), *model,
                     "--mode", mode, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"topica: error: {trace}/activations.ticm: holds a non-finite value\n")
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

    def test_constant_basis_tile_is_black(self, tmp_path, model_dir):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        basis = read_matrix(model / "basis_matrix.ticm")
        grid_index = topica.load_basis(model_dir).topo.unit_grid()
        basis[:, grid_index[1, 2]] = 0.3
        write_matrix(model / "basis_matrix.ticm", basis)
        out = tmp_path / "m.pgm"
        assert main(["render", "--model", str(model), "--out", str(out)]) == 0
        pixels = np.rint(read_image(out).values * 255)
        tile = 6    # patch side 5 and one separator line
        assert not pixels[tile + 1:2 * tile, 2 * tile + 1:3 * tile].any()
        assert pixels[1:tile, 1:tile].max() == 255

    def test_non_finite_basis_exits_2(self, tmp_path, model_dir, capsys):
        model = tmp_path / "model"
        shutil.copytree(model_dir, model)
        basis = read_matrix(model / "basis_matrix.ticm")
        basis[:, 1] = np.nan
        write_matrix(model / "basis_matrix.ticm", basis)
        out = tmp_path / "m.pgm"
        assert main(["render", "--model", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"topica: error: {model}/basis_matrix.ticm: holds a non-finite value\n")
        assert not out.exists()

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


def _readme_commands() -> list:
    """Each `topica ...` command of README's shell blocks, continued lines joined."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as f:
        blocks = re.findall(r"^```sh\n(.*?)^```", f.read(), flags=re.M | re.S)
    commands = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in commands if line.startswith("topica ")]


def test_readme_commands_pass_the_command_line_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [argv[1] for argv in commands] == ["train", "activate", "analyze", "render",
                                              "analyze"]
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        _check_command_line(args)
    assert os.listdir(tmp_path) == []


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


def _out_bytes(path):
    return _tree_bytes(path) if path.is_dir() else path.read_bytes()


@pytest.fixture(params=["train", "activate", "analyze", "render"])
def command_argv(request, image_dir, model_dir, trace_dir):
    """A short run of each command on this module's inputs, without --out."""
    return {"train": ["train", "--images", str(image_dir), "--max-iters", "2"] + TRAIN_FLAGS[:-4],
            "activate": ["activate", "--model", str(model_dir), "--bar", "horizontal",
                         "--bar-frames", "4"],
            "analyze": ["analyze", "--trace", str(trace_dir), "--mode", "autocorr"],
            "render": ["render", "--model", str(model_dir)]}[request.param]


class TestReplacingOutput:
    def test_failed_cleanup_warns_and_exits_0(self, tmp_path, command_argv, monkeypatch,
                                              capsys):
        out = tmp_path / "out"
        argv = command_argv + ["--out", str(out)]
        assert main(argv) == 0
        report = capsys.readouterr().out
        rmdir = os.rmdir

        def rmdir_refusing_the_temporary_directory(path, *args, **kwargs):
            if os.path.basename(path).startswith(".topica-"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            rmdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "rmdir", rmdir_refusing_the_temporary_directory)
        assert main(argv) == 0
        left = tmp_path / next(name for name in os.listdir(tmp_path) if name != "out")
        assert left.name.startswith(".topica-")
        assert capsys.readouterr() == (report, f"topica: warning: left {left} behind: "
                                               f"[Errno 13] Permission denied: '{left}'\n")

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_2_and_keeps_the_output(self, tmp_path, trace_dir, unbuffered):
        # Python's flush of stdout at exit fails on a closed pipe too, unless
        # stdout is unbuffered; either way one error line is all of stderr.
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topica.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "topica.cli", "analyze", "--mode",
                                   "autocorr", "--trace", str(trace_dir), "--out", str(out)],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, "topica: error: [Errno 32] Broken pipe\n")
        assert sorted(os.listdir(out)) == ["autocorr.csv", "summary.txt"]
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("out", ["m.pgm/", "a/b/m.pgm/", "d/."])
    def test_render_out_naming_a_directory_exits_1(self, tmp_path, model_dir, monkeypatch,
                                                   capsys, out):
        # A trailing separator or a last component "." names a directory, where
        # render cannot make its file.
        monkeypatch.chdir(tmp_path)
        assert main(["render", "--model", str(model_dir), "--out", out]) == 1
        assert capsys.readouterr() == ("", f"topica: error: --out {out} must name a file\n")
        assert os.listdir(tmp_path) == []

    def test_out_of_the_wrong_kind_exits_1(self, tmp_path, command_argv, capsys):
        # os.replace cannot move a directory onto a file, nor a file onto a directory.
        out = tmp_path / "out"
        if command_argv[0] == "render":
            out.mkdir()
            (out / "kept.pgm").write_bytes(b"kept")
            refusal = "is a directory"
        else:
            out.write_bytes(b"kept")
            refusal = "exists and is not a directory"
        before = _out_bytes(out)
        for arg in (str(out), str(out) + os.sep):    # the path replaced has no trailing separator
            assert main(command_argv + ["--out", arg]) == 1
            assert capsys.readouterr() == ("", f"topica: error: --out {arg} {refusal}\n")
            assert _out_bytes(out) == before
            assert os.listdir(tmp_path) == ["out"]

    def test_out_beneath_a_file_exits_1(self, tmp_path, command_argv, capsys):
        # Nothing can be made beneath a file, so no .topica-* can be either.
        afile = tmp_path / "afile"
        afile.write_bytes(b"kept")
        name = "m.pgm" if command_argv[0] == "render" else "out"
        for out in (afile / name, afile / "sub" / name):
            assert main(command_argv + ["--out", str(out)]) == 1
            assert capsys.readouterr() == (
                "", f"topica: error: --out {out} is beneath {afile}, which is not a directory\n")
            assert os.listdir(tmp_path) == ["afile"]
            assert afile.read_bytes() == b"kept"

    def test_a_second_output_path_needs_no_rule_of_its_own(self, tmp_path, monkeypatch):
        # A file output such as a --metrics file, with --out among its inputs,
        # is refused inside --out and at --out by the rules every output path has.
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / "out")
        inputs = [str(tmp_path / "images"), out]
        inside = os.path.join(out, "metrics.csv")
        for metrics, refusal in [(inside, f"is inside {out}, whose files it could replace"),
                                 (out, f"contains {out}, which replacing it would delete")]:
            with pytest.raises(ConfigError) as refused:
                _check_output("--metrics", metrics, directory=False, inputs=inputs)
            assert str(refused.value) == f"--metrics {metrics} {refusal}"
        _check_output("--metrics", str(tmp_path / "metrics.csv"), directory=False, inputs=inputs)
        assert os.listdir(tmp_path) == []

    def test_failed_mkdir_prints_only_the_error(self, tmp_path, command_argv, monkeypatch,
                                                capsys):
        # No .topica-* was made, so there is none to remove or to warn about.
        mkdir = os.mkdir

        def mkdir_refusing_the_temporary_directory(path, *args, **kwargs):
            if os.path.basename(path).startswith(".topica-"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", mkdir_refusing_the_temporary_directory)
        name = "m.pgm" if command_argv[0] == "render" else "out"
        assert main(command_argv + ["--out", str(tmp_path / name)]) == 2
        out, err = capsys.readouterr()
        assert (out, err.count("\n")) == ("", 1)
        assert err.startswith(f"topica: error: [Errno {errno.ENOSPC}] ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["train", "activate", "analyze", "render"])
    def test_failure_creates_nothing(self, tmp_path, monkeypatch, image_dir, model_dir,
                                     trace_dir, command):
        # --out lies two missing directories deep; a usage error (exit 1), then a
        # data error (exit 2) must leave neither those parents nor a .topica-* behind.
        monkeypatch.chdir(tmp_path)
        out = os.path.join("a", "b", "m.pgm" if command == "render" else "out")
        runs = {"train": [(["--images", str(image_dir), "--seed", "-1"], 1),
                          (["--images", "missing"], 2)],
                "activate": [(["--model", str(model_dir), "--probe", "-1"], 1),
                             (["--model", "missing", "--bar", "horizontal"], 2)],
                "analyze": [(["--trace", str(trace_dir), "--mode", "locality"], 1),
                            (["--trace", "missing", "--mode", "autocorr"], 2)],
                "render": [(["--model", "a"], 1), (["--model", "missing"], 2)]}[command]
        for flags, code in runs:
            assert main([command, *flags, "--out", out]) == code
            assert os.listdir(tmp_path) == []

    def test_sigterm_handler_raises_within_main_only(self, tmp_path, model_dir, monkeypatch,
                                                     capsys):
        before = signal.getsignal(signal.SIGTERM)

        def terminated(args, tmp_out):
            signal.getsignal(signal.SIGTERM)(signal.SIGTERM, None)

        monkeypatch.setattr(topica.cli, "cmd_render", terminated)
        assert main(["render", "--model", str(model_dir),
                     "--out", str(tmp_path / "m.pgm")]) == 143
        assert capsys.readouterr() == ("", "topica: error: terminated\n")
        assert signal.getsignal(signal.SIGTERM) is before
        assert os.listdir(tmp_path) == []

    def test_signal_just_after_the_temporary_directory_is_made(self, tmp_path, model_dir,
                                                               monkeypatch, capsys):
        mkdir = os.mkdir

        def mkdir_then_interrupt(path, *args, **kwargs):
            mkdir(path, *args, **kwargs)
            if os.path.basename(path).startswith(".topica-"):
                raise KeyboardInterrupt

        monkeypatch.setattr(os, "mkdir", mkdir_then_interrupt)
        assert main(["render", "--model", str(model_dir),
                     "--out", str(tmp_path / "m.pgm")]) == 130
        assert capsys.readouterr() == ("", "topica: error: interrupted\n")
        assert os.listdir(tmp_path) == []

    def test_sigterm_exits_143_and_keeps_existing_out(self, tmp_path, tmp_path_factory,
                                                       image_dir, model_dir):
        # The last image is a FIFO that nothing writes to, so train waits in `open`
        # once its .topica-* exists and cannot finish before the signal lands.
        images = tmp_path_factory.mktemp("blocking_imgs")
        shutil.copytree(image_dir, images, dirs_exist_ok=True)
        os.mkfifo(images / "zz_blocks.pgm")
        out = tmp_path / "model"
        shutil.copytree(model_dir, out)
        before = _tree_bytes(out)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topica.__file__)))
        proc = subprocess.Popen([sys.executable, "-m", "topica.cli", "train",
                                 "--images", str(images), "--out", str(out)] + TRAIN_FLAGS,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        try:
            while not [name for name in os.listdir(tmp_path) if name.startswith(".topica-")]:
                assert proc.poll() is None, proc.communicate()
                time.sleep(0.01)
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            try:
                stdout, stderr = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                # Python runs a handler between bytecodes: a signal that lands just
                # before train enters `open` waits for `open` to return, which it
                # never does. A second signal interrupts `open` and runs the handler.
                proc.send_signal(signal.SIGTERM)
                stdout, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, stdout, stderr) == (143, "", "topica: error: terminated\n")
        assert _tree_bytes(out) == before
        assert os.listdir(tmp_path) == ["model"]
