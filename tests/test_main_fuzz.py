"""Hypothesis fuzz of `main`: argv drawn from the flag grammar with mutated
values, over tiny artifacts that may be cut short or byte-flipped anywhere,
and valid commands over text artifacts with one value replaced.

Whatever the argv and the files, `main` returns an exit code from 0 to 3,
raises nothing, and leaves no `.topica-*` temporary sibling behind. It
changes no file outside --out, and a command that fails changes nothing
at all: every path in the working directory keeps its bytes, and no path
is added or removed.

`test_every_failed_file_system_call` fails the n-th file-system call of
a command, for every n, with ENOSPC, EACCES and EIO in turn: the command
either exits 2 and changes nothing, or, when the call was in the cleanup
after the commit, exits 0 with its output in place and one warning.

Every example runs in a fresh working directory holding a copy of the
artifacts under `in/`. Path values are relative names or known paths, so
no command writes outside that directory. Integer values stay within
+-64, because a size flag allocates memory in proportion to its value.
The 8x8 images are too small for the default 9x9 patches, so a `train`
that falls back to the defaults fails fast instead of training at full size.
"""

import builtins
import errno
import hashlib
import itertools
import os
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import topica
from topica.cli import main
from topica.images import save_sequence, write_image

INPUT = "in"
TRAIN_SETTINGS = {"patch_side": "4", "n_patches": "300", "k": "9", "map_width": "3",
                  "map_height": "3", "radius": "1", "max_iters": "3", "seed": "2",
                  "step0": "0.1", "epsilon": "0.005", "tol": "0.0001"}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A directory holding `in/` (images, config, model, frames and trace)
    and an empty `work/` for the examples."""
    root = tmp_path_factory.mktemp("main-fuzz")
    inputs = root / INPUT
    (inputs / "images").mkdir(parents=True)
    for s in (1, 2):
        write_image(inputs / "images" / f"leaves_{s}.pgm",
                    topica.generate_dead_leaves(8, 8, 12, seed=s, min_radius=1, max_radius=3),
                    lo=0.0, hi=1.0)
    (inputs / "run.conf").write_text("".join(f"{k} = {v}\n" for k, v in TRAIN_SETTINGS.items()))
    scene = topica.generate_dead_leaves(24, 24, 40, seed=3, min_radius=1, max_radius=6)
    save_sequence(topica.generate_panning_sequence(scene, 8, 4, speed=0.5, seed=4),
                  inputs / "frames")
    assert main(["train", "--images", str(inputs / "images"), "--out", str(inputs / "model"),
                 "--config", str(inputs / "run.conf")]) == 0
    assert main(["activate", "--model", str(inputs / "model"), "--frames",
                 str(inputs / "frames"), "--out", str(inputs / "trace")]) == 0
    (root / "work").mkdir()
    return root


def _bounded(text: str) -> bool:
    """No comma-separated part is an integer beyond +-64."""
    for part in text.split(","):
        try:
            if abs(int(part)) > 64:
                return False
        except ValueError:
            pass
    return True


# Mutated values. NUL cannot occur in a real argv; a value starting `-h` or
# `--h` would be argparse's --help, which prints and exits by design.
values = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "inf", "-inf", "0.5", "1e-300", "1e300", "-0", "1e3", "", " ",
                     "0,0", "1,2", "-1,0", "0,0,8,8", "1,1,3,3", "2,2,0,1", "9,9,2,2"]),
    st.text(alphabet="0123456789,.-+_ eExaé", max_size=8),
).filter(lambda v: _bounded(v) and not re.match(r"--?h", v))

paths = st.one_of(
    st.sampled_from(["missing", INPUT, ".", "..", "", "out", "out/sub",
                     f"{INPUT}/model", f"{INPUT}/frames", f"{INPUT}/trace", f"{INPUT}/images",
                     f"{INPUT}/run.conf", f"{INPUT}/model/basis.meta",
                     f"{INPUT}/frames/frame_000000.pgm"]),
    st.text(alphabet="abc.-_ é", min_size=1, max_size=6),
).filter(lambda v: not re.match(r"--?h", v))


# Each command's flags: (flag, valid values, whether it is always given).
# An empty list of valid values marks a switch.
MODEL = ("--model", [f"{INPUT}/model"], True)
OUT = ("--out", ["out"], True)
GRAMMAR = {
    "train": [
        ("--images", [f"{INPUT}/images"], True), OUT,
        ("--config", [f"{INPUT}/run.conf"], False),
        ("--patch-side", ["4", "3"], False), ("--n-patches", ["60", "300"], False),
        ("--k", ["9", "4"], False), ("--map-width", ["3", "2"], False),
        ("--map-height", ["3", "2"], False), ("--radius", ["1", "0"], False),
        ("--epsilon", ["0.005"], False), ("--step0", ["0.1"], False),
        ("--max-iters", ["2"], False), ("--tol", ["0"], False), ("--seed", ["0", "7"], False),
        ("--crop", ["0,0,8,8", "1,1,6,6"], False),
    ],
    "activate": [
        MODEL, OUT,
        ("--origin", ["0,0", "2,2"], False), ("--crop", ["0,0,8,8", "1,1,6,6"], False),
        ("--resize-width", ["8", "12"], False), ("--frame-rate", ["24", "0.5"], False),
        ("--bar-frames", ["3"], False), ("--bar-thickness", ["1", "2"], False),
    ],
    "analyze": [
        ("--trace", [f"{INPUT}/trace"], True), OUT,
        ("--mode", ["autocorr", "adjacency", "locality"], True),
        ("--model", [f"{INPUT}/model"], False),
        ("--max-lag", ["1", "2"], False), ("--shuffle-baseline", ["0"], False),
        ("--energy", [], False), ("--compare", [f"{INPUT}/trace"], False),
        ("--compare-model", [f"{INPUT}/model"], False), ("--shuffle-topo", ["1"], False),
        ("--permutations", ["20"], False), ("--k", ["2"], False), ("--seed", ["0"], False),
    ],
    "render": [MODEL, ("--out", ["montage.pgm"], True)],
}
# activate takes exactly one of these.
SOURCES = [("--frames", [f"{INPUT}/frames"]), ("--bar", ["horizontal", "vertical"]),
           ("--probe", ["0", "8"])]
PATH_FLAGS = {"--images", "--config", "--model", "--out", "--trace", "--compare",
              "--compare-model", "--frames"}


@st.composite
def argvs(draw, mutated_flags):
    """A command with valid values for all flags but `mutated_flags` of them,
    whose values are mutated; a mutated flag may also be left out or repeated."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    specs = list(GRAMMAR[command])
    if command == "activate":
        flag, valid = draw(st.sampled_from(SOURCES))
        specs.append((flag, valid, True))
    mutated = draw(st.sets(st.sampled_from(range(len(specs))),
                           min_size=mutated_flags, max_size=mutated_flags))
    groups = []
    for index, (flag, valid, required) in enumerate(specs):
        if index in mutated:
            given = draw(st.integers(0, 2))
            value = paths if flag in PATH_FLAGS else values
        else:
            given = 1 if required else draw(st.integers(0, 1))
            value = st.sampled_from(valid) if valid else None
        for _ in range(given):
            groups.append([flag] if value is None else [flag, draw(value)])
    groups = draw(st.permutations(groups))
    return [command] + [arg for group in groups for arg in group]


def named_files(root, argv) -> list:
    """The artifact files, relative to `root`, under the paths that `argv` names."""
    files = set()
    for arg in argv:
        path = os.path.join(root, arg)
        if arg.split("/")[0] != INPUT or not os.path.exists(path):
            continue
        if os.path.isfile(path):
            files.add(arg)
        for base, _, names in os.walk(path):
            files.update(os.path.relpath(os.path.join(base, name), root) for name in names)
    return sorted(files)


@st.composite
def mutations(draw, root, argv):
    """(file, cut length or byte flips) anywhere in one of the artifact
    files that `argv` names, or None if it names none."""
    files = named_files(root, argv)
    if not files:
        return None
    name = draw(st.sampled_from(files))
    size = os.path.getsize(os.path.join(root, name))
    if size == 0 or draw(st.booleans()):
        return name, draw(st.integers(0, max(size - 1, 0)))
    return name, draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
                               min_size=1, max_size=4))


def mutate(path, change) -> None:
    data = bytearray(path.read_bytes())
    if isinstance(change, int):
        del data[change:]
    else:
        for index, mask in change:
            data[index] ^= mask
    path.write_bytes(bytes(data))


def snapshot(root) -> dict:
    """Each path under `root`, relative to it: a file's SHA-256, None for a directory."""
    paths = {}
    for base, dirs, names in os.walk(root):
        for name in dirs:
            paths[os.path.relpath(os.path.join(base, name), root)] = None
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                paths[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return paths


def check_unchanged(before: dict, after: dict, argv, code) -> None:
    """A failed command changed nothing; a successful one, no file outside --out."""
    if code != 0:
        assert after == before
        return
    out = os.path.normpath([value for flag, value in zip(argv, argv[1:]) if flag == "--out"][-1])
    for path, digest in before.items():
        if digest is not None and os.path.commonpath([out, path]) != out:
            assert after.get(path) == digest, path


def temporaries(root) -> list:
    return [os.path.join(base, name) for base, dirs, names in os.walk(root)
            for name in dirs + names if name.startswith(".topica-")]


@settings(derandomize=True, deadline=None, max_examples=250,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_main_returns_an_exit_code(artifacts, data):
    # Either one or two flags or one artifact file is mutated.
    mutated_flags = data.draw(st.sampled_from([0, 0, 1, 2]))
    argv = data.draw(argvs(mutated_flags), label="argv")
    mutation = None if mutated_flags else data.draw(mutations(artifacts, argv), label="mutation")
    work = artifacts / "work" / "run"
    shutil.copytree(artifacts / INPUT, work / INPUT)
    if mutation is not None:
        mutate(work / mutation[0], mutation[1])
    before = snapshot(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = main(argv)
    finally:
        os.chdir(cwd)
        left = temporaries(artifacts)
        after = snapshot(work)
        shutil.rmtree(work)
    assert code in (0, 1, 2, 3)
    assert not left
    check_unchanged(before, after, argv, code)


# Valid commands, each with the text artifacts (relative to INPUT) that it reads.
READERS = [
    (["train", "--images", f"{INPUT}/images", "--config", f"{INPUT}/run.conf", "--out", "out"],
     ["run.conf"]),
    (["activate", "--model", f"{INPUT}/model", "--frames", f"{INPUT}/frames", "--out", "out"],
     ["model/basis.meta", "model/whitening.meta", "frames/sequence.meta"]),
    (["analyze", "--mode", "adjacency", "--trace", f"{INPUT}/trace", "--model", f"{INPUT}/model",
      "--permutations", "20", "--out", "out"],
     ["trace/trace.meta", "model/basis.meta", "model/training_log.csv"]),
    (["render", "--model", f"{INPUT}/model", "--out", "montage.pgm"],
     ["model/basis.meta", "model/training_log.csv"]),
]


@st.composite
def value_edits(draw, root):
    """A valid argv, and one `key = value` line or training-log row of a
    file it reads, as (file, line index, line), with one value mutated."""
    argv, files = draw(st.sampled_from(READERS))
    name = draw(st.sampled_from(files))
    lines = (root / INPUT / name).read_text(encoding="ascii").splitlines()
    if name.endswith(".csv"):
        index = draw(st.integers(1, len(lines) - 1))    # line 0 is the header
        cells = lines[index].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(values)
        return argv, (name, index, ",".join(cells))
    index = draw(st.sampled_from([i for i, line in enumerate(lines) if "=" in line]))
    return argv, (name, index, f"{lines[index].split('=', 1)[0]}= {draw(values)}")


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_main_returns_an_exit_code_on_bad_values(artifacts, data):
    # Mutating only values reaches each parser far more often than flipping
    # bytes anywhere, which mostly breaks keys, headers and payloads.
    argv, (name, index, line) = data.draw(value_edits(artifacts), label="edit")
    work = artifacts / "work" / "run"
    shutil.copytree(artifacts / INPUT, work / INPUT)
    path = work / INPUT / name
    lines = path.read_text(encoding="ascii").splitlines()
    lines[index] = line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = snapshot(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = main(argv)
    finally:
        os.chdir(cwd)
        left = temporaries(artifacts)
        after = snapshot(work)
        shutil.rmtree(work)
    assert code in (0, 1, 2, 3)
    assert not left
    check_unchanged(before, after, argv, code)


# Command lines of the file-system fault harness, run in a working directory
# holding `old` (a directory) and `old.pgm` (a file): each command into --out
# beneath two missing directories, and over an existing --out.
FAULT_COMMANDS = {
    "train": ["train", "--images", f"{INPUT}/images", "--config", f"{INPUT}/run.conf"],
    "activate": ["activate", "--model", f"{INPUT}/model", "--frames", f"{INPUT}/frames"],
    "analyze": ["analyze", "--mode", "adjacency", "--trace", f"{INPUT}/trace",
                "--model", f"{INPUT}/model", "--permutations", "20"],
    "render": ["render", "--model", f"{INPUT}/model"],
}


class FailNthCall:
    """Count the file-system calls that can fail, and fail the `n`-th with
    the error number `errnum`; every other call goes through.

    The calls: os.mkdir, os.makedirs, os.replace, os.rename, os.rmdir,
    os.unlink, os.remove, `open` for writing, and `write` or `writelines`
    on a file so opened. A call that cannot fail with `errnum` at that point
    is not counted: `mkdir` of a path that exists, which fails with EEXIST
    (and which `makedirs(exist_ok=True)` swallows by design), and
    `makedirs(exist_ok=True)` of a directory that exists.
    """

    def __init__(self, n: int, errnum: int):
        self.n, self.errnum, self.calls, self.failed = n, errnum, 0, None

    def point(self, name, *args):
        self.calls += 1
        if self.calls == self.n:
            self.failed = name
            raise OSError(self.errnum, os.strerror(self.errnum), *args[:1])

    def install(self, monkeypatch):
        real = {name: getattr(os, name) for name in
                ("mkdir", "makedirs", "replace", "rename", "rmdir", "unlink", "remove")}
        real_open = builtins.open

        def counted(name):
            def call(*args, **kwargs):
                self.point(name, *args)
                return real[name](*args, **kwargs)
            return call

        def mkdir(path, *args, **kwargs):
            if not os.path.lexists(path):
                self.point("mkdir", path)
            return real["mkdir"](path, *args, **kwargs)

        def makedirs(path, mode=0o777, exist_ok=False):
            if not (exist_ok and os.path.isdir(path)):
                self.point("makedirs", path)
            return real["makedirs"](path, mode, exist_ok)

        def open_(file, mode="r", *args, **kwargs):
            if not any(c in mode for c in "wax+"):
                return real_open(file, mode, *args, **kwargs)
            self.point("open", file)
            return _FailingWrites(real_open(file, mode, *args, **kwargs), self)

        for name in ("replace", "rename", "rmdir", "unlink", "remove"):
            monkeypatch.setattr(os, name, counted(name))
        monkeypatch.setattr(os, "mkdir", mkdir)
        monkeypatch.setattr(os, "makedirs", makedirs)
        monkeypatch.setattr(builtins, "open", open_)


class _FailingWrites:
    """A file whose `write` and `writelines` are counted by `faults`."""

    def __init__(self, file, faults: FailNthCall):
        self._file, self._faults = file, faults

    def write(self, data):
        self._faults.point("write")
        return self._file.write(data)

    def writelines(self, lines):
        self._faults.point("write")
        return self._file.writelines(lines)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def __getattr__(self, name):
        return getattr(self._file, name)


def _fault_run(artifacts, monkeypatch, capsys, argv, faults):
    """Run `main(argv)` in a fresh working directory, with `faults`
    installed unless it is None, and return (exit code, stdout, stderr,
    snapshot before, snapshot after); the directory is removed after."""
    work = artifacts / "work" / "run"
    shutil.copytree(artifacts / INPUT, work / INPUT)
    (work / "old" / "sub").mkdir(parents=True)
    (work / "old" / "sub" / "kept").write_bytes(b"kept")
    (work / "old.pgm").write_bytes(b"kept")
    before = snapshot(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with monkeypatch.context() as patch:
            if faults is not None:
                faults.install(patch)
            code = main(argv)
    finally:
        os.chdir(cwd)
    out, err = capsys.readouterr()
    for left in re.findall(r"^topica: warning: left (.+?) behind: ", err, flags=re.M):
        shutil.rmtree(left)
    after = snapshot(work)
    shutil.rmtree(work)
    return code, out, err, before, after


# (command, --out, error number) of each harness run: a full disk, a refused
# permission and a failing device. ENOSPC keeps the bare `command-into` id.
FAULT_CASES = [pytest.param(command, into, errnum, id=f"{command}-{into}" + (
                   "" if errnum == errno.ENOSPC else f"-{errno.errorcode[errnum]}"))
               for errnum in (errno.ENOSPC, errno.EACCES, errno.EIO)
               for command in sorted(FAULT_COMMANDS)
               for into in ("existing-out", "missing-parent")]


@pytest.mark.parametrize("command, into, errnum", FAULT_CASES)
def test_every_failed_file_system_call(artifacts, monkeypatch, capsys, command, into, errnum):
    # Fail the n-th call for n = 1, 2, ... until a run makes fewer than n
    # (SQLite's I/O-error testing). A failure before the output is committed
    # exits 2 with one error line and changes no path. One in the cleanup
    # after the commit exits 0, prints the report and one warning naming the
    # `.topica-*` left behind, and the new output is in place.
    if into == "missing-parent":
        target = os.path.join("a", "b", "m.pgm" if command == "render" else "out")
    else:
        target = "old.pgm" if command == "render" else "old"
    argv = FAULT_COMMANDS[command] + ["--out", target]
    code, report, err, _, clean = _fault_run(artifacts, monkeypatch, capsys, argv, None)
    assert (code, err) == (0, "")
    outcomes = set()
    for n in itertools.count(1):
        faults = FailNthCall(n, errnum)
        code, out, err, before, after = _fault_run(artifacts, monkeypatch, capsys, argv, faults)
        if faults.failed is None:    # n is past the last call
            assert (code, out, err, after) == (0, report, "", clean)
            break
        point = f"call {n} ({faults.failed})"
        if code == 2:
            assert out == "", point
            assert err.startswith(f"topica: error: [Errno {errnum}] "), point
            assert err.count("\n") == 1, point
            assert after == before, point
        else:
            assert faults.failed in ("rmdir", "unlink"), point
            assert code == 0, point
            assert out == report, point
            assert re.fullmatch(rf"topica: warning: left \S*/\.topica-[0-9a-f]{{16}} behind: "
                                rf"\[Errno {errnum}\] [^\n]*\n", err), point
            assert after == clean, point
        outcomes.add(code)
    assert outcomes == {0, 2}
