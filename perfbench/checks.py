"""Output checks, artifact hashes and the environment record.

The checks read the artifacts with their own parsers instead of topica's
loaders, so a loader defect cannot hide an output defect.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import hashlib
import math
import os
import platform
import re
import struct

import numpy as np

TOL = 1e-8
_TICM_HEADER = struct.Struct("<4sBII")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)", re.IGNORECASE)


def read_ticm(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic, _, rows, cols = _TICM_HEADER.unpack(f.read(_TICM_HEADER.size))
        if magic != b"TICM":
            raise ValueError(f"{path}: bad magic")
        return np.frombuffer(f.read(), dtype="<f8").reshape(rows, cols)


def pgm_size(path) -> tuple:
    """(width, height) from the header of a binary PGM written by topica."""
    with open(path, "rb") as f:
        magic, dims = f.readline().strip(), f.readline().split()
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    return int(dims[0]), int(dims[1])


def read_log(path) -> np.ndarray:
    """training_log.csv as a float array, one row per record, header dropped."""
    with open(path, newline="", encoding="ascii") as f:
        rows = list(csv.reader(f))[1:]
    return np.array([[float(v) for v in row] for row in rows])


def training_counts(log: np.ndarray) -> tuple:
    """(passes, accepted passes); a rejected pass repeats the previous objective."""
    objective = log[:, 1]
    return len(log) - 1, int(np.count_nonzero(objective[1:] > objective[:-1]))


def _check(name, ok, detail=""):
    return name, bool(ok), detail


def check_model(model_dir, max_iters) -> list:
    filters = read_ticm(os.path.join(model_dir, "filter_matrix.ticm"))
    ortho = np.linalg.norm(filters @ filters.T - np.eye(filters.shape[0]))
    transform = read_ticm(os.path.join(model_dir, "whitening_matrix.ticm"))
    inverse = read_ticm(os.path.join(model_dir, "dewhitening_matrix.ticm"))
    pairing = np.abs(transform @ inverse - np.eye(transform.shape[0])).max()
    log = read_log(os.path.join(model_dir, "training_log.csv"))
    name = os.path.basename(model_dir)
    return [
        _check(f"{name}: orthonormality", ortho <= TOL, f"error {ortho:.3e}"),
        _check(f"{name}: transform @ inverse = I", pairing <= TOL, f"error {pairing:.3e}"),
        _check(f"{name}: training log", log.shape[0] == max_iters + 1 and np.isfinite(log).all(),
               f"{log.shape[0]} rows, expected {max_iters + 1}"),
    ]


def check_trace(trace_dir, n_frames, n_units) -> list:
    acts = read_ticm(os.path.join(trace_dir, "activations.ticm"))
    energies = read_ticm(os.path.join(trace_dir, "energies.ticm"))
    name = os.path.basename(trace_dir)
    return [
        _check(f"{name}: shape", acts.shape == energies.shape == (n_frames, n_units),
               f"{acts.shape}, expected {(n_frames, n_units)}"),
        _check(f"{name}: energies = activations^2",
               acts.shape == energies.shape and np.array_equal(energies, acts * acts)),
    ]


def check_summary(analysis_dir) -> list:
    with open(os.path.join(analysis_dir, "summary.txt"), encoding="ascii") as f:
        text = f.read()
    numbers = [float(v) for v in _NUMBER.findall(text)]
    checks = [_check(f"{os.path.basename(analysis_dir)}: finite summary",
                     numbers and all(math.isfinite(v) for v in numbers), text.strip())]
    p_value = re.search(r"p = (\S+)", text)
    if os.path.basename(analysis_dir) == "adjacency":
        checks.append(_check("adjacency: p-value in (0, 1]",
                             p_value is not None and 0 < float(p_value.group(1)) <= 1, text.strip()))
    return checks


def check_montage(path, w) -> list:
    tile = w.patch_side + 1
    expected = (w.map_width * tile + 1, w.map_height * tile + 1)
    size = pgm_size(path)
    return [_check("montage size", size == expected, f"{size}, expected {expected}")]


def check_outputs(w, out) -> list:
    """Every check of one pipeline's outputs as (name, passed, detail)."""
    checks = []
    for model in ("tica", "ica"):
        checks += check_model(os.path.join(out, model), w.max_iters)
    for trace in ("tica_trace", "ica_trace"):
        checks += check_trace(os.path.join(out, trace), w.n_frames, w.k)
    for analysis in ("autocorr", "adjacency", "locality"):
        checks += check_summary(os.path.join(out, analysis))
    return checks + check_montage(os.path.join(out, "montage.pgm"), w)


def hash_tree(directory) -> dict:
    """SHA-256 of every file under a directory, keyed by relative path."""
    digests = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def tree_mismatch(a: dict, b: dict) -> list:
    """Relative paths present in only one tree or differing between them."""
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))


def blas_threads():
    """Thread count the bundled OpenBLAS of numpy reports, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def filesystem_type(path) -> str:
    """Type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fs_type = mount, fields[2]
    except OSError:
        pass
    return fs_type


def environment(work_dir) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "work_dir_fs": filesystem_type(work_dir),
    }
