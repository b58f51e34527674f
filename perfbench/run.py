"""End-to-end benchmark of the topica CLI pipeline.

    python3 perfbench/run.py --workload desk|wide|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; topica is imported from its `src/`.

A run first writes the workload's inputs from the seed (the set-up,
repeated SETUPS times and timed). It then runs the CLI chain of
`workloads.pipeline` (train TICA, train ICA, activate both, three
analyses, render) with one process per command, as a user would, and one
command at a time: a closed loop with a single client. The chain repeats
until the next one would take the command time past --seconds. After each
chain, outside the timed region, the outputs are checked and every
artifact is hashed; any two chains of one run, and any two runs of the same
source tree, configuration and seed, must write identical bytes.

--trace 0 reports the end-to-end metrics, medians over the run's chains.
--trace 1 runs the same untraced chains, then one chain (set-up included)
through launcher.py with every layer traced, once at the default BLAS
thread count and once with OPENBLAS_NUM_THREADS=1, and reports the
per-layer metrics of both (single-thread names end in `.t1`). It prints
the tracing overhead: the traced chain's time minus that of the untraced
chain run just before it. The overhead is small against the host's noise
and can come out negative, so it is printed but not a metric.

The last line of standard output is the JSON result. The full report
(environment, every sample, every failed check) is written to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import spans
from workloads import WORKLOADS, Workload, pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
CLI = "import sys; from topica.cli import main; sys.exit(main())"
RUN_DEADLINE_S = 165     # every process is killed past this, so a run ends within 180 s
SETUPS = 3               # set-ups per run; setup_s is their median

END_TO_END = (("setup_s", "s"), ("train_s", "s"), ("activate_s", "s"), ("analyze_s", "s"),
              ("pipeline_s", "s"), ("peak_rss_mb", "MB"))


def end_to_end(procs) -> dict:
    def wall(stage):
        return sum(p["wall"] for p in procs if p["stage"] == stage)

    return {"train_s": wall("train"), "activate_s": wall("activate"), "analyze_s": wall("analyze"),
            "pipeline_s": sum(p["wall"] for p in procs),
            "peak_rss_mb": max(p["maxrss_kb"] for p in procs) / 1024}


class Bench:
    """One run of one workload: its processes, its checks and their tally."""

    def __init__(self, w: Workload, seed: int, state_dir: str):
        self.w, self.seed, self.state_dir = w, seed, state_dir
        os.makedirs(os.path.join(state_dir, "work"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=os.path.join(state_dir, "work"))
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env_t1 = dict(self.env, OPENBLAS_NUM_THREADS="1")
        self.attempted = self.failed = 0
        self.failures = []
        self.references = {}

    def op(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok

    def spawn(self, stage, argv, env) -> dict:
        log_path = os.path.join(self.work, "last_command.log")
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log_path, "rb") as log:
            tail = log.read()[-400:].decode("ascii", "replace")
        self.op(f"{stage} exit status", proc.returncode == 0,
                f"{proc.returncode}: {' '.join(argv[-6:])}\n{tail}")
        return {"stage": stage, "spawn": start, "wall": wall, "code": proc.returncode,
                "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}

    def setup(self, directory, env, spans_path=None) -> dict:
        if spans_path is None:
            argv = [sys.executable, os.path.join(HERE, "workloads.py")]
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), spans_path, "setup"]
        return self.spawn("setup", argv + [self.w.to_json(), str(self.seed), directory], env)

    def chain(self, inputs, out, env, spans_dir=None) -> list:
        """One pipeline; stops at the first command that fails."""
        procs = []
        for i, (stage, args) in enumerate(pipeline(self.w, self.seed, inputs, out)):
            if spans_dir is None:
                argv = [sys.executable, "-c", CLI, *args]
            else:
                argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                        os.path.join(spans_dir, f"{i}.json"), "cli", *args]
            procs.append(self.spawn(stage, argv, env))
            if procs[-1]["code"] != 0:
                break
        return procs

    def same_bytes(self, name, reference_key, digests):
        """Compare artifact hashes with the first set seen under this key."""
        reference = self.references.setdefault(reference_key, digests)
        if reference is not digests:
            mismatch = checks.tree_mismatch(reference, digests)
            self.op(f"determinism: {name}", not mismatch, f"differs in {mismatch[:5]}")

    def verify(self, out, procs, reference_key):
        """Check and hash one pipeline's outputs; (passes, accepted) or None if it failed."""
        if procs[-1]["code"] != 0:
            return None
        try:
            results = checks.check_outputs(self.w, out)
            logs = [checks.read_log(os.path.join(out, m, "training_log.csv")) for m in ("tica", "ica")]
        except (OSError, ValueError) as exc:
            self.op("read outputs", False, repr(exc))
            return None
        for name, passed, detail in results:
            self.op(name, passed, detail)
        self.same_bytes(f"pipeline outputs ({reference_key})", reference_key, checks.hash_tree(out))
        counts = [checks.training_counts(log) for log in logs]
        return sum(c[0] for c in counts), sum(c[1] for c in counts)

    def setups(self) -> tuple:
        """Repeated timed set-ups; returns the inputs directory and the times."""
        times = []
        for i in range(SETUPS):
            directory = os.path.join(self.work, f"inputs{i}")
            proc = self.setup(directory, self.env)
            times.append(proc["wall"])
            if proc["code"] != 0:
                break
            self.same_bytes("set-up inputs", "inputs", checks.hash_tree(directory))
            if i:
                shutil.rmtree(directory)
        return os.path.join(self.work, "inputs0"), times

    def untraced(self, inputs, seconds) -> list:
        """Untraced pipelines until the next would pass `seconds` of command time."""
        samples = []
        while True:
            out = os.path.join(self.work, "out")
            procs = self.chain(inputs, out, self.env)
            verified = self.verify(out, procs, "default")
            shutil.rmtree(out, ignore_errors=True)
            if verified is None:
                return samples
            samples.append(end_to_end(procs))
            used = sum(s["pipeline_s"] for s in samples)
            if used + statistics.median(s["pipeline_s"] for s in samples) > seconds:
                return samples

    def traced_setup(self, env, suffix):
        """Traced set-up into inputs<suffix>, its spans loaded; None if it failed."""
        spans_dir = os.path.join(self.work, f"spans{suffix}")
        os.makedirs(spans_dir)
        path = os.path.join(spans_dir, "setup.json")
        proc = self.setup(os.path.join(self.work, f"inputs{suffix}"), env, path)
        if proc["code"] != 0:
            return None
        with open(path, encoding="ascii") as f:
            proc["trace"] = json.load(f)
        return proc

    def traced(self, inputs, env, suffix, setup):
        """Traced pipeline; per-layer metrics of it and `setup`, named with `suffix`."""
        spans_dir = os.path.join(self.work, f"spans{suffix}")
        out = os.path.join(self.work, f"out{suffix}")
        procs = self.chain(inputs, out, env, spans_dir)
        verified = self.verify(out, procs, suffix or "default")
        shutil.rmtree(out, ignore_errors=True)
        if verified is None:
            return None, None
        for i, proc in enumerate(procs):
            with open(os.path.join(spans_dir, f"{i}.json"), encoding="ascii") as f:
                proc["trace"] = json.load(f)
        metrics = spans.layer_metrics([setup] + procs, *verified)
        return ({name + suffix: value for name, value in metrics.items()},
                {"pipeline_s": sum(p["wall"] for p in procs),
                 "blas_threads": procs[0]["trace"]["blas_threads"]})

    def check_against_earlier_runs(self):
        """Persist this run's artifact hashes; compare with an earlier run of the same key."""
        if "default" not in self.references:
            return
        src = {p: d for p, d in checks.hash_tree(SRC).items() if "__pycache__" not in p}
        key = hashlib.sha256(json.dumps([src, self.w.to_json(), self.seed, os.cpu_count(),
                                         os.environ.get("OPENBLAS_NUM_THREADS")],
                                        sort_keys=True).encode()).hexdigest()[:24]
        path = os.path.join(self.state_dir, "hashes", f"{key}.json")
        if os.path.exists(path):
            with open(path, encoding="ascii") as f:
                earlier = json.load(f)
            mismatch = checks.tree_mismatch(earlier, self.references["default"])
            self.op("determinism: earlier run, same seed", not mismatch, f"differs in {mismatch[:5]}")
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="ascii") as f:
                json.dump(self.references["default"], f)

    def run(self, seconds, trace) -> dict:
        report = {"workload": self.w.name, "seed": self.seed, "trace": trace,
                  "environment": checks.environment(self.work)}
        metrics = {}
        if trace:
            metrics = self.traced_pair(seconds, report)
        else:
            inputs, setup_times = self.setups()
            samples = self.untraced(inputs, seconds)
            report["setup_s"], report["pipelines"] = setup_times, samples
            if samples:
                medians = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
                report["pipeline_medians"] = medians
                metrics["setup_s"] = (statistics.median(setup_times), "s")
                metrics.update((name, (medians[name], unit)) for name, unit in END_TO_END[1:])
        self.check_against_earlier_runs()
        report.update(attempted=self.attempted, failed=self.failed, failures=self.failures,
                      error_rate=self.failed / max(1, self.attempted))
        return {"correct": self.failed == 0 and bool(metrics), "attempted": max(1, self.attempted),
                "failed": self.failed, "metrics": metrics, "report": report}

    def traced_pair(self, seconds, report):
        """Untraced pipelines, then traced ones at default and single BLAS threads."""
        setup = self.traced_setup(self.env, "")
        if setup is None:
            return {}
        inputs = os.path.join(self.work, "inputs")
        samples = self.untraced(inputs, seconds)
        if not samples:
            return {}
        metrics, info = self.traced(inputs, self.env, "", setup)
        setup_t1 = self.traced_setup(self.env_t1, ".t1")
        if metrics is None or setup_t1 is None:
            return {}
        metrics_t1, info_t1 = self.traced(inputs, self.env_t1, ".t1", setup_t1)
        if metrics_t1 is None:
            return {}
        metrics.update(metrics_t1)
        report.update(pipelines=samples, traced=info, traced_t1=info_t1,
                      trace_overhead_s=info["pipeline_s"] - samples[-1]["pipeline_s"])
        return metrics


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, state_dir: str = STATE) -> dict:
    bench = Bench(w, seed, state_dir)
    try:
        result = bench.run(seconds, trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    os.makedirs(os.path.join(state_dir, "results"), exist_ok=True)
    path = os.path.join(state_dir, "results", f"{w.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="ascii") as f:
        json.dump(result, f, indent=1)
    return result


def print_report(result):
    report, metrics = result["report"], result["metrics"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}  "
          f"pipelines {len(report.get('pipelines', []))}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    if report["trace"]:
        print(f"  {'per-layer metric':34} {'default':>14} {'1 BLAS thread':>14}  unit")
        for name, (value, unit) in metrics.items():
            if not name.endswith(".t1") and name + ".t1" in metrics:
                print(f"  {name:34} {value:14.6g} {metrics[name + '.t1'][0]:14.6g}  {unit}")
        if "trace_overhead_s" in report:
            print(f"  tracing overhead {report['trace_overhead_s']:.4f} s: traced chain minus the "
                  "untraced chain run just before it")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:14} {value:12.4f} {unit}")
        print(f"  {'error_rate':14} {report['error_rate']:12.4f} ratio")
    print(f"  {report['failed']} failed of {report['attempted']} operations")
    for failure in report["failures"]:
        print("  FAILED " + failure.replace("\n", "\n    "))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "topica", "cli.py")):
        print(f"perfbench: no topica sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_report(results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
