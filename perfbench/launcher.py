"""Run one topica command, or one workload set-up, with its layers traced.

    python3 perfbench/launcher.py SPANS_JSON cli ARG...
    python3 perfbench/launcher.py SPANS_JSON setup SPEC_JSON SEED DIR

The layer functions are wrapped before `topica.cli.main` (or the set-up)
starts; the spans are written to SPANS_JSON when it returns or raises.
topica must be importable, for example with PYTHONPATH=src.
"""

import sys
import time

import checks
import spans
import workloads


def main(argv) -> int:
    out, mode, *rest = argv
    recorder = spans.Recorder()
    recorder.install()
    entered = time.monotonic()
    try:
        if mode == "cli":
            import topica.cli
            return topica.cli.main(rest)
        workloads.make_inputs(workloads.Workload.from_json(rest[0]), int(rest[1]), rest[2])
        return 0
    finally:
        recorder.dump(out, entered, checks.blas_threads())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
