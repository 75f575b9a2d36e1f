"""The repository's benchmark.

    python3 perfbench/run.py --workload dmr_fs --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --seconds 15          # every workload, one process each

One workload per process: the process is fresh, so its peak RSS is the
workload's own.  With ``--trace 0`` the last line of standard output is
the JSON result with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a separate traced run.  The exit code
is non-zero when an output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("dmr_fs", "rigid_swf", "serve_fs", "sweep_realapps")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run the benchmark workloads and print their metrics.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rate", type=float, default=9.0,
                        help="serve_fs open-loop rate, requests per second")
    return parser


def run_one(args) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2

    if args.workload in ("dmr_fs", "rigid_swf"):
        from perfbench import simruns

        result = simruns.run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    elif args.workload == "serve_fs":
        from perfbench import serve_fs

        result = serve_fs.run(args.seed, args.seconds, bool(args.trace),
                              args.serve_rate)
    else:
        from perfbench import sweep_realapps

        result = sweep_realapps.run(args.seed, args.seconds, bool(args.trace))
    from perfbench.common import END_TO_END
    from perfbench.layers import PER_LAYER

    wanted = [m[0] for m in PER_LAYER] if args.trace else list(END_TO_END)
    if sorted(result.metrics) != sorted(wanted) and result.correct:
        result.fail("reported metrics differ from BENCHMARK.json: "
                    f"{sorted(set(result.metrics) ^ set(wanted))}")
    for line in result.table():
        print(line)
    print(result.as_json(), flush=True)
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a combined verdict."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--serve-rate", str(args.serve_rate)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            verdict = json.loads(lines[-1])
        except (IndexError, ValueError):
            verdict = {"correct": False}
        print(f"{name}: exit {proc.returncode}, correct={verdict['correct']}\n")
        if proc.returncode != 0 or not verdict["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0 or args.serve_rate <= 0:
        print("--seconds and --serve-rate must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
