"""The repo benchmark: paper-shape training, hot-cache serving and
check-in churn, with per-layer timing from outside the program.

    python3 perfbench/run.py --workload train_paper --seed 0 --seconds 20 --trace 0

runs one workload in this process and prints, as its last stdout line,
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Without ``--workload`` it runs every workload, untraced and traced,
each in its own process, prints every metric by name with its unit and
the tracing overhead, and exits non-zero if any output check failed.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

WORKLOADS = ("train_paper", "serve_hot", "serve_churn")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_cpu_s": "1/cpu-s",
    "latency_p50_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args) -> int:
    env.add_source_path()
    env.check_blas_threads()
    from spans import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    if args.workload == "train_paper":
        import train_paper

        size = train_paper.SMOKE if args.smoke else train_paper.FULL
        result = train_paper.run(args.seed, args.seconds, tracer, size)
    else:
        import serve

        if args.workload == "serve_hot":
            size = serve.HOT_SMOKE if args.smoke else serve.HOT
        else:
            size = serve.CHURN_SMOKE if args.smoke else serve.CHURN
        result = serve.run(args.workload, args.seed, args.seconds, tracer, size)

    end_to_end = result["end_to_end"]
    if args.trace:
        import layers

        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
        # The traced run's own end-to-end figures: their difference from
        # the untraced run's is the tracing overhead.
        for name, unit in END_TO_END.items():
            metrics[f"traced.{name}"] = {"value": end_to_end[name], "unit": unit}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = not result["problems"] and result["failed"] == 0

    record = {
        "fingerprint": env.fingerprint(args.workload, args.seed, bool(args.trace)),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "correct": correct,
        "problems": result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "workload_metrics": {name: {"value": value, "unit": unit}
                             for name, (value, unit) in result["workload_metrics"].items()},
        "detail": {k: v for k, v in result.items()
                   if k not in ("end_to_end", "workload_metrics", "layers", "problems")},
    }
    env.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (env.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    with open(env.OUT_DIR / "ledger.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        tracer.dump(env.OUT_DIR / f"spans-{stem}.jsonl")

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"fingerprint": record["fingerprint"]}))
    for name, m in record["workload_metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                continue
            results[trace] = json.loads(lines[-1])
            for name, m in results[trace]["metrics"].items():
                print(f"{workload} {'traced ' if trace else ''}{name} = {m['value']:.6g} {m['unit']}")
            print(f"{workload} trace={trace} correct={results[trace]['correct']} "
                  f"attempted={results[trace]['attempted']} failed={results[trace]['failed']}")
        if len(results) == 2:
            for name in END_TO_END:
                plain = results[0]["metrics"][name]["value"]
                traced = results[1]["metrics"][f"traced.{name}"]["value"]
                print(f"{workload} tracing overhead {name}: {traced - plain:+.6g} "
                      f"({(traced - plain) / plain:+.1%})")
    return status


def main(argv=None) -> int:
    env.pin_blas_threads()      # before anything imports numpy
    args = parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
