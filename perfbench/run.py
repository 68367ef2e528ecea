"""Run one benchmark workload and print its result document.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compile_cold --seed 1 \\
        --seconds 40 --trace 0

The metric names, units and workloads come from ``BENCHMARK.json``.
With ``--trace 0`` the last stdout line reports every ``end_to_end``
metric, measured with tracing off; with ``--trace 1`` it reports every
``per_layer`` metric from a traced run (layers a workload does not
exercise read 0).  The line before it is a provenance document.  Each
run works in a fresh process with its own cache directory under
``.bench_tmp/`` and removes it before exiting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every run, and every process it starts, hashes strings the same way:
#: hash randomization reorders sets and dicts between processes and
#: moved same-seed runs of execute_paper apart.
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed at run
    time, for reading provenance (no metric depends on it)."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"valid: {sorted(whys)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        return run(args, spec, whys[args.workload], env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still holds its own directory


def run(args, spec: dict, why: str, env: dict) -> int:
    from repro import profiling
    from repro.api import EngineConfig

    from perfbench import arith, inproc, serving

    workloads = {
        "compile_cold": inproc.compile_cold,
        "execute_paper": inproc.execute_paper,
        "serve_hot": serving.serve_hot,
    }
    profiling.disable()
    probe_before = host_probe_ms()
    result = workloads[args.workload](
        args.seed, args.seconds, bool(args.trace), env
    )
    probe_after = host_probe_ms()
    outcomes = result["outcomes"]
    attempted, failed = arith.failure_share(outcomes)
    correct = "wrong" not in outcomes and result.get("self_time_ok", True)

    if args.trace:
        wanted = spec["per_layer"]
        values = result["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": result["setup_s"], **result["metrics"]}
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise RuntimeError(f"workload reported no {missing}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    provenance = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "default_backend": EngineConfig().backend,
        "profiler_enabled": profiling.is_enabled(),
        "host_probe_ms": [probe_before, probe_after],
        "setup_s": result["setup_s"],
        "samples": result.get("samples", {}),
        "failures": {
            kind: outcomes.count(kind)
            for kind in sorted(set(outcomes)) if kind != "ok"
        },
        **result.get("provenance", {}),
    }
    if "self_time_ok" in result:
        provenance["self_time_ok"] = result["self_time_ok"]
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
