"""The in-process workloads: ``compile_cold`` and ``execute_paper``.

Both drive one long-lived :class:`repro.api.Engine` (disk cache off)
with protocol requests and time each request from call to response.
"""

from __future__ import annotations

import importlib
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.api import AnalyzeRequest, Engine, EngineConfig, ExecuteRequest
from repro.core.analyzer import HybridAnalyzer
from repro.ir.interp import Machine
from repro.pdag.cascade import Cascade
from repro.runtime.backends import BACKENDS
from repro.runtime.backends.speculative import sequential_execute
from repro.runtime.executor import HybridExecutor
from repro.runtime.inspector import Inspector
from repro.server.loadgen import build_mix
from repro.symbolic.intern import cache_stats, clear_caches
from repro.workloads import ALL_BENCHMARKS, TLS_LOOPS

from . import arith
from .checks import analyze_outcome, execute_outcome, reference_trace
from .spans import Instrumentation, SpanRecorder

#: The fuzz corpus is one fixed ``build_mix`` draw, the same for every
#: seed: cold analysis time is heavy-tailed (about one program in eight
#: takes 0.5-6 s), so corpora drawn per seed differ by half their total
#: cost and no metric over them is steady.  The seed orders the requests.
FUZZ_MIX_SEED = 0
#: Fuzz programs in ``compile_cold``: with the 91 paper loops, enough
#: samples (201) for a p95 with ten beyond it.
FUZZ_PROGRAMS = 110

#: Backend classes of ``execute_paper``: (class, backend, jobs).
EXECUTE_CLASSES = (
    ("default", None, None),
    ("thread", "thread", 2),
    ("numpy", "numpy", 2),
)
#: Seeded repeats added to the thread and numpy passes (91 + 9 = 100).
REPEATS = 9
#: The default class runs every eighth paper loop (12 of 91): it is
#: the per-iteration snapshot backend, about 0.5 s a loop, and a full
#: pass would take longer than a whole run.
DEFAULT_STRIDE = 8

#: Runs stop sending once this multiple of ``--seconds`` has passed.
DEADLINE_FACTOR = 3.0

ENGINE_SETUP_CODE = (
    "from repro.api import Engine, EngineConfig\n"
    "Engine(EngineConfig(use_disk_cache=False))\n"
)

def _module(name: str):
    # importlib, not attribute access: packages such as repro.core
    # re-export functions under their submodules' names
    return importlib.import_module(name)


COMPILE_ENTRIES = (
    ("api.compile", Engine, "compile", False),
    ("ir.parse", _module("repro.ir.parser"), "parse_program", False),
    ("ir.summarize", _module("repro.ir.summarize"), "summarize_loop", False),
    ("core.screen", _module("repro.core.screening"), "screen_static", True),
    ("core.factor", _module("repro.core.factor"), "factor", False),
    ("lmad.compare", _module("repro.lmad.compare"), "disjoint_lmad_sets", False),
    ("lmad.compare", _module("repro.lmad.compare"), "included_lmad_sets", False),
    ("pdag.simplify", _module("repro.pdag.simplify"), "simplify", False),
    ("symbolic.fm", _module("repro.symbolic.fourier_motzkin"),
     "eliminate_symbol", False),
    ("pdag.cascade_build", _module("repro.pdag.cascade"), "build_cascade", False),
    ("core.analyze", HybridAnalyzer, "analyze", False),
)

RUNTIME_ENTRIES = (
    ("runtime.run", HybridExecutor, "run", False),
    ("ir.interp", Machine, "run", False),
    ("pdag.cascade_eval", Cascade, "evaluate", False),
    ("runtime.inspector", Inspector, "check_empty", False),
    ("runtime.lrpd", _module("repro.runtime.speculation"), "lrpd_test", False),
) + tuple(
    (f"runtime.backend.{name}", cls, "execute", False)
    for name, cls in BACKENDS.items()
    if "execute" in cls.__dict__
)

#: Compile entry points that run inside ``HybridAnalyzer.analyze``.
ANALYZE_CHILDREN = (
    "ir.summarize", "core.screen", "core.factor", "lmad.compare",
    "pdag.simplify", "symbolic.fm", "pdag.cascade_build",
)


@dataclass
class Item:
    """One (program, loop, inputs) unit of a workload."""

    source: str
    loop: str
    params: dict
    arrays: dict
    options: dict = field(default_factory=dict)
    exact_strategy: str = "inspector"
    trace: object = None


def paper_items() -> list:
    """The 91 loops of the 27 paper models, on ``dataset(1)``."""
    items = []
    for spec in ALL_BENCHMARKS:
        params, arrays = spec.dataset(1)
        for loop in spec.loops:
            items.append(Item(
                source=spec.source, loop=loop.label, params=params, arrays=arrays,
                exact_strategy="tls" if loop.label in TLS_LOOPS else "inspector",
            ))
    return items


def fuzz_items(programs: int) -> list:
    return [
        Item(source=m.source, loop=m.loop, params=m.params, arrays=m.arrays,
             options=dict(m.options))
        for m in build_mix(
            seed=FUZZ_MIX_SEED, programs=programs, include_workloads=False,
        )
    ]


def attach_traces(items) -> None:
    """Untimed pre-pass: the interpreter's reference trace per item."""
    for item in items:
        item.trace = reference_trace(
            item.source, item.loop, item.params, item.arrays
        )


def engine_setup_s(env: dict, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter importing the package and
    constructing an Engine: what every embedding process pays."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", ENGINE_SETUP_CODE],
            env=env, check=True, timeout=120,
        )
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def new_engine() -> Engine:
    return Engine(EngineConfig(use_disk_cache=False))


class LayerTotals:
    """Per-layer self/inclusive time and call counts, summed request by
    request from the recorder's spans."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.totals: dict = {}
        #: process-wide memo lookups during the requests, and their hits
        self.memo_hits = 0
        self.memo_lookups = 0

    def close_request(self) -> dict:
        """Fold the spans of the request that just ended; returns its
        own ``name -> [self_s, inclusive_s, count]``."""
        own = arith.self_times(self.recorder.drain())
        for name, (self_s, incl_s, count) in own.items():
            entry = self.totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += incl_s
            entry[2] += count
        return own

    def self_ms(self, name: str, per: int) -> float:
        return self.totals.get(name, [0.0])[0] * 1e3 / max(1, per)

    def incl_ms(self, name: str, per: int) -> float:
        return self.totals.get(name, [0.0, 0.0])[1] * 1e3 / max(1, per)

    def calls(self, name: str, per: int) -> float:
        return self.totals.get(name, [0, 0, 0])[2] / max(1, per)


def memo_counts() -> tuple:
    stats = cache_stats().values()
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def ms(seconds: float) -> float:
    return seconds * 1e3


# -- compile_cold -------------------------------------------------------------

def _analyze_one(engine: Engine, item: Item, layers=None) -> tuple:
    """One analyze request from the fully cold analyzer: (latency_s,
    outcome, planned_parallel)."""
    request = AnalyzeRequest(
        source=item.source, loop=item.loop, options=item.options
    )
    # Every request starts from empty process-wide memos, so no
    # request's cost depends on which programs came before it.
    clear_caches()
    if layers is not None:
        hits, misses = memo_counts()
    started = time.perf_counter()
    try:
        response = engine.analyze(request)
    except Exception:  # noqa: BLE001 -- a crash is a failed request
        return (time.perf_counter() - started, "error", False)
    latency = time.perf_counter() - started
    if layers is not None:
        layers.close_request()
        after_hits, after_misses = memo_counts()
        layers.memo_hits += after_hits - hits
        layers.memo_lookups += (after_hits - hits) + (after_misses - misses)
    return (
        latency,
        analyze_outcome(response, item.trace),
        response.static_parallel or response.runtime_tested,
    )


def run_plain(units, run_one, deadline: float) -> list:
    rows = []
    for unit in units:
        if time.perf_counter() > deadline:
            break
        rows.append(run_one(unit, None))
    return rows


def run_paired(units, run_one, layers: "LayerTotals", deadline: float) -> tuple:
    """Each unit once untraced and once traced, alternating which goes
    first, so warm-up and host drift fall on both sides alike; returns
    the untraced and the traced rows."""
    plain, traced = [], []
    for position, unit in enumerate(units):
        if time.perf_counter() > deadline:
            break
        for on in ((False, True) if position % 2 == 0 else (True, False)):
            layers.recorder.enabled = on
            (traced if on else plain).append(run_one(unit, layers if on else None))
    layers.recorder.enabled = False
    return plain, traced


def _analyze_e2e(rows) -> tuple:
    latencies = [r[0] for r in rows]
    p50 = arith.percentile(latencies, 0.50)
    # The p95 sits at the low edge of the dozen 1-4 s programs, where
    # the nearest-rank value is one program's time and moved 25-30%
    # between runs of the same code; Harrell-Davis weighs in its
    # neighbours.
    p95 = arith.hd_percentile(latencies, 0.95)
    metrics = {
        "p50_ms": ms(p50["value"]),
        "tail_ms": ms(p95["value"]),
        "per_s": len(rows) / sum(latencies),
        "parallel_frac": sum(1 for r in rows if r[2]) / len(rows),
    }
    samples = {"p50": p50["n"], "tail_q": 0.95, "tail_n": p95["n"],
               "tail_beyond": p95["beyond"], "tail_estimator": "harrell-davis"}
    return metrics, samples


def compile_cold(seed: int, seconds: float, traced: bool, env: dict) -> dict:
    setup_s = engine_setup_s(env)
    paper = paper_items()
    items = paper + fuzz_items(FUZZ_PROGRAMS)
    attach_traces(items)
    rng = random.Random(seed)
    rng.shuffle(items)
    clear_caches()  # the pre-pass must leave no warm memo behind
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    result = {"setup_s": setup_s, "per_layer": {}}
    engine = new_engine()

    def run_one(item, layers):
        return _analyze_one(engine, item, layers)

    if not traced:
        started = time.perf_counter()
        rows = run_plain(items, run_one, deadline)
        outcomes = [r[1] for r in rows]
        # A second pass, in another seeded order, for the rest of
        # --seconds: the host's speed drifts by a third over tens of
        # seconds, and each program it reaches is timed at two moments
        # of the run, its latency the mean of the two.
        again = list(range(len(rows)))
        rng.shuffle(again)
        for index in again:
            if time.perf_counter() - started >= seconds:
                break
            latency, outcome, _parallel = run_one(items[index], None)
            rows[index] = ((rows[index][0] + latency) / 2, *rows[index][1:])
            outcomes.append(outcome)
        result["metrics"], result["samples"] = _analyze_e2e(rows)
        result["outcomes"] = outcomes
        result["provenance"] = {"items": len(rows), "paper_loops": len(paper),
                                "fuzz_programs": FUZZ_PROGRAMS,
                                "fuzz_mix_seed": FUZZ_MIX_SEED,
                                "timed_twice": len(outcomes) - len(rows)}
        return result
    # traced run: half the items, each untraced and traced
    layers = LayerTotals(SpanRecorder())
    with Instrumentation(layers.recorder, COMPILE_ENTRIES):
        plain, rows = run_paired(items[: len(items) // 2], run_one, layers,
                                 deadline)
    n = len(rows)
    per_layer = compile_layers(layers, n)
    per_layer["trace.overhead_frac"] = (
        sum(r[0] for r in rows) / sum(r[0] for r in plain) - 1.0
    )
    children = sum(per_layer[f"{name}_ms"] for name in ANALYZE_CHILDREN)
    analyze_self = layers.self_ms("core.analyze", n)
    result["self_time_ok"] = (
        children + analyze_self <= per_layer["core.analyze_ms"] * (1 + 1e-9)
    )
    result["per_layer"] = per_layer
    result["metrics"], result["samples"] = _analyze_e2e(plain)
    result["outcomes"] = [r[1] for r in plain] + [r[1] for r in rows]
    result["provenance"] = {"items": n, "traced_items": n}
    return result


def compile_layers(layers: LayerTotals, n: int) -> dict:
    screened = layers.recorder.verdicts.get("core.screen", [0, 0])
    return {
        "api.compile_ms": layers.self_ms("api.compile", n),
        "ir.parse_ms": layers.self_ms("ir.parse", n),
        "ir.summarize_ms": layers.self_ms("ir.summarize", n),
        "core.screen_ms": layers.self_ms("core.screen", n),
        "core.screen_resolved_frac": (
            screened[1] / screened[0] if screened[0] else 0.0
        ),
        "core.factor_ms": layers.self_ms("core.factor", n),
        "core.factor_calls": layers.calls("core.factor", n),
        "lmad.compare_ms": layers.self_ms("lmad.compare", n),
        "lmad.compare_calls": layers.calls("lmad.compare", n),
        "pdag.simplify_ms": layers.self_ms("pdag.simplify", n),
        "symbolic.fm_ms": layers.self_ms("symbolic.fm", n),
        "pdag.cascade_build_ms": layers.self_ms("pdag.cascade_build", n),
        "core.analyze_ms": layers.incl_ms("core.analyze", n),
        "symbolic.memo_hit_frac": (
            layers.memo_hits / layers.memo_lookups if layers.memo_lookups else 0.0
        ),
    }


# -- execute_paper ------------------------------------------------------------

def execute_schedule(count: int, seed: int) -> list:
    """``(item index, class)`` requests: every loop once on thread and
    numpy plus seeded repeats, every eighth loop on the default class;
    interleaved in a seeded order."""
    rng = random.Random(seed)
    schedule = []
    for cls in ("thread", "numpy"):
        picks = list(range(count)) + [rng.randrange(count) for _ in range(REPEATS)]
        schedule += [(index, cls) for index in picks]
    schedule += [(index, "default") for index in range(0, count, DEFAULT_STRIDE)]
    rng.shuffle(schedule)
    return schedule


def inorder_s(engine: Engine, item: Item, repeats: int = 3) -> float:
    """Best-of wall time of bare in-order interpretation of the loop."""
    task = engine.compile(item.source).executor(
        item.loop, exact_strategy=item.exact_strategy
    ).capture_task(item.params, item.arrays)
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        sequential_execute(task)
        wall = time.perf_counter() - started
        best = wall if best is None else min(best, wall)
    return best


_CLASSES = {name: (backend, jobs) for name, backend, jobs in EXECUTE_CLASSES}


def _execute_one(engine: Engine, items, unit, layers=None) -> dict:
    """One execute request of *unit* = (item index, class): its latency,
    outcome, backends and, when traced, kernel (backend) time."""
    index, cls = unit
    item = items[index]
    backend, jobs = _CLASSES[cls]
    request = ExecuteRequest(
        source=item.source, loop=item.loop, params=item.params,
        arrays=item.arrays, exact_strategy=item.exact_strategy,
        backend=backend, jobs=jobs, options=item.options,
    )
    row = {"cls": cls, "index": index, "kernel_s": 0.0}
    started = time.perf_counter()
    try:
        response = engine.execute(request)
    except Exception:  # noqa: BLE001 -- a crash is a failed request
        row.update(latency=time.perf_counter() - started, outcome="error",
                   parallel=False, requested="", used="")
        return row
    row["latency"] = time.perf_counter() - started
    if layers is not None:
        own = layers.close_request()
        row["kernel_s"] = sum(
            v[1] for name, v in own.items() if name.startswith("runtime.backend.")
        )
    row.update(
        outcome=execute_outcome(response, item.trace),
        parallel=response.parallel,
        requested=response.backend,
        used=response.backend_used,
    )
    return row


def _execute_e2e(rows, count: int) -> tuple:
    latencies = [r["latency"] for r in rows]
    p50 = arith.percentile(latencies, 0.50)
    # the default class's dozen slow requests sit around the p90
    p90 = arith.hd_percentile(latencies, 0.90)
    loops_parallel: dict = {}
    for r in rows:
        loops_parallel[r["index"]] = (
            loops_parallel.get(r["index"], True) and r["parallel"]
        )
    metrics = {
        "p50_ms": ms(p50["value"]),
        "tail_ms": ms(p90["value"]),
        "per_s": len(rows) / sum(latencies),
        "parallel_frac": (
            sum(1 for v in loops_parallel.values() if v) / len(loops_parallel)
        ),
    }
    samples = {"p50": p50["n"], "tail_q": 0.90, "tail_n": p90["n"],
               "tail_beyond": p90["beyond"], "tail_estimator": "harrell-davis",
               "per_class": {cls: sum(1 for r in rows if r["cls"] == cls)
                             for cls, _b, _j in EXECUTE_CLASSES},
               "class_p50_ms": {cls: _class_p(rows, cls, 0.50)
                                for cls, _b, _j in EXECUTE_CLASSES},
               "loops": len(loops_parallel), "loops_total": count}
    return metrics, samples


def _class_p(rows, cls: str, q: float) -> float:
    values = [r["latency"] for r in rows if r["cls"] == cls]
    return ms(arith.percentile(values, q)["value"]) if values else 0.0


def execute_paper(seed: int, seconds: float, traced: bool, env: dict) -> dict:
    items = paper_items()
    engine = new_engine()
    started = time.perf_counter()
    warm_outcomes = []
    for item in items:  # plan warm-up, through the analyze verb
        response = engine.analyze(AnalyzeRequest(source=item.source, loop=item.loop))
        warm_outcomes.append(response)
    warm_up_s = time.perf_counter() - started
    setup_s = engine_setup_s(env) + warm_up_s
    attach_traces(items)
    outcomes = [analyze_outcome(r, item.trace) for r, item in zip(warm_outcomes, items)]
    inorder = [inorder_s(engine, item) for item in items]
    schedule = execute_schedule(len(items), seed)
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    result = {"setup_s": setup_s, "per_layer": {}}

    def run_one(unit, layers):
        return _execute_one(engine, items, unit, layers)

    if not traced:
        rows = run_plain(schedule, run_one, deadline)
        result["metrics"], result["samples"] = _execute_e2e(rows, len(items))
        result["outcomes"] = outcomes + [r["outcome"] for r in rows]
        result["provenance"] = {"plan_warm_up_s": warm_up_s}
        return result
    # traced run: half the schedule, each request untraced and traced
    layers = LayerTotals(SpanRecorder())
    with Instrumentation(layers.recorder, COMPILE_ENTRIES + RUNTIME_ENTRIES):
        plain, rows = run_paired(schedule[: len(schedule) // 2], run_one,
                                 layers, deadline)
    n = len(rows)
    per_layer = compile_layers(layers, n)
    per_layer.update(runtime_layers(layers, plain, rows, inorder, n))
    per_layer["trace.overhead_frac"] = (
        sum(r["latency"] for r in rows) / sum(r["latency"] for r in plain) - 1.0
    )
    result["per_layer"] = per_layer
    result["metrics"], result["samples"] = _execute_e2e(plain, len(items))
    result["outcomes"] = (
        outcomes + [r["outcome"] for r in plain] + [r["outcome"] for r in rows]
    )
    result["provenance"] = {"plan_warm_up_s": warm_up_s, "traced_requests": n}
    return result


def runtime_layers(layers: LayerTotals, plain, rows, inorder, n: int) -> dict:
    """Runtime layer metrics of a traced execute pass; *plain* is the
    untraced pass over the same requests."""
    run_ms = layers.incl_ms("runtime.run", n)
    tests_ms = sum(
        layers.incl_ms(name, n)
        for name in ("pdag.cascade_eval", "runtime.inspector", "runtime.lrpd")
    )
    ran = [r for r in rows if r["used"]]
    out = {
        "runtime.run_ms": run_ms,
        "ir.interp_ms": layers.self_ms("ir.interp", n),
        "ir.interp_calls": layers.calls("ir.interp", n),
        "pdag.cascade_eval_ms": layers.self_ms("pdag.cascade_eval", n),
        "runtime.inspector_ms": layers.self_ms("runtime.inspector", n),
        "runtime.lrpd_ms": layers.self_ms("runtime.lrpd", n),
        "runtime.test_overhead_frac": tests_ms / run_ms if run_ms else 0.0,
        "runtime.fallback_frac": (
            sum(1 for r in ran if r["used"] != r["requested"]) / len(ran)
            if ran else 0.0
        ),
        "runtime.inorder_ms": ms(statistics.mean(inorder)),
        "execute_p50_ms": _class_p(plain, "default", 0.50),
        "execute_p90_ms": _class_p(plain, "default", 0.90),
        "execute_thread_p50_ms": _class_p(plain, "thread", 0.50),
        "execute_numpy_p50_ms": _class_p(plain, "numpy", 0.50),
    }
    for name in ("sequential", "thread", "numpy"):
        span = f"runtime.backend.{name}"
        calls = layers.totals.get(span, [0.0, 0.0, 0])[2]
        out[f"runtime.backend_ms.{name}"] = (
            layers.incl_ms(span, calls) if calls else 0.0
        )
    for cls, _backend, _jobs in EXECUTE_CLASSES:
        request_x = [r["latency"] / inorder[r["index"]]
                     for r in plain if r["cls"] == cls]
        kernel_x = [r["kernel_s"] / inorder[r["index"]]
                    for r in rows if r["cls"] == cls and r["kernel_s"] > 0]
        out[f"runtime.x_inorder.{cls}"] = (
            arith.geomean(request_x) if request_x else 0.0
        )
        out[f"runtime.kernel_x_inorder.{cls}"] = (
            arith.geomean(kernel_x) if kernel_x else 0.0
        )
    return out
