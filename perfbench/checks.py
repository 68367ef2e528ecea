"""Independent correctness verdicts for analyze and execute responses.

Reference traces come from the interpreter alone (``Machine`` with a
trace target), built before any timing starts.  A wire response carries
no output arrays, so its own ``correct`` flag is not the only check:
every independence claim it makes is held against the trace with the
fuzz oracle's rule (``repro.fuzz.oracle.classify_outcome``) -- a
``shared`` claim fails on any cross-iteration dependence of that array,
a ``private`` claim fails on a flow dependence.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

from repro.api import ErrorResponse
from repro.fuzz.oracle import classify_outcome
from repro.ir.interp import Machine
from repro.ir.parser import parse_program

# classify_outcome asks the plan about scalar dependences only to tell a
# precision gap from a sound sequential run; neither is a failure.
_ANY_PLAN = SimpleNamespace(has_scalar_dependence=lambda: True)


def reference_trace(source: str, loop: str, params: dict, arrays: dict):
    """The interpreter's trace of *loop* on these inputs."""
    machine = Machine(
        parse_program(source),
        params=dict(params),
        arrays=copy.deepcopy(arrays),
        trace_label=loop,
    )
    return machine.run().trace


def _error_outcome(response) -> str:
    return "shed" if response.code == "overloaded" else "error"


def _judge(trace, parallel: bool, correct: bool, decisions: dict) -> str:
    report = SimpleNamespace(
        parallel=parallel, correct=correct, decisions=decisions
    )
    verdict, _detail = classify_outcome(_ANY_PLAN, trace, report)
    return "wrong" if verdict in ("unsound", "crash") else "ok"


def execute_outcome(response, trace) -> str:
    """``"ok"``, or why an execute response fails: ``"error"``,
    ``"shed"`` or ``"wrong"``."""
    if isinstance(response, ErrorResponse):
        return _error_outcome(response)
    if not response.correct:
        return "wrong"
    decisions = {
        name: SimpleNamespace(**decision)
        for name, decision in response.decisions.items()
    }
    return _judge(trace, response.parallel, True, decisions)


def analyze_outcome(response, trace) -> str:
    """``"ok"``, or why an analyze response fails: an error, or a static
    independence claim that the trace contradicts."""
    if isinstance(response, ErrorResponse):
        return _error_outcome(response)
    claims = {
        summary.array: SimpleNamespace(
            strategy=summary.transform, via="static", passed_stage=None
        )
        for summary in response.arrays
        if summary.static_parallel and summary.transform in ("shared", "private")
    }
    return _judge(trace, True, True, claims)
