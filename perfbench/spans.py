"""In-memory spans around the program's entry points, for traced runs.

The benchmark wraps each entry point it measures where its callers look
it up: a method on its class, and a function in every ``repro`` module
that bound it at import (the analyzer binds ``factor``,
``summarize_loop`` and ``screen_static`` that way).  The program itself
carries no spans.  A re-entry of a name that is already active on the
calling thread records nothing, so only the outermost activation of a
recursive entry point counts.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class SpanRecorder:
    """Collects ``(name, start, end, parent)`` spans from any thread;
    *parent* is the index of the enclosing span on the same thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list = []
        #: record nothing while False (the wrappers stay installed)
        self.enabled = True
        #: name -> [calls, true results], for entry points whose return
        #: value is a verdict
        self.verdicts: dict = {}

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def wrap(self, name: str, fn, verdict: bool = False):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            frames = recorder._frames()
            if any(frame[0] == name for frame in frames):
                return fn(*args, **kwargs)
            parent = frames[-1][1] if frames else None
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(None)
            frames.append((name, index))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                frames.pop()
                recorder.spans[index] = (name, start, end, parent)
            if verdict:
                with recorder._lock:
                    tally = recorder.verdicts.setdefault(name, [0, 0])
                    tally[0] += 1
                    tally[1] += bool(result)
            return result

        return traced

    def drain(self) -> list:
        """The spans recorded so far (all closed), emptying the buffer."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


class Instrumentation:
    """Installs recorder wrappers for the duration of a ``with`` block.

    *entries* are ``(span_name, owner, attribute, verdict)``; *owner* is
    a class (the method is replaced on it) or a module (the function is
    replaced in every loaded ``repro`` module that holds it).
    """

    def __init__(self, recorder: SpanRecorder, entries):
        self.recorder = recorder
        self.entries = list(entries)
        self._undo: list = []

    def __enter__(self) -> "Instrumentation":
        for name, owner, attribute, verdict in self.entries:
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
                setattr(owner, attribute,
                        self.recorder.wrap(name, original, verdict))
                self._undo.append((owner, attribute, original))
                continue
            original = getattr(owner, attribute)
            wrapper = self.recorder.wrap(name, original, verdict)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if not (module_name == "repro" or module_name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
