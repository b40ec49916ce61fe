"""In-memory span recorder that wraps functions where their callers look them up.

A span is one call: name, start, end, the span that was open when it began
(its parent) and the run id of the operation it belongs to. Spans stay in
memory and are written out once, when the benchmark ends. Patches are only
in place inside `Tracer.installed()`, so untraced code runs the original
functions with no wrapper at all.
"""

import functools
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Patch:
    """Wrap `module.attr` and record each call as a span called `name`.

    `note(args, kwargs, result)` may return extra fields for the span, such
    as an iteration count the result carries.
    """

    module: object
    attr: str
    name: str
    note: object = None


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = float("nan")
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, patches: list[Patch]):
        self.patches = patches
        self.spans: list[Span] = []
        self.warnings: list[tuple[str, str]] = []   # (run id, file that warned)
        self._open: list[int] = []
        self._run = "setup"
        self._origin = time.perf_counter()

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._run,
                        self._open[-1] if self._open else None,
                        time.perf_counter() - self._origin)
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter() - self._origin
                self._open.pop()
            if note is not None:
                span.notes.update(note(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self, run: str):
        """Patch every target, tag new spans with `run`, and count warnings."""
        wrappers = {}
        saved = []
        try:
            for p in self.patches:
                original = getattr(p.module, p.attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, p.name, p.note)
                saved.append((p.module, p.attr, original))
                setattr(p.module, p.attr, wrappers[id(original)])
            self._run = run
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    yield self
                finally:
                    self.warnings.extend((run, w.filename) for w in caught)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_seconds(self) -> dict[int, float]:
        """Per span id: its duration minus the time its direct children cover."""
        own = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "run": s.run,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, **s.notes}) + "\n")
