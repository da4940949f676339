"""In-memory tracer that wraps the program's public functions from outside.

Each function is wrapped where its callers look it up: a module global
such as ``theory.enumerate_functions`` (not ``finset.enumerate_functions``,
which ``theory`` imported by name), or a class attribute such as
``PresentationInstance.map``.  A wrapper keeps a call count, total time
and self time (total minus the time of wrapped calls made inside it).
Calls listed in ``span_names`` also leave a span record: request id,
name, start, end and the index of the enclosing recorded span.  Hot
leaf calls, made millions of times per pass, only update their counters
so that memory stays flat.  Generators are counted by call and by items
yielded; their work shows up as time of the caller that pulls items.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, span_names: set[str]):
        self.span_names = span_names
        self.counts: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.yielded: dict[str, int] = {}
        self.spans: list[list] = []
        self.request = ""
        # One entry per active timed call: [child seconds, span index].
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset_counters(self) -> None:
        for table, zero in ((self.counts, 0), (self.yielded, 0),
                            (self.total, 0.0), (self.self_time, 0.0)):
            for key in table:
                table[key] = zero

    def _timed(self, name: str, fn):
        counts, total, self_time = self.counts, self.total, self.self_time
        counts.setdefault(name, 0)
        total.setdefault(name, 0.0)
        self_time.setdefault(name, 0.0)
        stack, spans = self._stack, self.spans
        record = name in self.span_names

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if record:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append([self.request, name, 0.0, 0.0, parent])
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                counts[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans[frame[1]][2:4] = [start, start + elapsed]

        return wrapper

    def _counted_generator(self, name: str, fn):
        counts, yielded = self.counts, self.yielded
        counts.setdefault(name, 0)
        yielded.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            for item in fn(*args, **kwargs):
                yielded[name] += 1
                yield item

        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              generator: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper reporting under ``name``.

        Owners that look up the same function share one name and its
        counters; a call passes through one wrapper only.
        """
        original = getattr(owner, attr)
        factory = self._counted_generator if generator else self._timed
        self._patched.append((owner, attr, original))
        setattr(owner, attr, factory(name, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for i, (request, name, start, end, parent) in enumerate(
                    self.spans):
                out.write(json.dumps({"id": i, "request": request,
                                      "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")
