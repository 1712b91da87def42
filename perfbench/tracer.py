"""Layer spans recorded from outside the engine.

The tracer wraps each layer's public entry point at the binding its
callers use (a class attribute, or the name a module imported) and
records one span per call made while an op is being traced: name, start,
end, parent span and op id.  Spans stay in memory until the run ends.
Nothing inside the engine's sources changes; :meth:`Tracer.uninstall`
puts every original back.

A layer's self time is its spans' durations minus the time their child
spans cover.  Calls from other threads (the block prefetcher) and calls
outside a traced op pass straight through.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Tracer"]


class Tracer:
    """In-memory span recorder with monkeypatched entry points."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, op id]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple] = []
        self.op_id: int | None = None

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, run):
        """Run ``run()`` as op ``op_id`` under an ``op`` root span."""
        self.op_id = op_id
        index = self._open("op")
        try:
            return run()
        finally:
            self._close(index)
            self.op_id = None

    def _active(self) -> bool:
        return self.op_id is not None and threading.get_ident() == self._thread

    # -- patching -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, when=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``when(*args, **kwargs)``, if given, decides per call whether the
        call is recorded.  A target that no longer exists is reported on
        stderr and skipped, so its layer reads zero instead of the run
        failing.
        """
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            print(f"trace: {label} not found; {name} is not traced", file=sys.stderr)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._active() or (when is not None and not when(*args, **kwargs)):
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_family(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that defines it."""
        seen, pending = set(), [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                self.wrap(cls, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self, op_ids) -> tuple[dict, dict]:
        """Summed self time (s) and span count per name over ``op_ids``."""
        wanted = set(op_ids)
        child_time = defaultdict(float)
        for name, start, end, parent, op_id in self.spans:
            if parent >= 0 and op_id in wanted:
                child_time[parent] += end - start
        totals, counts = defaultdict(float), defaultdict(int)
        for index, (name, start, end, parent, op_id) in enumerate(self.spans):
            if op_id in wanted:
                totals[name] += (end - start) - child_time[index]
                counts[name] += 1
        return dict(totals), dict(counts)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
