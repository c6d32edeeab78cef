"""In-memory span recorder for the benchmark's traced runs.

The benchmark never edits the program: a traced run replaces chosen
public functions with timing wrappers for the duration of the run and
puts the originals back afterwards.  Each call becomes one span
(name, start, end, parent, run id).  Spans are kept in compact arrays and
written out only when the run ends.

Self time of a span is its duration minus the part of it covered by its
direct children.  A phase's ledger clips every span to the phase window:
the self times of all spans plus ``unaccounted_s`` equal the phase wall
time by construction, so a negative ``unaccounted_s`` means spans
overlapped (two threads) and is reported, not hidden.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import threading
import time
from pathlib import Path

clock = time.perf_counter


class SpanRecorder:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: span name -> wrapped generators run to exhaustion; their last
        #: step is a span that produced no item.
        self.exhausted: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            with self._lock:
                ident = self._name_ids.setdefault(name, len(self.names))
                if ident == len(self.names):
                    self.names.append(name)
        return ident

    def open(self, name: str) -> int:
        """Start a span now; returns its index for :meth:`close`."""
        stack = self._stack()
        ident = self._name_id(name)
        with self._lock:
            index = len(self.start)
            self.name_idx.append(ident)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`unwrap_all`.

        Plain functions and methods get one span per call; generator
        functions get one span per resumed step (the time spent producing
        each item); coroutine functions get one span per slice the
        coroutine actually runs, so awaiting I/O is not counted.
        """
        original = inspect.getattr_static(owner, attr)
        if inspect.isgeneratorfunction(original):
            wrapper = self._generator_wrapper(original, name)
        elif inspect.iscoroutinefunction(original):
            wrapper = self._coroutine_wrapper(original, name)
        else:
            wrapper = self._call_wrapper(original, name)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _call_wrapper(self, func, name: str):
        recorder = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            index = recorder.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                recorder.close(index)
        return timed

    def _generator_wrapper(self, func, name: str):
        recorder = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            generator = func(*args, **kwargs)
            while True:
                index = recorder.open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    recorder.exhausted[name] = \
                        recorder.exhausted.get(name, 0) + 1
                    return
                finally:
                    recorder.close(index)
                yield item
        return timed

    def _coroutine_wrapper(self, func, name: str):
        recorder = self

        class _Sliced:
            def __init__(self, coro) -> None:
                self.coro = coro

            def __await__(self):
                coro = self.coro
                value, error = None, None
                while True:
                    index = recorder.open(name)
                    try:
                        if error is None:
                            step = coro.send(value)
                        else:
                            step = coro.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        recorder.close(index)
                    try:
                        value, error = (yield step), None
                    except BaseException as exc:  # re-thrown into coro
                        value, error = None, exc

        @functools.wraps(func)
        async def timed(*args, **kwargs):
            return await _Sliced(func(*args, **kwargs))
        return timed

    # -- output --------------------------------------------------------------

    def dump(self, path: "str | Path") -> Path:
        """Write the spans as one JSON header line plus raw arrays."""
        path = Path(path)
        with open(path, "wb") as handle:
            header = {"run_id": self.run_id, "names": self.names,
                      "count": len(self)}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_idx, self.parent, self.start, self.end):
                column.tofile(handle)
        return path


class SpanTable:
    """Read-only view over recorded spans (live recorder or a dump)."""

    def __init__(self, names, name_idx, parent, start, end,
                 run_id: str = "") -> None:
        self.names = list(names)
        self.name_idx = name_idx
        self.parent = parent
        self.start = start
        self.end = end
        self.run_id = run_id

    @classmethod
    def of(cls, recorder: SpanRecorder) -> "SpanTable":
        return cls(recorder.names, recorder.name_idx, recorder.parent,
                   recorder.start, recorder.end, recorder.run_id)

    @classmethod
    def load(cls, path: "str | Path") -> "SpanTable":
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            count = header["count"]
            columns = []
            for typecode in ("i", "i", "d", "d"):
                column = array.array(typecode)
                column.fromfile(handle, count)
                columns.append(column)
        return cls(header["names"], *columns, run_id=header["run_id"])

    def ledger(self, window: "tuple[float, float]") -> dict:
        """Per span name: calls and self seconds inside ``window``, plus
        the phase wall and the unaccounted remainder.

        ``outer_calls`` leaves out spans nested directly in a span of the
        same name, such as ``is_enabled`` calling ``explain`` when both are
        timed as one layer: those are part of the outer call.
        """
        lo, hi = window
        count = len(self.start)
        clipped = [0.0] * count
        child_cover = [0.0] * count
        for i in range(count):
            s = max(self.start[i], lo)
            e = min(self.end[i], hi)
            if e > s:
                clipped[i] = e - s
        for i in range(count):
            p = self.parent[i]
            if p >= 0 and clipped[i]:
                child_cover[p] += clipped[i]
        self_by_name: dict[str, float] = {}
        calls_by_name: dict[str, int] = {}
        outer_by_name: dict[str, int] = {}
        for i in range(count):
            if not clipped[i]:
                continue
            name_id = self.name_idx[i]
            name = self.names[name_id]
            self_by_name[name] = (self_by_name.get(name, 0.0)
                                  + clipped[i] - child_cover[i])
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            p = self.parent[i]
            if p < 0 or self.name_idx[p] != name_id:
                outer_by_name[name] = outer_by_name.get(name, 0) + 1
        wall = hi - lo
        return {
            "wall_s": wall,
            "self_s": self_by_name,
            "calls": calls_by_name,
            "outer_calls": outer_by_name,
            "unaccounted_s": wall - sum(self_by_name.values()),
        }
