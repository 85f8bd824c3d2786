"""Outside-in span tracing for the traced run (never used by timed runs).

The tracer wraps public entry points on the *instances* one repetition
built — never on classes — so the library's code is untouched and a timed
run of the same process installs nothing.  Each span records its name,
start, end, parent and (resolved lazily, at write-out) the transaction id
its message, action or transaction names.  Spans stay in memory and are
written out when the run ends.

Self time follows the Dapper span model: a span's duration minus the time
its child spans cover.  Because every wrapped call nests strictly inside its
caller, self times add up: the self times of all spans equal the summed
durations of the root spans.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional


class Tracer:
    """In-memory span store with running per-name self time and call counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        #: the object each span's transaction id is resolved from (or None)
        self.subjects: List[Any] = []
        #: open spans: [span index, time covered by children]
        self._stack: List[List[Any]] = []
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self.self_time[name] = 0.0
            self.calls[name] = 0
        return code

    # -- span lifecycle --------------------------------------------------
    def open(self, code: int, subject: Any = None) -> int:
        index = len(self.starts)
        self.name_of.append(code)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.subjects.append(subject)
        self.ends.append(0.0)
        self._stack.append([index, 0.0])
        self.starts.append(perf_counter())
        return index

    def close(self) -> None:
        end = perf_counter()
        index, covered = self._stack.pop()
        self.ends[index] = end
        duration = end - self.starts[index]
        name = self.names[self.name_of[index]]
        self.self_time[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str, subject: Any = None) -> Iterator[None]:
        self.open(self.code(name), subject)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn: Callable[..., Any], subject_arg: Optional[int] = None) -> Callable[..., Any]:
        """``fn`` inside a span; ``subject_arg`` picks the positional argument
        whose transaction id the span records."""
        code = self.code(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.open(code, args[subject_arg] if subject_arg is not None and args else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return traced

    def drop_spans(self) -> None:
        """Free the span records, keeping the per-name totals."""
        for column in (self.name_of, self.starts, self.ends, self.parents):
            del column[:]
        self.subjects.clear()

    # -- reading ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.starts)

    def root_time(self) -> float:
        return sum(
            self.ends[i] - self.starts[i] for i in range(len(self.starts)) if self.parents[i] == -1
        )

    def write(self, path: str) -> None:
        """Write every span as a gzipped TSV (times in µs from the first span)."""
        origin = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tname\tstart_us\tend_us\ttxn\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{i}\t{self.parents[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{(self.starts[i] - origin) * 1e6:.3f}\t{(self.ends[i] - origin) * 1e6:.3f}\t"
                    f"{txn_of(self.subjects[i])}\n"
                )


def txn_of(subject: Any) -> str:
    """The transaction id a message, action or transaction names ('' if none)."""
    if subject is None:
        return ""
    txn_id = getattr(subject, "txn_id", None)  # a transaction
    if txn_id is not None:
        return str(txn_id)
    get = getattr(subject, "get", None)  # a message or an action
    if get is not None:
        txn = get("txn")
        if txn is not None:
            return str(txn)
    return ""


class TracedSession:
    """Stands in for a client's session generator so the time the kernel
    spends inside ``send`` — the client's protocol logic — is a span."""

    __slots__ = ("_inner", "_tracer", "_code", "_txn")

    def __init__(self, inner: Any, tracer: Tracer, code: int, txn: Any) -> None:
        self._inner = inner
        self._tracer = tracer
        self._code = code
        self._txn = txn

    def send(self, value: Any) -> Any:
        self._tracer.open(self._code, self._txn)
        try:
            return self._inner.send(value)
        finally:
            self._tracer.close()

    def throw(self, *args: Any) -> Any:
        return self._inner.throw(*args)

    def close(self) -> None:
        self._inner.close()
