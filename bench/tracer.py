"""In-memory span tracer that wraps module attributes from outside the library.

A span is (name, parent, start, end, attrs).  Wrappers are installed by
replacing a function (or a helper module such as ``np``) in the namespace of
the module that calls it, and are removed again afterwards, so no library
file changes and untraced runs execute the library untouched.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

__all__ = ["Span", "Tracer", "Proxy", "self_times", "check_nesting", "selftest"]


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: Optional[int], start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.attrs]


class Proxy:
    """Stand-in for a module: listed attributes replaced, the rest forwarded."""

    def __init__(self, target: Any, **overrides: Any):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


class Tracer:
    """Spans and counters of one traced call.

    ``clock`` is injectable so the self-test can drive it with known times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock()))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = self.clock()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid].name} closed out of order")

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Optional[Callable[[Span, tuple, dict], tuple[tuple, dict]]] = None,
        on_return: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``on_call`` may rewrite the arguments (and tag the span) before the
        call; ``on_return`` tags the span from the result.  A raised
        exception is recorded as the span's ``error`` attribute.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            span = self.spans[sid]
            if on_call is not None:
                args, kwargs = on_call(span, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs = {**(span.attrs or {}), "error": type(exc).__name__}
                raise
            finally:
                self.close(sid)
            if on_return is not None:
                on_return(span, args, out)
            return out

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_fn(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, **hooks))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def check_nesting(spans: list[Span]) -> list[str]:
    """Children lie inside their parent and siblings do not overlap.

    Under these two conditions the children's summed durations equal the
    part of the parent's interval they cover, so ``self_times`` is the
    covered-interval self time.
    """
    problems = []
    kids: dict[Optional[int], list[Span]] = defaultdict(list)
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.name} ends before it starts")
        kids[s.parent].append(s)
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.name} outside its parent {p.name}")
    for group in kids.values():
        group.sort(key=lambda s: s.start)
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                problems.append(f"sibling spans {a.name} and {b.name} overlap")
    return problems[:10]


def selftest() -> list[str]:
    """Self time, nesting, wrapping and restoring on a scripted clock."""
    problems = []
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    ns = types.SimpleNamespace(leaf=lambda x: x + 1)
    original = ns.leaf

    def mid(x):
        return ns.leaf(x) * 2

    ns.mid = mid
    tr.patch_fn(ns, "leaf", "leaf", on_return=lambda span, args, out: setattr(span, "attrs", {"out": out}))
    tr.patch_fn(ns, "mid", "mid")
    root = tr.open("root")  # t = 0
    ns.leaf(0)  # 1 .. 3
    result = ns.mid(1)  # mid 4 .. 8, its leaf 5 .. 6
    tr.close(root)  # 10
    tr.restore()
    # spans in opening order: root 0..10, leaf 1..3, mid 4..8, leaf 5..6 inside mid
    durations = [s.duration for s in tr.spans]
    if durations != [10.0, 2.0, 4.0, 1.0] or self_times(tr.spans) != [4.0, 2.0, 3.0, 1.0]:
        problems.append(f"self-test: durations {durations}, self times {self_times(tr.spans)}")
    if [s.parent for s in tr.spans] != [None, 0, 0, 2]:
        problems.append("self-test: wrong span parents")
    if result != 4 or tr.spans[1].attrs != {"out": 1}:
        problems.append("self-test: wrapper changed a result or lost its attributes")
    if ns.leaf is not original or ns.mid is not mid:
        problems.append("self-test: restore left a wrapper installed")
    problems += check_nesting(tr.spans)
    overlap = [Span("a", None, 0.0), Span("b", None, 1.0)]
    overlap[0].end, overlap[1].end = 2.0, 3.0
    if not check_nesting(overlap):
        problems.append("self-test: overlapping siblings not detected")
    return problems
