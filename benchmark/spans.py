"""Span tracing around the package's public functions.

Span times are CPU seconds of the (single-threaded) process.

A :class:`Tracer` replaces each listed function at its module or class
attribute with a wrapper that records a span ``(name, start, end, parent,
pass)``; callers inside the package that look the function up through its
module reach the wrapper too.  Functions called too often for a span each
get a call counter instead.  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, pass]
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.pass_index = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent, self.pass_index])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def install(self, traced, counted) -> None:
        for owner, attr, name in traced:
            orig = getattr(owner, attr)

            def wrapper(*args, _orig=orig, _name=name, **kwargs):
                idx = self._enter(_name)
                try:
                    return _orig(*args, **kwargs)
                finally:
                    self._exit(idx)

            self._patch(owner, attr, functools.wraps(orig)(wrapper))
        for owner, attr, name in counted:
            orig = getattr(owner, attr)

            def counter(*args, _orig=orig, _name=name, **kwargs):
                self.counts[(_name, self.pass_index)] += 1
                return _orig(*args, **kwargs)

            self._patch(owner, attr, functools.wraps(orig)(counter))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def self_times(self) -> list[tuple[str, int, float]]:
        """``(name, pass, self seconds)`` per span: its duration minus the
        time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[4], (s[2] - s[1]) - child[i]) for i, s in enumerate(self.spans)]

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": extra}) + "\n")
            for (name, pass_index), n in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "pass": pass_index, "calls": n}) + "\n")
            for i, (name, start, end, parent, pass_index) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_index}) + "\n")
