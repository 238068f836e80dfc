"""In-memory span recording around the public functions of each sonicauth layer.

Each wrapper is installed at the name its caller looks up at call time, so
the program itself is not edited. A span is ``[name, start, end, parent,
session, value]``: ``parent`` is the index of the enclosing span (or -1),
``session`` the index of the enclosing ``protocol.session`` span (or -1 for
work done outside any session), and ``value`` an optional count measured at
the same boundary (samples propagated, signals found present).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import sonicauth.adversary
import sonicauth.channel
import sonicauth.evaluation
import sonicauth.protocol
import sonicauth.signal
import sonicauth.spectrum
from sonicauth.signal import ReferenceSignal

SESSION = "protocol.session"
CAMPAIGN = "evaluation.campaign"
KERNEL = "host.reference_kernel"


class Tracer:
    """Records spans for one pass; ``layers=False`` wraps only the session.
    ``between_sessions`` runs after each session, outside its span, in a
    span of its own named ``KERNEL``."""

    def __init__(self, layers: bool, between_sessions: Callable[[], None]) -> None:
        self.layers = layers
        self.between_sessions = between_sessions
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._session = -1
        self.session_kind: str | None = None
        self.sessions: list[dict] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._session, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, value=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = value
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, value_of=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, value_of(args, out) if value_of else None)
            return out

        return wrapper

    def _wrap_session(self, fn):
        def run_authentication(*args, **kwargs):
            number = len(self.sessions)
            record = {"kind": self.session_kind, "span": None, "decision": None, "transcript": None}
            self.sessions.append(record)
            self._session = number
            idx = self._open(SESSION)
            record["span"] = idx
            try:
                decision, transcript = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._session = -1
                with self.span(KERNEL):
                    self.between_sessions()
            record["decision"] = decision
            record["transcript"] = transcript
            return decision, transcript

        return run_authentication

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        patches = [(sonicauth.evaluation, "run_authentication", self._wrap_session)]
        if self.layers:
            present = lambda args, out: sum(o.location is not None for o in out)
            samples = lambda args, out: len(args[0])
            for module in (sonicauth.protocol, sonicauth.adversary, sonicauth.signal):
                patches.append((module, "synthesize", self._wrapper("signal.synthesize")))
                patches.append((module, "sample_spec", self._wrapper("signal.sample_spec")))
            patches += [
                (sonicauth.channel, "record", self._wrapper("channel.record")),
                (sonicauth.channel, "propagate", self._wrapper("channel.propagate", samples)),
                (sonicauth.spectrum, "detect_pair", self._wrapper("spectrum.detect_pair", present)),
                (sonicauth.adversary, "build_emissions", self._wrapper("adversary.build_emissions")),
                (sonicauth.adversary, "all_frequency_signal", self._wrapper("adversary.all_frequency_signal")),
                (ReferenceSignal, "to_bytes", self._wrapper("signal.link_codec")),
                (ReferenceSignal, "from_bytes", self._classmethod_wrapper("signal.link_codec")),
            ]
        saved = []
        try:
            for owner, attr, make in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrapper(self, name: str, value_of=None):
        return lambda original: self._wrap(name, original, value_of)

    def _classmethod_wrapper(self, name: str):
        return lambda original: classmethod(self._wrap(name, original.__func__))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, session, value in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, session, value) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[idx]):
            lo = max(c_start, reach)
            if c_end > lo:
                covered += c_end - lo
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_counts(spans: list[list]) -> dict[tuple[int, str], int]:
    """Calls per (session, span name); session -1 collects work outside sessions."""
    counts: dict[tuple[int, str], int] = defaultdict(int)
    for name, start, end, parent, session, value in spans:
        counts[(session, name)] += 1
    return counts
