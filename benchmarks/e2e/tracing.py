"""Outside-in span recorder for the traced pass.

The benchmark records spans from its own files, around the calls into each
layer: :meth:`SpanRecorder.wrap` substitutes a timing wrapper for a public
callable *by attribute* (on a module, a class or an instance) and
:meth:`SpanRecorder.restore` puts every original back.  Nothing inside
``src/`` knows it is being traced.

A span is ``{"name", "start", "end", "parent", "id"}``: ``parent`` is the
index of the span that was open when it started (``None`` for a root) and
``id`` is the ``(workload, phase, cycle)`` tuple current at that moment, so
the spans of one operation share an identifier.  Spans stay in memory; the
caller writes them out when the benchmark ends.  A span's *self time* is its
duration minus the part its child spans cover -- on one thread children nest
and never overlap, so that part is the sum of the direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

__all__ = ["SpanRecorder", "NullRecorder"]

_MISSING = object()


class NullRecorder:
    """What untraced runs carry: spans are no-ops, so the run loop reads the
    same with and without tracing (and no wrapper is ever installed)."""

    recording = False
    ident: tuple = ()

    def span(self, name: str, **fields):
        return nullcontext()


class SpanRecorder:
    """In-memory spans plus the attribute substitutions that produce them."""

    recording = True

    def __init__(self, clock=time.perf_counter):
        self.spans: list[dict] = []
        self.ident: tuple = ()
        self._clock = clock
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str, **fields):
        """Record one span around the ``with`` body (also on exceptions)."""
        index = len(self.spans)
        record = {
            "name": name,
            "start": self._clock(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "id": self.ident,
        }
        record.update(fields)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._open.pop()

    # -- substitution ---------------------------------------------------
    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``size(args, kwargs)`` optionally stamps a work count on the span
        (e.g. the batch length).  Works on modules, instances and classes;
        class-level ``classmethod``/``staticmethod`` attributes keep their
        binding.
        """
        namespace = vars(owner)
        raw = namespace.get(attr, _MISSING)
        target = getattr(owner, attr)
        is_class = isinstance(owner, type)
        bound_on_class = is_class and isinstance(raw, (classmethod, staticmethod))
        if is_class and not bound_on_class:
            target = raw if raw is not _MISSING else target  # plain function: keep `self` passing
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(name) as record:
                if size is not None:
                    record["size"] = size(args, kwargs)
                return target(*args, **kwargs)

        traced.__wrapped__ = target
        setattr(owner, attr, staticmethod(traced) if bound_on_class else traced)
        self._patches.append((owner, attr, raw))

    def restore(self, keep: int = 0) -> None:
        """Undo every :meth:`wrap` beyond the first ``keep``, newest first."""
        while len(self._patches) > keep:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)  # the attribute lived on the class / a base
            else:
                setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets):
        """``wrap`` every ``(owner, attr, name[, size])`` in ``targets`` for
        the ``with`` body; originals are back afterwards, exception or not."""
        first = len(self._patches)
        try:
            for target in targets:
                self.wrap(*target)
            yield self
        finally:
            self.restore(keep=first)

    # -- analysis -------------------------------------------------------
    def self_times(self, spans=None) -> list[float]:
        """Self seconds of every span, index-aligned with ``spans``
        (default: all).  Parents must be indices into the same list."""
        spans = self.spans if spans is None else spans
        own = [span["end"] - span["start"] for span in spans]
        for span in spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def totals(self, select=lambda span: True) -> dict:
        """``name -> {"self_s", "total_s", "calls"}`` over the spans that
        ``select`` accepts (self times are computed over *all* spans)."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, own):
            if not select(span):
                continue
            entry = out.setdefault(span["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            entry["total_s"] += span["end"] - span["start"]
            entry["calls"] += 1
        return out

    def to_json(self) -> list[dict]:
        """The spans as JSON-native dicts (ids become lists)."""
        return [dict(span, id=list(span["id"])) for span in self.spans]
