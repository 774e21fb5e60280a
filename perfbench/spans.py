"""In-memory spans around the program's public calls, for traced runs.

The program under test is not modified: a traced run replaces a few
public methods with wrappers that record one span per call and then
call through. Each span is ``(id, name, start, end, parent, trace)``
where ``parent`` is the enclosing span on the same thread and
``trace`` is the id of the outermost span, so every span of one
pipeline run or one HTTP request shares it. Spans stay in memory and
are written once, at exit.

Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict[str, Any]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        attrs: Callable[[Any, tuple], dict] | None = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``attrs(result, args)``
        may attach counts computed from the call's result."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            if stack:
                parent, trace = stack[-1]
            else:
                parent, trace = 0, span_id
            stack.append((span_id, trace))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent, trace)
                )
            if attrs is not None:
                recorder.attrs[span_id] = attrs(result, args)
            return result

        return traced

    def patch(self, owner: Any, attribute: str, name: str, attrs=None):
        """Replace ``owner.attribute`` by its traced wrapper."""
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(
                    self.wrap(raw.__func__, name, attrs)
                ))
                return
        setattr(owner, attribute, self.wrap(original, name, attrs))

    def write(self, path: str | Path) -> None:
        """One JSON object per span."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, trace in self.spans:
                record = {
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "trace": trace,
                }
                extra = self.attrs.get(span_id)
                if extra:
                    record["attrs"] = extra
                handle.write(json.dumps(record) + "\n")


def read_spans(path: str | Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Summary:
    """Per-name totals over a span list."""

    def __init__(self, spans: Iterable[dict]) -> None:
        spans = list(spans)
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"]:
                child_time[span["parent"]] += span["end"] - span["start"]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.attrs: dict[str, list[dict]] = defaultdict(list)
        self.root_busy = 0.0
        self.root_self = 0.0
        for span in spans:
            name = span["name"]
            duration = span["end"] - span["start"]
            own = duration - child_time.get(span["id"], 0.0)
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += own
            self.durations[name].append(duration)
            if "attrs" in span:
                self.attrs[name].append(span["attrs"])
            if not span["parent"]:
                self.root_busy += duration
                self.root_self += own

    def attr_sum(self, name: str, key: str) -> float:
        return sum(a.get(key, 0) for a in self.attrs.get(name, ()))

    @property
    def unattributed_share(self) -> float:
        """Share of root-span time no traced child accounts for."""
        if self.root_busy <= 0:
            return 0.0
        return self.root_self / self.root_busy


# ----------------------------------------------------------------------
# Instrumentation sets
# ----------------------------------------------------------------------
def instrument_mining(recorder: SpanRecorder) -> list:
    """Spans around the batch pipeline's layer calls. Returns the list
    that collects every ``Annotator`` built afterwards."""
    from repro.core.surveyor import Surveyor
    from repro.extraction.extractor import EvidenceExtractor
    from repro.extraction.statement import EvidenceCounter
    from repro.nlp.annotate import Annotator
    from repro.pipeline.runner import SurveyorPipeline

    annotators: list = []
    original_init = Annotator.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        annotators.append(self)

    Annotator.__init__ = init
    recorder.patch(SurveyorPipeline, "run", "pipeline.run")
    recorder.patch(Annotator, "annotate", "nlp.annotate")
    recorder.patch(
        EvidenceExtractor, "extract_document", "extraction.extract",
        attrs=lambda result, args: {"statements": len(result)},
    )
    recorder.patch(EvidenceCounter, "add_all", "extraction.fold")
    recorder.patch(EvidenceCounter, "merge", "extraction.fold")
    recorder.patch(EvidenceCounter, "as_evidence", "pipeline.group")
    recorder.patch(
        Surveyor, "run", "core.em",
        attrs=lambda result, args: {
            "fits": len(result.fits),
            "iterations": sum(
                fit.trace.iterations for fit in result.fits.values()
            ),
        },
    )
    return annotators


def instrument_serving(recorder: SpanRecorder) -> None:
    """Spans around the server's per-request and ingest calls."""
    import json as stdjson
    import types

    from repro.core.query import SubjectiveQuery
    from repro.ingest.incremental import IngestPipeline
    from repro.ingest.journal import CorpusJournal
    from repro.serve import aio
    from repro.serve.index import OpinionIndex
    from repro.serve.server import OpinionService

    recorder.patch(aio.HttpProtocol, "_dispatch", "serve.request")
    recorder.patch(aio.AsyncReproServer, "run_ingest", "serve.ingest")
    recorder.patch(OpinionService, "ask", "serve.service.ask")
    recorder.patch(SubjectiveQuery, "parse", "core.query.parse")
    recorder.patch(OpinionIndex, "answer", "serve.index.answer")
    recorder.patch(
        OpinionService, "observe_request", "obs.accounting"
    )
    # aio encodes responses through its module-level ``json``; a
    # namespace whose ``dumps`` is traced stands in for it.
    aio.json = types.SimpleNamespace(
        dumps=recorder.wrap(stdjson.dumps, "serve.encode"),
        loads=stdjson.loads,
        JSONDecodeError=stdjson.JSONDecodeError,
    )
    recorder.patch(CorpusJournal, "append", "ingest.journal.append")
    recorder.patch(
        IngestPipeline, "advance", "ingest.advance",
        attrs=lambda report, args: {
            "refit_s": report.refit_seconds,
            "dirty": len(report.dirty),
            "refitted": report.refitted,
        },
    )
    recorder.patch(IngestPipeline, "publish", "storage.publish")
