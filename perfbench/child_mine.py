"""Measured ``SurveyorPipeline.run`` calls in a fresh process.

Usage: ``python perfbench/child_mine.py CORPUS OUT [--reps N] [--spans PATH]``

Reads a one-document-per-line corpus as ``repro mine`` does, prints
``ready`` once the program is imported and the corpus loaded, then
runs the pipeline ``N`` times with the ``repro mine`` defaults. Before
each run the process-wide annotation memo is dropped
(``reset_shared_annotation_state``), so every run starts as cold as a
fresh ``repro mine`` process. Each run's table is saved to ``OUT``
(with its provenance sidecar, as ``repro mine`` writes them) and must
be byte-identical to the first. The last line printed is JSON: the
wall and CPU time of each ``run`` alone with its start and end
(``time.monotonic``, to match the speed probe), the document count, this
process's peak RSS, and the fast-path and linker counters. With
``--spans`` the layer calls are traced and the spans written to
``PATH``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("corpus")
    parser.add_argument("out")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--spans")
    args = parser.parse_args()

    from repro.corpus.document import Document, WebCorpus
    from repro.extraction.patterns import PATTERN_VERSIONS
    from repro.kb.seeds import evaluation_kb
    from repro.nlp import reset_shared_annotation_state
    from repro.pipeline.runner import SurveyorPipeline
    from repro.storage import provenance_path_for, save

    from procs import vm_hwm_mb
    from spans import SpanRecorder, instrument_mining

    corpus = WebCorpus()
    with open(args.corpus) as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if line:
                corpus.add(Document(f"line-{index:06d}", line))
    kb = evaluation_kb()
    recorder = annotators = None
    if args.spans:
        recorder = SpanRecorder()
        annotators = instrument_mining(recorder)
    print("ready", flush=True)

    out = Path(args.out)
    walls, cpus, windows, first, quarantined = [], [], [], None, 0
    for _ in range(args.reps):
        reset_shared_annotation_state()
        gc.collect()
        # The `repro mine` defaults (see repro.cli.build_parser).
        pipeline = SurveyorPipeline(
            kb=kb,
            pattern_config=PATTERN_VERSIONS[4],
            occurrence_threshold=100,
            n_workers=4,
            executor="serial",
        )
        started, cpu = time.monotonic(), time.process_time()
        report = pipeline.run(corpus)
        ended = time.monotonic()
        cpus.append(time.process_time() - cpu)
        walls.append(ended - started)
        windows.append((started, ended))
        save(report.opinions, out)
        if report.provenance is not None:
            save(report.provenance, provenance_path_for(out))
        if first is None:
            first = out.read_bytes()
        elif out.read_bytes() != first:
            print("repeated runs produced different tables",
                  file=sys.stderr)
            return 1
        quarantined += len(report.health.quarantined)

    health = report.health
    result = {
        "walls": walls,
        "cpus": cpus,
        "windows": windows,
        "documents": len(corpus),
        "peak_rss_mb": vm_hwm_mb(),
        "memo_hits": health.memo_hits,
        "memo_misses": health.memo_misses,
        "quarantined": quarantined,
    }
    if recorder is not None:
        recorder.write(args.spans)
        linked = ambiguous = 0
        fast = {"sentences": 0, "skipped": 0, "hits": 0, "misses": 0}
        for annotator in annotators:
            linked += annotator.linker_stats.linked
            ambiguous += annotator.linker_stats.ambiguous_dropped
            stats = annotator.fastpath_stats
            if stats is not None:
                fast["sentences"] += stats.sentences
                fast["skipped"] += stats.skipped
                fast["hits"] += stats.memo_hits
                fast["misses"] += stats.memo_misses
        reps = args.reps
        result["linker"] = {"linked": linked / reps,
                            "ambiguous": ambiguous / reps}
        result["fastpath"] = {k: v / reps for k, v in fast.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
