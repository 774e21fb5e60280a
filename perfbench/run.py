"""The repository benchmark: one command, two workloads.

Usage::

    python3 perfbench/run.py --workload {serve_zipf,ingest_live} \
        --seed N --seconds S --trace {0,1}

Every workload generates its inputs from ``--seed`` and drives the
program only through ``SurveyorPipeline.run`` (in a child process),
``repro serve`` (a child process, one worker) and its HTTP routes.
Load comes from this process: one thread, two keep-alive connections,
an open-loop arrival schedule, latency from each request's due time.
The measured processes run on one CPU beside a speed probe, the load
generator on another; bounded times are in reference seconds (see
:mod:`speed`), so the host's changing speed does not move them.

Each run reports every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``), prints them by name with unit and
sample count, checks the program's outputs, and ends with one JSON
line. A correctness mismatch exits 1; a program failure exits 2.

Both workloads measure every end-to-end metric:

* mining throughput from measured ``SurveyorPipeline.run`` calls (the
  mine that builds the served table on ``serve_zipf``; the batch mine
  that checks the final table on ``ingest_live``);
* peak memory (``VmHWM``) of the server and, separately, of the
  mining child;
* query latency at a fixed offered rate, and the highest rate whose
  p99 meets :data:`LATENCY_LIMIT_MS` with no growing backlog;
* the server's CPU per query, closed loop on one connection, and per
  write;
* freshness, from a write's due time to its response, confirmed
  visible on ``/query``: ``POST /admin/ingest`` on ``ingest_live``,
  ``POST /admin/reload`` (the batch publication path) on
  ``serve_zipf``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import shutil
import signal
import subprocess
import sys
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from loadgen import OpenLoopClient, Planned, RunResult, get_request, post_json
from procs import BenchError, Server, cpu_roles, pin, repro_env, run_cli
from speed import SpeedProbe
from stats import TooFewSamples, chunked_percentile, median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: p99 limit, from due time, for the highest sustainable rate.
LATENCY_LIMIT_MS = 25.0

#: Fixed offered rates (requests per second).
SERVE_RATE = 2000.0
INGEST_QUERY_RATE = 150.0

#: ``serve_zipf`` warms the query cache to its steady state at a
#: high rate, then measures a fixed-rate window this share of
#: ``--seconds`` long (``ingest_live`` spends all of ``--seconds``
#: beside its ingests).
WARM_RATE = 8000.0
WARM_S = 2.0
QUERY_WINDOW_SHARE = 0.2
#: ``ingest_live`` measures serving capacity after its ingests.
POST_INGEST_QUERY_S = 3.0
#: The server's CPU per query is taken in a window this share of
#: ``--seconds`` long after the fixed-rate one: the mix one query at a
#: time on one keep-alive connection (closed loop), so it does not
#: depend on how open-loop arrivals happen to bunch into one wakeup.
COST_SHARE = 0.2
#: Queries drawn for the closed-loop window (per second of it; the
#: draws repeat if the server answers faster).
COST_DRAWS_PER_S = 10000.0

#: In-process repetitions of the measured mining run.
MINE_REPS = {"serve_zipf": 4, "ingest_live": 3}

#: Knee search over a geometric grid of offered rates: each step
#: offers one rate for ``KNEE_STEP_S``.
KNEE_GRID = (1000.0, 1.1)
KNEE_START = 8000.0
KNEE_STEP_S = 1.0
KNEE_MAX_STEPS = 10

#: Ingests per run; p90 needs 100 samples for 10 beyond it.
WRITES = 104
#: Reloads per run, spaced so one slow reload delays no other.
RELOADS = 208
RELOAD_INTERVAL_S = 0.035

#: Server starts per run; the setup time takes their median.
SERVER_STARTS = 2

#: Every ``CHECK_EVERY``-th query keeps its body for the answer check.
CHECK_EVERY = 25

WORKLOADS = ("serve_zipf", "ingest_live")

#: Bounded end-to-end metrics: the result line of ``--trace 0``.
#: Times are in reference seconds (see :mod:`speed`): the measured
#: process's time over the slowdown the speed probe saw beside it.
END_TO_END = {
    "setup_s": "s",
    "mine_docs_per_ref_cpu_s": "1/ref_s",
    "peak_rss_mb": "MB",
    "mine_peak_rss_mb": "MB",
    "query_per_ref_cpu_s": "1/ref_s",
    "write_ref_cpu_ms": "ref_ms",
}

#: End-to-end metrics printed on every ``--trace 0`` run but left out
#: of the result line: the host's speed and waits on its scheduler
#: move them further between runs than any bound the benchmark may
#: set. The first four are the bounded ones in plain seconds.
PRINTED = {
    "setup_wall_s": "s",
    "mine_docs_per_cpu_s": "1/s",
    "query_rps_per_cpu": "1/s",
    "write_cpu_ms": "ms",
    "mine_docs_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query_max_rps": "1/s",
    "freshness_p50_ms": "ms",
    "freshness_p90_ms": "ms",
}

PER_LAYER = {
    "nlp.annotate.calls": "count",
    "nlp.annotate.busy_s": "s",
    "nlp.memo_hit_ratio": "ratio",
    "nlp.prefilter_skip_ratio": "ratio",
    "nlp.linker.linked": "count",
    "nlp.linker.ambiguous_dropped": "count",
    "extraction.extract.busy_s": "s",
    "extraction.statements": "count",
    "extraction.fold.busy_s": "s",
    "pipeline.group.busy_s": "s",
    "pipeline.residual_s": "s",
    "core.em.fits": "count",
    "core.em.iterations": "count",
    "core.em.busy_s": "s",
    "core.em.refit_s": "s",
    "ingest.dirty_combinations": "count",
    "ingest.refitted": "count",
    "ingest.journal.append_s": "s",
    "ingest.advance_s": "s",
    "storage.save_state_s": "s",
    "storage.publish_s": "s",
    "serve.swap_s": "s",
    "core.query.parse_s": "s",
    "serve.index.answer_s": "s",
    "serve.index.answer.calls": "count",
    "serve.service.ask_s": "s",
    "serve.encode_s": "s",
    "obs.accounting_s": "s",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.evictions": "count",
    "serve.cache.invalidations": "count",
    "serve.admission.rejected": "count",
    "serve.http.residual_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.mine_overhead_ratio": "ratio",
    "trace.mine_unattributed_share": "ratio",
}


class CheckFailed(Exception):
    """The program produced a wrong output."""


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    probe: SpeedProbe
    measured_cpu: int
    load_cpu: int
    values: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, samples: int) -> None:
        self.values[name] = float(value)
        self.samples[name] = int(samples)

    def count(self, outcomes) -> None:
        for outcome in outcomes:
            self.attempted += 1
            self.failed += outcome.failed

    def ref(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work on the measured CPU in ``[start, end]``
        (``time.monotonic``), in reference seconds."""
        try:
            return self.probe.ref_seconds(seconds, start, end)
        except ValueError as error:
            raise BenchError(str(error)) from None


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def make_corpus(run: Run, reps: int = 1):
    """The seeded corpus, generated ``reps`` times (identical each
    time, or the run fails); returns it with the median time in
    reference seconds and in seconds."""
    refs, times, corpora = [], [], []
    for _ in range(reps):
        started = time.monotonic()
        try:
            corpora.append(wl.build_corpus(run.seed))
        except ValueError as error:
            raise BenchError(str(error)) from None
        ended = time.monotonic()
        times.append(ended - started)
        refs.append(run.ref(ended - started, started, ended))
    if any(c != corpora[0] for c in corpora[1:]):
        raise CheckFailed("corpus generation is not deterministic")
    return corpora[0], median(refs), median(times)


def mine_child(run: Run, corpus: Path, out: Path, reps: int,
               spans: Path | None = None):
    """``reps`` measured ``SurveyorPipeline.run`` calls in one fresh
    process. Returns ``(ready_ref_s, ready_s, result)``: start to
    imported and loaded, in reference seconds and in seconds, and the
    child's JSON report."""
    command = [sys.executable, str(HERE / "child_mine.py"),
               str(corpus), str(out), "--reps", str(reps)]
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=run.work, env=repro_env(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready_at = time.monotonic()
        rest, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == 1:
        raise CheckFailed(err.strip()[-2000:])
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"mining child failed: {err.strip()[-2000:]}")
    result = json.loads(rest.strip().splitlines()[-1])
    run.attempted += reps
    run.failed += min(reps, result["quarantined"])
    ready = ready_at - started
    return run.ref(ready, started, ready_at), ready, result


def ref_times(run: Run, mined: dict, key: str) -> list[float]:
    """Each mining run's ``walls`` or ``cpus`` in reference seconds."""
    return [run.ref(seconds, start, end)
            for seconds, (start, end) in zip(mined[key], mined["windows"])]


def put_mine_rates(run: Run, docs: int, mined: dict) -> None:
    """Documents per second of ``SurveyorPipeline.run``: of its CPU
    time in reference seconds (bounded), of its CPU time, and of its
    wall time, each over the median run. The runs are serial, so CPU
    time is their wall time without the time the CPU was taken away;
    reference seconds also take out how fast the host ran the CPU."""
    reps = len(mined["walls"])
    run.put("mine_docs_per_ref_cpu_s",
            docs / median(ref_times(run, mined, "cpus")), reps)
    run.put("mine_docs_per_cpu_s", docs / median(mined["cpus"]), reps)
    run.put("mine_docs_per_s", docs / median(mined["walls"]), reps)


def start_server(run: Run, args: list[str], spans: Path | None = None):
    """Start ``repro serve`` :data:`SERVER_STARTS` times on the
    measured CPU, stopping all but the last. Returns ``(server, median
    start-to-ready in reference seconds, and in seconds)``."""
    refs, readies = [], []
    for attempt in range(SERVER_STARTS):
        last = attempt == SERVER_STARTS - 1
        server = Server(ROOT, args, run.work, spans=spans if last else None)
        readies.append(server.ready_s)
        refs.append(run.ref(server.ready_s, server.started_at,
                            server.ready_at))
        if not last:
            stop(server)
    return server, median(refs), median(readies)


def stop(server: Server) -> None:
    code = server.stop()
    if code != 0:
        raise BenchError(f"server exited with code {code}")


def serve_args(table: Path, *extra: str) -> list[str]:
    return [str(table), "--host", "127.0.0.1", "--port", "0",
            "--cache-size", str(wl.SERVE_CACHE_SIZE), *extra]


def generate(run: Run, client: OpenLoopClient, plans,
             **kwargs) -> RunResult:
    """One open-loop schedule from the load CPU, with this process's
    collector paused, so the generator's own pauses stay out of the
    timings."""
    gc.collect()
    gc.disable()
    pin(run.load_cpu)
    try:
        return client.run(plans, **kwargs)
    finally:
        pin(run.measured_cpu)
        gc.enable()


def drive(run: Run, client: OpenLoopClient, plans, **kwargs) -> RunResult:
    """:func:`generate`, with its outcomes counted."""
    result = generate(run, client, plans, **kwargs)
    run.count(result.outcomes)
    return result


def server_cpu(run: Run, server: Server, window):
    """Runs ``window()`` (a load window) and returns its result with
    the server's CPU time over it, in reference seconds and in
    seconds."""
    start, cpu = time.monotonic(), server.cpu_seconds()
    result = window()
    cpu = server.cpu_seconds() - cpu
    return result, run.ref(cpu, start, time.monotonic()), cpu


def latencies_ms(outcomes) -> list[float]:
    return [o.latency * 1e3 for o in outcomes]


def lateness_ms(outcomes) -> list[float]:
    return [o.late * 1e3 for o in outcomes if not o.error]


def put_query_latency(run: Run, outcomes) -> None:
    lat = latencies_ms(outcomes)
    run.put("query_p50_ms", percentile(lat, 50), len(lat))
    run.put("query_p99_ms", chunked_percentile(lat, 99), len(lat))


def query_window(run: Run, client, server: Server, mix, tag: str,
                 seconds: float) -> RunResult:
    """Warm-up, a fixed-rate window of queries alone (returned, for
    the latencies), then :func:`cost_window`."""
    drive(run, client, wl.poisson_schedule(
        mix, WARM_RATE, WARM_S, run.seed, f"warm-{tag}"
    ))
    fixed = wl.poisson_schedule(
        mix, SERVE_RATE, seconds, run.seed, f"fixed-{tag}",
        check_every=CHECK_EVERY,
    )
    result = drive(run, client, fixed)
    cost_window(run, client, server, mix, tag, run.seconds * COST_SHARE)
    return result


def cost_window(run: Run, client, server: Server, mix, tag: str,
                seconds: float) -> None:
    """The mix for ``seconds``, each query written on connection 0 as
    the previous answer arrives: queries per second of server CPU
    time are the capacity of one worker that has its CPU to itself."""
    draws = wl.poisson_schedule(mix, COST_DRAWS_PER_S, seconds, run.seed,
                                f"cost-{tag}")
    payloads = itertools.cycle([plan.payload for plan in draws])
    stop_at = math.inf

    def next_query(outcome) -> Planned | None:
        if outcome.failed or time.perf_counter() >= stop_at:
            return None
        return Planned(due=0.0, payload=next(payloads), conn=0)

    def window() -> RunResult:
        nonlocal stop_at
        stop_at = time.perf_counter() + seconds
        first = Planned(due=0.0, payload=next(payloads), conn=0)
        return drive(run, client, [first], followup=next_query)

    before = server.counters()
    result, ref_cpu, cpu = server_cpu(run, server, window)
    print_hit_ratio(before, server.counters(), f"{tag} closed-loop window")
    served = sum(not o.failed for o in result.outcomes)
    run.put("query_per_ref_cpu_s", served / ref_cpu, len(result.outcomes))
    run.put("query_rps_per_cpu", served / cpu, len(result.outcomes))


def knee(run: Run, client: OpenLoopClient, mix) -> None:
    """Highest grid rate whose p99 from due time (chunked, failures
    as misses) meets the limit with no growing backlog. From
    :data:`KNEE_START` it moves two grid steps at a time while steps
    pass (or fail), then settles the grid step in between."""
    base, ratio = KNEE_GRID
    steps = 0

    def passes(k: int) -> bool:
        nonlocal steps
        steps += 1
        rate = base * ratio ** k
        plans = wl.poisson_schedule(mix, rate, KNEE_STEP_S, run.seed,
                                    f"knee{k}")
        result = drive(run, client, plans)
        # A growing backlog shows at most sample times, a stall at
        # few: take the median over ten points of the step.
        backlog = median([
            result.backlog_at(result.start + KNEE_STEP_S * i / 10)
            for i in range(1, 11)
        ])
        return (
            chunked_percentile(latencies_ms(result.outcomes), 99)
            <= LATENCY_LIMIT_MS
            and backlog <= rate * LATENCY_LIMIT_MS / 1e3
        )

    k = round(math.log(KNEE_START / base, ratio))
    direction = 2 if passes(k) else -2
    low, high = (k, None) if direction > 0 else (None, k)
    while steps < KNEE_MAX_STEPS:
        k += direction
        if k < 0:
            raise BenchError(
                f"no offered rate met p99 <= {LATENCY_LIMIT_MS} ms"
            )
        if passes(k):
            low = k
            if direction < 0:
                break
        else:
            high = k
            if direction > 0:
                break
    if low is None:
        raise BenchError("knee search ran out of steps")
    if high is not None and high - low == 2 and passes(low + 1):
        low += 1
    run.put("query_max_rps", base * ratio ** low, steps)


def freshness(run: Run, client, server: Server, writes: list[Planned],
              extra: list[Planned], mix, expect: str) -> RunResult:
    """``writes`` (reloads or ingests on connection 0) with ``extra``
    queries beside them. Each write's response is followed on its
    connection by a ``/query`` that must show the generation the write
    produced; a write not visible there counts as failed. Also sets
    the server CPU per write over the window (the reads beside the
    writes included)."""
    pending: dict[int, tuple] = {}
    confirm = get_request(mix.requests["ask"][0])

    def followup(outcome):
        label = outcome.plan.label
        if label == "confirm":
            write, generation = pending[id(outcome.plan)]
            if outcome.failed:
                write.error = "confirming /query failed"
            elif json.loads(outcome.body)["generation"] < generation:
                write.error = "write not visible on /query"
            return None
        if label != "write" or outcome.failed:
            return None
        body = json.loads(outcome.body)
        if body.get("status") != expect:
            outcome.error = f"write status {body.get('status')!r}"
            return None
        plan = Planned(due=0.0, payload=confirm, label="confirm",
                       conn=0, keep_body=True)
        pending[id(plan)] = (outcome, body["generation"])
        return plan

    plans = sorted(writes + extra, key=lambda p: p.due)
    result, ref_cpu, cpu = server_cpu(
        run, server, lambda: generate(run, client, plans, followup=followup)
    )
    for outcome in result.of("confirm"):
        # A broken connection fails a confirmation without a response.
        if outcome.failed:
            pending[id(outcome.plan)][0].error = "confirming /query failed"
    run.count(result.outcomes)
    fresh = [(o.done - o.due) * 1e3 if not o.failed else math.inf
             for o in result.of("write")]
    run.put("freshness_p50_ms", percentile(fresh, 50), len(fresh))
    run.put("freshness_p90_ms", percentile(fresh, 90), len(fresh))
    run.put("write_ref_cpu_ms", ref_cpu * 1e3 / len(fresh), len(fresh))
    run.put("write_cpu_ms", cpu * 1e3 / len(fresh), len(fresh))
    return result


def reloads() -> list[Planned]:
    return [
        Planned(due=(i + 1) * RELOAD_INTERVAL_S,
                payload=post_json("/admin/reload", {}), label="write",
                conn=0, keep_body=True)
        for i in range(RELOADS)
    ]


def same_bytes(a: Path, b: Path, what: str) -> None:
    if a.read_bytes() != b.read_bytes():
        raise CheckFailed(f"{what}: {a.name} and {b.name} differ")


def cache_hit_ratio(before: dict, after: dict) -> tuple[float, int]:
    """Query cache hits over lookups between two ``/metrics`` scrapes."""
    hits = (after.get("repro_serve_cache_hits_total", 0.0)
            - before.get("repro_serve_cache_hits_total", 0.0))
    misses = (after.get("repro_serve_cache_misses_total", 0.0)
              - before.get("repro_serve_cache_misses_total", 0.0))
    return hits / max(1.0, hits + misses), int(hits + misses)


def print_hit_ratio(before: dict, after: dict, where: str) -> None:
    ratio, lookups = cache_hit_ratio(before, after)
    print(f"profile: query cache hit ratio {ratio:.3f} over {lookups} "
          f"lookups in the {where}")


def mix_for(run: Run, table: Path):
    mix = wl.build_query_mix(wl.world_keys(), wl.table_pairs(table),
                             run.seed)
    print(f"profile: {mix.distinct} distinct requests against "
          f"--cache-size {wl.SERVE_CACHE_SIZE} "
          f"({mix.distinct / wl.SERVE_CACHE_SIZE:.2f}x)")
    return mix


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_serve_zipf(run: Run) -> None:
    """Mine the seeded corpus, then serve the table to the Zipf mix."""
    corpus, gen_ref, gen_s = make_corpus(run, reps=3)
    corpus_path = run.work / "corpus.txt"
    corpus.write_lines(corpus_path)
    table = run.work / "table.json"
    reps = 2 if run.trace else MINE_REPS["serve_zipf"]
    ready_ref, ready, mined = mine_child(run, corpus_path, table, reps)
    docs = len(corpus)
    put_mine_rates(run, docs, mined)
    memo = mined["memo_hits"] / (mined["memo_hits"] + mined["memo_misses"])
    print(f"profile: annotation memo hit ratio {memo:.3f} over {docs} "
          "documents")
    run.put("mine_peak_rss_mb", mined["peak_rss_mb"], 1)
    traced = None
    if run.trace:
        spans = run.work / "mine-spans.jsonl"
        _, _, traced = mine_child(run, corpus_path,
                                  run.work / "traced.json",
                                  2, spans=spans)
        same_bytes(table, run.work / "traced.json", "traced vs untraced")
    reference = run.work / "reference.json"
    run_cli(ROOT, ["mine", str(corpus_path), "--no-fast-path",
                   "--out", str(reference)], run.work)
    same_bytes(table, reference, "fast path vs reference mine")
    print("check: mined table is byte-identical to the fast_path=False "
          "reference run")

    mix = mix_for(run, table)
    untraced_rps = None
    if run.trace:
        # The untraced reference window for the tracing overhead.
        server, _, _ = start_server(run, serve_args(table))
        try:
            with OpenLoopClient("127.0.0.1", server.port) as client:
                query_window(run, client, server, mix, "untraced",
                             run.seconds * QUERY_WINDOW_SHARE)
            untraced_rps = run.values["query_per_ref_cpu_s"]
        finally:
            stop(server)
    server, ready_ref_s, ready_s = start_server(
        run, serve_args(table),
        spans=run.work / "serve-spans.jsonl" if run.trace else None,
    )
    run.put("setup_s", gen_ref + ready_ref
            + median(ref_times(run, mined, "walls")) + ready_ref_s, 1)
    run.put("setup_wall_s",
            gen_s + ready + median(mined["walls"]) + ready_s, 1)
    try:
        before = server.counters()
        with OpenLoopClient("127.0.0.1", server.port) as client:
            fixed = query_window(run, client, server, mix, "main",
                                 run.seconds * QUERY_WINDOW_SHARE)
            put_query_latency(run, fixed.outcomes)
            if not run.trace:
                knee(run, client, mix)
            windows = [fixed, freshness(
                run, client, server, reloads(), [], mix, "reloaded"
            )]
        after = server.counters()
        run.put("peak_rss_mb", server.peak_rss_mb(), 1)
    finally:
        stop(server)
    checked = check_answers(fixed.outcomes, table, generation=1)
    print(f"check: {checked} sampled HTTP answers equal "
          "OpinionIndex.answer at the same generation")
    if run.trace:
        mining_layers(run, [(traced, spans)])
        serving_layers(run, windows, before, after, table)
        run.put("trace.overhead_ratio",
                untraced_rps / run.values["query_per_ref_cpu_s"] - 1, 2)
        run.put("trace.mine_overhead_ratio", mine_overhead(run, traced, mined),
                2)


def run_ingest_live(run: Run) -> None:
    corpus, gen_ref, gen_s = make_corpus(run)
    head = wl.head_size(corpus)
    head_path = run.work / "head.txt"
    corpus.write_lines(head_path, 0, head)
    journal = run.work / "journal"
    table = run.work / "table.json"
    started = time.monotonic()
    bootstrap_s = run_cli(ROOT, ["ingest", str(head_path), "--journal",
                                 str(journal), "--out", str(table)],
                          run.work)
    bootstrap_ref = run.ref(bootstrap_s, started, time.monotonic())
    mix = mix_for(run, table)
    batches = wl.ingest_batches(corpus)
    interval = run.seconds / WRITES
    args = serve_args(table, "--ingest-journal", str(journal))
    posted: list[dict] = []

    def window(server) -> RunResult:
        offset = len(posted) // wl.INGEST_BATCH_DOCS
        writes = wl.ingest_schedule(batches[offset:], interval, WRITES)
        queries = wl.poisson_schedule(
            mix, INGEST_QUERY_RATE, run.seconds, run.seed,
            f"ingest-queries-{offset}", conn=1,
        )
        with OpenLoopClient("127.0.0.1", server.port) as client:
            result = freshness(run, client, server, writes, queries,
                               mix, "ingested")
        for batch in batches[offset:offset + WRITES]:
            posted.extend(batch)
        return result

    untraced_cpu = None
    if run.trace:
        # The untraced reference window for the tracing overhead.
        server, _, _ = start_server(run, args)
        try:
            window(server)
            untraced_cpu = run.values["write_ref_cpu_ms"]
        finally:
            stop(server)
    server, ready_ref_s, ready_s = start_server(
        run, args,
        spans=run.work / "serve-spans.jsonl" if run.trace else None,
    )
    run.put("setup_s", gen_ref + bootstrap_ref + ready_ref_s, 1)
    run.put("setup_wall_s", gen_s + bootstrap_s + ready_s, 1)
    try:
        before = server.counters()
        result = window(server)
        put_query_latency(run, result.of("query"))
        print_hit_ratio(before, server.counters(), "ingest window")
        dirty = [json.loads(o.body)["dirty_combinations"]
                 for o in result.of("write") if not o.failed]
        print(f"profile: median {median(dirty):g} dirty keys per "
              f"{wl.INGEST_BATCH_DOCS}-document ingest batch")
        with OpenLoopClient("127.0.0.1", server.port) as client:
            after_ingest = query_window(run, client, server, mix, "after",
                                        POST_INGEST_QUERY_S)
            if not run.trace:
                knee(run, client, mix)
        after = server.counters()
        run.put("peak_rss_mb", server.peak_rss_mb(), 1)
    finally:
        stop(server)

    # The journal holds the head, then every posted batch in order.
    every = run.work / "journal-docs.txt"
    every.write_text(
        "".join(t + "\n" for t in corpus.texts[:head])
        + "".join(d["text"] + "\n" for d in posted)
    )
    batch_table = run.work / "batch.json"
    reps = MINE_REPS["ingest_live"]
    _, _, mined = mine_child(run, every, batch_table, reps)
    docs = head + len(posted)
    put_mine_rates(run, docs, mined)
    run.put("mine_peak_rss_mb", mined["peak_rss_mb"], 1)
    same_bytes(table, batch_table, "live ingest vs batch mine")
    print("check: final live table is byte-identical to a batch mine "
          f"of the journal's {docs} documents")
    # Every ingest swapped in one new generation after the first.
    checked = check_answers(after_ingest.outcomes, table,
                            generation=1 + WRITES)
    print(f"check: {checked} sampled HTTP answers equal "
          "OpinionIndex.answer at the same generation")
    if run.trace:
        spans = run.work / "mine-spans.jsonl"
        _, _, traced = mine_child(run, every, run.work / "traced.json", 1,
                                  spans=spans)
        mining_layers(run, [(traced, spans)])
        serving_layers(run, [result], before, after, table,
                       journal=journal)
        run.put("trace.overhead_ratio",
                run.values["write_ref_cpu_ms"] / untraced_cpu - 1, 2)
        run.put("trace.mine_overhead_ratio", mine_overhead(run, traced, mined),
                1)


def mine_overhead(run: Run, traced: dict, untraced: dict) -> float:
    """Traced over untraced mining CPU time (reference seconds, median
    runs), minus one."""
    return (median(ref_times(run, traced, "cpus"))
            / median(ref_times(run, untraced, "cpus")) - 1)


def check_answers(outcomes, table_path: Path, generation: int) -> int:
    """Kept ``/query`` bodies must equal in-process answers from an
    ``OpinionIndex`` over the same table at the same generation."""
    from repro.core.query import SubjectiveQuery
    from repro.core.types import Polarity, PropertyTypeKey, SubjectiveProperty
    from repro.serve.index import OpinionIndex
    from repro.serve.schema import ask_response, listing_response
    from repro.storage import load

    index = OpinionIndex(load(table_path), generation=generation)
    checked = 0
    for outcome in outcomes:
        if outcome.body is None or outcome.failed:
            continue
        path, _, query = outcome.plan.payload.split(b" ")[1].partition(b"?")
        if path != b"/query":
            continue
        params = dict(urllib.parse.parse_qsl(query.decode()))
        top = int(params["top"])
        if "q" in params:
            parsed = SubjectiveQuery.parse(params["q"])
            expected = ask_response(
                parsed, index.answer(parsed, top=top), index
            )
        else:
            key = PropertyTypeKey(
                property=SubjectiveProperty.parse(params["property"]),
                entity_type=params["type"],
            )
            negative = params["negative"] == "1"
            polarity = Polarity.NEGATIVE if negative else Polarity.POSITIVE
            expected = listing_response(
                key, negative, 0.0,
                index.entities_with(key, polarity)[:top], index,
            )
        if json.dumps(expected, sort_keys=True).encode() != outcome.body:
            raise CheckFailed(
                f"HTTP answer differs from OpinionIndex.answer for "
                f"{outcome.plan.payload.split(b' ')[1].decode()}"
            )
        checked += 1
    if not checked:
        raise CheckFailed("no HTTP answers were sampled for checking")
    return checked


# ----------------------------------------------------------------------
# Per-layer metrics (traced runs)
# ----------------------------------------------------------------------
def mining_layers(run: Run, traced) -> None:
    """nlp, extraction, pipeline and core.em figures from traced
    mining children, per ``SurveyorPipeline.run``."""
    from spans import Summary, read_spans

    runs = []
    for result, path in traced:
        runs.append((result, Summary(read_spans(path)), len(result["walls"])))
    n = sum(reps for _, _, reps in runs)

    def per_run(fn) -> float:
        return sum(fn(r, s) for r, s, _ in runs) / n

    def mean(fn) -> float:
        return sum(fn(r, s) * reps for r, s, reps in runs) / n

    layers = ("nlp.annotate", "extraction.extract", "extraction.fold",
              "pipeline.group", "core.em")
    run.put("nlp.annotate.calls",
            per_run(lambda r, s: s.calls["nlp.annotate"]), n)
    run.put("nlp.annotate.busy_s",
            per_run(lambda r, s: s.busy["nlp.annotate"]), n)
    run.put("nlp.memo_hit_ratio", mean(
        lambda r, s: r["fastpath"]["hits"]
        / max(1, r["fastpath"]["hits"] + r["fastpath"]["misses"])), n)
    run.put("nlp.prefilter_skip_ratio", mean(
        lambda r, s: r["fastpath"]["skipped"]
        / max(1, r["fastpath"]["sentences"])), n)
    run.put("nlp.linker.linked", mean(lambda r, s: r["linker"]["linked"]), n)
    run.put("nlp.linker.ambiguous_dropped",
            mean(lambda r, s: r["linker"]["ambiguous"]), n)
    run.put("extraction.extract.busy_s",
            per_run(lambda r, s: s.busy["extraction.extract"]), n)
    run.put("extraction.statements", per_run(
        lambda r, s: s.attr_sum("extraction.extract", "statements")), n)
    run.put("extraction.fold.busy_s",
            per_run(lambda r, s: s.self_time["extraction.fold"]), n)
    run.put("pipeline.group.busy_s",
            per_run(lambda r, s: s.self_time["pipeline.group"]), n)
    # Within the traced runs: their wall minus the layers' self time
    # (the untraced wall would charge the layers' tracing cost here).
    run.put("pipeline.residual_s", per_run(
        lambda r, s: sum(r["walls"])
        - sum(s.self_time[name] for name in layers)), n)
    run.put("core.em.fits",
            per_run(lambda r, s: s.attr_sum("core.em", "fits")), n)
    run.put("core.em.iterations",
            per_run(lambda r, s: s.attr_sum("core.em", "iterations")), n)
    run.put("core.em.busy_s", per_run(lambda r, s: s.busy["core.em"]), n)
    run.put("trace.mine_unattributed_share",
            mean(lambda r, s: s.unattributed_share), n)


def serving_layers(run: Run, windows, before, after, table: Path,
                   journal: Path | None = None) -> None:
    from spans import Summary, read_spans

    summary = Summary(read_spans(run.work / "serve-spans.jsonl"))

    def per_call(name: str) -> tuple[float, int]:
        durations = summary.durations.get(name, [])
        return (median(durations) if durations else 0.0), len(durations)

    for metric, name in (("ingest.journal.append_s", "ingest.journal.append"),
                         ("ingest.advance_s", "ingest.advance"),
                         ("storage.publish_s", "storage.publish")):
        run.put(metric, *per_call(name))
    refits = summary.attrs.get("ingest.advance", [])
    run.put("core.em.refit_s", median([a["refit_s"] for a in refits])
            if refits else 0.0, len(refits))
    run.put("ingest.dirty_combinations", median([a["dirty"] for a in refits])
            if refits else 0.0, len(refits))
    run.put("ingest.refitted", median([a["refitted"] for a in refits])
            if refits else 0.0, len(refits))
    for metric, name in (("core.query.parse_s", "core.query.parse"),
                         ("serve.index.answer_s", "serve.index.answer"),
                         ("serve.service.ask_s", "serve.service.ask"),
                         ("serve.encode_s", "serve.encode"),
                         ("obs.accounting_s", "obs.accounting")):
        run.put(metric, summary.busy.get(name, 0.0),
                summary.calls.get(name, 0))
    run.put("serve.index.answer.calls",
            summary.calls.get("serve.index.answer", 0), 1)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    run.put("serve.cache.hit_ratio", *cache_hit_ratio(before, after))
    run.put("serve.cache.evictions",
            delta("repro_serve_cache_evictions_total"), 1)
    run.put("serve.cache.invalidations",
            delta("repro_serve_cache_invalidations_total"), 1)
    run.put("serve.admission.rejected",
            delta("repro_serve_rejected_total")
            + delta("repro_serve_rate_limited_total"), 1)

    queries = [o for w in windows for o in w.of("query") if not o.failed]
    client_ms = [(o.done - o.sent) * 1e3 for o in queries]
    requests = summary.durations.get("serve.request", [])
    run.put("serve.http.residual_ms",
            (sum(client_ms) / len(client_ms))
            - (sum(requests) / len(requests) * 1e3)
            if client_ms and requests else 0.0, len(client_ms))
    lateness = [x for w in windows for x in lateness_ms(w.outcomes)]
    run.put("loadgen.late_p99_ms", percentile(lateness, 99), len(lateness))
    run.put("trace.unattributed_share", summary.unattributed_share,
            summary.calls.get("serve.request", 0))
    standalone_calls(run, table, journal)


def standalone_calls(run: Run, table: Path, journal: Path | None) -> None:
    """``save_state`` and ``OpinionService.swap`` timed directly, on
    the run's own final state and table, into scratch locations."""
    from repro.serve.server import OpinionService
    from repro.storage import load

    loaded = load(table)
    service = OpinionService(loaded)
    swaps = []
    for _ in range(21):
        started = time.perf_counter()
        service.swap(loaded)
        swaps.append(time.perf_counter() - started)
    run.put("serve.swap_s", median(swaps), len(swaps))
    if journal is None:
        run.put("storage.save_state_s", 0.0, 0)
        return
    from repro.ingest.state import load_state, save_state

    state = load_state(journal)
    scratch = run.work / "state-copy"
    scratch.mkdir()
    saves = []
    for _ in range(9):
        started = time.perf_counter()
        save_state(state, scratch)
        saves.append(time.perf_counter() - started)
    run.put("storage.save_state_s", median(saves), len(saves))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
RUNNERS = {
    "serve_zipf": run_serve_zipf,
    "ingest_live": run_ingest_live,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that stop the servers.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench-work" / (
        f"{args.workload}-{args.seed}-{time.time_ns()}"
    )
    work.mkdir(parents=True)
    # The measured processes (and everything of set-up) run on one
    # CPU beside the speed probe; the load generator on another.
    measured, load = cpu_roles()
    pin(measured)
    print(f"workload {args.workload}: {wl.WHY[args.workload]}", flush=True)
    correct, probe = True, None
    try:
        probe = SpeedProbe(measured, work / "speed.txt")
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  work, probe, measured, load)
        RUNNERS[args.workload](run)
    except CheckFailed as error:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
        correct = False
    except (BenchError, TooFewSamples) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    wanted = PER_LAYER if run.trace else END_TO_END
    printed = {} if run.trace else PRINTED
    metrics = {}
    for name, unit in {**wanted, **printed}.items():
        if name not in run.values:
            if correct:
                print(f"perfbench: {name} was not measured", file=sys.stderr)
                return 2
            continue
        value = run.values[name]
        if name in wanted:
            metrics[name] = {"value": value, "unit": unit}
        print(f"{name:30s} {value:14.6g} {unit:6s} "
              f"(n={run.samples[name]}{'' if name in wanted else ', unbounded'})")
    print(f"operations: {run.attempted} attempted, {run.failed} failed "
          f"(failed_share {run.failed / max(1, run.attempted):.6f})")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
