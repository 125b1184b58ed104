"""The traced run: a per-layer ledger of one workload's default path.

For the workload named by ``--workload`` the benchmark's own code calls
each layer's public functions in the order that workload's default CLI
path does, and wraps every call in a span of its own recorder
(:class:`pbcore.Recorder`), never the program's ``repro.obs``, so a
change to the program's telemetry cannot move the yardstick:

* ``batch`` — ``analyze --store``: start-up, topology, object decode,
  binning and the engine, aggregation, report, store export;
* ``live`` — ``monitor --store --compact-every 3``: start-up, topology,
  per-line decode, stream, engine, per-bin store appends with
  compaction;
* ``query`` — ``serve``: ``ServiceState.respond`` for every request.

The run first takes the untraced wall time of that default path itself,
the *reference*: the ``analyze --store`` wall, the ``monitor`` catch-up
wall over the whole campaign, or the wall of the query workload's GETs
to a default ``serve``.  ``ledger.unaccounted_s`` is the reference minus
the sum of the composition's top-level spans: time the default path
spends outside every named layer (for ``query`` that is HTTP transport
and the client).  The composition then runs untraced, traced and
untraced again; ``ledger.trace_overhead_ratio`` is the traced wall over
the mean untraced one.

Layers the workload's path does not call are still timed, once, by a
second recorder (off-path probes), so that every traced run reports
every per-layer metric.  Off-path spans never enter the reconciliation.
"""

from __future__ import annotations

import gc
import http.client
import inspect
import itertools
import json
import random
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import pbcore
import pbsys
import pbwork

#: Requests replayed through ``ServiceState.respond`` and over HTTP by
#: the off-path probes of ``batch`` and ``live``.
RESPOND_REQUESTS = 2000
WIRE_REQUESTS = 400
#: Response cache entries of a default ``serve`` (``--cache-size``).
SERVE_CACHE_SIZE = 256


@dataclass
class State:
    """What one pass of the composition builds and later steps read."""

    ctx: pbwork.Context
    rundir: Path
    counts: Dict[str, object] = field(default_factory=dict)
    mapper: object = None
    pipeline: object = None
    objects: Optional[list] = None
    closed: Optional[list] = None
    results: Optional[list] = None
    analysis: object = None
    store: Optional[Path] = None
    routes: List[str] = field(default_factory=list)
    bodies: Dict[str, str] = field(default_factory=dict)
    failed: int = 0
    operations: int = 0


Step = Callable[[pbcore.Recorder, State], None]


# -- layer steps -----------------------------------------------------------

def startup(rec: pbcore.Recorder, st: State) -> None:
    with rec.span("startup.import"):
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=pbsys.cli_env(), check=True,
        )


def topology(rec: pbcore.Recorder, st: State) -> None:
    with rec.span("simulation.topology"):  # the CLI's IP-to-AS table
        st.mapper = pbsys.mapper_for(st.ctx.inputs["seed"])


def decode(rec: pbcore.Recorder, st: State) -> None:
    """``read_traceroutes``, the object decode ``analyze`` uses."""
    from repro.atlas import read_traceroutes

    with rec.span("atlas.io.decode"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        st.objects = list(read_traceroutes(st.ctx.inputs["path"], strict=False))
    st.counts["records"] = len(st.objects)
    st.counts["skipped"] = sum(getattr(w.message, "skipped", 0) for w in caught)


def columnar(rec: pbcore.Recorder, st: State) -> None:
    from repro.atlas import decode_traceroutes

    with rec.span("atlas.columnar.decode"):
        decode_traceroutes(st.ctx.inputs["path"], strict=False)


def line_decode(rec: pbcore.Recorder, st: State) -> None:
    """``Traceroute.from_json`` per feed line, as ``monitor`` decodes."""
    from repro.atlas import Traceroute

    with rec.span("atlas.io.line_decode"):
        with open(st.ctx.inputs["path"], encoding="utf-8") as handle:
            feed = [
                Traceroute.from_json(json.loads(line))
                for line in handle if line.strip()
            ]
    st.objects = feed


def stream(rec: pbcore.Recorder, st: State) -> None:
    """``TracerouteStream.push`` per traceroute (monitor's defaults)."""
    from repro.atlas import TracerouteStream

    with rec.span("atlas.stream.push"):
        binner = TracerouteStream(bin_s=pbsys.BIN_S, lateness_bins=1, dense=True)
        closed = []
        for traceroute in st.objects:
            closed += binner.push(traceroute)
        closed += binner.drain()
    st.counts["dropped_late"] = binner.dropped_late
    st.closed = closed
    st.objects = None


def _run_engine(rec: pbcore.Recorder, st: State, bins) -> None:
    from repro.core import create_pipeline

    pipeline = create_pipeline(None)  # no engine flags: the default
    results = []
    with rec.span("core.engine"):
        for start, payload in bins:
            with rec.span("core.engine.process_bin"):
                results.append(pipeline.process_bin(start, payload))
    close = getattr(pipeline, "close", None)
    if close is not None:
        close()
    st.results = results
    st.counts["engine_class"] = type(pipeline).__name__
    st.counts["links_analyzed"] = pipeline.stats().links_analyzed
    st.pipeline = pipeline


def engine_binned(rec: pbcore.Recorder, st: State) -> None:
    """Binning and ``process_bin`` per bin, as ``Pipeline.run`` does."""
    from repro.atlas import binned_payloads

    objects, st.objects = st.objects, None
    _run_engine(rec, st, binned_payloads(objects, bin_s=pbsys.BIN_S))


def engine_streamed(rec: pbcore.Recorder, st: State) -> None:
    """``process_bin`` per bin the stream closed, as ``monitor`` does."""
    closed, st.closed = st.closed, None
    _run_engine(rec, st, closed)


def aggregate(rec: pbcore.Recorder, st: State) -> None:
    from repro.core import AlarmAggregator
    from repro.core.pipeline import CampaignAnalysis

    results = st.results
    with rec.span("core.events.aggregate"):
        aggregator = AlarmAggregator(
            st.mapper, bin_s=pbsys.BIN_S, start=results[0].timestamp
        )
        for result in results:
            aggregator.add_alarms(result.delay_alarms, result.forwarding_alarms)
        aggregator.close(results[-1].timestamp)
    st.analysis = CampaignAnalysis(
        bin_results=results, aggregator=aggregator, pipeline=st.pipeline
    )


def report(rec: pbcore.Recorder, st: State) -> None:
    from repro.reporting import InternetHealthReport

    with rec.span("reporting.ihr"):
        ihr = InternetHealthReport(st.analysis)
        ihr.top_events("delay", threshold=2.0, limit=10)
        ihr.top_events("forwarding", threshold=2.0, limit=10)


class _SegmentBytes:
    """Bytes of the segment files a store gained since the last look."""

    def __init__(self, store: Path) -> None:
        self.store = store
        self.seen: set = set()
        self.written = 0

    def update(self) -> None:
        for seg in self.store.glob("seg-*.seg"):
            if seg.name not in self.seen:
                self.seen.add(seg.name)
                self.written += seg.stat().st_size


def store_export(rec: pbcore.Recorder, st: State) -> None:
    """The store ``analyze --store`` writes: ``append_analysis``'s calls
    (create, then ``append_bins`` in chunks of its default size)."""
    from repro.service import AlarmStoreWriter, append_analysis

    chunk = inspect.signature(append_analysis).parameters["segment_bins"].default
    aggregator = st.analysis.aggregator
    results = st.results
    st.store = st.rundir / "store"
    written = _SegmentBytes(st.store)
    with rec.span("service.store"):
        writer = AlarmStoreWriter.create(
            st.store, aggregator.mapper, bin_s=aggregator.bin_s,
            start=aggregator.start, overwrite=True,
        )
        calls = 0
        for index in range(0, len(results), chunk):
            with rec.span("service.store.append"):
                writer.append_bins(results[index : index + chunk])
            calls += 1
            written.update()
    st.counts["append_calls"] = calls
    st.counts["bytes_written"] = written.written


def store_monitor(rec: pbcore.Recorder, st: State) -> None:
    """The store ``monitor --store --compact-every N`` writes: one
    ``append_bins`` per closed bin, a compaction pass every N bins."""
    from repro.service import AlarmStoreWriter, compact_store

    st.store = st.rundir / "store"
    written = _SegmentBytes(st.store)
    merged = calls = 0
    with rec.span("service.store"):
        writer = AlarmStoreWriter.open_or_create(
            st.store, st.mapper, bin_s=pbsys.BIN_S
        )
        for result in st.results:
            with rec.span("service.store.append"):
                writer.append_bins([result])
            calls += 1
            written.update()
            if calls % pbwork.COMPACT_EVERY == 0:
                with rec.span("service.compact.pass"):
                    merged += compact_store(st.store).merged
                    writer.reload()
    st.counts["append_calls"] = calls
    st.counts["bytes_written"] = written.written
    st.counts["segments_merged"] = merged


def compact(rec: pbcore.Recorder, st: State) -> None:
    """One default compaction pass over the store (off-path probe)."""
    from repro.service import compact_store

    with rec.span("service.compact.pass"):
        st.counts["segments_merged"] = compact_store(st.store).merged


def query_misses(rec: pbcore.Recorder, st: State) -> None:
    """Uncached ``StoreQuery`` route methods over the monitored ASes."""
    from repro.service import StoreQuery

    query = StoreQuery(st.store)
    with rec.span("service.query"):
        for asn in st.ctx.ref["asns"]:
            with rec.span("service.query.miss"):
                query.as_condition(asn)
            with rec.span("service.query.miss"):
                query.links_of(asn)
        with rec.span("service.query.miss"):
            query.top_asns("delay", 10)
        with rec.span("service.query.miss"):
            query.top_events("delay", 5.0, 10)


def respond(rec: pbcore.Recorder, st: State) -> None:
    """``ServiceState.respond`` for each of ``st.routes`` on a fresh
    default cache that, like a booted ``serve``, has answered ``/top``."""
    from repro.service import ResponseCache, ServiceState, StoreQuery

    state = ServiceState(StoreQuery(st.store), ResponseCache(SERVE_CACHE_SIZE))
    state.answer("/top", {})
    hits = misses = 0
    bodies = {}
    with rec.span("service.http.respond"):
        for route in st.routes:
            start = time.perf_counter()
            answer, outcome = state.answer(route, {})
            rec.add(f"service.http.respond.{outcome}", start, time.perf_counter())
            hits += outcome == "hit"
            misses += outcome == "miss"
            bodies[route] = answer.body
    st.counts["cache_hit_ratio"] = hits / max(1, hits + misses)
    st.bodies = {r: pbsys.body_digest(b) for r, b in bodies.items()}


def wire(rec: pbcore.Recorder, st: State, routes: Sequence[str]) -> float:
    """GET *routes* in turn from a freshly booted default ``serve``.

    Returns the wall time of the GETs (the serve boot excluded) and
    counts every answer that is not the expected 200 body as failed.
    """
    pbsys.pin_self(pbsys.SERVE_CPUS)  # as in the workloads
    expected = st.ctx.ref["bodies"][-1]
    try:
        serve, port, _ = pbsys.boot_serve(st.ctx.children, st.store, "/top")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            start = time.perf_counter()
            with rec.span("service.http.wire"):
                for route in routes:
                    with rec.span("service.http.roundtrip"):
                        status, body, _ = pbsys.http_get(conn, route)
                    st.failed += (
                        status != 200 or pbsys.body_digest(body) != expected[route]
                    )
            wall = time.perf_counter() - start
        finally:
            conn.close()
            serve.stop()
    finally:
        pbsys.pin_self(pbsys.ALL_CPUS)
    st.operations += len(routes)
    return wall


def wire_probe(rec: pbcore.Recorder, st: State) -> None:
    wire(rec, st, st.routes[:WIRE_REQUESTS])


def wire_replay(rec: pbcore.Recorder, st: State) -> None:
    """The reference's GETs again, each in a round-trip span."""
    wire(rec, st, st.routes)


def draw_routes(st: State, count: int) -> List[str]:
    """The seeded route draw the workloads' schedules make."""
    rng = random.Random(st.ctx.seed)
    schedule = pbwork.route_schedule(rng, st.ctx.ref["paths"], 0.0, 1.0, count)
    return [path for _, path in schedule]


def probe_mix(rec: pbcore.Recorder, st: State) -> None:
    st.routes = draw_routes(st, RESPOND_REQUESTS)


def forget(rec: pbcore.Recorder, st: State) -> None:
    """Drop decoded traceroutes no later step reads (off-path probes)."""
    st.objects = st.closed = None


# -- checks ----------------------------------------------------------------

def check_records(st: State, records: Sequence[str]) -> None:
    """Per-bin JSON records against the oracle's, one operation a bin."""
    want = st.ctx.ref["bin_records"]
    st.failed += sum(1 for a, b in zip(records, want) if a != b)
    st.failed += abs(len(records) - len(want))
    st.operations += len(want)


def check_bins(st: State) -> None:
    from repro.reporting import bin_event_record, record_json

    check_records(st, [record_json(bin_event_record(r)) for r in st.results])


def check_store(st: State) -> None:
    st.failed += pbsys.store_fingerprint(st.store) != st.ctx.ref["store"]
    st.operations += 1


def check_bodies(st: State) -> None:
    expected = st.ctx.ref["bodies"][-1]
    st.failed += sum(1 for r in st.routes if st.bodies.get(r) != expected[r])
    st.operations += len(st.routes)


# -- references: the default path itself, untraced -------------------------

def reference_batch(st: State) -> float:
    """Wall time of the default ``analyze CAMPAIGN --store DIR``."""
    store = st.rundir / "reference-store"
    child, wall = st.ctx.children.run(
        "analyze", st.ctx.inputs["path"], "--seed", str(st.ctx.inputs["seed"]),
        "--store", str(store),
    )
    st.failed += (
        st.ctx.ref["analyze_text"] not in child.output()
        or pbsys.store_fingerprint(store) != st.ctx.ref["store"]
    )
    st.operations += 1
    return wall


def reference_live(st: State) -> float:
    """Wall time of the default ``monitor`` catching up on the campaign
    (no ``--follow``: it reads the feed to its end, drains and exits)."""
    child, wall = st.ctx.children.run(
        "monitor", st.ctx.inputs["path"], "--store", str(st.rundir / "reference-store"),
        "--seed", str(st.ctx.inputs["seed"]),
        "--compact-every", str(pbwork.COMPACT_EVERY), "--json",
    )
    check_records(st, child.output().splitlines())
    return wall


def reference_query(st: State) -> float:
    """Wall time of the query workload's GETs to a default ``serve``:
    one pass over the route set, then ``--seconds`` of the fixed-rate
    phase's draw of requests, sent back to back."""
    count = int(st.ctx.seconds * pbwork.QUERY_RPS)
    st.routes = list(st.ctx.ref["paths"]) + draw_routes(st, count)
    return wire(pbcore.Recorder(enabled=False), st, st.routes)


@dataclass
class Ledger:
    """One workload's composition.

    ``before`` steps are off-path probes whose state the reference and
    the composition need; ``path`` is the composition of the calls the
    workload's default path makes; ``after`` steps are off-path probes
    run on the state the traced pass left.
    """

    reference: Callable[[State], float]
    path: Sequence[Step]
    before: Sequence[Step] = ()
    after: Sequence[Step] = ()
    checks: Sequence[Callable[[State], None]] = ()


LEDGERS = {
    "batch": Ledger(
        reference=reference_batch,
        path=(startup, topology, decode, engine_binned, aggregate, report,
              store_export),
        after=(columnar, line_decode, stream, forget, compact, query_misses,
               probe_mix, respond, wire_probe),
        checks=(check_bins, check_store, check_bodies),
    ),
    "live": Ledger(
        reference=reference_live,
        path=(startup, topology, line_decode, stream, engine_streamed,
              store_monitor),
        after=(decode, forget, columnar, aggregate, report, query_misses,
               probe_mix, respond, wire_probe),
        checks=(check_bins, check_bodies),
    ),
    "query": Ledger(
        reference=reference_query,
        before=(startup, topology, columnar, line_decode, stream, forget,
                decode, engine_binned, aggregate, report, store_export,
                compact, query_misses),
        path=(respond,),
        after=(wire_replay,),
        checks=(check_bins, check_store, check_bodies),
    ),
}


def ms_p50(values: List[float]) -> float:
    return statistics.median(values) * 1e3


def run_ledger(ctx: pbwork.Context) -> pbwork.Outcome:
    """Reference, then the composition untraced, traced, untraced."""
    # Import the program before anything is timed, so no pass pays it.
    pbsys.import_repro()
    import repro.atlas, repro.core, repro.reporting, repro.service  # noqa: E401,F401

    ledger = LEDGERS[ctx.workload]
    st = State(ctx=ctx, rundir=ctx.rundir)
    probe = pbcore.Recorder()
    for step in ledger.before:
        step(probe, st)
        gc.collect()
    reference = ledger.reference(st)

    passes = itertools.count()

    def one_pass(rec: pbcore.Recorder) -> float:
        # A directory of its own, so every pass builds its store afresh.
        st.rundir = ctx.rundir / f"pass-{next(passes)}"
        st.rundir.mkdir()
        gc.collect()
        start = time.perf_counter()
        for step in ledger.path:
            step(rec, st)
        return time.perf_counter() - start

    # Untraced passes on both sides of the traced one: the first pass
    # over the campaign is slower (fresh memory, cold caches), which
    # alone would make tracing look free.
    untraced = [one_pass(pbcore.Recorder(enabled=False))]
    rec = pbcore.Recorder()
    traced = one_pass(rec)
    traced_state = (st.results, st.store, st.analysis, dict(st.counts), st.bodies)
    untraced.append(one_pass(pbcore.Recorder(enabled=False)))
    st.results, st.store, st.analysis, counts, st.bodies = traced_state
    st.counts.update(counts)
    for step in ledger.after:
        step(probe, st)
        gc.collect()
    for check in ledger.checks:
        check(st)

    top = [s for s in rec.spans if s.parent is None]
    spans = rec.spans + probe.spans

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def durations(name: str) -> List[float]:
        return [s.duration for s in spans if s.name == name]

    counts = st.counts
    results = st.results
    busy = total("core.engine.process_bin")
    metrics = {
        "startup.import_s": total("startup.import"),
        "atlas.io.decode_s": total("atlas.io.decode"),
        "atlas.io.records_per_s": counts["records"] / total("atlas.io.decode"),
        "atlas.io.line_decode_s": total("atlas.io.line_decode"),
        "atlas.io.skipped": counts["skipped"],
        "atlas.columnar.decode_s": total("atlas.columnar.decode"),
        "atlas.stream.push_s": total("atlas.stream.push"),
        "atlas.stream.dropped_late": counts["dropped_late"],
        "core.engine.busy_s": busy,
        "core.engine.bin_p50_ms": ms_p50(durations("core.engine.process_bin")),
        "core.engine.traceroutes_per_s": (
            sum(r.n_traceroutes for r in results) / busy
        ),
        "core.engine.bins": len(results),
        "core.engine.links_analyzed": counts["links_analyzed"],
        "core.engine.alarms": sum(
            len(r.delay_alarms) + len(r.forwarding_alarms) for r in results
        ),
        "core.events.aggregate_s": total("core.events.aggregate"),
        "reporting.ihr_s": total("reporting.ihr"),
        "service.store.append_s": total("service.store.append"),
        "service.store.append_calls": counts["append_calls"],
        "service.store.bytes_written": counts["bytes_written"],
        "service.compact.pass_s": total("service.compact.pass"),
        "service.compact.segments_merged": counts["segments_merged"],
        "service.query.miss_p50_ms": ms_p50(durations("service.query.miss")),
        "service.http.respond_hit_p50_ms": ms_p50(
            durations("service.http.respond.hit")
        ),
        "service.http.respond_miss_p50_ms": ms_p50(
            durations("service.http.respond.miss")
        ),
        "service.http.cache_hit_ratio": counts["cache_hit_ratio"],
        "service.http.roundtrip_p50_ms": ms_p50(
            durations("service.http.roundtrip")
        ),
        "ledger.unaccounted_s": reference - sum(s.duration for s in top),
        "ledger.trace_overhead_ratio": traced / statistics.mean(untraced),
    }
    metrics["service.http.transport_p50_ms"] = (
        metrics["service.http.roundtrip_p50_ms"]
        - metrics["service.http.respond_hit_p50_ms"]
    )
    outcome = pbwork.Outcome(
        metrics=metrics, attempted=max(1, st.operations), failed=st.failed
    )

    def rows(spans: List[pbcore.Span], recorder: pbcore.Recorder):
        return [(s.name, s.duration, recorder.self_time(s)) for s in spans]

    on_path = rows(top, rec)
    off_path = rows([s for s in probe.spans if s.parent is None], probe)
    outcome.info = {
        "engine_class": counts["engine_class"],
        "reference_wall_s": reference,
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "layers": [
            {"name": n, "total_s": d, "self_s": s, "share": d / reference}
            for n, d, s in on_path
        ],
        "off_path": [{"name": n, "total_s": d, "self_s": s} for n, d, s in off_path],
        "spans": len(spans),
    }
    outcome.lines = [
        f"{ctx.workload}: default path {reference:.3f} s untraced; composition "
        f"traced {traced:.3f} s, untraced {', '.join(f'{u:.3f}' for u in untraced)} s",
        f"{'layer (on the path)':<24}{'total s':>10}{'self s':>10}{'of path':>9}",
    ] + [
        f"{n:<24}{d:>10.4f}{s:>10.4f}{d / reference:>9.1%}" for n, d, s in on_path
    ] + [
        f"{'unaccounted':<24}{metrics['ledger.unaccounted_s']:>10.4f}",
        f"{'layer (off-path probe)':<24}{'total s':>10}{'self s':>10}",
    ] + [f"{n:<24}{d:>10.4f}{s:>10.4f}" for n, d, s in off_path]
    return outcome
