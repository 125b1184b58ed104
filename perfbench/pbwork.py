"""The three workloads: ``batch``, ``live`` and ``query``.

Each drives the default CLI paths as subprocesses (``analyze``,
``monitor``, ``serve`` with no tuning flags) and returns a
:class:`Outcome`: the end-to-end metrics, operations attempted and
failed, generator lateness and everything printed for a reader.

All load is open loop: feed lines and requests are due on a schedule
fixed before the run starts, and every latency is timed from the due
time, so a stall also charges the work queued behind it.  The
generator uses at most two threads and two connections (the core count
of the reference host).
"""

from __future__ import annotations

import http.client
import json
import math
import random
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pbcore
import pbsys

#: ``monitor`` compaction cadence (bins) in the live workload.
COMPACT_EVERY = 3
#: Feed lines are appended in batches this many seconds apart.
FEED_TICK_S = 0.05
#: Hours of the campaign already in the feed when the monitor starts,
#: and hours appended live after it has caught up.
BACKLOG_HOURS = 9
LIVE_HOURS = 3
#: Live workload query stream (requests/s): low next to the serving
#: capacity; every new store generation invalidates the response cache,
#: so a large share of these answers are computed (misses).
LIVE_QUERY_RPS = 40.0
#: Query workload: fixed rate for the headline p50, then the ladder.
QUERY_RPS = 200.0
LADDER_RPS = (100.0, 200.0, 400.0, 800.0, 1600.0)
LADDER_RUNG_S = 1.0
LADDER_LIMIT_MS = 100.0  # tail latency a rung must meet
LADDER_QUEUE_MS = 10.0  # queue wait allowed at the end of a rung
#: A run whose generator ran later than this is invalid, not slow.
LATENESS_P50_MS = 5.0
LATENESS_MAX_MS = 250.0
#: ``analyze`` runs at least this many times in a batch run; the median
#: of four shrugs off one slow run, the mean of two does not.
BATCH_MIN_RUNS = 4
#: ``serve`` is booted this many times; set-up reports the median.
BOOTS = 3

_TS = re.compile(rb'"timestamp": ?(-?\d+)')


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    info: Dict[str, object] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    lateness: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        for summary in self.lateness.values():
            if summary.get("n") and (
                summary["p50"] > LATENESS_P50_MS
                or summary["max"] > LATENESS_MAX_MS
            ):
                return False
        return True


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    rundir: Path
    children: pbsys.Children
    inputs: Dict[str, object]
    ref: Dict[str, object]


# -- shared pieces ---------------------------------------------------------

def median_boot(ctx: Context, store: Path) -> Tuple[pbsys.Child, int, List[float]]:
    """Boot ``serve`` :data:`BOOTS` times; keep the last one running."""
    boots = []
    for attempt in range(BOOTS):
        child, port, boot_s = pbsys.boot_serve(ctx.children, store, "/top")
        boots.append(boot_s)
        if attempt < BOOTS - 1:
            child.stop()
    return child, port, boots


def route_schedule(
    rng: random.Random, paths: Sequence[str], start: float, rate: float,
    count: int,
) -> List[Tuple[float, str]]:
    """*count* requests due every ``1/rate`` s from *start*, each a path
    drawn uniformly from *paths*: the route set ``/top``, ``/events`` and
    every monitored AS's ``/health/{asn}`` and ``/links/{asn}``
    (:func:`pbsys.query_paths`)."""
    return [(start + i / rate, rng.choice(paths)) for i in range(count)]


@dataclass
class Answer(pbcore.Request):
    path: str = ""
    status: int = 0
    digest: str = ""
    etag: str = ""
    tag: Tuple[int, int] = (0, 0)  # caller's state at send and at answer


def open_loop(
    port: int,
    schedule: Sequence[Tuple[float, str]],
    threads: int,
    stop: Optional[threading.Event] = None,
    state: Callable[[], int] = lambda: 0,
) -> List[Answer]:
    """Send *schedule* open loop over *threads* keep-alive connections.

    Each sender takes the next request, sleeps until it is due (if it is
    not already late) and records due, free, sent and answered times.
    ``state()`` is sampled at send and answer time (the live workload
    passes the number of bins emitted so far).
    """
    answers = [Answer(due=due, path=path) for due, path in schedule]
    lock = threading.Lock()
    cursor = [0]

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            while stop is None or not stop.is_set():
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(answers):
                    return
                answer = answers[index]
                answer.free = time.perf_counter()
                wait = answer.due - answer.free
                if wait > 0:
                    time.sleep(wait)
                before = state()
                answer.sent = time.perf_counter()
                try:
                    answer.status, body, answer.etag = pbsys.http_get(
                        conn, answer.path
                    )
                    answer.ok = answer.status == 200
                    answer.digest = pbsys.body_digest(body)
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=10
                    )
                answer.done = time.perf_counter()
                answer.tag = (before, state())
        finally:
            conn.close()

    workers = [threading.Thread(target=sender) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    sender()
    for worker in workers:
        worker.join()
    return [a for a in answers if a.sent]


def request_lateness(answers: Sequence[Answer]) -> Dict[str, object]:
    return pbcore.summarize([a.send_lateness * 1e3 for a in answers])


def stage_table(text: str) -> Dict[str, float]:
    """``analyze --timings`` stage table: stage name → milliseconds."""
    stages: Dict[str, float] = {}
    rows = text.split("stage timings:", 1)[-1].splitlines()
    for row in rows[3:]:
        parts = row.split()
        if len(parts) == 3:
            stages[parts[0]] = float(parts[2])
    return stages


def timings_record(log: Path) -> Dict[str, object]:
    """The ``timings/v1`` record ``monitor --json`` leaves on stderr."""
    for line in reversed(log.read_text().splitlines()):
        if '"timings/v1"' in line:
            return json.loads(line)["timings"]
    return {}


# -- batch -----------------------------------------------------------------

def run_batch(ctx: Context) -> Outcome:
    """Default ``analyze --store`` over the whole campaign, back to back:
    at least :data:`BATCH_MIN_RUNS` times, more while ``--seconds`` allows.

    Set-up is the fixed cost every default ``analyze`` pays before its
    first traceroute — interpreter start, imports, topology and IP-to-AS
    table — measured as ``analyze`` of an empty campaign.
    """
    seed = str(ctx.inputs["seed"])
    empty = ctx.rundir / "empty.jsonl"
    empty.write_text("")
    setups = [
        ctx.children.run("analyze", str(empty), "--seed", seed)[1]
        for _ in range(BOOTS)
    ]
    walls: List[float] = []
    rss: List[float] = []
    failed = 0
    stages: Dict[str, float] = {}
    begin = time.perf_counter()
    while True:
        store = ctx.rundir / f"store-{len(walls)}"
        child, wall = ctx.children.run(
            "analyze", ctx.inputs["path"], "--seed", seed,
            "--store", str(store), "--timings",
        )
        out = child.output()
        walls.append(wall)
        rss.append(child.peak_rss_mb)
        stages = stage_table(out)
        if (
            ctx.ref["analyze_text"] not in out
            or pbsys.store_fingerprint(store) != ctx.ref["store"]
        ):
            failed += 1
        elapsed = time.perf_counter() - begin
        if (
            len(walls) >= BATCH_MIN_RUNS
            and elapsed + statistics.median(walls) > ctx.seconds
        ):
            break
    n = ctx.inputs["traceroutes"]
    wall = statistics.median(walls)
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(setups),
            "traceroutes_per_s": n / wall,
            "latency_p50_ms": wall * 1e3,
            "peak_rss_mb": statistics.median(rss),
        },
        attempted=len(walls),
        failed=failed,
    )
    outcome.info = {
        "analyze_wall_s": walls,
        "setup_runs_s": setups,
        "stages_ms": stages,
        "stage_unaccounted_s": wall - sum(stages.values()) / 1e3,
    }
    outcome.lines = [
        f"analyze runs: {len(walls)}, wall {pbcore.describe('', 's', pbcore.summarize(walls))[2:]}",
        f"analyze --timings stages (ms): {stages}",
        f"stage sum vs wall: unaccounted {outcome.info['stage_unaccounted_s']:.3f} s",
    ]
    return outcome


# -- live ------------------------------------------------------------------

def run_live(ctx: Context) -> Outcome:
    """``monitor --follow`` over a growing feed while ``serve`` answers.

    The feed starts with :data:`BACKLOG_HOURS` of data (a restart after
    downtime).  Once the monitor has emitted the last bin the backlog
    closes, the next :data:`LIVE_HOURS` are appended on a fixed schedule,
    one data hour per ``seconds / LIVE_HOURS`` wall seconds, in
    :data:`FEED_TICK_S` batches at each line's data time; then the feed
    goes quiet and the monitor drains and exits.  Set-up creates the
    store with ``monitor`` on an empty feed and boots ``serve`` on it.
    """
    seed = str(ctx.inputs["seed"])
    raw = Path(ctx.inputs["path"]).read_bytes().splitlines(keepends=True)
    stamps = [int(_TS.findall(line)[-1]) for line in raw]
    first_hour = pbcore.bin_start(stamps[0], pbsys.BIN_S)
    live_from = first_hour + BACKLOG_HOURS * pbsys.BIN_S
    live_to = live_from + LIVE_HOURS * pbsys.BIN_S
    backlog = sum(1 for ts in stamps if ts < live_from)
    end = sum(1 for ts in stamps if ts < live_to)
    stamps = stamps[:end]
    hour_s = ctx.seconds / LIVE_HOURS
    closing = pbcore.closing_lines(stamps, pbsys.BIN_S, 1)
    caught_up = max(b for b, i in closing.items() if i < backlog)
    expected = ctx.ref["bin_records"][: (live_to - first_hour) // pbsys.BIN_S]

    pbsys.pin_self(pbsys.SERVE_CPUS)  # the load generator sits with serve
    store = ctx.rundir / "store"
    empty = ctx.rundir / "empty.jsonl"
    empty.write_text("")
    _, create_s = ctx.children.run(
        "monitor", str(empty), "--store", str(store), "--seed", seed, "--json"
    )
    serve, port, boots = median_boot(ctx, store)

    feed = ctx.rundir / "feed.jsonl"
    handle = open(feed, "wb")
    handle.write(b"".join(raw[:backlog]))
    handle.flush()
    monitor = ctx.children.spawn(
        "monitor", str(feed), "--follow", "--store", str(store),
        "--seed", seed, "--compact-every", str(COMPACT_EVERY), "--json",
        "--idle-timeout", "1", cpus=pbsys.MONITOR_CPUS,
    )
    spawn = monitor.started
    records: List[str] = []
    emitted: Dict[int, float] = {}
    stop = threading.Event()
    rng = random.Random(ctx.seed)
    count = int((ctx.seconds + 30.0) * LIVE_QUERY_RPS)
    schedule = route_schedule(
        rng, ctx.ref["paths"], spawn + 0.5, LIVE_QUERY_RPS, count
    )
    answers: List[Answer] = []
    reader = threading.Thread(
        target=lambda: answers.extend(
            open_loop(port, schedule, 1, stop, lambda: len(records))
        )
    )
    reader.start()
    write_late: List[float] = []
    dues: Dict[int, float] = {}
    try:
        nxt = backlog
        while True:
            if caught_up in emitted and not dues:
                # A line is due at the first feed tick at or after its
                # data time, scaled to wall time from the catch-up.
                begin = emitted[caught_up]
                dues = {
                    i: begin + FEED_TICK_S * math.ceil(
                        (stamps[i] - live_from) * hour_s
                        / pbsys.BIN_S / FEED_TICK_S
                    )
                    for i in range(backlog, end)
                }
            now = time.perf_counter()
            start = nxt
            while dues and nxt < end and dues[nxt] <= now:
                nxt += 1
            if nxt > start:
                handle.write(b"".join(raw[start:nxt]))
                handle.flush()
                wrote = time.perf_counter()
                write_late.extend(
                    (wrote - dues[i]) * 1e3 for i in range(start, nxt)
                )
            timeout = (
                max(0.0, dues[nxt] - time.perf_counter())
                if dues and nxt < end else 1.0
            )
            line = monitor.readline(timeout)
            if line is not None and line.strip():
                emitted[json.loads(line)["bin"]] = time.perf_counter()
                records.append(line)
            elif line is None and monitor.eof:
                break
            if time.perf_counter() - spawn > 150:
                raise pbsys.BenchError("monitor did not finish the feed")
    finally:
        handle.close()
        stop.set()
        reader.join()
    monitor.wait(timeout=30)
    serve.stop()

    per_bin = {
        b: s * 1e3
        for b, s in pbcore.bin_latencies(closing, dues, emitted).items()
    }
    bins = pbcore.summarize(list(per_bin.values()))
    catchup_s = emitted.get(caught_up, float("inf")) - spawn
    bad_bins = len(expected) - sum(
        1 for got, want in zip(records, expected) if got == want
    ) + max(0, len(records) - len(expected))
    bad_answers = sum(1 for a in answers if not live_answer_ok(a, ctx.ref))
    # The ETag carries the store generation, so the first answer of a
    # (path, ETag) pair was computed (a miss); repeats were cache hits.
    # Only answers sent after the catch-up are gated: while the monitor
    # works through the backlog it holds a core, and how much of that the
    # server shares varied from run to run more than the answers did.
    seen = set()
    misses, hits, catchup_misses = [], [], []
    caught_at = emitted.get(caught_up, float("inf"))
    for a in answers:
        key = (a.path, a.etag)
        if key in seen:
            hits.append(a.latency * 1e3)
        elif a.sent >= caught_at:
            misses.append(a.latency * 1e3)
        else:
            catchup_misses.append(a.latency * 1e3)
        seen.add(key)
    queries = pbcore.summarize(misses)
    outcome = Outcome(
        metrics={
            "setup_s": create_s + statistics.median(boots),
            "traceroutes_per_s": backlog / catchup_s,
            # The bin latency is printed, not gated: with the monitor's
            # 0.5 s feed poll and only LIVE_HOURS bins a run, its median
            # moves by about a fifth between identical runs.
            "latency_p50_ms": queries["p50"],
            "peak_rss_mb": monitor.peak_rss_mb,
        },
        attempted=len(expected) + len(answers),
        failed=bad_bins + bad_answers,
    )
    outcome.lateness = {
        "feed_write_ms": pbcore.summarize(write_late),
        "request_send_ms": request_lateness(answers),
    }
    timings = timings_record(monitor.log_path)
    outcome.info = {
        "backlog_traceroutes": backlog,
        "live_traceroutes": end - backlog,
        "hour_s": hour_s,
        "catchup_s": catchup_s,
        "bin_latency_ms": bins,
        "bin_latency_by_bin_ms": per_bin,
        "emitted_s": {b: t - spawn for b, t in emitted.items()},
        "query_latency_ms": queries,
        "query_hit_latency_ms": pbcore.summarize(hits),
        "query_catchup_miss_latency_ms": pbcore.summarize(catchup_misses),
        "store_create_s": create_s,
        "serve_boot_s": boots,
        "monitor_stages": sorted(timings),
        "monitor_timings": timings,
        "serve_peak_rss_mb": serve.peak_rss_mb,
        "bad_bins": bad_bins,
        "bad_answers": bad_answers,
    }
    outcome.lines = [
        f"feed: {backlog} traceroutes backlog, then {end - backlog} at "
        f"1 data hour / {hour_s:.3f} s",
        f"catch-up: {catchup_s:.3f} s to emit bin {caught_up}",
        pbcore.describe("bin_latency_ms", "ms", bins),
        pbcore.describe("query_p50_ms (miss path, after catch-up)", "ms", queries),
        pbcore.describe(
            "query_p50_ms (miss path, during catch-up)", "ms",
            pbcore.summarize(catchup_misses),
        ),
        pbcore.describe("query_p50_ms (hits)", "ms", pbcore.summarize(hits)),
        f"monitor timings/v1 stages: {sorted(timings)}",
    ]
    return outcome


def live_answer_ok(answer: Answer, ref: Dict[str, object]) -> bool:
    """A live 200 body must equal the in-process answer at a store state
    the request could have seen: between one bin behind the emissions
    seen at send and two ahead of those seen at answer time."""
    if not answer.ok:
        return False
    bodies = ref["bodies"]
    low = max(0, answer.tag[0] - 1)
    high = min(len(bodies) - 1, answer.tag[1] + 2)
    return any(
        bodies[k].get(answer.path) == answer.digest for k in range(low, high + 1)
    )


# -- query -----------------------------------------------------------------

def run_query(ctx: Context) -> Outcome:
    """``serve`` on a finished store under open-loop GETs, no writer.

    Set-up runs ``analyze --store`` and boots ``serve``.  After one
    unmeasured pass over the route mix (so answers are cached, as on a
    long-running server), ``--seconds`` at a fixed rate give the headline
    p50 and a geometric rate ladder, :data:`LADDER_RUNG_S` a rung, gives
    the sustained rate.  The host this was tuned on has slow spells of a
    few seconds; a long fixed-rate window keeps them out of the median.
    """
    seed = str(ctx.inputs["seed"])
    store = ctx.rundir / "store"
    child, analyze_s = ctx.children.run(
        "analyze", ctx.inputs["path"], "--seed", seed, "--store", str(store)
    )
    setup_ok = (
        ctx.ref["analyze_text"] in child.output()
        and pbsys.store_fingerprint(store) == ctx.ref["store"]
    )
    pbsys.pin_self(pbsys.SERVE_CPUS)  # the load generator sits with serve
    serve, port, boots = median_boot(ctx, store)
    paths = ctx.ref["paths"]
    warm = open_loop(port, [(0.0, p) for p in paths], 1)
    rng = random.Random(ctx.seed)
    fixed = open_loop(
        port,
        route_schedule(
            rng, paths, time.perf_counter() + 0.05, QUERY_RPS,
            int(ctx.seconds * QUERY_RPS),
        ),
        1,  # one connection suffices at this rate and keeps the p50 steady
    )
    rungs = []
    ladder: List[Answer] = []
    past_capacity: List[Answer] = []
    for rate in LADDER_RPS:
        answers = open_loop(
            port,
            route_schedule(
                rng, paths, time.perf_counter() + 0.05, rate,
                int(LADDER_RUNG_S * rate),
            ),
            2,
        )
        ok, info = pbcore.rung_passes(answers, LADDER_LIMIT_MS, LADDER_QUEUE_MS)
        rungs.append((rate, ok, info))
        if not ok:
            # Timeouts and refusals on the rung past capacity count
            # against the rung only; answers the server sent still count.
            past_capacity = [a for a in answers if a.status == 0]
            answers = [a for a in answers if a.status != 0]
        ladder += answers
        if not ok:
            break
    serve.stop()
    expected = pbsys.responses(store, paths)
    everything = warm + fixed + ladder + past_capacity
    # Any answer that is not a 200 with the oracle's body fails.
    wrong = sum(
        1 for a in warm + fixed + ladder
        if not a.ok or a.digest != expected[a.path]
    )
    lat = pbcore.summarize([a.latency * 1e3 for a in fixed])
    sustained = pbcore.sustained_rate([(rate, ok) for rate, ok, _ in rungs])
    outcome = Outcome(
        metrics={
            "setup_s": analyze_s + statistics.median(boots),
            "traceroutes_per_s": ctx.inputs["traceroutes"] / analyze_s,
            "latency_p50_ms": lat["p50"],
            "peak_rss_mb": serve.peak_rss_mb,
        },
        attempted=1 + len(everything),
        failed=(0 if setup_ok else 1) + wrong,
    )
    outcome.lateness = {"request_send_ms": request_lateness(warm + fixed)}
    outcome.info = {
        "analyze_s": analyze_s,
        "serve_boot_s": boots,
        "query_latency_ms": lat,
        "sustained_rps": sustained,
        "ladder": [
            {"rate": rate, "ok": ok, **info} for rate, ok, info in rungs
        ],
        "requests": len(everything),
        "unanswered_past_capacity": len(past_capacity),
    }
    outcome.lines = [
        pbcore.describe(f"query_p50_ms at {QUERY_RPS:g} rps", "ms", lat),
        f"sustained_rps: {sustained:g} (limit: tail <= {LADDER_LIMIT_MS:g} ms, "
        f"end-of-rung queue <= {LADDER_QUEUE_MS:g} ms)",
    ] + [
        f"  rung {rate:g} rps: {'ok' if ok else 'FAIL'} "
        + pbcore.describe("latency", "ms", info.get("latency", {}))
        + f", failed {info.get('failed')}, end-of-rung queue "
        f"{info.get('end_queue_ms', 0):.2f} ms"
        for rate, ok, info in rungs
    ]
    return outcome


WORKLOADS = {"batch": run_batch, "live": run_live, "query": run_query}
