"""Processes, inputs and the reference oracle for the benchmark.

The system under test is always the repository's own CLI, started as
``python -m repro ...`` with ``src`` on ``PYTHONPATH`` — no install
step.  The input (the canonical simulated campaign) is cached under
``.perfbench/inputs``; reference answers computed in-process by the
scalar ``Pipeline`` oracle are cached per input digest and source
digest under ``.perfbench/ref``.  Nothing the program builds (stores,
bin caches) is cached: every run builds it again.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pbcore

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: The canonical campaign every run analyses.  ``--seed`` drives the
#: request schedules, not the campaign: campaigns of other seeds differ
#: in size by up to a tenth, which moved the analyze wall time by as
#: much, and each takes 17 s to generate.
CAMPAIGN_SEED = 7
CAMPAIGN_HOURS = 12
CAMPAIGN_SCENARIO = "ddos"
BIN_S = 3600


def _cpu_split() -> Tuple[Optional[set], Optional[set]]:
    """Two disjoint CPU sets: one for ``serve`` and the load generator,
    one for ``monitor``.  On a VM a wake-up that crosses cores costs
    enough that the request p50 moved by half between runs, depending on
    where the scheduler happened to put client and server; pinning them
    to one core (and the monitor to another) removes that.  ``None`` on
    a single-CPU host (no pinning)."""
    cpus = sorted(ALL_CPUS)
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


ALL_CPUS = os.sched_getaffinity(0)
SERVE_CPUS, MONITOR_CPUS = _cpu_split()


def pin_self(cpus: Optional[set]) -> None:
    """Pin this thread (and threads it starts later) to *cpus*."""
    os.sched_setaffinity(0, cpus or ALL_CPUS)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def check_checkout() -> None:
    """Refuse to run unless the program's sources are present."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program sources under {SRC}")


def import_repro() -> None:
    """Make ``repro`` importable in this process (for the oracle)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- child processes -------------------------------------------------------

class Child:
    """One ``python -m repro`` process with a non-blocking stdout reader."""

    def __init__(
        self, args: Sequence[str], log: Path, cpus: Optional[set] = None
    ) -> None:
        self.args = list(args)
        self.log_path = log
        self.log = open(log, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.args],
            cwd=ROOT,
            env=cli_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        # Children inherit the spawning thread's pinning; undo it unless
        # the caller asked for one.
        os.sched_setaffinity(self.proc.pid, cpus or ALL_CPUS)
        self._buf = b""
        self._eof = False
        self.returncode: Optional[int] = None
        self.peak_rss_mb: Optional[float] = None

    def sample_rss(self) -> None:
        """Fold the process's resident high-water mark into ``peak_rss_mb``.

        ``VmHWM`` belongs to the process's own address space.  The peak
        ``wait4`` reports does not: it starts from the parent's peak at
        the time of the fork, which after the oracle has run in this
        process is larger than ``serve`` or ``monitor`` ever get.
        """
        try:
            with open(f"/proc/{self.proc.pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmHWM:"):
                        mb = int(line.split()[1]) / 1024.0  # KiB
                        self.peak_rss_mb = max(self.peak_rss_mb or 0.0, mb)
                        return
        except OSError:
            pass

    def readline(self, timeout: float) -> Optional[str]:
        """Next stdout line, or ``None`` if none arrived within *timeout*."""
        self.sample_rss()
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            if self._eof:
                if self._buf:
                    line, self._buf = self._buf, b""
                    return line.decode()
                return None
            left = deadline - time.perf_counter()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    self._buf += chunk
                else:
                    self._eof = True
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    @property
    def eof(self) -> bool:
        return self._eof and not self._buf

    def wait(self, timeout: float) -> int:
        """Reap the process, sampling its peak RSS until it exits."""
        if self.returncode is not None:
            return self.returncode
        deadline = time.perf_counter() + timeout
        while True:
            self.sample_rss()
            pid, status, _ = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                _, status, _ = os.wait4(self.proc.pid, 0)
                break
            # Keep the pipe drained so the child never blocks on a write.
            self._drain()
            time.sleep(0.01)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.log.close()
        return self.returncode

    def _drain(self) -> None:
        fd = self.proc.stdout.fileno()
        while not self._eof:
            ready, _, _ = select.select([fd], [], [], 0)
            if not ready:
                return
            chunk = os.read(fd, 1 << 16)
            if chunk:
                self._buf += chunk
            else:
                self._eof = True

    def stop(self) -> None:
        """Terminate (if running) and reap."""
        if self.returncode is None:
            self.sample_rss()
            try:
                self.proc.terminate()
            except ProcessLookupError:
                pass
            self.wait(timeout=10)
        self.proc.stdout.close()

    def output(self) -> str:
        """Everything left on stdout (call after :meth:`wait`)."""
        self._drain()
        text, self._buf = self._buf.decode(), b""
        return text


class Children:
    """Owns every child of a run; stops whatever is still alive on exit."""

    def __init__(self, logdir: Path) -> None:
        self.logdir = logdir
        self.children: List[Child] = []

    def spawn(self, *args: str, cpus: Optional[set] = None) -> Child:
        log = self.logdir / f"{len(self.children):02d}-{args[0]}.log"
        child = Child(args, log, cpus)
        self.children.append(child)
        return child

    def run(self, *args: str, timeout: float = 170.0) -> Tuple[Child, float]:
        """Run to completion; returns the child and its wall time."""
        child = self.spawn(*args)
        code = child.wait(timeout)
        wall = time.perf_counter() - child.started
        if code != 0:
            raise BenchError(f"repro {args[0]} exited {code}: see {child.log.name}")
        return child, wall

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        for child in self.children:
            child.stop()


def http_get(
    conn: http.client.HTTPConnection, path: str
) -> Tuple[int, bytes, str]:
    """One GET: status, body and ETag (empty when absent)."""
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read(), response.getheader("ETag", "")


def boot_serve(
    children: Children, store: Path, probe: str, timeout: float = 60.0
) -> Tuple[Child, int, float]:
    """Start a default ``serve`` and wait for its first 200.

    Returns the child, its port and the seconds from spawn to that 200.
    """
    child = children.spawn("serve", str(store), "--port", "0", cpus=SERVE_CPUS)
    deadline = child.started + timeout
    port = None
    while port is None:
        line = child.readline(max(0.0, deadline - time.perf_counter()))
        if line is None:
            raise BenchError("serve printed no address")
        if line.startswith("serving "):
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    while True:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            status, _, _ = http_get(conn, probe)
            if status == 200:
                return child, port, time.perf_counter() - child.started
        except OSError:
            pass
        finally:
            conn.close()
        if time.perf_counter() > deadline:
            raise BenchError("serve never answered 200")
        time.sleep(0.005)


# -- inputs ----------------------------------------------------------------

def generator_args() -> List[str]:
    return [
        "generate", "--hours", str(CAMPAIGN_HOURS), "--seed",
        str(CAMPAIGN_SEED), "--scenario", CAMPAIGN_SCENARIO,
    ]


def campaign(children: Children) -> Dict[str, object]:
    """The canonical campaign, generated once and cached.

    The cache key covers the generator arguments and the sources that
    shape the output (the simulator, the CLI, the Atlas record model),
    so a change to any of them regenerates instead of reusing.
    """
    args = generator_args()
    sources = pbcore.tree_digest(
        [SRC / "repro" / "simulation", SRC / "repro" / "cli.py",
         SRC / "repro" / "atlas"]
    )
    key = pbcore.hashlib.sha256(
        json.dumps([args, sources]).encode()
    ).hexdigest()[:24]
    entry = WORK / "inputs" / key
    meta_path = entry / "meta.json"
    if not meta_path.exists():
        tmp = WORK / "inputs" / f".{key}.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        started = time.perf_counter()
        children.run(*args, "--out", str(tmp / "campaign.jsonl"))
        path = tmp / "campaign.jsonl"
        meta = {
            "seed": CAMPAIGN_SEED,
            "generator": args,
            "sources_digest": sources,
            "digest": pbcore.file_digest(path),
            "bytes": path.stat().st_size,
            "traceroutes": sum(1 for _ in open(path, "rb")),
            "generate_s": time.perf_counter() - started,
        }
        (tmp / "meta.json").write_text(json.dumps(meta, indent=1))
        shutil.rmtree(entry, ignore_errors=True)
        os.replace(tmp, entry)
    meta = json.loads(meta_path.read_text())
    meta["path"] = str(entry / "campaign.jsonl")
    return meta


# -- the reference oracle --------------------------------------------------

def mapper_for(seed: int):
    """The IP-to-AS table the CLI builds for ``--seed`` (default probes)."""
    from repro.simulation import AtlasPlatform, TopologyParams, build_topology

    topology = build_topology(TopologyParams.case_study(), seed=seed)
    return AtlasPlatform(topology, seed=seed).as_mapper()


def query_paths(asns: Sequence[int]) -> List[str]:
    """The route mix: every monitored AS's health and links, top, events."""
    paths = ["/top", "/events"]
    for asn in asns:
        paths += [f"/health/{asn}", f"/links/{asn}"]
    return paths


def store_fingerprint(store: Path) -> Dict[str, object]:
    """A store's deterministic content: manifest minus ``store_id``, segments."""
    from repro.service import read_manifest

    manifest = read_manifest(store)
    return {
        "generation": manifest.generation,
        "bin_s": manifest.bin_s,
        "start": manifest.start,
        "end": manifest.end,
        "segments": [
            [m.name, m.n_delay, m.n_forwarding, m.n_events, m.min_ts, m.max_ts]
            for m in manifest.segments
        ],
        "bytes": {
            p.name: pbcore.file_digest(p) for p in sorted(store.glob("seg-*.seg"))
        },
    }


def analyze_text(analysis, top: int = 10) -> str:
    """The stats table and top events exactly as ``analyze`` prints them."""
    from repro.reporting import InternetHealthReport, format_table

    stats = analysis.stats()
    text = format_table(
        ["statistic", "value"],
        [
            ["traceroutes", stats.traceroutes_processed],
            ["bins", stats.bins_processed],
            ["links analyzed", stats.links_analyzed],
            ["delay alarms", len(analysis.delay_alarms)],
            ["forwarding alarms", len(analysis.forwarding_alarms)],
        ],
    )
    report = InternetHealthReport(analysis)
    events = report.top_events("delay", threshold=2.0, limit=top)
    events += report.top_events("forwarding", threshold=2.0, limit=top)
    if not events:
        return text + "\n\nno significant events"
    return text + "\n\ntop events:\n" + format_table(
        ["AS", "hour", "kind", "magnitude"],
        [
            [f"AS{e.asn}", e.timestamp // 3600, e.kind, f"{e.magnitude:+.1f}"]
            for e in events[:top]
        ],
    )


def body_digest(body: bytes) -> str:
    return pbcore.hashlib.sha256(body).hexdigest()


def responses(store: Path, paths: Sequence[str]) -> Dict[str, str]:
    """``ServiceState.respond`` in-process: path → digest of the 200 body."""
    from repro.service import ResponseCache, ServiceState, StoreQuery

    state = ServiceState(StoreQuery(store), ResponseCache(len(paths) + 1))
    out = {}
    for path in paths:
        answer = state.respond(path, {})
        out[path] = body_digest(answer.body) if answer.status == 200 else ""
    return out


def reference(inputs: Dict[str, object]) -> Dict[str, object]:
    """What the default paths must answer, from the scalar ``Pipeline``.

    Cached per (campaign digest, digest of ``src/repro``), so the
    oracle runs once per input and code version.  Holds the analyze
    text, the store written from the oracle's analysis, the per-bin
    monitor records, the monitored ASes, and — for each number ``k`` of
    bins appended one at a time — the body every query path answers.
    """
    import_repro()
    code = pbcore.tree_digest([SRC / "repro"])
    entry = WORK / "ref" / f"{inputs['digest'][:20]}-{code[:20]}"
    path = entry / "ref.json"
    if path.exists():
        return json.loads(path.read_text())
    from repro.atlas import read_traceroutes
    from repro.core import AlarmAggregator, Pipeline, PipelineConfig
    from repro.core.pipeline import CampaignAnalysis
    from repro.reporting import bin_event_record, record_json
    from repro.service import AlarmStoreWriter, append_analysis

    mapper = mapper_for(inputs["seed"])
    pipeline = Pipeline(PipelineConfig())
    results = pipeline.run(read_traceroutes(inputs["path"]))
    aggregator = AlarmAggregator(
        mapper, bin_s=pipeline.config.bin_s, start=results[0].timestamp
    )
    for result in results:
        aggregator.add_alarms(result.delay_alarms, result.forwarding_alarms)
    aggregator.close(results[-1].timestamp)
    analysis = CampaignAnalysis(
        bin_results=results, aggregator=aggregator, pipeline=pipeline
    )
    tmp = WORK / "ref" / f".tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    append_analysis(tmp / "store", analysis)
    from repro.service import StoreQuery

    asns = StoreQuery(tmp / "store").monitored_asns()
    paths = query_paths(asns)
    writer = AlarmStoreWriter.create(tmp / "bins", mapper, bin_s=BIN_S)
    bodies = [responses(tmp / "bins", paths)]
    for result in results:
        writer.append_bins([result])
        bodies.append(responses(tmp / "bins", paths))
    ref = {
        "analyze_text": analyze_text(analysis),
        "store": store_fingerprint(tmp / "store"),
        "bin_records": [record_json(bin_event_record(r)) for r in results],
        "asns": asns,
        "paths": paths,
        "bodies": bodies,
    }
    entry.mkdir(parents=True, exist_ok=True)
    (tmp / "ref.json").write_text(json.dumps(ref))
    os.replace(tmp / "ref.json", path)
    shutil.rmtree(tmp, ignore_errors=True)
    return ref


def engine_class() -> str:
    """Class of the engine the default CLI paths build (no engine flags)."""
    import_repro()
    from repro.core import create_pipeline

    engine = create_pipeline(None)
    close = getattr(engine, "close", None)
    if close is not None:
        close()
    return type(engine).__name__
