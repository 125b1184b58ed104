"""Arithmetic and bookkeeping shared by every workload of the benchmark.

Everything here is a pure function or a small in-memory object, so the
unit tests in ``test_perfbench.py`` can check it on synthetic inputs:
percentiles with their sample counts, the bin-close trigger, due-time
latency, the rate-ladder decision, span self time, and the comparison
rules (host fingerprint, input digest, validity) used by ``compare.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tail percentiles considered, highest last.  A percentile is reported
#: only when at least ``TAIL_MIN_BEYOND`` samples lie beyond it.
TAIL_LADDER = (90.0, 95.0, 98.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) with linear interpolation."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_label(n: int, cap: float = 99.9) -> Optional[float]:
    """Highest percentile (≤ *cap*) with ten or more of *n* samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if q <= cap and n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = q
    return best


def summarize(samples: Sequence[float], cap: float = 99.9) -> Dict[str, object]:
    """Median plus the highest supported tail percentile, with the count."""
    out: Dict[str, object] = {"n": len(samples)}
    if not samples:
        return out
    out["p50"] = statistics.median(samples)
    q = tail_label(len(samples), cap)
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(samples, q)
    out["max"] = max(samples)
    return out


def describe(name: str, unit: str, summary: Dict[str, object]) -> str:
    """One human-readable line for a :func:`summarize` result."""
    if not summary.get("n"):
        return f"{name}: no samples"
    text = f"{name}: p50 {summary['p50']:.4g} {unit}"
    if "tail_q" in summary:
        text += f", p{summary['tail_q']:g} {summary['tail']:.4g} {unit}"
    return text + f", max {summary['max']:.4g} {unit} (n={summary['n']})"


# -- live feed: which line closes a bin, and when was it due --------------

def bin_start(timestamp: int, bin_s: int) -> int:
    """Start of the time bin holding *timestamp*."""
    return timestamp - timestamp % bin_s


def closing_lines(
    timestamps: Sequence[int], bin_s: int, lateness: int
) -> Dict[int, int]:
    """Map each bin start to the index of the first line that closes it.

    A bin ``b`` closes when a line arrives whose bin starts at or after
    ``b + (lateness + 1) * bin_s`` (the monitor's stream keeps
    ``lateness`` bins open behind the newest one).  Bins the feed never
    closes (its last ``lateness + 1`` bins, drained at end of feed) are
    absent.  *timestamps* must be non-decreasing, as a feed is.
    """
    if not timestamps:
        return {}
    first = bin_start(timestamps[0], bin_s)
    out: Dict[int, int] = {}
    pending = first  # oldest bin not yet mapped
    for index, ts in enumerate(timestamps):
        horizon = bin_start(ts, bin_s) - (lateness + 1) * bin_s
        while pending <= horizon:
            out[pending] = index
            pending += bin_s
    return out


def bin_latencies(
    closing: Dict[int, int], dues: Dict[int, float], emitted: Dict[int, float]
) -> Dict[int, float]:
    """Seconds from the due time of each bin's closing line to its emission.

    Only bins closed by a scheduled line (one with a due time) that were
    emitted count; bins closed by the backlog have no due time.
    """
    return {
        b: emitted[b] - dues[line]
        for b, line in closing.items()
        if line in dues and b in emitted
    }


@dataclass
class Request:
    """One open-loop operation: when it was due, sent and answered."""

    due: float
    free: float = 0.0  # when the sender became free to take it
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False

    @property
    def latency(self) -> float:
        """Time from due to answer: includes any queueing in the sender."""
        return self.done - self.due

    @property
    def queue_wait(self) -> float:
        """How long it waited because every connection was busy."""
        return max(0.0, self.free - self.due)

    @property
    def send_lateness(self) -> float:
        """How late the generator itself sent it once a connection was free."""
        return self.sent - max(self.due, self.free)


def rung_passes(
    requests: Sequence[Request], limit_ms: float, queue_ms: float
) -> Tuple[bool, Dict[str, object]]:
    """Decide one rung of the rate ladder.

    A rung holds when no request failed, the tail latency the sample
    supports (p99 from 1,000 requests up) is within *limit_ms*, and the
    sender kept up: the median queue wait of the rung's last third (how
    long requests waited for a free connection) is within *queue_ms*.
    The schedule starts with an empty queue, so a queue still standing at
    the end means the backlog grew.
    """
    info: Dict[str, object] = {"n": len(requests)}
    if not requests:
        return False, info
    failed = sum(1 for r in requests if not r.ok)
    lat = summarize([r.latency * 1e3 for r in requests], cap=99.0)
    third = max(1, len(requests) // 3)
    backlog = statistics.median(r.queue_wait * 1e3 for r in requests[-third:])
    info.update(failed=failed, latency=lat, end_queue_ms=backlog)
    tail_ms = lat.get("tail", lat["max"])
    ok = failed == 0 and tail_ms <= limit_ms and backlog <= queue_ms
    return ok, info


def sustained_rate(outcomes: Sequence[Tuple[float, bool]]) -> float:
    """Highest rung passed before the first failing one (0 if none)."""
    best = 0.0
    for rate, ok in outcomes:
        if not ok:
            break
        best = rate
    return best


# -- spans -----------------------------------------------------------------

@dataclass
class Span:
    """One traced interval: a call into a layer from the benchmark."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory span recorder (name, start, end, parent).

    Spans stay in memory until the run ends.  A disabled recorder times
    nothing and records nothing, so the untraced run executes the same
    calls without its bookkeeping.
    """

    enabled: bool = True
    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval measured elsewhere, under the open span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, start, end, parent, len(self.spans)))

    def children(self, index: Optional[int]) -> List[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, span: Span) -> float:
        return self_time(span, self.children(span.index))

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.index: Optional[int] = None

    def __enter__(self) -> "_SpanContext":
        rec = self.recorder
        if rec.enabled:
            parent = rec._stack[-1] if rec._stack else None
            self.index = len(rec.spans)
            now = time.perf_counter()
            rec.spans.append(Span(self.name, now, now, parent, self.index))
            rec._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        rec = self.recorder
        if self.index is not None:
            rec.spans[self.index].end = time.perf_counter()
            rec._stack.pop()


def self_time(span: Span, children: Iterable[Span]) -> float:
    """*span*'s duration minus the part of it its children cover.

    Children may overlap each other; the covered part is the length of
    the union of their intervals, clipped to the parent's interval.
    """
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


# -- host fingerprint and input digests ------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> Dict[str, object]:
    """What a result depends on besides the code: CPU, Python, libraries."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "orjson": importlib.util.find_spec("orjson") is not None,
        "scipy": importlib.util.find_spec("scipy") is not None,
    }


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tree_digest(paths: Iterable[Path]) -> str:
    """Digest of every ``.py`` file under *paths* (names and bytes)."""
    digest = hashlib.sha256()
    for root in paths:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            digest.update(str(path.name).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


# -- comparing two sets of results ----------------------------------------

def compare_metric(
    old: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """Verdict for one metric: ``pass``, ``fail`` or ``unresolved``.

    The change is worse by ``shift`` (a share of the old median, signed
    so that positive is worse).  It fails when ``shift`` exceeds
    *bound*; when the old runs' own quartile spread is wider than the
    bound the verdict is ``unresolved`` unless every new run beats
    every old one.
    """
    old_med = statistics.median(old)
    new_med = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    shift = sign * (new_med - old_med) / old_med if old_med else 0.0
    if len(old) >= 4:
        q1, _, q3 = statistics.quantiles(old, n=4)
        spread = (q3 - q1) / old_med if old_med else 0.0
    else:
        spread = 0.0
    if spread > bound:
        beats = (max(new) < min(old)) if better == "lower" else (
            min(new) > max(old)
        )
        return ("pass" if beats else "unresolved"), shift
    return ("fail" if shift > bound else "pass"), shift


def failed_ratio(records: Sequence[Dict[str, object]]) -> float:
    """Failed operations over attempted ones, across *records*."""
    attempted = sum(int(r["attempted"]) for r in records)
    return sum(int(r["failed"]) for r in records) / max(1, attempted)


def comparable(old: Dict[str, object], new: Dict[str, object]) -> Optional[str]:
    """Why two run records may not be compared, or ``None`` if they may."""
    if old.get("host") != new.get("host"):
        return "host changed"
    if old.get("workload") != new.get("workload"):
        return "different workloads"
    old_in, new_in = old.get("inputs", {}), new.get("inputs", {})
    if (
        old_in.get("generator") == new_in.get("generator")
        and old_in.get("digest") != new_in.get("digest")
    ):
        return "input digests differ"
    return None
