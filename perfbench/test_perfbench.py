"""Unit tests of the benchmark's own arithmetic, on synthetic inputs."""

import statistics

import pytest

import pbcore


def test_percentile_interpolates():
    assert pbcore.percentile([1, 2, 3, 4], 50) == 2.5
    assert pbcore.percentile([5], 99) == 5
    assert pbcore.percentile(list(range(101)), 90) == 90


def test_tail_needs_ten_samples_beyond():
    assert pbcore.tail_label(19) is None
    assert pbcore.tail_label(100) == 90.0  # 10 beyond p90
    assert pbcore.tail_label(199) == 90.0  # p95 would leave 9.95
    assert pbcore.tail_label(200) == 95.0
    assert pbcore.tail_label(1000) == 99.0
    assert pbcore.tail_label(10000) == 99.9
    assert pbcore.tail_label(10000, cap=99.0) == 99.0


def test_summarize_reports_count_and_supported_tail():
    values = list(range(1, 1001))
    out = pbcore.summarize(values)
    assert out["n"] == 1000
    assert out["p50"] == statistics.median(values)
    assert out["tail_q"] == 99.0
    assert out["tail"] == pytest.approx(990.01)
    assert "tail_q" not in pbcore.summarize([1.0] * 5)
    assert pbcore.summarize([]) == {"n": 0}


def test_bin_close_trigger_with_lateness_one():
    hour = 3600
    # Two lines per hour for four hours.
    stamps = [0, 10, 3600, 3700, 7200, 7300, 10800, 10900]
    # Bin 0 closes on the first line of hour 2, bin 1 on hour 3's.
    assert pbcore.closing_lines(stamps, hour, 1) == {0: 4, 3600: 6}
    # Without lateness a bin closes on the next hour's first line.
    assert pbcore.closing_lines(stamps, hour, 0) == {0: 2, 3600: 4, 7200: 6}


def test_bin_close_trigger_across_a_gap():
    # A jump of several hours closes every bin it passes at once.
    stamps = [0, 3600, 5 * 3600]
    assert pbcore.closing_lines(stamps, 3600, 1) == {
        0: 2, 3600: 2, 7200: 2, 10800: 2,
    }
    assert pbcore.closing_lines([], 3600, 1) == {}


def test_latency_is_timed_from_due_not_sent():
    request = pbcore.Request(due=10.0, free=10.5, sent=10.5, done=10.7)
    assert request.latency == pytest.approx(0.7)
    assert request.queue_wait == pytest.approx(0.5)
    assert request.send_lateness == pytest.approx(0.0)
    early = pbcore.Request(due=10.0, free=9.0, sent=10.002, done=10.01)
    assert early.queue_wait == 0.0
    assert early.send_lateness == pytest.approx(0.002)
    # Bin 0 is closed by a backlog line (no due time), bin 3600 by line 6
    # (due 2.0), bin 7200 by line 8 (due 3.0) but never emitted.
    closing = {0: 4, 3600: 6, 7200: 8}
    dues = {6: 2.0, 7: 2.5, 8: 3.0}
    emitted = {0: 0.5, 3600: 2.75}
    assert pbcore.bin_latencies(closing, dues, emitted) == {3600: 0.75}


def _rung(latencies, waits, ok=True):
    return [
        pbcore.Request(due=i, free=i + w, sent=i + w, done=i + w + lat, ok=ok)
        for i, (lat, w) in enumerate(zip(latencies, waits))
    ]


def test_rung_passes_when_fast_and_not_queueing():
    ok, info = pbcore.rung_passes(_rung([0.002] * 300, [0.0] * 300), 100, 10)
    assert ok and info["failed"] == 0 and info["end_queue_ms"] == 0


def test_rung_fails_on_tail_latency():
    lat = [0.002] * 280 + [0.5] * 20  # beyond p95, the tail 300 supports
    ok, _ = pbcore.rung_passes(_rung(lat, [0.0] * 300), 100, 10)
    assert not ok


def test_rung_fails_on_growing_backlog():
    waits = [i * 0.0001 for i in range(300)]  # queue grows 0.1 ms per request
    lat = [w + 0.002 for w in waits]
    ok, info = pbcore.rung_passes(_rung(lat, waits), 1000, 10)
    assert not ok and info["end_queue_ms"] > 10
    # The same latencies without the standing queue pass.
    assert pbcore.rung_passes(_rung(lat, [0.0] * 300), 1000, 10)[0]


def test_rung_fails_on_any_failed_request():
    requests = _rung([0.002] * 300, [0.0] * 300)
    requests[5].ok = False
    assert not pbcore.rung_passes(requests, 100, 10)[0]


def test_sustained_rate_stops_at_first_failure():
    assert pbcore.sustained_rate([(100, True), (200, True), (400, False)]) == 200
    assert pbcore.sustained_rate([(100, False), (200, True)]) == 0
    assert pbcore.sustained_rate([(100, True), (200, True)]) == 200


def test_self_time_subtracts_union_of_children():
    parent = pbcore.Span("p", 0.0, 10.0, None, 0)
    kids = [
        pbcore.Span("a", 1.0, 3.0, 0, 1),
        pbcore.Span("b", 2.0, 4.0, 0, 2),  # overlaps a: union 1..4
        pbcore.Span("c", 9.0, 12.0, 0, 3),  # clipped to 9..10
    ]
    assert pbcore.self_time(parent, kids) == pytest.approx(10 - 3 - 1)
    assert pbcore.self_time(parent, []) == 10


def test_recorder_nests_and_disables():
    rec = pbcore.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        rec.add("measured", 0.0, 0.0)
    outer, inner, measured = rec.spans
    assert inner.parent == outer.index and measured.parent == outer.index
    assert rec.self_time(outer) <= outer.duration
    off = pbcore.Recorder(enabled=False)
    with off.span("x"):
        off.add("y", 0.0, 1.0)
    assert off.spans == []


def test_compare_metric_rules():
    old = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert pbcore.compare_metric(old, [104.0] * 5, "lower", 0.1)[0] == "pass"
    assert pbcore.compare_metric(old, [120.0] * 5, "lower", 0.1)[0] == "fail"
    assert pbcore.compare_metric(old, [80.0] * 5, "higher", 0.1)[0] == "fail"
    noisy = [50.0, 100.0, 150.0, 200.0]
    assert pbcore.compare_metric(noisy, [130.0] * 4, "lower", 0.1)[0] == (
        "unresolved"
    )
    assert pbcore.compare_metric(noisy, [40.0] * 4, "lower", 0.1)[0] == "pass"


def test_comparable_refuses_host_and_input_changes():
    base = {"workload": "batch", "host": {"nproc": 2},
            "inputs": {"generator": ["--seed", "1"], "digest": "a"}}
    assert pbcore.comparable(base, dict(base)) is None
    assert pbcore.comparable(base, {**base, "host": {"nproc": 4}}) == (
        "host changed"
    )
    same_args = {"generator": ["--seed", "1"], "digest": "b"}
    assert pbcore.comparable(base, {**base, "inputs": same_args}) == (
        "input digests differ"
    )
    other_seed = {"generator": ["--seed", "2"], "digest": "b"}
    assert pbcore.comparable(base, {**base, "inputs": other_seed}) is None


def test_failed_ratio_pools_runs():
    runs = [{"attempted": 100, "failed": 0}, {"attempted": 300, "failed": 2}]
    assert pbcore.failed_ratio(runs) == pytest.approx(2 / 400)
    assert pbcore.failed_ratio([]) == 0.0


def test_compare_fails_a_workload_with_more_failures(tmp_path, capsys):
    import json

    import compare

    def record(failed, latency):
        return {"workload": "query", "trace": 0, "valid": True,
                "host": {"nproc": 2}, "inputs": {"generator": [], "digest": "a"},
                "attempted": 1000, "failed": failed,
                "metrics": {"setup_s": 1.0, "latency_p50_ms": latency,
                            "peak_rss_mb": 100.0}}

    for side, failed, latency in (("old", 0, 2.0), ("new", 5, 1.0)):
        (tmp_path / side).mkdir()
        for i in range(4):
            (tmp_path / side / f"{i}.json").write_text(
                json.dumps(record(failed, latency))
            )
    # Faster, but five answers in a thousand are wrong: a failure.
    assert compare.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert "failed_ratio" in capsys.readouterr().out
    # Fewer failures than before is no failure in itself.
    compare.main([str(tmp_path / "new"), str(tmp_path / "old")])
    assert "failed_ratio" not in capsys.readouterr().out
    assert compare.main([str(tmp_path / "old"), str(tmp_path / "old")]) == 0
