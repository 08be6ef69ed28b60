"""The observability layer: metrics math, span structure, determinism,
no-op overhead, forensics rendering, and the trace CLI."""

import gc
import json
import time

import pytest

from repro import obs
from repro.attacks.kaslr_break import break_kaslr
from repro.attacks.supervisor import supervise
from repro.cli import main
from repro.cpu.clock import SimClock
from repro.errors import TraceError
from repro.machine import Machine
from repro.obs import (
    CYCLE_BUCKETS,
    Histogram,
    Metrics,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    canonical_bytes,
    serialize,
    strip_wall_fields,
    validate_trace,
)


# -- metrics -------------------------------------------------------------------


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper(self):
        hist = Histogram("h", buckets=(10, 20))
        for value, bucket in ((3, 0), (10, 0), (11, 1), (20, 1), (21, 2)):
            assert hist.bucket_index(value) == bucket, value

    def test_counts_totals_min_max_mean(self):
        hist = Histogram("h", buckets=(10, 20))
        for value in (5, 10, 15, 100):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.total == 130
        assert (hist.min, hist.max) == (5, 100)
        assert hist.mean == pytest.approx(32.5)

    def test_as_dict_has_overflow_bucket(self):
        hist = Histogram("h", buckets=(1,))
        hist.observe(2)
        data = hist.as_dict()
        assert data["buckets"] == [1]
        assert data["counts"] == [0, 1]

    def test_increasing_bounds_accepted(self):
        # regression: the validation must accept every strictly
        # increasing sequence (DEPTH_BUCKETS is consecutive integers)
        Histogram("h", buckets=(1, 2, 3, 4, 5))
        Histogram("h", buckets=CYCLE_BUCKETS)

    @pytest.mark.parametrize("bad", [(), (1, 1), (2, 1), (1, 3, 2)])
    def test_bad_bounds_rejected(self, bad):
        with pytest.raises(ValueError):
            Histogram("h", buckets=bad)

    def test_registry_rejects_bound_mismatch(self):
        metrics = Metrics()
        metrics.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            metrics.histogram("h", buckets=(1, 2, 3))

    def test_counters_and_sorted_serialization(self):
        metrics = Metrics()
        metrics.inc("z.second")
        metrics.inc("a.first", 3)
        metrics.inc("z.second", 2)
        metrics.observe("b.hist", 7, buckets=(10,))
        data = metrics.as_dict()
        assert list(data["counters"]) == ["a.first", "z.second"]
        assert data["counters"] == {"a.first": 3, "z.second": 3}
        assert data["histograms"]["b.hist"]["count"] == 1


# -- span structure ------------------------------------------------------------


def _manual_trace():
    """A small hand-built trace: two nested spans, one event each level."""
    clock = SimClock()
    tracer = Tracer(clock=clock, meta={"command": "test"})
    with tracer.span("outer", kind="demo"):
        clock.advance(10)
        tracer.event("tick", n=1)
        with tracer.span("inner") as inner:
            clock.advance(5)
            inner.set(found=True)
    tracer.event("tock", n=2)
    return tracer, clock


class TestTracer:
    def test_children_emitted_before_parents(self):
        tracer, __ = _manual_trace()
        records = tracer.finish(wall_ms=1.0)
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["start_cycles"] == 10 and inner["end_cycles"] == 15
        assert outer["start_cycles"] == 0 and outer["end_cycles"] == 15
        assert inner["attrs"] == {"found": True}

    def test_events_reference_enclosing_span(self):
        tracer, __ = _manual_trace()
        records = tracer.finish()
        events = [r for r in records if r["type"] == "event"]
        spans = {r["name"]: r["id"] for r in records if r["type"] == "span"}
        by_kind = {e["kind"]: e for e in events}
        assert by_kind["tick"]["span"] == spans["outer"]
        assert by_kind["tock"]["span"] is None

    def test_finish_output_validates(self):
        tracer, __ = _manual_trace()
        records = tracer.finish(wall_ms=2.5)
        stats = validate_trace(records)
        assert stats == {"spans": 2, "events": 2, "counters": 0,
                         "histograms": 0}
        footer = records[-1]
        assert footer["type"] == "trace-finish"
        assert footer["spans"] == 2 and footer["events"] == 2

    def test_out_of_order_close_raises(self):
        tracer = Tracer(clock=SimClock())
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(TraceError):
            tracer.close_span(outer)

    def test_finish_with_open_spans_raises(self):
        tracer = Tracer(clock=SimClock())
        tracer.span("open")
        with pytest.raises(TraceError):
            tracer.finish()

    def test_double_finish_raises(self):
        tracer, __ = _manual_trace()
        tracer.finish()
        with pytest.raises(TraceError):
            tracer.finish()

    def test_exception_marks_span(self):
        tracer = Tracer(clock=SimClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        span = tracer.finish()[1]
        assert span["attrs"]["error"] == "RuntimeError"

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("anything", deep=1) is NULL_SPAN
        with NULL_TRACER.span("nested") as span:
            assert span.set(x=1) is span
        assert NULL_TRACER.event("kind", kind="shadowed") is None
        assert NULL_TRACER.finish() == []

    def test_disabled_tracer_behaves_like_null(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is NULL_SPAN
        assert tracer.event("y") is None


# -- determinism ---------------------------------------------------------------


def _traced_supervised_kaslr(seed):
    machine = Machine.linux(seed=seed, chaos="default", kpti=False)
    tracer = Tracer().attach(machine)
    verdict = supervise(machine, "kaslr")
    return tracer.finish(wall_ms=time.perf_counter()), verdict


class TestDeterminism:
    def test_same_seed_same_bytes_modulo_wall(self):
        first, v1 = _traced_supervised_kaslr(seed=3)
        second, v2 = _traced_supervised_kaslr(seed=3)
        assert v1.value == v2.value
        # raw bytes differ (wall_ms captured real time)...
        assert serialize(first) != serialize(second) or (
            first[-1]["wall_ms"] == second[-1]["wall_ms"])
        # ...canonical bytes do not
        assert canonical_bytes(first) == canonical_bytes(second)

    def test_supervised_trace_names_chaos_and_reanchors(self):
        records, verdict = _traced_supervised_kaslr(seed=3)
        assert verdict.status == "found"
        kinds = {r["kind"] for r in records if r["type"] == "event"}
        assert "chaos" in kinds
        assert "threshold-reanchor" in kinds
        assert "verdict" in kinds
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"supervised-attack", "attempt", "calibrate", "scan",
                "chunk", "probe-sweep"} <= names
        chaos_events = [r for r in records if r["type"] == "event"
                        and r["kind"] == "chaos"]
        assert all(r["attrs"]["kind"] for r in chaos_events)

    def test_plain_attack_trace_has_sweeps_and_metrics(self):
        machine = Machine.linux(seed=3)
        tracer = Tracer().attach(machine)
        result = break_kaslr(machine)
        assert result.base == machine.kernel.base
        records = tracer.finish()
        sweeps = [r for r in records if r["type"] == "span"
                  and r["name"] == "probe-sweep"]
        assert sweeps
        metrics = [r for r in records if r["type"] == "metrics"][0]
        assert metrics["counters"]["engine.sweeps"] >= 1
        assert metrics["counters"]["engine.probes"] > 0
        assert metrics["counters"]["walker.walks"] > 0
        assert any(name.startswith("engine.probe_cycles.")
                   for name in metrics["histograms"])
        assert "walker.depth" in metrics["histograms"]
        assert any(name.startswith("tlb.") for name in metrics["counters"])

    def test_strip_wall_fields_defines_the_modulo(self):
        tracer, __ = _manual_trace()
        tracer.metrics.observe("x.fsync_wall_us", 123.0, buckets=(10,))
        tracer.metrics.inc("x.kept")
        records = tracer.finish(wall_ms=99.0)
        stripped = strip_wall_fields(records)
        assert "wall_ms" not in stripped[-1]
        metrics = [r for r in stripped if r["type"] == "metrics"][0]
        assert "x.fsync_wall_us" not in metrics["histograms"]
        assert metrics["counters"]["x.kept"] == 1
        # the original is untouched (deep copy)
        assert records[-1]["wall_ms"] == 99.0


# -- no-op overhead ------------------------------------------------------------


class TestOverhead:
    def test_untraced_sweep_overhead_under_three_percent(self):
        from repro.os.linux import layout

        vas = [layout.kernel_base_of_slot(slot)
               for slot in range(layout.KERNEL_TEXT_SLOTS)]

        # one sweep takes ~1-2 ms, too short to time against a 3 % bound;
        # each timed sample runs enough of them to last >= ~20 ms, with
        # the cyclic collector off (as timeit does), or a collection of
        # the previous samples' machines lands in some samples only
        repeats = 24

        def sweep(attach_disabled):
            machine = Machine.linux(seed=4)
            if attach_disabled:
                Tracer(enabled=False).attach(machine)
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                for __ in range(repeats):
                    machine.core.probe_sweep(vas, rounds=8, op="load")
                return time.perf_counter() - start
            finally:
                gc.enable()

        # min-of-k, interleaved, with retries: wall-clock noise on a
        # loaded CI box must not fail a real <3% property
        for attempt in range(3):
            samples = [(sweep(False), sweep(True)) for __ in range(5)]
            null_best = min(null for null, __ in samples)
            guarded_best = min(guarded for __, guarded in samples)
            if guarded_best / null_best < 1.03:
                return
        pytest.fail("guarded sweep {:.4f}s vs untraced {:.4f}s".format(
            guarded_best, null_best))


# -- forensics + CLI -----------------------------------------------------------


@pytest.fixture
def kaslr_trace(tmp_path):
    path = tmp_path / "kaslr.jsonl"
    code = main(["kaslr", "--seed", "3", "--chaos-profile", "default",
                 "--trace", str(path)])
    assert code == 0
    return path


class TestTraceCLI:
    def test_attack_writes_valid_trace(self, kaslr_trace, capsys):
        assert main(["trace", "validate", str(kaslr_trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK: ")
        assert "spans" in out and "histograms" in out

    def test_summarize_digest(self, kaslr_trace, capsys):
        assert main(["trace", "summarize", str(kaslr_trace)]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "chaos" in out
        assert "reanchors" in out

    def test_report_names_chaos_and_reanchors(self, kaslr_trace, capsys,
                                              tmp_path):
        assert main(["trace", "report", str(kaslr_trace)]) == 0
        report = capsys.readouterr().out
        assert "# Attack forensics" in report
        assert "Chaos-event timeline" in report
        assert "Threshold re-anchoring" in report
        assert "probe-sweep" in report
        out = tmp_path / "report.md"
        assert main(["trace", "report", str(kaslr_trace),
                     "--out", str(out)]) == 0
        assert "Chaos-event timeline" in out.read_text()

    def test_validate_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type":"span","id":0}\nnot json\n')
        assert main(["trace", "validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "TraceError"

    def test_validate_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(
            {"type": "trace-start", "schema": "other/v9", "meta": {}}
        ) + "\n")
        assert main(["trace", "validate", str(bad)]) == 2

    def test_golden_summary_of_synthetic_trace(self, tmp_path, capsys):
        tracer, clock = _manual_trace()
        path = tmp_path / "tiny.jsonl"
        tracer.path = str(path)
        tracer.finish(wall_ms=1.0)
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans     : inner x1, outer x1" in out
        assert "events    : tick x1, tock x1" in out
        assert "trace     : test" in out


# -- campaign traces -----------------------------------------------------------


class TestCampaignTrace:
    def test_campaign_run_records_trace(self, tmp_path, capsys):
        from repro.campaign import ShardedCampaignRunner

        directory = tmp_path / "scenarios"
        directory.mkdir()
        (directory / "tiny.json").write_text(json.dumps({
            "name": "tiny",
            "machine": {"os": "linux", "seed": 21, "chaos": "default"},
            "attack": {"kind": "kaslr", "trials": 2},
            "expect": {},
        }))
        trace_path = tmp_path / "campaign-trace.jsonl"
        runner = ShardedCampaignRunner(
            tmp_path / "campaign.jsonl", directory=directory, shards=1,
            trace_path=str(trace_path),
        )
        report = runner.run()
        assert report.ok
        records = obs.load_trace(trace_path)
        assert validate_trace(records)["spans"] == 1
        campaign_span = [r for r in records if r["type"] == "span"][0]
        assert campaign_span["name"] == "campaign"
        # no simulated clock behind the campaign tracer
        assert campaign_span["start_cycles"] is None
        kinds = [r["kind"] for r in records if r["type"] == "event"]
        assert kinds.count("unit-start") >= 1
        assert kinds.count("unit-finish") == 1
        metrics = [r for r in records if r["type"] == "metrics"][0]
        assert metrics["counters"]["campaign.journal_appends"] >= 3
        fsync = metrics["histograms"]["campaign.shard0.journal_fsync_wall_us"]
        assert fsync["count"] == metrics["counters"][
            "campaign.journal_appends"]
        # the wall-named fsync histogram is exactly what determinism
        # comparisons strip
        stripped = strip_wall_fields(records)
        smetrics = [r for r in stripped if r["type"] == "metrics"][0]
        assert "campaign.shard0.journal_fsync_wall_us" \
            not in smetrics["histograms"]
