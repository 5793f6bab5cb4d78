"""Unit tests for the JSONL run ledger, its validator and the heartbeat."""

import io
import json

import pytest

from repro.observability import (
    Heartbeat,
    RunLedger,
    host_block,
    peak_rss_mb,
    provenance_block,
    read_ledger,
    spec_content_hash,
    validate_run_ledger,
)
from repro.observability.events import LEDGER_FORMAT_VERSION
from repro.scenarios.registry import get_scenario


@pytest.fixture(scope="module")
def spec():
    return get_scenario("loh3")


def _cycle(index, updates_per_cycle=100):
    return {
        "cycle": index,
        "t": 0.05 * index,
        "wall_s": 0.1 * index,
        "cycle_wall_s": 0.1,
        "element_updates": updates_per_cycle * index,
        "updates_per_s": updates_per_cycle / 0.1,
        "peak_rss_mb": 80.0,
    }


def _write_segment(ledger, spec, cycles, resumed_at=0, final=False):
    ledger.header(
        spec, total_cycles=resumed_at + cycles, macro_dt=0.05,
        resumed_at_cycle=resumed_at,
    )
    for index in range(resumed_at + 1, resumed_at + cycles + 1):
        ledger.cycle(_cycle(index))
    if final:
        ledger.final(
            {
                "cycles": resumed_at + cycles,
                "t": 0.05 * (resumed_at + cycles),
                "wall_s": 0.1 * (resumed_at + cycles),
                "element_updates": 100 * (resumed_at + cycles),
            }
        )


class TestProvenance:
    def test_spec_hash_is_content_addressed(self, spec):
        digest = spec_content_hash(spec)
        assert len(digest) == 64
        # a JSON round-trip preserves content, so the hash is stable
        from repro.scenarios.spec import ScenarioSpec

        assert spec_content_hash(ScenarioSpec.from_json(spec.to_json())) == digest
        # any content change moves it
        assert spec_content_hash(spec.with_overrides(order=spec.order + 1)) != digest

    def test_provenance_block_shape(self, spec):
        block = provenance_block(spec)
        assert block["repro_version"]
        assert block["spec_sha256"] == spec_content_hash(spec)
        assert "git_sha" in block  # None outside a git checkout is fine

    def test_host_block_names_the_platform(self):
        block = host_block()
        assert block["cpu_count"] >= 1
        assert block["python"] and block["numpy"] and block["platform"]

    def test_peak_rss_is_positive(self):
        assert peak_rss_mb() > 0.0


class TestLedgerRoundTrip:
    def test_complete_ledger_validates(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            _write_segment(ledger, spec, cycles=3, final=True)
        records = read_ledger(path)
        info = validate_run_ledger(records, expect_complete=True)
        assert info == {
            "segments": 1,
            "cycles": 3,
            "complete": True,
            "last_cycle": records[-2],
        }
        header = records[0]
        assert header["format_version"] == LEDGER_FORMAT_VERSION
        assert header["provenance"]["spec_sha256"] == spec_content_hash(spec)
        assert header["run"]["scenario"] == spec.name

    def test_every_record_is_flushed(self, spec, tmp_path):
        # crash durability: records must be on disk *before* close
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path)
        _write_segment(ledger, spec, cycles=2)
        assert len(read_ledger(path)) == 3
        ledger.close()

    def test_resumed_segment_appends_with_new_header(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            _write_segment(ledger, spec, cycles=2)
        with RunLedger(path) as ledger:  # the resumed runner re-opens append
            _write_segment(ledger, spec, cycles=2, resumed_at=2, final=True)
        info = validate_run_ledger(read_ledger(path), expect_complete=True)
        assert info["segments"] == 2
        assert info["cycles"] == 4
        assert info["last_cycle"]["cycle"] == 4

    def test_torn_tail_is_tolerated(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            _write_segment(ledger, spec, cycles=3)
        # a SIGKILL mid-write leaves a truncated final line
        text = path.read_text()
        path.write_text(text[: len(text) - 17])
        records = read_ledger(path)
        info = validate_run_ledger(records)
        assert info["cycles"] == 2 and not info["complete"]

    def test_resumed_segment_after_torn_tail_is_visible(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            _write_segment(ledger, spec, cycles=3)
        text = path.read_text()
        path.write_text(text[: len(text) - 17])  # cycle 3, torn mid-write
        with RunLedger(path) as ledger:  # the resumed runner re-opens append
            _write_segment(ledger, spec, cycles=2, resumed_at=2, final=True)
        records = read_ledger(path)
        info = validate_run_ledger(records, expect_complete=True)
        assert info["segments"] == 2
        assert info["cycles"] == 4
        assert info["last_cycle"]["cycle"] == 4
        assert [r["kind"] for r in records].count("header") == 2

    def test_mid_file_corruption_raises(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            _write_segment(ledger, spec, cycles=3)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # not the tail: real corruption
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt line 2"):
            read_ledger(path)


class TestValidator:
    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_run_ledger([])

    def test_must_start_with_header(self):
        with pytest.raises(ValueError, match="header"):
            validate_run_ledger([{"kind": "cycle", **_cycle(1)}])

    def test_incomplete_rejected_when_completion_expected(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            _write_segment(ledger, spec, cycles=2)
        with pytest.raises(ValueError, match="final"):
            validate_run_ledger(read_ledger(path), expect_complete=True)

    def test_non_monotone_cycle_index_rejected(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.header(spec, total_cycles=2, macro_dt=0.05)
            ledger.cycle(_cycle(2))
            ledger.cycle(_cycle(1))
        with pytest.raises(ValueError, match="did not advance"):
            validate_run_ledger(read_ledger(path))

    def test_non_finite_field_rejected(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.header(spec, total_cycles=1, macro_dt=0.05)
            bad = _cycle(1)
            bad["wall_s"] = None
            ledger.cycle(bad)
        with pytest.raises(ValueError, match="wall_s"):
            validate_run_ledger(read_ledger(path))

    def test_decreasing_update_count_rejected(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.header(spec, total_cycles=2, macro_dt=0.05)
            ledger.cycle(_cycle(1))
            shrunk = _cycle(2)
            shrunk["element_updates"] = 1
            ledger.cycle(shrunk)
        with pytest.raises(ValueError, match="decreased"):
            validate_run_ledger(read_ledger(path))

    def test_unknown_kind_rejected(self, spec, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.header(spec, total_cycles=1, macro_dt=0.05)
            ledger.write({"kind": "mystery"})
        with pytest.raises(ValueError, match="mystery"):
            validate_run_ledger(read_ledger(path))


class TestHeartbeat:
    def test_emits_progress_lines_with_eta(self):
        stream = io.StringIO()
        beat = Heartbeat("loh3", total_cycles=3, stream=stream, min_interval_s=0.0)
        for index in range(1, 4):
            beat.emit(_cycle(index))
        beat.close()
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert "cycle 1/3" in lines[0] and "ETA" in lines[0]
        assert "cycle 3/3" in lines[-1]

    def test_throttles_but_always_emits_final_cycle(self):
        stream = io.StringIO()
        beat = Heartbeat("loh3", total_cycles=50, stream=stream, min_interval_s=3600)
        for index in range(1, 51):
            beat.emit(_cycle(index))
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2  # the first emission plus the forced final one
        assert "cycle 50/50" in lines[-1]


class TestRunnerIntegration:
    def test_run_writes_ledger_and_stamps_summary(self, tmp_path):
        from repro.scenarios.runner import make_runner

        path = tmp_path / "run.jsonl"
        spec = get_scenario(
            "loh3",
            extent_m=4000.0,
            characteristic_length=2000.0,
            order=2,
            n_mechanisms=1,
            n_clusters=2,
            lam=1.0,
            n_cycles=2,
        ).with_overrides(events=str(path))
        assert spec.output.telemetry  # events implies telemetry
        summary = make_runner(spec).run()
        assert summary["provenance"]["spec_sha256"] == spec_content_hash(spec)
        assert summary["events"] == str(path)
        records = read_ledger(path)
        info = validate_run_ledger(records, expect_complete=True)
        assert info["cycles"] == 2
        assert info["last_cycle"]["element_updates"] == summary["element_updates"]
        assert json.loads(path.read_text().splitlines()[0])["run"]["total_cycles"] == 2
