"""The autotuning sweep engine: space, journal, driver, reports.

The acceptance bar is the resume property: a sweep interrupted at any
instant — drained, killed, or limping through injected journal/worker
faults — must resume from its journal, serve completed points without
recomputing them, and produce a final best-config report bit-identical
to an uninterrupted run's.
"""

import json
import warnings

import pytest

from repro import counters, faults
from repro.retry import BackoffSchedule, retryable
from repro.tuning import (
    JournalMismatch,
    SweepDriver,
    SweepJournal,
    SweepSpace,
    build_report,
    render_report,
    smoke_space,
    tuning_counters,
)
from repro.tuning.driver import TUNING_DEADLINE_ENV, tuning_deadline_s
from repro.tuning.space import all_permutations, group_floors

SMALL = smoke_space(shapes=((8, 8, 8),), versions=(1, 2))


@pytest.fixture(autouse=True)
def _clean_tuning_env(monkeypatch):
    """Sweep tests own their fault spec and counters."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv(TUNING_DEADLINE_ENV, raising=False)
    faults.reset_faults()
    counters.reset("tuning")
    yield
    faults.reset_faults()
    counters.reset("tuning")


def _driver(space, tmp_path, name="j", **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("deadline_s", 60.0)
    kwargs.setdefault("sleep", lambda seconds: None)
    return SweepDriver(space, journal_path=tmp_path / f"{name}.jsonl",
                       report_path=tmp_path / f"{name}.json", **kwargs)


class TestSpace:
    def test_digest_is_canonical_and_spec_sensitive(self):
        points = SMALL.points()
        assert len(points) == len({p.digest for p in points})
        a, b = points[0], points[1]
        assert a.digest != b.digest
        # Digest depends only on the spec, not on identity or order.
        clone = type(a)(**{**a.__dict__})
        assert clone.digest == a.digest

    def test_enumeration_is_feasible(self):
        from repro.accelerators.catalog import VERSION_FLOWS
        from repro.heuristics.flexible import _fits

        space = smoke_space(shapes=((16, 16, 8),))
        for point in space.points():
            assert point.m % point.size == 0
            assert point.flow in VERSION_FLOWS[point.version]
            if point.version == 4:
                capacity = 16 * point.size * point.size
                assert _fits(*point.tiles, capacity)
            else:
                assert point.tiles == (point.size,) * 3

    def test_space_digest_pins_the_point_set(self):
        assert SMALL.digest() == SMALL.digest()
        other = smoke_space(shapes=((8, 8, 8),), versions=(1, 3))
        assert SMALL.digest() != other.digest()

    def test_permutations_fan_out_only_on_ns_flow(self):
        space = SweepSpace(shapes=((8, 8, 8),), versions=(2,),
                           permutations=all_permutations())
        permuted = [p for p in space.points() if p.permutation]
        assert permuted and all(p.flow == "Ns" for p in permuted)

    def test_group_floors_take_the_minimum(self):
        points = SMALL.points()
        floors = group_floors(points)
        for point in points:
            assert floors[point.group] <= point.modeled_bytes()


class TestJournal:
    def _journal(self, tmp_path):
        return SweepJournal(tmp_path / "sweep.jsonl")

    def test_round_trip(self, tmp_path):
        journal = self._journal(tmp_path)
        assert journal.append_meta("space0")
        assert journal.append_attempt("p1", 1)
        assert journal.append_result("p1", {"status": "ok", "metric": 1.5})
        journal.close()
        replay = self._journal(tmp_path).replay(expect_space="space0")
        assert replay.meta["space"] == "space0"
        assert replay.results == {"p1": {"status": "ok", "metric": 1.5}}
        assert replay.attempts == {"p1": 1}
        assert not replay.inflight()
        assert (replay.torn_tail, replay.corrupt, replay.duplicates) \
            == (0, 0, 0)

    def test_truncated_final_record_is_dropped(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok"})
        journal.close()
        path = tmp_path / "sweep.jsonl"
        raw = path.read_bytes()
        # Simulate dying mid-append: half a record, no newline.
        path.write_bytes(raw + b'{"t":"result","digest":"p2","rec')
        replay = self._journal(tmp_path).replay()
        assert replay.torn_tail == 1
        assert set(replay.results) == {"p1"}

    def test_flipped_bit_fails_the_checksum(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok", "metric": 2.0})
        journal.append_result("p2", {"status": "ok", "metric": 3.0})
        journal.close()
        path = tmp_path / "sweep.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"metric":2.0', b'"metric":2.5')
        path.write_bytes(b"".join(lines))
        replay = self._journal(tmp_path).replay()
        assert replay.corrupt == 1
        # The tampered record is gone; its neighbours survive.
        assert set(replay.results) == {"p2"}

    def test_duplicate_results_keep_the_first(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok", "metric": 1.0})
        journal.append_result("p1", {"status": "ok", "metric": 9.0})
        journal.close()
        replay = self._journal(tmp_path).replay()
        assert replay.duplicates == 1
        assert replay.results["p1"]["metric"] == 1.0

    def test_space_mismatch_refuses_to_resume(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.close()
        with pytest.raises(JournalMismatch):
            self._journal(tmp_path).replay(expect_space="other")

    def test_injected_io_fault_loses_one_append(self, tmp_path,
                                                monkeypatch):
        journal = self._journal(tmp_path)
        assert journal.append_meta("space0")
        monkeypatch.setenv("REPRO_FAULTS", "tuning.journal:io")
        faults.reset_faults()
        assert not journal.append_result("p1", {"status": "ok"})
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_faults()
        # The journal recovers: the next append lands.
        assert journal.append_result("p2", {"status": "ok"})
        journal.close()
        replay = self._journal(tmp_path).replay()
        assert set(replay.results) == {"p2"}
        assert tuning_counters()["tuning_journal_io_errors"] == 1

    def test_compaction_under_a_concurrent_reader(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        for index in range(4):
            journal.append_attempt(f"p{index}", 1)
            journal.append_result(f"p{index}", {"status": "ok",
                                                "metric": float(index)})
        journal.close()
        path = tmp_path / "sweep.jsonl"
        old = path.read_bytes()
        results = self._journal(tmp_path).replay().results
        with open(path, "rb") as reader:
            assert journal.compact("space0", results)
            # A reader holding the pre-compaction descriptor still
            # sees the complete old journal (os.replace, not truncate).
            assert reader.read() == old
        replay = self._journal(tmp_path).replay(expect_space="space0")
        assert replay.results == results
        assert not replay.attempts  # attempt records compacted away
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_compaction_io_failure_keeps_the_old_journal(self, tmp_path,
                                                         monkeypatch):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok"})
        journal.close()
        path = tmp_path / "sweep.jsonl"
        old = path.read_bytes()
        monkeypatch.setenv("REPRO_FAULTS", "tuning.journal:io")
        faults.reset_faults()
        assert not journal.compact("space0", {"p1": {"status": "ok"}})
        assert path.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp-*"))


class TestDriver:
    def test_clean_sweep_completes_and_reports(self, tmp_path):
        driver = _driver(SMALL, tmp_path)
        result = driver.run()
        assert result["complete"]
        report = result["report"]
        assert report["totals"]["completed"] == len(SMALL.points())
        assert report["totals"]["poisoned"] == 0
        group = report["groups"]["matmul-8x8x8"]
        assert group["best"]["metric"] == \
            min(r["metric"] for r in group["ranked"])
        # The report file is the canonical rendering, atomically placed.
        assert (tmp_path / "j.json").read_text() == render_report(report)
        assert not list(tmp_path.glob("*.tmp-*"))
        counters = tuning_counters()
        assert counters["tuning_points_completed"] == len(SMALL.points())
        assert counters["tuning_journal_compactions"] == 1

    def test_diagnostics_expose_tuning_counters(self, tmp_path):
        from repro.execution import diagnostics

        _driver(SMALL, tmp_path).run()
        section = diagnostics()["tuning"]
        assert section["tuning_points_completed"] == len(SMALL.points())

    def test_resume_serves_completed_points_from_the_journal(
            self, tmp_path, monkeypatch):
        # Interrupt a sweep after two points via the drain hook.
        driver = _driver(SMALL, tmp_path, name="resumed")
        from repro.tuning import driver as driver_module

        real_evaluate = driver_module.evaluate_point
        resolved = []

        def interrupting(spec, prune_bytes=None, deadline=None):
            outcome = real_evaluate(spec, prune_bytes, deadline)
            resolved.append(spec)
            if len(resolved) == 2:
                driver.request_stop()
            return outcome

        monkeypatch.setattr(driver_module, "evaluate_point", interrupting)
        partial = driver.run()
        assert not partial["complete"]
        assert partial["resolved"] == 2
        assert not (tmp_path / "resumed.json").exists()

        # Resume: completed points must not be recomputed.
        recomputed = []

        def counting(spec, prune_bytes=None, deadline=None):
            recomputed.append(spec)
            return real_evaluate(spec, prune_bytes, deadline)

        monkeypatch.setattr(driver_module, "evaluate_point", counting)
        counters.reset("tuning")
        resumed = _driver(SMALL, tmp_path, name="resumed").run()
        assert resumed["complete"]
        assert len(recomputed) == len(SMALL.points()) - 2
        assert tuning_counters()["tuning_points_resumed"] == 2

        # And the final report is bit-identical to an uninterrupted run.
        monkeypatch.setattr(driver_module, "evaluate_point", real_evaluate)
        clean = _driver(SMALL, tmp_path, name="clean").run()
        assert clean["complete"]
        assert (tmp_path / "resumed.json").read_bytes() \
            == (tmp_path / "clean.json").read_bytes()

    def test_wrong_space_journal_is_rejected(self, tmp_path):
        _driver(SMALL, tmp_path, name="shared").run()
        other = smoke_space(shapes=((8, 8, 8),), versions=(1, 3))
        with pytest.raises(JournalMismatch):
            _driver(other, tmp_path, name="shared").run()

    def test_poisoned_points_are_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.point:poison")
        faults.reset_faults()
        driver = _driver(SMALL, tmp_path, max_attempts=3)
        result = driver.run()
        assert result["complete"]
        totals = result["report"]["totals"]
        assert totals["poisoned"] == len(SMALL.points())
        assert totals["completed"] == 0
        for record in result["report"]["poisoned"]:
            assert record["crashes"] == 3
        counters = tuning_counters()
        assert counters["tuning_worker_crashes"] == 3 * len(SMALL.points())

    def test_injected_crashes_retry_then_succeed(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.worker:crash@0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
        faults.reset_faults()
        chaotic = _driver(SMALL, tmp_path, name="chaotic").run()
        assert chaotic["complete"]
        assert tuning_counters()["tuning_worker_crashes"] > 0
        # Bit-identical to the fault-free report: crashes cost retries,
        # never results.
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_faults()
        _driver(SMALL, tmp_path, name="calm").run()
        assert (tmp_path / "chaotic.json").read_bytes() \
            == (tmp_path / "calm.json").read_bytes()

    def test_worker_errors_fail_without_retry(self, tmp_path, monkeypatch):
        from repro.tuning import driver as driver_module

        calls = []

        def exploding(spec, prune_bytes=None, deadline=None):
            calls.append(spec)
            raise ValueError("synthetic evaluation failure")

        monkeypatch.setattr(driver_module, "evaluate_point", exploding)
        result = _driver(SMALL, tmp_path).run()
        assert result["complete"]
        totals = result["report"]["totals"]
        assert totals["failed"] == len(SMALL.points())
        # Deterministic failures are final: exactly one attempt each.
        assert len(calls) == len(SMALL.points())
        for record in result["report"]["failed"]:
            assert record["error"] \
                == "ValueError: synthetic evaluation failure"

    def test_pruning_skips_expensive_configs(self, tmp_path):
        space = SweepSpace(shapes=((16, 16, 16),), versions=(2,),
                           sizes=(4,))
        # The exact estimate includes opcode-stream overhead above the
        # closed-form floor (~6% here); 1.1x keeps the stationary
        # flows and prunes the none-stationary one.
        result = _driver(space, tmp_path, prune_ratio=1.1).run()
        totals = result["report"]["totals"]
        assert totals["pruned"] >= 1
        assert totals["completed"] >= 1
        for record in result["report"]["pruned"]:
            assert record["est_bytes"] > record["prune_bytes"]

    def test_prune_ratio_zero_disables_pruning(self, tmp_path):
        # Same contract as the CLI flag: a non-positive ratio means
        # "simulate everything", not "threshold of zero bytes".
        result = _driver(SMALL, tmp_path, prune_ratio=0).run()
        totals = result["report"]["totals"]
        assert totals["pruned"] == 0
        assert totals["completed"] == len(SMALL.points())

    def test_journal_io_chaos_still_completes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.journal:io@0.3")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "1")
        faults.reset_faults()
        result = _driver(SMALL, tmp_path, name="durable").run()
        assert result["complete"]
        assert result["report"]["totals"]["completed"] \
            == len(SMALL.points())


class TestEnvKnobs:
    def test_defaults(self):
        assert tuning_deadline_s() == 60.0

    def test_malformed_deadline_warns_once_and_falls_back(
            self, monkeypatch):
        monkeypatch.setenv(TUNING_DEADLINE_ENV, "soon")
        with pytest.warns(RuntimeWarning, match=TUNING_DEADLINE_ENV):
            assert tuning_deadline_s() == 60.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tuning_deadline_s() == 60.0

    def test_valid_values_are_used(self, monkeypatch):
        monkeypatch.setenv(TUNING_DEADLINE_ENV, "1.5")
        assert tuning_deadline_s() == 1.5


class TestRetryModule:
    def test_service_reexport_is_the_shared_class(self):
        from repro.service import BackoffSchedule as service_backoff

        assert service_backoff is BackoffSchedule

    def test_retryable_by_code(self):
        codes = frozenset({"crash", "deadline"})
        assert retryable(RuntimeError("x"), code="crash",
                         retryable_codes=codes)
        assert not retryable(RuntimeError("x"), code="error",
                             retryable_codes=codes)

    def test_retryable_by_type(self):
        assert retryable(OSError("io"))
        assert not retryable(ValueError("logic"))


class TestReport:
    def test_report_is_a_pure_function_of_results(self):
        results = {}
        for index, point in enumerate(SMALL.points()):
            results[point.digest] = {
                "digest": point.digest, "spec": point.spec(),
                "status": "ok", "metric": float(index), "counters": {},
                "est_bytes": None,
            }
        one = render_report(build_report(SMALL, results))
        two = render_report(build_report(SMALL, dict(reversed(
            list(results.items())))))
        assert one == two
        assert json.loads(one)["totals"]["missing"] == 0

    def test_missing_points_are_accounted(self):
        report = build_report(SMALL, {})
        assert report["totals"]["missing"] == len(SMALL.points())
        assert report["groups"] == {}
