"""The shared fork pool: its size knob, process lifetime, job errors.

All three pool users — ``run_model_jobs``, ``SweepDriver`` and
``ServiceServer`` — fork through :mod:`repro.pool`; none may leave a
worker process behind once it returns (or drains).
"""

import multiprocessing
import os
import warnings

import pytest

from repro import faults, pool
from repro.execution import run_model_jobs
from repro.service import ServiceServer
from repro.tuning import SweepDriver, smoke_space

needs_fork = pytest.mark.skipif(not pool.can_fork(),
                                reason="fork start method unavailable")


@pytest.fixture(autouse=True)
def _clean_pool_env(monkeypatch):
    """Pool tests own their fault spec (the CI chaos leg sets one)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    monkeypatch.delenv(pool.WORKERS_ENV, raising=False)
    faults.reset_faults()
    yield
    faults.reset_faults()


def test_pool_size_reads_one_knob(monkeypatch):
    default = max(1, min(4, os.cpu_count() or 1))
    assert pool.pool_size() == default
    assert pool.pool_size(3) == 3
    monkeypatch.setenv(pool.WORKERS_ENV, "2")
    assert pool.pool_size() == 2
    assert pool.pool_size(1) == 1
    monkeypatch.setenv(pool.WORKERS_ENV, "0")
    assert pool.pool_size() == 1
    monkeypatch.setenv(pool.WORKERS_ENV, "lots")
    with pytest.warns(RuntimeWarning, match=pool.WORKERS_ENV):
        assert pool.pool_size() == default
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pool.pool_size() == default  # one-shot: no second warning


@needs_fork
def test_no_pool_process_outlives_its_owner(monkeypatch, tmp_path):
    monkeypatch.setenv(pool.WORKERS_ENV, "2")
    assert run_model_jobs([(pow, (2, 5)), (pow, (3, 2))]) == [32, 9]
    assert multiprocessing.active_children() == []

    space = smoke_space(shapes=((8, 8, 8),), versions=(1, 2))
    result = SweepDriver(space, journal_path=tmp_path / "j.jsonl",
                         workers=2, deadline_s=60.0).run()
    assert result["complete"]
    assert multiprocessing.active_children() == []

    server = ServiceServer(workers=2).start()
    assert len(multiprocessing.active_children()) == 2
    server.drain()
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_exits_when_its_owner_end_closes():
    # What a SIGKILLed owner leaves behind: its end of the pipe closed.
    worker = pool.Worker(0, dict)
    worker.conn.close()
    worker.process.join(timeout=10)
    assert not worker.process.is_alive()
    assert worker.process.exitcode == 0


@needs_fork
def test_model_job_exception_is_reraised(monkeypatch):
    monkeypatch.setenv(pool.WORKERS_ENV, "2")
    with pytest.raises(ValueError):
        run_model_jobs([(pow, (2, 5)), (int, ("not a number",))])
    assert multiprocessing.active_children() == []
