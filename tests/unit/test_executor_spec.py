"""Executor spec parsing (``make_executor``), including the bare
``"process"``/``"thread"`` specs that auto-size to ``os.cpu_count()``
clamped to ``MAX_DEFAULT_WORKERS``."""

import pytest

import repro.snp.executor as executor_mod
from repro.snp.executor import (
    MAX_DEFAULT_WORKERS, ProcessExecutor, SerialExecutor, ThreadedExecutor,
    default_worker_count, make_executor,
)


class TestExplicitSpecs:
    def test_none_and_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)

    def test_int_specs(self):
        assert isinstance(make_executor(1), SerialExecutor)
        pool = make_executor(3)
        assert isinstance(pool, ThreadedExecutor) and pool.workers == 3

    def test_thread_and_process_with_counts(self):
        assert make_executor("thread:4").workers == 4
        pool = make_executor("process:2")
        assert isinstance(pool, ProcessExecutor) and pool.workers == 2
        pool.close()

    def test_wire(self, wire_executor):
        # The wire round trip is a test-side executor instance, not a spec.
        assert make_executor(wire_executor) is wire_executor

    def test_invalid_specs_rejected(self):
        for bad in (0, -2, True, "bogus", "process:x", "thread:",
                    "process:", "process-blob:2", "wire", 3.5):
            with pytest.raises((ValueError, TypeError)) as caught:
                make_executor(bad)
            if isinstance(bad, str):
                assert f"unknown executor spec {bad!r}" in str(caught.value)

    def test_instances_pass_through(self):
        pool = ThreadedExecutor(2)
        assert make_executor(pool) is pool


class TestDefaultWorkerCount:
    def test_bare_process_spec_uses_cpu_count(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 3)
        pool = make_executor("process")
        assert isinstance(pool, ProcessExecutor) and pool.workers == 3
        pool.close()

    def test_bare_thread_spec_uses_cpu_count(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 3)
        pool = make_executor("thread")
        assert isinstance(pool, ThreadedExecutor) and pool.workers == 3

    def test_clamped_to_ceiling(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 128)
        assert default_worker_count() == MAX_DEFAULT_WORKERS
        pool = make_executor("process")
        assert pool.workers == MAX_DEFAULT_WORKERS
        pool.close()

    def test_unknown_cpu_count_falls_back_to_one(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: None)
        assert default_worker_count() == 1
        # A one-worker thread spec degrades to the serial executor,
        # exactly like make_executor(1).
        assert isinstance(make_executor("thread"), SerialExecutor)
