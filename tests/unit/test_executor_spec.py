"""The option surface of the executor plane, pinned.

``make_executor`` accepts exactly four forms — ``None``/``"serial"``,
``"process"`` (auto-sized to ``os.cpu_count()`` clamped to
``MAX_DEFAULT_WORKERS``), ``"process:N"``, an object with ``run_jobs`` —
and rejects everything else with a ``ValueError`` that names them. The
signature table below pins every constructor parameter and CLI flag of
the classes that carry options, so the next added knob is a one-file
diff a reviewer sees — and the one literal the package version lives in.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro
import repro.snp.executor as executor_mod
from repro.service.client import MonitorClient
from repro.service.monitor import MonitorDaemon, MonitorNodeProxy, \
    main as monitor_main
from repro.service.push import ServicePusher
from repro.snp import QueryProcessor, SNooPyNode
from repro.snp.adversary import SilentNode
from repro.snp.executor import (
    MAX_DEFAULT_WORKERS, ProcessExecutor, SerialExecutor,
    default_worker_count, make_executor,
)
from repro.snp.microquery import MicroQuerier


class TestExplicitSpecs:
    def test_none_and_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)

    def test_process_with_count(self):
        pool = make_executor("process:3")
        assert isinstance(pool, ProcessExecutor) and pool.workers == 3
        pool.close()
        pool.close()  # idempotent, also on a pool that never spawned

    def test_objects_with_run_jobs_pass_through(self, wire_executor):
        # The wire round trip is a test-side executor instance, not a spec.
        assert make_executor(wire_executor) is wire_executor
        serial = SerialExecutor()
        assert make_executor(serial) is serial

    def test_both_executors_expose_one_protocol(self):
        def public(cls):
            return {name for name, member in vars(cls).items()
                    if inspect.isfunction(member)
                    and not name.startswith("_")}
        assert public(SerialExecutor) == {"run_jobs", "close"}
        assert {"run_jobs", "close"} <= public(ProcessExecutor)
        for cls in (SerialExecutor, ProcessExecutor):
            assert str(inspect.signature(cls.run_jobs)) \
                == "(self, jobs, context)"


class RunOnly:
    """The zero-arg-task contract the thread arm took with it."""

    def run(self, tasks):
        return [task() for task in tasks]

    def __repr__(self):  # a stable test id
        return "RunOnly()"


class TestRejectedSpecs:
    @pytest.mark.parametrize("bad", [
        0, 1, 3, -2, True, False, 3.5, "thread", "thread:4", "thread:",
        "bogus", "wire", "process:x", "process:", "process:-1",
        "process-blob:2", RunOnly(),
    ], ids=repr)
    def test_rejection_names_the_accepted_forms(self, bad):
        with pytest.raises(ValueError) as caught:
            make_executor(bad)
        message = str(caught.value)
        assert f"unknown executor spec {bad!r}" in message
        for form in ('"serial"', '"process"', '"process:N"', "run_jobs"):
            assert form in message

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            make_executor("process:0")


class TestDefaultWorkerCount:
    def test_bare_process_spec_uses_cpu_count(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 3)
        pool = make_executor("process")
        assert isinstance(pool, ProcessExecutor) and pool.workers == 3
        pool.close()

    def test_clamped_to_ceiling(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 128)
        assert default_worker_count() == MAX_DEFAULT_WORKERS
        pool = make_executor("process")
        assert pool.workers == MAX_DEFAULT_WORKERS
        pool.close()

    def test_unknown_cpu_count_falls_back_to_one(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: None)
        assert default_worker_count() == 1
        pool = make_executor("process")
        assert pool.workers == 1
        pool.close()


#: Every constructor (and ``retrieve``, thrice) that carries options,
#: against a literal. Adding, removing or re-defaulting a parameter must
#: edit this table.
RETRIEVE = "(self, from_checkpoint=False, since_index=None)"
SIGNATURES = {
    MicroQuerier:
        "(self, deployment, use_checkpoints=False, "
        "run_consistency_check=True, executor=None)",
    QueryProcessor:
        "(self, deployment, use_checkpoints=False, executor=None, "
        "**mq_kwargs)",
    ProcessExecutor: "(self, workers, resident_cap=None)",
    MonitorDaemon:
        "(self, host='127.0.0.1', push_port=0, http_port=0, "
        "ingest_limit=64, subscriber_queue_limit=256, "
        "max_frame_bytes=33554432)",
    ServicePusher:
        "(self, deployment, host, port, timeout=10.0, retries=4, "
        "backoff=0.05, backoff_factor=2.0, sleep=None, "
        "max_frame_bytes=33554432)",
    # persistent connections and their two deadlines came without a knob
    MonitorClient: "(self, host, port, timeout=30.0)",
    SNooPyNode.retrieve: RETRIEVE,
    SilentNode.retrieve: RETRIEVE,
    MonitorNodeProxy.retrieve: RETRIEVE,
}

MONITOR_FLAGS = {"--help", "--host", "--push-port", "--http-port",
                 "--ingest-limit"}


class TestOptionSurface:
    @pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__qualname__)
    def test_constructor_signature_is_pinned(self, cls):
        function = cls.__init__ if inspect.isclass(cls) else cls
        assert str(inspect.signature(function)) == SIGNATURES[cls]

    def test_monitor_cli_flags_are_pinned(self, capsys):
        with pytest.raises(SystemExit) as caught:
            monitor_main(["--help"])
        assert caught.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == MONITOR_FLAGS

    def test_the_version_is_one_literal(self):
        # pyproject.toml takes it from the package (PR 13 single-sourced
        # the metadata and missed this one: 1.0.0 here, 0.8.0 there).
        assert repro.__version__ == "0.8.0"
        pyproject = (Path(__file__).parents[2] / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = {attr = "repro.__version__"}' in pyproject
        assert not re.search(r'^version\s*=\s*"', pyproject, re.MULTILINE)
