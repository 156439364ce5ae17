"""The option surface, pinned.

The signature table below pins every constructor parameter and CLI flag
of the classes that carry options, so the next added knob is a one-file
diff a reviewer sees — and the one literal the package version lives in.
Importing the library starts no process pool: nothing under it loads
``multiprocessing``.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.datalog
from repro.datalog import DatalogApp
from repro.service.client import MonitorClient
from repro.service.monitor import MonitorDaemon, MonitorNodeProxy, \
    main as monitor_main
from repro.service.push import ServicePusher
from repro.snp import Deployment, QueryProcessor, SNooPyNode
from repro.snp.adversary import SilentNode
from repro.snp.microquery import MicroQuerier
from repro.snp.snoopy import RetrieveResponse

SRC = Path(__file__).resolve().parents[2] / "src"


#: Every constructor (and ``retrieve``, thrice, and ``add_node``) that
#: carries options, against a literal. Adding, removing or re-defaulting
#: a parameter must edit this table.
RETRIEVE = "(self, from_checkpoint=False, since_index=None)"
SIGNATURES = {
    # the consistency check has no off switch: a test that wants it quiet
    # deploys peers that refuse it
    MicroQuerier: "(self, deployment, use_checkpoints=False)",
    QueryProcessor: "(self, deployment, use_checkpoints=False)",
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
    # the ndlint gate has no off switch
    DatalogApp: "(self, node_id, program)",
    # where a response came from is the querier's fact, not a field the
    # responder sets; a checkpoint-anchored segment starts at its chk
    # entry, so the checkpoint is no field either
    RetrieveResponse:
        "(self, node, entries, start_index, start_hash, head_auth)",
    Deployment:
        "(self, seed=0, t_prop=0.05, delta_clock=0.01, key_bits=256, "
        "t_batch=0.0)",
    # t_batch is the deployment's: its plausibility window and Tprop
    # bound read it, so no node has its own
    Deployment.add_node:
        "(self, node_id, app_factory, node_cls=<class "
        "'repro.snp.snoopy.SNooPyNode'>, native_sizer=None)",
    SNooPyNode: "(self, node_id, app, identity, deployment, "
                "native_sizer=None)",
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

    def test_the_engine_has_no_hook_for_its_test_oracle(self):
        # the scan-based reference evaluator is test code (tests/naive.py)
        # and skips the indexes without a class switch
        assert not hasattr(repro.datalog, "NaiveDatalogApp")
        assert not hasattr(DatalogApp, "USE_INDEXES")
        assert not (SRC / "repro" / "datalog" / "naive.py").exists()

    def test_the_library_imports_no_process_pool(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.snp, repro.service; print(sorted(m for m "
             "in sys.modules if m.split('.')[0] == 'multiprocessing'))"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
            capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "[]"
