"""Shared fixtures.

Key sizes are tiny (256-bit RSA) and networks small so the full suite runs
in minutes.
"""

import pickle

import pytest

from repro.snp import Deployment, QueryProcessor
from repro.snp.build import (
    BuildContext, BuildWork, CompactOutcome, compute_build,
)
from repro.apps.mincost import build_paper_network


class WireRoundTripExecutor:
    """Serial executor that simulates the process boundary exactly:
    context, work and outcome all pass through ``pickle`` of their wire
    forms on every job, so aliasing with coordinator state is severed and
    the serialization contract is exercised without spawn cost."""

    def run_jobs(self, jobs, context):
        for job in jobs:
            self._run(job, context)

    @staticmethod
    def _run(job, context):
        def crossed(wire):
            return pickle.loads(pickle.dumps(wire))

        work = job.fetch()
        if work is None:
            return
        factory = work.resolve_factory(context)
        far_context = BuildContext.from_wire(crossed(context.to_wire()))
        far_work = BuildWork.from_wire(crossed(work.to_wire()), far_context)
        outcome_wire = crossed(compute_build(far_work, far_context).to_wire())
        job.absorb(CompactOutcome.from_wire(outcome_wire, factory))


@pytest.fixture(scope="session")
def wire_executor():
    """The wire round trip as an executor instance (stateless, so one
    serves the whole session — and hypothesis tests may take it)."""
    return WireRoundTripExecutor()


@pytest.fixture
def deployment():
    return Deployment(seed=1234, key_bits=256)


@pytest.fixture
def mincost_net():
    dep = Deployment(seed=42, key_bits=256)
    nodes = build_paper_network(dep)
    dep.run()
    return dep, nodes


@pytest.fixture
def mincost_query(mincost_net):
    dep, nodes = mincost_net
    return dep, nodes, QueryProcessor(dep)
