"""Shared fixtures.

Key sizes are tiny (256-bit RSA) and networks small so the full suite runs
in minutes.
"""

import pytest

from repro.snp import Deployment, QueryProcessor
from repro.apps.mincost import build_paper_network


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
