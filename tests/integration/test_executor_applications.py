"""Serial ≡ wire ≡ process on the three application families.

The matrix next door (``test_executor_equivalence.py``) pins the contract
on MinCost; here the same contract runs on chord@10, bgp@24 and
hadoop@300 — wider deployments, recursive aggregates, a content store
crossing the process boundary — for the two phases a standing auditor
has (cold ``prefetch()`` + query, then ``refresh()`` after the deployment
ran on), and for several queriers sharing one resident pool.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.snp import QueryProcessor
from repro.snp.executor import ProcessExecutor

from scenarios import APPLICATION_SCENARIOS

pytestmark = pytest.mark.slow  # every test spawns a real process pool

FAMILIES = sorted(APPLICATION_SCENARIOS)


def _observed(result):
    """What the equivalence contract covers of a query result."""
    return (sorted((str(v.key()), v.color) for v in result.graph.vertices()),
            [str(n) for n in result.faulty_nodes()])


@pytest.mark.parametrize("family", FAMILIES)
def test_cold_build_and_refresh_agree_across_executors(family,
                                                       wire_executor):
    _name, dep, query, run_further = APPLICATION_SCENARIOS[family]()
    arms = {"serial": None, "wire": wire_executor, "process:2": "process:2"}
    processors = {arm: QueryProcessor(dep, executor=executor)
                  for arm, executor in arms.items()}
    try:
        cold = {}
        for arm, qp in processors.items():
            qp.prefetch()
            cold[arm] = (_observed(query(qp)), qp.mq.stats.counters())
        run_further()
        warm, deltas = {}, {}
        for arm, qp in processors.items():
            before = qp.mq.stats.copy()
            qp.refresh()
            deltas[arm] = qp.mq.stats.delta_since(before)
            warm[arm] = (_observed(query(qp)), deltas[arm].counters())
    finally:
        for qp in processors.values():
            qp.close()
    for arm in ("wire", "process:2"):
        assert cold[arm] == cold["serial"], arm
        assert warm[arm] == warm["serial"], arm
    # The resident pool extended the replays its workers kept: every
    # refreshed view was a cache hit, none was rebuilt cold.
    assert deltas["process:2"].view_cache_hits > 0
    assert deltas["process:2"].view_cache_misses == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_concurrent_queriers_sharing_one_pool_match_a_serial_oracle(family):
    """Worker caches are keyed by verified head, so queriers refreshing
    through one pool at once may miss (and rebuild cold) but never read
    another querier's state."""
    _name, dep, query, run_further = APPLICATION_SCENARIOS[family]()
    executor = ProcessExecutor(2)
    queriers = [QueryProcessor(dep, executor=executor) for _ in range(3)]
    try:
        for qp in queriers:
            qp.prefetch()
        run_further()

        def refresh_and_query(qp):
            qp.refresh()
            return _observed(query(qp))

        with ThreadPoolExecutor(max_workers=len(queriers)) as pool:
            observed = list(pool.map(refresh_and_query, queriers))
    finally:
        for qp in queriers:
            qp.close()
        executor.close()
    with QueryProcessor(dep) as serial:
        serial.prefetch()
        oracle = _observed(query(serial))
    assert observed == [oracle] * len(queriers)
