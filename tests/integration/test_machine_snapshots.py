"""The state machines' snapshots, pinned bit for bit.

A checkpoint's ``chk`` entry commits to ``content_digest(snapshot)``, so
the bytes of every machine's snapshot are part of the log format. Every
node of :func:`scenarios.app_deployments` (all five applications) is run
to its end and the SHA-256 of ``canonical_bytes(app.snapshot())`` is
compared with a digest taken before the engine's store moved to one
record per tuple. A store or engine change that reorders a derivation
list, drops a belief count or moves an appear time moves a digest. The
encoding is canonical, so the digests do not depend on
``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.util.serialization import canonical_bytes

from scenarios import app_deployments

#: ``{application: {node: sha256 hex}}``.
GOLDEN = {
    "bgp": {
        "m-0":
            "5146a76e65445fb690b21b150c76502d33c984a0f398314c2e453a7a29fc80e2",
        "m-1":
            "2b7f7070ef1ce8df1b8027d968757d6e3c69749795ee4a3447e9a5635862cf5d",
        "m-2":
            "61a992735f7af1c7a30085746d8449f58997e9e4851490ea9a402cc9dca8c4b8",
        "s-0":
            "abc9b19003052360b5211e00324d1aac6985191ea0cb57f51b0423cf1c56bf42",
        "s-1":
            "f67f5e6005a64155fcccc167eb868b65710808e5cf7f02e6616fb011e188ec87",
        "s-2":
            "6b697bdf9826a4930c8665d8b45c5ec12c3873990627c41524ef9cbacd899b1d",
        "s-3":
            "b28a1a2075b590496732195f6018cb7144fb4ca7e431d0948ffe47709d10e641",
        "s-4":
            "23fe1701c0c3f04197da1aae5349b0b64539c92db964a9da2afc1f267a6cbbf6",
        "t1-0":
            "7a6aa4ebbb28d17d5be8371dfd7c137347d4563862fa4aee6d8809ad3ba31b24",
        "t1-1":
            "d7f2cd9c0cbf611ee97298ad42c3938c49a6a3a26943b73e8d144cd71fde72f0",
    },
    "chord": {
        "n0":
            "0e532a6e162ac38bcc3f99f05317a47d0e806f3037428e1f8a6ee33563f81138",
        "n1":
            "4468a7e73a94879d116a6c9edcb836ce0474140146d885f6b8ed8652700a37fa",
        "n2":
            "2435b1ee5d80e43c31784b12ba6423b7dba3e2bae81f57db0209d1d92c677975",
        "n3":
            "946b2d29265c59e2dc1bb2a5898bc72fcdb1a69008705af645585148d0f790dd",
        "n4":
            "014a2201e405466757f1929e748c4186e4dca57f80fb762b35ecc8c8fec729a7",
        "n5":
            "5c39b5dd0192b0c8dba80cdefed3289c5381ad61e9869837b4f4987069d7656b",
    },
    "hadoop": {
        "map0":
            "07dab3eff5029caa140b32a4f72e7ed621e52ea45eb47f271b4dbca530839728",
        "map1":
            "6c0a58c6c2a4f19596c0a62445747cfb7f4c73e01d9d5ade18183accdb240240",
        "map2":
            "e0eb6ff65246dced7cd6827d2938a3411a36078922adc0a675e6f438928e928b",
        "map3":
            "7c9241591ea4d055390f0530733b851d589a89056861b77990a257a843961bd9",
        "red0":
            "3b905f7e7b6ea2219b5861cdd92cc120e8fa4cf313b668ce32498bb781786175",
        "red1":
            "689726ed84a63aba18a19307b8512106498f91ee820ae592f8b287fcf0c07ac0",
    },
    "mincost": {
        "a":
            "f7e915830fb9ec037b8628aa2bdd40b098baa01de3e737aa3aaefdd8e79331ea",
        "b":
            "90c229d1c1232181af6ddf3a984be9e22b4b53c8545a25534815bd06bbb6d4b9",
        "c":
            "dc8a01111cb8578c8e4403125d76cddd343fcc02a2d151c5047664c8c045b25e",
        "d":
            "65423fee0c622ff49c06a517cff6f060babf4823f205e57b41b0da55fe2ab875",
        "e":
            "7da678f53f7f331b104f6734c67bbd6e65bf3becc7cd4d645067096bee631791",
    },
    "pathvector": {
        "a":
            "909d3ac26da0b1d927c8b5d5bf9f2188190c3e9a669534e7d6bc32f486dba7de",
        "b":
            "f6948b56c60b86d1535c5776ca8d7521eb10326b736ada71311f255b30ecaa21",
        "c":
            "7201daf960c883c5b5a25d978036c840bb234308578dca218625aece9f19fb89",
        "d":
            "7ab173df60719e0183a9282199d2510925a85ca3982695375637a96af1e18875",
    },
}


@pytest.fixture(scope="module")
def deployments():
    return app_deployments()


@pytest.mark.parametrize("app", sorted(GOLDEN))
def test_every_machine_snapshot_is_the_pinned_one(deployments, app):
    dep = deployments[app]
    assert {
        node_id: hashlib.sha256(
            canonical_bytes(dep.nodes[node_id].app.snapshot())).hexdigest()
        for node_id in dep.nodes
    } == GOLDEN[app]
