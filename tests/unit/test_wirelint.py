"""wirelint (tools/wirelint.py) — the hashed-iteration and pickle lint.

Two directions: the real source tree must be clean (this is the same
gate CI runs), and seeded violations in a synthetic tree must each be
caught with the right code — otherwise "clean" means nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_wirelint():
    spec = importlib.util.spec_from_file_location(
        "wirelint", REPO_ROOT / "tools" / "wirelint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wirelint = _load_wirelint()


def _make_tree(tmp_path, wire_body, extra_modules=()):
    """A minimal repro-shaped tree: repro/snp/wire.py + *extra_modules*."""
    (tmp_path / "repro" / "snp").mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "snp" / "__init__.py").write_text("")
    (tmp_path / "repro" / "snp" / "wire.py").write_text(wire_body)
    for rel, body in extra_modules:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    return tmp_path


class TestRealTreeClean:
    def test_src_is_clean(self):
        violations = wirelint.lint(REPO_ROOT / "src")
        assert violations == [], "\n".join(v.format() for v in violations)


class TestUnorderedIterationCheck:
    @pytest.mark.parametrize("expr,what", [
        ("canonical_bytes(list(d.items()))", ".items()"),
        ("canonical_bytes(list(d.keys()))", ".keys()"),
        ("canonical_bytes(list(d.values()))", ".values()"),
        ("canonical_bytes(set(xs))", "set(...)"),
        ("canonical_bytes(frozenset(xs))", "frozenset(...)"),
        ("signer.sign(tuple(d.items()))", ".items()"),
        ("h.update(bytes(len(set(xs))))", "set(...)"),
        # the chain step hashes its arguments raw, past canonical_bytes
        ("chain_hash(h, 1.0, 'ins', bytes(list(d.keys())))", ".keys()"),
    ])
    def test_unsorted_iteration_flagged(self, tmp_path, expr, what):
        root = _make_tree(
            tmp_path,
            "",
            extra_modules=[(
                "repro/snp/hashing_use.py",
                f"def f(d, xs, signer, h):\n    return {expr}\n",
            )],
        )
        violations = wirelint.lint(root)
        assert [v.code for v in violations] == ["WL002"]
        assert what in violations[0].message

    @pytest.mark.parametrize("expr", [
        "canonical_bytes(sorted(d.items()))",
        "canonical_bytes(sorted(set(xs)))",
        "signer.sign(canonical_bytes(sorted(d.values())))",
        "canonical_bytes(list(d))",         # plain iteration, not flagged
        "other_function(d.items())",        # not a sink
    ])
    def test_sorted_or_non_sink_passes(self, tmp_path, expr):
        root = _make_tree(
            tmp_path,
            "",
            extra_modules=[(
                "repro/snp/hashing_use.py",
                f"def f(d, xs, signer):\n    return {expr}\n",
            )],
        )
        assert wirelint.lint(root) == []

    def test_scope_is_limited(self, tmp_path):
        """The determinism rule applies to snp/crypto/util, not apps."""
        root = _make_tree(
            tmp_path,
            "",
            extra_modules=[(
                "repro/apps/stats.py",
                "def f(d):\n"
                "    return canonical_bytes(list(d.items()))\n",
            )],
        )
        assert wirelint.lint(root) == []

    def test_nested_sinks_report_once(self, tmp_path):
        root = _make_tree(
            tmp_path,
            "",
            extra_modules=[(
                "repro/snp/hashing_use.py",
                "def f(d, signer):\n"
                "    return signer.sign(canonical_bytes(list(d.items())))\n",
            )],
        )
        violations = wirelint.lint(root)
        assert len(violations) == 1


_UNPICKLER = (
    "import pickle\n"
    "TABLE = frozenset({('repro.model', 'Tup')})\n"
    "class Restricted(pickle.Unpickler):\n"
    "    def find_class(self, module, name):\n"
    "        if TEST:\n"
    "            return RESOLVE\n"
    "        raise pickle.UnpicklingError(name)\n"
)


def _unpickler(test, resolve="super().find_class(module, name)"):
    """A framing module whose ``find_class`` returns *resolve* under
    *test*."""
    return _UNPICKLER.replace("TEST", test).replace("RESOLVE", resolve)


class TestPickleSurfaceCheck:
    def test_the_real_unpickler_is_the_positive_case(self):
        """The shipped framing module is in the lint's scope and passes
        because its ``find_class`` resolves nothing, not by being
        skipped."""
        path = REPO_ROOT / "src" / wirelint.PICKLE_HOME
        assert "def find_class" in path.read_text()
        violations = []
        wirelint.check_pickle_surface(
            path, wirelint.PICKLE_HOME, wirelint._parse(path), violations)
        assert violations == []

    @pytest.mark.parametrize("test", [
        # the two guards the push port once had: a root prefix or a
        # module list, then exact membership of the pair in a table
        "module.split('.', 1)[0] == 'repro' or module in ALLOWED",
        "(module, name) in TABLE",
        # and any other condition at all
        "module in ALLOWED", "(module, name) not in DENIED", "True",
    ])
    def test_every_guarded_resolution_is_flagged(self, tmp_path, test):
        root = _make_tree(tmp_path, "", extra_modules=[(
            wirelint.PICKLE_HOME, _unpickler(test),
        )])
        violations = wirelint.lint(root)
        assert [v.code for v in violations] == ["WL003"]
        assert "find_class" in violations[0].message

    def test_resolving_through_the_base_class_is_flagged(self, tmp_path):
        body = _unpickler("(module, name) in TABLE",
                          "pickle.Unpickler.find_class(self, module, name)")
        root = _make_tree(
            tmp_path, "", extra_modules=[(wirelint.PICKLE_HOME, body)])
        assert [v.code for v in wirelint.lint(root)] == ["WL003"]

    def test_a_find_class_that_only_refuses_is_clean(self, tmp_path):
        body = _unpickler("False").replace(
            "        if False:\n            return super().find_class("
            "module, name)\n", "")
        assert "return" not in body
        root = _make_tree(
            tmp_path, "", extra_modules=[(wirelint.PICKLE_HOME, body)])
        assert wirelint.lint(root) == []

    @pytest.mark.parametrize("statement", [
        "import io, pickle", "from marshal import loads",
    ])
    def test_a_second_pickle_user_is_flagged(self, tmp_path, statement):
        root = _make_tree(tmp_path, "", extra_modules=[(
            "repro/service/monitor.py",
            f"def decode(data):\n    {statement}\n",
        )])
        violations = wirelint.lint(root)
        assert [v.code for v in violations] == ["WL003"]
        assert "imported outside" in violations[0].message


class TestCli:
    def test_main_exit_codes(self, tmp_path, capsys):
        clean = _make_tree(tmp_path / "clean", "")
        assert wirelint.main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

        dirty = _make_tree(tmp_path / "dirty", "import pickle\n")
        assert wirelint.main([str(dirty)]) == 1
        assert "WL003" in capsys.readouterr().out

    def test_main_usage(self, capsys):
        assert wirelint.main([]) == 2
        capsys.readouterr()
