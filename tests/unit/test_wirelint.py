"""wirelint (tools/wirelint.py) — the serialization-contract lint.

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
    """A minimal repro-shaped tree: repro/model.py + repro/snp/wire.py."""
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

    def test_the_boundary_set_names_modules_that_exist(self):
        # check_boundary_classes skips a missing path, so a module that
        # was deleted (the shm arena) or renamed would silently leave
        # the lint's scope instead of failing it.
        assert wirelint.BOUNDARY_MODULES
        for rel in wirelint.BOUNDARY_MODULES:
            assert (REPO_ROOT / "src" / rel).is_file(), rel

    def test_known_codecs_are_recognized(self):
        """Tup and Msg carry __reduce__ — the index must see them."""
        index = wirelint._class_codec_index(REPO_ROOT / "src")
        assert index["Tup"][1] is True
        assert index["Msg"][1] is True


class TestBoundaryClassCheck:
    def test_codec_less_import_flagged(self, tmp_path):
        root = _make_tree(
            tmp_path,
            "from repro.model import Payload\n",
            extra_modules=[("repro/model.py", "class Payload:\n    pass\n")],
        )
        violations = wirelint.lint(root)
        assert [v.code for v in violations] == ["WL001"]
        assert "Payload" in violations[0].message

    def test_reduce_satisfies_the_contract(self, tmp_path):
        root = _make_tree(
            tmp_path,
            "from repro.model import Payload\n",
            extra_modules=[(
                "repro/model.py",
                "class Payload:\n"
                "    def __reduce__(self):\n"
                "        return (Payload, ())\n",
            )],
        )
        assert wirelint.lint(root) == []

    def test_to_wire_satisfies_the_contract(self, tmp_path):
        root = _make_tree(
            tmp_path,
            "from repro.model import Payload\n",
            extra_modules=[(
                "repro/model.py",
                "class Payload:\n"
                "    def to_wire(self):\n"
                "        return ()\n",
            )],
        )
        assert wirelint.lint(root) == []

    def test_construction_in_wire_is_a_codec(self, tmp_path):
        root = _make_tree(
            tmp_path,
            "from repro.model import Payload\n"
            "def decode(fields):\n"
            "    return Payload(*fields)\n",
            extra_modules=[("repro/model.py", "class Payload:\n    pass\n")],
        )
        assert wirelint.lint(root) == []

    def test_a_wire_value_carries_a_codec(self, tmp_path):
        root = _make_tree(
            tmp_path,
            "from repro.model import Payload\n",
            extra_modules=[("repro/model.py",
                            "class Payload(WireValue):\n    pass\n")],
        )
        assert wirelint.lint(root) == []

    def test_the_boundary_follows_the_split(self, tmp_path):
        """What the build-step module imports is boundary material too:
        a codec-less class only it imports is flagged (at its import),
        and one it constructs is not."""
        model = "class Payload:\n    pass\nclass Key:\n    pass\n"
        root = _make_tree(
            tmp_path,
            "",
            extra_modules=[
                ("repro/model.py", model),
                ("repro/snp/build.py",
                 "from repro.model import Key, Payload\n"
                 "def decode(n, e):\n"
                 "    return Key(n, e)\n"),
            ],
        )
        violations = wirelint.lint(root)
        assert [v.code for v in violations] == ["WL001"]
        assert "Payload" in violations[0].message
        assert violations[0].path.name == "build.py"

    def test_function_imports_are_ignored(self, tmp_path):
        root = _make_tree(
            tmp_path,
            "from repro.model import helper\n",
            extra_modules=[("repro/model.py", "def helper():\n    pass\n")],
        )
        assert wirelint.lint(root) == []


class TestUnorderedIterationCheck:
    @pytest.mark.parametrize("expr,what", [
        ("canonical_bytes(list(d.items()))", ".items()"),
        ("canonical_bytes(list(d.keys()))", ".keys()"),
        ("canonical_bytes(list(d.values()))", ".values()"),
        ("canonical_bytes(set(xs))", "set(...)"),
        ("canonical_bytes(frozenset(xs))", "frozenset(...)"),
        ("signer.sign(tuple(d.items()))", ".items()"),
        ("h.update(bytes(len(set(xs))))", "set(...)"),
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

        dirty = _make_tree(
            tmp_path / "dirty",
            "from repro.model import Payload\n",
            extra_modules=[("repro/model.py", "class Payload:\n    pass\n")],
        )
        assert wirelint.main([str(dirty)]) == 1
        assert "WL001" in capsys.readouterr().out

    def test_main_usage(self, capsys):
        assert wirelint.main([]) == 2
        capsys.readouterr()
