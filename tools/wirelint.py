"""wirelint: static checks for what is hashed, signed and unpickled.

Two properties plain tests are bad at guarding — both rot silently as
code grows, and the first produces heisenbugs when it does
(hash-randomized dicts make the failure probabilistic). This lint
enforces them over the python AST, no imports:

**WL002 — no unordered iteration into hashed or signed payloads.**
Within the ``snp``/``crypto``/serialization modules, the argument of a
hashing or signing sink (``canonical_bytes``, ``sign``, ``verify``,
``sha256``/``.update``, ``content_digest``, ``chain_hash``, whose
arguments are concatenated raw) must not iterate a dict or set
(``.items()``/``.keys()``/``.values()``, ``set(...)``,
``frozenset(...)``) unless the iteration is wrapped in ``sorted(...)``.
Set/dict order is per-process under hash randomization, so an unsorted
iteration signs a byte string another process cannot reproduce.

**WL003 — one unpickler, and it resolves no name.** Bytes from outside
the program meet one ``pickle`` importer, ``repro/service/framing.py``;
an ``import`` statement naming one of :data:`PICKLE_ROOTS` in any other
module opens a second decode path nobody restricted. (Statements only: a
dynamic ``import_module("pickle")`` is not seen.) And no code calls a
``find_class`` (``super()``'s, ``Unpickler``'s) at all: a frame's value
objects are persistent ids built by ``repro.snp.wire``'s table, and each
guard the resolution once had — a module prefix, then an exact
``(module, name)`` table — was one more place deciding what outside
bytes may build.

Run it over a source tree (CI does ``python tools/wirelint.py src``);
exits 1 when any violation is found.
"""

import ast
import sys
from pathlib import Path

#: Calls whose arguments become hashed/signed bytes.
SINK_NAMES = {
    "canonical_bytes", "sign", "verify", "update",
    "sha256", "sha1", "sha512", "md5", "blake2b",
    "content_digest", "sha256_hex", "chain_hash",
}

#: Attribute calls that iterate an unordered container.
UNORDERED_METHODS = {"items", "keys", "values"}

#: Constructors that yield an unordered container.
UNORDERED_BUILTINS = {"set", "frozenset"}

#: Directories (relative to the source root) whose modules hash and sign.
DETERMINISM_SCOPES = ("repro/snp", "repro/crypto", "repro/util")

#: The one module (relative to the source root) that may import pickle.
PICKLE_HOME = "repro/service/framing.py"

#: Root module names that decode objects from bytes, pickle and its kin.
PICKLE_ROOTS = {"pickle", "_pickle", "cPickle", "marshal", "shelve", "dill"}


class Violation:
    __slots__ = ("path", "line", "col", "code", "message")

    def __init__(self, path, line, col, code, message):
        self.path = path
        self.line = line
        self.col = col
        self.code = code
        self.message = message

    def format(self):
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code}: {self.message}")


def _callee_name(call):
    """The last name component of a call's target (``f`` or ``o.f``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


# ------------------------------------------- WL002: unordered iteration


def _unordered_uses(node):
    """(line, col, what) for unordered iterations under *node*, skipping
    anything wrapped in ``sorted(...)``."""
    found = []

    def visit(current):
        if isinstance(current, ast.Call):
            name = _callee_name(current)
            if isinstance(current.func, ast.Name) and name == "sorted":
                return  # sorted(...) restores determinism for its subtree
            if isinstance(current.func, ast.Attribute) \
                    and name in UNORDERED_METHODS:
                found.append((current.lineno, current.col_offset,
                              f".{name}()"))
            elif isinstance(current.func, ast.Name) \
                    and name in UNORDERED_BUILTINS:
                found.append((current.lineno, current.col_offset,
                              f"{name}(...)"))
        for child in ast.iter_child_nodes(current):
            visit(child)

    visit(node)
    return found


def check_unordered_iteration(path, tree, violations):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        sink = _callee_name(node)
        if sink not in SINK_NAMES:
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for line, col, what in _unordered_uses(arg):
                violations.append(Violation(
                    path, line, col + 1, "WL002",
                    f"{what} iterated into '{sink}' without sorted(); "
                    "set/dict order is per-process, so the hashed or "
                    "signed bytes are not reproducible",
                ))


def _in_determinism_scope(path, src_root):
    rel = path.relative_to(src_root).as_posix()
    return any(rel.startswith(scope) for scope in DETERMINISM_SCOPES)


# ------------------------------------------- WL003: the pickle surface


def check_pickle_surface(path, rel, tree, violations):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee_name(node) == "find_class":
            violations.append(Violation(
                path, node.lineno, node.col_offset + 1, "WL003",
                "a call resolves a global by name; frames carry value "
                "objects as persistent ids, so find_class refuses them all",
            ))
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        roots = PICKLE_ROOTS.intersection(
            module.split(".")[0] for module in modules)
        if rel != PICKLE_HOME and roots:
            violations.append(Violation(
                path, node.lineno, node.col_offset + 1, "WL003",
                f"{min(roots)} imported outside {PICKLE_HOME}; bytes from "
                "outside the program must meet the one restricted "
                "unpickler",
            ))


# --------------------------------------------------------------- driver


def lint(src_root):
    src_root = Path(src_root)
    violations = []
    for path in sorted(src_root.rglob("*.py")):
        try:
            tree = _parse(path)
        except SyntaxError as exc:
            violations.append(Violation(
                path, exc.lineno or 1, exc.offset or 1, "WL000",
                f"syntax error: {exc.msg}",
            ))
            continue
        check_pickle_surface(
            path, path.relative_to(src_root).as_posix(), tree, violations)
        if _in_determinism_scope(path, src_root):
            check_unordered_iteration(path, tree, violations)
    # Nested sinks (sign(canonical_bytes(...))) would report the same
    # iteration once per sink; keep the first per source location.
    seen = set()
    unique = []
    for violation in violations:
        key = (str(violation.path), violation.line, violation.col,
               violation.code)
        if key not in seen:
            seen.add(key)
            unique.append(violation)
    return unique


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python tools/wirelint.py <src-root>", file=sys.stderr)
        return 2
    violations = []
    for root in argv:
        violations.extend(lint(root))
    for violation in violations:
        print(violation.format())
    if violations:
        print(f"wirelint: {len(violations)} violation(s)")
        return 1
    print("wirelint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
