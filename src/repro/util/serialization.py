"""Canonical, deterministic serialization.

Everything that is hashed or signed in SNooPy (log entries, tuples, message
payloads, checkpoints) must serialize to the *same* byte string on every node
and on every replay. ``repr`` is not guaranteed stable across containers and
pickle is not canonical, so we define a small recursive encoding with an
explicit type tag per value.

The encoding is length-prefixed and unambiguous, which also makes it safe to
use for equality-by-hash comparisons.
"""

import struct

_pack_len = struct.Struct(">I").pack
_pack_float = struct.Struct(">d").pack


def canonical_bytes(value):
    """Encode *value* into a canonical byte string.

    Supports None, bool, int, float, str, bytes, and (recursively) tuples,
    lists, dicts (sorted by encoded key) and frozensets (sorted by encoded
    element). Raises TypeError for anything else — objects that want to be
    hashable by the provenance layer expose a ``canonical()`` method
    returning one of the supported types.
    """
    out = []
    _encode(value, out)
    return b"".join(out)


def canonical_size(value):
    """Byte size of the canonical encoding (used for traffic accounting)."""
    return len(canonical_bytes(value))


def _encode(value, out):
    (_ENCODERS.get(type(value)) or _for_subclass(value))(value, out)


def _for_subclass(value):
    """The encoder for a value whose exact type ``_ENCODERS`` lacks: a
    subclass of a supported type (``IntEnum``, a named tuple, a ``str``
    subclass), tested in the order the encoding has always tested them,
    or else an object exposing ``canonical_key()`` (its memoized encoding,
    :meth:`repro.model.Tup.canonical_key`) or ``canonical()``. (``bool``
    cannot be subclassed, so the exact-type lookup has caught it before
    ``int``.) The entry depends on the type alone, so it is filed under
    the type: the next value of that type finds it at once."""
    for base in (int, float, str, bytes, tuple, list, dict, frozenset):
        if isinstance(value, base):
            found = _ENCODERS[base]
            break
    else:
        if hasattr(value, "canonical_key"):
            found = _ENCODERS["canonical_key"]
        elif hasattr(value, "canonical"):
            found = _ENCODERS["canonical"]
        else:
            raise TypeError(
                f"cannot canonically encode {type(value).__name__}")
    _ENCODERS[type(value)] = found
    return found


def _encode_int(value, out):
    body = str(value).encode("ascii")
    out.append(b"i" + _pack_len(len(body)) + body)


def _encode_str(value, out):
    body = value.encode("utf-8")
    out.append(b"s" + _pack_len(len(body)) + body)


def _encode_tuple(value, out):
    out.append(b"t" + _pack_len(len(value)))
    _encode_items(value, out)


def _encode_list(value, out):
    out.append(b"l" + _pack_len(len(value)))
    _encode_items(value, out)


def _encode_items(items, out):
    # The four types a log content is made of are encoded inline, each
    # exactly as its _ENCODERS entry does; anything else (bool included:
    # its type is not int) goes through the table.
    append = out.append
    for item in items:
        kind = type(item)
        if kind is str:
            body = item.encode("utf-8")
            append(b"s" + _pack_len(len(body)) + body)
        elif kind is tuple:
            append(b"t" + _pack_len(len(item)))
            _encode_items(item, out)
        elif kind is int:
            body = str(item).encode("ascii")
            append(b"i" + _pack_len(len(body)) + body)
        elif kind is float:
            append(b"f" + _pack_float(item))
        else:
            _encode(item, out)


def _encode_dict(value, out):
    encoded = sorted(
        (canonical_bytes(k), canonical_bytes(v)) for k, v in value.items()
    )
    out.append(b"d" + _pack_len(len(encoded)))
    for key_bytes, val_bytes in encoded:
        out.append(_pack_len(len(key_bytes)) + key_bytes)
        out.append(_pack_len(len(val_bytes)) + val_bytes)


def _encode_frozenset(value, out):
    encoded = sorted(canonical_bytes(item) for item in value)
    out.append(b"S" + _pack_len(len(encoded)))
    for item_bytes in encoded:
        out.append(_pack_len(len(item_bytes)) + item_bytes)


#: Exact type -> encoder appending the value's tagged, length-prefixed
#: encoding to *out*; the ``"canonical_key"`` and ``"canonical"`` entries
#: (no type equals a string) serve objects exposing those methods.
_ENCODERS = {
    type(None): lambda value, out: out.append(b"N"),
    bool: lambda value, out: out.append(b"T" if value else b"F"),
    int: _encode_int,
    float: lambda value, out: out.append(b"f" + _pack_float(value)),
    str: _encode_str,
    bytes: lambda value, out: out.append(b"b" + _pack_len(len(value)) + value),
    tuple: _encode_tuple,
    list: _encode_list,
    dict: _encode_dict,
    frozenset: _encode_frozenset,
    "canonical_key": lambda value, out: out.append(value.canonical_key()),
    "canonical": lambda value, out: _encode(value.canonical(), out),
}
