"""Example applications (paper Section 6).

Each application exercises a different provenance-extraction method
(Section 5.3):

* :mod:`repro.apps.mincost` / :mod:`repro.apps.pathvector` — native Datalog
  programs (method #1, *inferred provenance*), including the running MinCost
  example of Section 3.3;
* :mod:`repro.apps.chord` — a declarative Chord DHT (method #1), the paper's
  RapidNet application;
* :mod:`repro.apps.mapreduce` — a MapReduce engine with *reported
  provenance* (method #2), the paper's Hadoop application;
* :mod:`repro.apps.bgp` — a BGP daemon treated as a black box behind a
  proxy with an *external specification* of four rules including a 'maybe'
  rule (method #3), the paper's Quagga application.

Application factories
---------------------

Deterministic replay rebuilds a node's state machine from the *factory*
registered at :meth:`~repro.snp.deployment.Deployment.add_node`. Factories
built from Datalog programs close over compiled rules (including guard and
expression lambdas), which can never go on the wire — so a pusher's hello
(:mod:`repro.service.push`) ships a *name + plain kwargs* spec instead, and
the monitor daemon resolves the name against the built-in applications
(:func:`resolve_builder`). :class:`AppFactory` is the callable that carries
such a spec; the built-in applications all hand one out.
"""

import functools
import importlib

#: Built-in application builders, imported lazily so that pulling in
#: ``repro.apps`` (e.g. in the monitor daemon) does not pay for every
#: example program's rule compilation up front.
_BUILTIN_BUILDERS = {
    "chord": ("repro.apps.chord", "build_chord_app_factory"),
    "mincost": ("repro.apps.mincost", "build_mincost_app_factory"),
    "pathvector": ("repro.apps.pathvector", "build_pathvector_app_factory"),
    "bgp": ("repro.apps.bgp", "build_bgp_app_factory"),
    "mapreduce": ("repro.apps.mapreduce", "build_mapreduce_app_factory"),
}


@functools.cache
def resolve_builder(name):
    """The built-in application builder named *name*, imported on first
    use. ``builder(**kwargs)`` returns a state-machine factory — a
    callable mapping ``node_id`` to a fresh deterministic state
    machine."""
    entry = _BUILTIN_BUILDERS.get(name)
    if entry is None:
        raise KeyError(f"no application builder is named {name!r}")
    module_name, attr = entry
    return getattr(importlib.import_module(module_name), attr)


def lint_targets():
    """``name → Program`` for every built-in application.

    This is what ``python -m repro.datalog.analyze --apps`` and the CI
    analysis job sweep: the four Datalog programs plus MapReduce's
    rule-less schema program. Imported lazily, like the builders.
    """
    from repro.apps.bgp import bgp_proxy_program
    from repro.apps.chord import chord_program
    from repro.apps.mapreduce import mapreduce_schema_program
    from repro.apps.mincost import mincost_program
    from repro.apps.pathvector import pathvector_program
    return {
        "mincost": mincost_program(),
        "pathvector": pathvector_program(),
        "chord": chord_program(),
        "bgp": bgp_proxy_program(),
        "mapreduce": mapreduce_schema_program(),
    }


class AppFactory:
    """A wire-representable state-machine factory of a built-in
    application.

    Locally it behaves exactly like the closure it replaces: calling it
    with a ``node_id`` returns a fresh state machine (the underlying
    builder runs once, so per-factory work such as rule compilation is
    shared by all nodes using the factory). For the wire it exposes
    :meth:`wire_spec`: the application's name plus a dict of the kwargs,
    from which the daemon rebuilds an equivalent factory. The hello frame
    carries the spec as it is, so mutable kwargs (e.g. MapReduce's
    content store) are snapshotted when that frame is encoded, i.e. once
    per hello.
    """

    __slots__ = ("name", "kwargs", "_resolved")

    def __init__(self, name, **kwargs):
        self.name = name
        self.kwargs = kwargs
        self._resolved = None

    def __call__(self, node_id):
        if self._resolved is None:
            self._resolved = resolve_builder(self.name)(**self.kwargs)
        return self._resolved(node_id)

    def wire_spec(self):
        return (self.name, dict(self.kwargs))

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.kwargs.items())
        return f"AppFactory({self.name!r}{', ' if inner else ''}{inner})"


def factory_from_spec(spec):
    """Rebuild a factory from a :meth:`AppFactory.wire_spec` pair. The
    spec may come from outside the program (a pusher's hello): one that
    is not a ``(name, kwargs dict)`` pair, names no built-in application
    or carries kwargs its builder does not take raises
    :class:`~repro.snp.wire.WireError`, like any other malformed form."""
    from repro.snp.wire import WireError

    try:
        name, kwargs = spec
        # ``**`` takes only a mapping; a frame can build no mapping but dict
        return resolve_builder(name)(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(
            f"malformed application spec {spec!r}: {exc}") from None
