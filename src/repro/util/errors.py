"""Exception hierarchy for the SNP reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class. Security-relevant failures (bad signatures, broken hash
chains, replay divergence) get their own subclasses because forensic code
paths need to distinguish "the node is provably lying" from "we could not
reach the node".
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A system or application was mis-assembled (bad rule, bad topology)."""


class ParseError(ConfigurationError):
    """Program text failed to parse; carries the 1-based source location.

    Subclasses :class:`ConfigurationError` so callers that treat "bad
    program text" generically keep working.
    """

    def __init__(self, message, line=None, col=None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (
                f", column {col})" if col is not None else ")"
            )
        super().__init__(message + location)
        self.line = line
        self.col = col


class AuthenticationError(ReproError):
    """A signature or certificate failed verification."""


class LogVerificationError(ReproError):
    """A retrieved log segment does not match the evidence (authenticator).

    This is *proof* of misbehavior by the node that produced the log: the
    authenticator is signed, and the hash chain it commits to does not match
    the contents the node returned.
    """

    def __init__(self, node, reason):
        super().__init__(f"log of node {node!r} failed verification: {reason}")
        self.node = node
        self.reason = reason


class ReplayDivergence(ReproError):
    """Deterministic replay of a node's log diverged from its recorded sends.

    Raised internally by the replay engine; the microquery module converts it
    into a red vertex rather than letting it propagate to the caller.
    """

    def __init__(self, node, detail):
        super().__init__(f"replay of node {node!r} diverged: {detail}")
        self.node = node
        self.detail = detail


class ContentUnavailable(ReproError):
    """Replay needs content its log names by digest and carries no text
    hashing to; unsigned text proves nothing, so nobody is convicted."""


class QueryError(ReproError):
    """A macroquery could not be evaluated (e.g. unknown tuple or node)."""
