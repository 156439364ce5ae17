"""The service plane: audit-as-a-service over real sockets.

The deployment simulation stays the system under audit; this package
adds the transport that turns it into a *service* (DESIGN.md, "Service
plane"):

* :mod:`repro.service.framing` — length-prefixed, CRC-checked frames
  of builtins-only pickles (value objects: :mod:`repro.snp.wire`'s
  table), tolerant of partial reads and mid-stream garbage;
* :mod:`repro.service.push` — the node side: a :class:`ServicePusher`
  that ships log/evidence deltas to the monitor on the deployment's
  shared cadence scheduler; a failed tick is retried by the next one
  (a kept connection closed under it is reopened once within the
  tick), and a shed push falls back to the next tick's poll;
* :mod:`repro.service.monitor` — the daemon: ingests pushes into a
  deployment-shaped evidence store, feeds one shared
  :class:`~repro.snp.query.QueryProcessor`, batches refreshes, and
  evaluates standing subscriptions (alert on any verdict downgrade);
* :mod:`repro.service.server` / :mod:`repro.service.client` — a thin
  HTTP/REST front end (``query`` / ``refresh`` / ``subscribe`` /
  ``status`` / ``marks``) and its blocking client.
"""

from repro.service.framing import (  # noqa: F401
    FrameDecoder, FramingError, MAX_FRAME_BYTES, encode_frame,
)
from repro.service.monitor import (  # noqa: F401
    MonitorDaemon, MonitorHandle, MonitorState, start_monitor_thread,
)
from repro.service.push import ServicePusher  # noqa: F401
from repro.service.client import MonitorClient, tup_spec  # noqa: F401
