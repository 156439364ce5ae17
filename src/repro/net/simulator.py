"""A seeded discrete-event simulator.

Events are (time, sequence, callback) triples in a binary heap; the sequence
number breaks ties deterministically, so two runs with the same seed and the
same schedule order are identical — which is what lets deterministic replay
(and therefore the whole provenance system) be tested end to end.
"""

import heapq
import random

from repro.util.clock import DriftingClock


class Simulator:
    """Global event loop plus per-node clocks and link delays."""

    def __init__(self, seed=0, t_prop=0.05, delta_clock=0.01,
                 min_delay=0.005):
        if min_delay > t_prop:
            raise ValueError("min_delay must not exceed t_prop")
        self.t_prop = t_prop
        self.delta_clock = delta_clock
        self.min_delay = min_delay
        self.now = 0.0
        self._rng = random.Random(seed)
        self._heap = []
        self._seq = 0
        self._clocks = {}
        self.events_processed = 0

    # ------------------------------------------------------------- clocks

    def register_clock(self, node_id):
        """Create (or return) the node's local clock with a random skew in
        ``[-Δclock/2, +Δclock/2]``."""
        if node_id not in self._clocks:
            skew = self._rng.uniform(-self.delta_clock / 2,
                                     self.delta_clock / 2)
            self._clocks[node_id] = DriftingClock(skew)
        return self._clocks[node_id]

    def local_time(self, node_id):
        clock = self._clocks[node_id]
        clock.advance_to(self.now)
        return clock.read()

    # ----------------------------------------------------------- schedule

    def schedule(self, delay, callback):
        """Run *callback()* after *delay* simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))

    def schedule_at(self, t, callback):
        self.schedule(max(0.0, t - self.now), callback)

    def link_delay(self):
        """A random propagation delay in [min_delay, Tprop]."""
        return self._rng.uniform(self.min_delay, self.t_prop)

    # ---------------------------------------------------------------- run

    def step(self):
        """Process the earliest event; returns False when idle."""
        if not self._heap:
            return False
        t, _seq, callback = heapq.heappop(self._heap)
        self.now = t
        self.events_processed += 1
        callback()
        return True

    def run(self, max_events=None):
        """Drain the event queue (optionally bounded)."""
        steps = 0
        while self.step():
            steps += 1
            if max_events is not None and steps >= max_events:
                break
        return steps

    def run_until(self, t_stop):
        """Process events with time ≤ t_stop; advances ``now`` to t_stop."""
        while self._heap and self._heap[0][0] <= t_stop:
            self.step()
        self.now = max(self.now, t_stop)

    def pending(self):
        return len(self._heap)
