"""The per-slot population scan, kept as the slot calendar's oracle.

:class:`ScanningFleetState` is a :class:`~repro.fleet.state.FleetState`
whose ``generate`` is the implementation the calendar replaced, verbatim:
one ``flatnonzero(next_access < t + 1)`` over the whole population every
slot.  It reads the arrays alone, so it is right after any sequence of
calls and any outside write to ``next_access``; the calendar must hand
back the identical due set in the identical order at every slot
(``test_calendar.py`` drives both from one seed).  The inherited
``deliver`` finds the never-built window empty and indexes nothing.
"""

import math

import numpy as np

from repro.fleet.state import _NO_PAGES, FleetState


class ScanningFleetState(FleetState):
    def generate(self, t: int, schedule_pos: int) -> np.ndarray:
        """Process every access falling inside slot ``[t, t+1)``.

        Returns the pages that should reach the backchannel queue (in
        access order): misses that survived cache absorption and the
        threshold filter.  The engine offers them — or discards them when
        the algorithm has no backchannel — while filtered/unoffered
        clients still wait for the push program, and absorbed accesses
        complete instantly as zero-wait cache hits.
        """
        horizon = t + 1.0
        due = np.flatnonzero(self.next_access < horizon)
        if due.size == 0:
            return _NO_PAGES
        out: list[np.ndarray] = []
        while due.size:
            ranks = self._sampler.sample(due.size)
            now = self.next_access[due]
            self.generated += int(due.size)
            absorbed = self.steady[due] & (
                self._value_order[ranks] < self._absorb_limit[due])

            hit_idx = due[absorbed]
            if hit_idx.size:
                self.absorbed_by_cache += int(hit_idx.size)
                self.wait_count[hit_idx] += 1  # zero-wait completion
                self.next_access[hit_idx] = (
                    now[absorbed]
                    + self._rng.exponential(self.think_means[hit_idx]))

            miss_idx = due[~absorbed]
            if miss_idx.size:
                # The client's rank-space draw maps to a wire page by its
                # personal rotation of the popularity ranking.
                pages = (ranks[~absorbed] + self.offsets[miss_idx]) \
                    % self._db_size
                self.outstanding[miss_idx] = pages
                self.requested_at[miss_idx] = now[~absorbed]
                self.next_access[miss_idx] = math.inf
                if self._dist_flat is not None:
                    base = schedule_pos % self._cycle
                    filtered = (self._dist_flat[pages * self._cycle + base]
                                <= self._threshold_slots)
                    self.filtered_by_threshold += int(filtered.sum())
                    send = pages[~filtered]
                else:
                    send = pages
                self.offered += int(send.size)
                if send.size:
                    out.append(send)
                waiting = self._waiting_by_page
                for client, page in zip(miss_idx.tolist(), pages.tolist()):
                    waiting.setdefault(page, []).append(client)

            # Only clients that just completed (hits) can come due again
            # within this slot; everyone else is waiting or thinking past
            # the horizon — no second O(N) scan.
            due = (hit_idx[self.next_access[hit_idx] < horizon]
                   if hit_idx.size else hit_idx)
        if not out:
            return _NO_PAGES
        return out[0] if len(out) == 1 else np.concatenate(out)
