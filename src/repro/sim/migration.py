"""Migration accounting during simulation.

The engine diffs consecutive placement decisions; every thread that moved
owes a migration penalty (private-L1 flush + demand refill, see
:class:`repro.arch.cache.MigrationCostModel`).  The penalty is charged as
*execution-time debt*: the thread makes no forward progress until its debt
is paid.  Debt larger than one interval carries over.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Tuple

import numpy as np

from ..arch.cache import MigrationCostModel


class MigrationAccountant:
    """Tracks per-thread migration debt and aggregate statistics."""

    def __init__(self, cost_model: MigrationCostModel):
        self.cost_model = cost_model
        self._debt_s: Dict[str, float] = {}
        #: migration penalty per (src, dst) core pair, filled on first use
        #: (a pure function of the platform)
        self._penalty_s: Dict[Tuple[int, int], float] = {}
        #: total number of migrations charged
        self.migration_count = 0
        #: total execution time lost to migrations [thread-seconds]
        self.total_penalty_s = 0.0

    def charge_moves(
        self, previous: Mapping[str, int], current: Mapping[str, int]
    ) -> List[Tuple[str, int, int]]:
        """Charge every thread that moved between two placements.

        Returns the list of ``(thread, src, dst)`` moves.  Threads appearing
        only in ``current`` (new arrivals) are charged a cold-start refill
        from their initial placement (their caches start empty, which costs
        the same refill).
        """
        if current == previous:
            return []
        moves = []
        for thread, dst in current.items():
            src = previous.get(thread)
            if src is None:
                penalty = self.cost_model.refill_time_s(dst)
                self._debt_s[thread] = self._debt_s.get(thread, 0.0) + penalty
                self.total_penalty_s += penalty
                continue
            if src != dst:
                penalty = self._penalty_s.get((src, dst))
                if penalty is None:
                    penalty = self.cost_model.migration_penalty_s(src, dst)
                    self._penalty_s[(src, dst)] = penalty
                self._debt_s[thread] = self._debt_s.get(thread, 0.0) + penalty
                self.total_penalty_s += penalty
                self.migration_count += 1
                moves.append((thread, src, dst))
        return moves

    def consume_debt(self, thread: str, available_s: float) -> float:
        """Pay down a thread's debt; returns execution time remaining."""
        return float(self.consume_debts((thread,), available_s)[0])

    def consume_debts(
        self, threads: Collection[str], available_s: float
    ) -> np.ndarray:
        """:meth:`consume_debt` for each of ``threads`` in turn (one
        interval's placed threads), as an array of remaining execution
        times."""
        if available_s < 0:
            raise ValueError("available time must be non-negative")
        debts = self._debt_s
        if not debts:
            return np.full(len(threads), available_s)
        remaining_s = []
        for thread in threads:
            debt = debts.get(thread, 0.0)
            if debt <= 0.0:
                remaining_s.append(available_s)
                continue
            paid = min(debt, available_s)
            remaining_debt = debt - paid
            if remaining_debt > 0:
                debts[thread] = remaining_debt
            else:
                debts.pop(thread, None)
            remaining_s.append(available_s - paid)
        return np.array(remaining_s)

    def outstanding_debt_s(self, thread: str) -> float:
        """Unpaid migration debt of a thread."""
        return self._debt_s.get(thread, 0.0)

    def forget(self, thread: str) -> None:
        """Drop bookkeeping for an exited thread."""
        self._debt_s.pop(thread, None)
