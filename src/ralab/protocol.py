"""Context-id message flow for the two-step access procedure.

A device keeps a context id while suspended. The id deterministically maps
to a preamble id and an offset index, so the base station can shortlist
which devices could have sent a given preamble in a given slot and answer
each candidate with an individually addressed response, carrying an uplink
grant only when :func:`grant_threshold` allows it, ``t >= t0 + T - alpha``
with ``t0`` the estimate's ``anchor_ms``.  The device's estimator state
alone holds that schedule; the registry holds only the ids, since an id
fixes its preamble and offset class.
"""

from __future__ import annotations

import heapq
import math

from . import core
from .estimator import EstimatorState


class AllocationError(RuntimeError):
    """No free context id for the requested cell."""


def select_preamble(id_: int, n_total: int, n_cr: int) -> int:
    """Preamble id assigned to context id ``id_``.

    The two-step pool occupies the top ``n_cr`` preamble ids; ids cycle
    through it from the top down.
    """
    if id_ < 1:
        raise ValueError("id must be >= 1")
    if not 1 <= n_cr <= n_total:
        raise ValueError(f"n_cr must be in [1, {n_total}], got {n_cr!r}")
    return n_total - 1 - ((id_ - 1) % n_cr)


def select_offset_index(id_: int, n_cr: int, t_p: int) -> int:
    """Offset index (transmission slot class) assigned to ``id_``."""
    if id_ < 1:
        raise ValueError("id must be >= 1")
    if n_cr < 1:
        raise ValueError("n_cr must be >= 1")
    if t_p not in (1, 2, 3):
        raise ValueError(f"t_p must be in {{1, 2, 3}}, got {t_p!r}")
    return ((id_ - 1) % (n_cr * t_p)) // n_cr + 1


def cell_id(pid: int, t_ind: int, k: int, n_total: int, n_cr: int, t_p: int) -> int:
    """The ``k``-th context id (k >= 0) mapping to cell ``(pid, t_ind)``."""
    if not n_total - n_cr <= pid < n_total:
        raise ValueError("pid outside the two-step pool")
    if not 1 <= t_ind <= t_p:
        raise ValueError("t_ind out of range")
    if k < 0:
        raise ValueError("k must be >= 0")
    return 1 + (n_total - 1 - pid) + n_cr * (t_ind - 1) + n_cr * t_p * k


class BsRegistry:
    """Base-station view: the registered context ids, plus each cell's
    ids keyed by the ``(pid, t_ind)`` that :func:`select_preamble` and
    :func:`select_offset_index` give them."""

    def __init__(self, n_total: int, n_cr: int, t_p: int, ids_per_cell: int) -> None:
        if not 0 <= n_cr <= n_total:
            raise ValueError("n_cr must be in [0, n_total]")
        if t_p not in (1, 2, 3):
            raise ValueError("t_p must be in {1, 2, 3}")
        if ids_per_cell < 1:
            raise ValueError("ids_per_cell must be >= 1")
        self.n_total = n_total
        self.n_cr = n_cr
        self.t_p = t_p
        self.ids_per_cell = ids_per_cell
        self.ids: set[int] = set()
        self._cells: dict[tuple[int, int], list[int]] = {}
        # (pid, t_ind) -> a cell index k at or below the cell's smallest free
        # one (see allocate_context_id); ids are never released
        self._free_k: dict[tuple[int, int], int] = {}
        self.grew_capacity = False
        # (load, pid, t_ind) of every event cell, a heap whose stored loads
        # may lag the cells' current ones (see allocate_context_id); sorted,
        # so already a heap
        self._event_heap = [
            (0, pid, t_ind) for pid in self.event_pids() for t_ind in range(1, t_p + 1)
        ]

    @property
    def reserved_pid(self) -> int:
        """Preamble id shared by all periodic-traffic devices."""
        return self.n_total - 1

    def event_pids(self) -> range:
        """Preamble ids available to event-traffic devices."""
        return range(self.n_total - self.n_cr, self.n_total - 1)

    def add(self, id_: int) -> None:
        """Register ``id_`` under its cell; a registered or invalid id
        raises ``ValueError``."""
        if id_ in self.ids:
            raise ValueError(f"id {id_} already registered")
        cell = (select_preamble(id_, self.n_total, self.n_cr),
                select_offset_index(id_, self.n_cr, self.t_p))
        self.ids.add(id_)
        self._cells.setdefault(cell, []).append(id_)

    def ids_for_cell(self, pid: int, t_ind: int) -> list[int]:
        return self._cells.get((pid, t_ind), [])

    def cell_load(self, pid: int, t_ind: int) -> int:
        return len(self._cells.get((pid, t_ind), ()))


def filter_candidates(registry: BsRegistry, pid: int, rx_slot: int) -> list[int]:
    """Ids that could have sent ``pid`` in ``rx_slot`` (shortlist step).

    Matches on the preamble id and on the slot class: the id's offset index
    must be the class of the frame slot of ``rx_slot`` (``core.SLOT_CLASS``;
    no cell has class 0). An empty result is valid.
    """
    t_ind = core.SLOT_CLASS[registry.t_p][rx_slot % core.FRAME_LEN]
    return sorted(registry.ids_for_cell(pid, t_ind))


def grant_threshold(state: EstimatorState) -> float:
    """Earliest response time at which the device of ``state`` gets an
    uplink grant.

    A periodic device is granted only when its next packet is plausibly
    due, ``t >= t0 + T - alpha``: ``t0`` is the estimate's ``anchor_ms``,
    the fitted reception time of its latest access, ``T`` the estimated
    period and ``alpha`` the margin.  A device that is not classified yet,
    is classified as event traffic, or has had no access since its
    classification is never gated (``-inf``).
    """
    est = state.estimate
    if est is None or est.kind != "periodic" or not state.times:
        return -math.inf
    return est.anchor_ms + est.period_ms - est.margin_ms


def allocate_context_id(
    registry: BsRegistry,
    traffic_kind: str,
    preferred_offset: int | None = None,
) -> int:
    """Allocate a fresh context id, register the device and return the id.

    Periodic devices share the reserved (highest) preamble and take the
    offset class ``preferred_offset`` chosen from their observed pattern.
    Event devices take the least-loaded cell among the remaining
    ``n_cr - 1`` preambles (ties to the smallest pid, then offset). Within a
    cell the smallest unused id is assigned; a full cell grows past
    ``ids_per_cell`` and sets ``registry.grew_capacity``.  The search starts
    from the cell's last allocated index plus one: ids are never released,
    so no smaller index frees up, and an id that ``BsRegistry.add``
    registered directly is stepped over.

    The event cell comes from a heap of ``(load, pid, t_ind)`` entries, one
    per cell, refreshed lazily: a top entry whose stored load differs from
    the cell's current ``cell_load`` is replaced by the current one and the
    heap is read again.  Cell loads never shrink, so every stored entry is
    at most its cell's current key, and a top entry that is current is the
    smallest current key of all cells: the same cell as a scan of every
    cell with the same tie-break, even after direct ``BsRegistry.add``
    calls.
    """
    n_total, n_cr, t_p = registry.n_total, registry.n_cr, registry.t_p
    if traffic_kind == "periodic":
        if n_cr < 1:
            raise AllocationError("no two-step pool configured")
        if preferred_offset is None or not 1 <= preferred_offset <= t_p:
            raise ValueError("periodic allocation needs a valid preferred_offset")
        pid, t_ind = registry.reserved_pid, preferred_offset
    elif traffic_kind == "event":
        if n_cr < 2:
            raise AllocationError("need n_cr >= 2 to serve event devices")
        heap = registry._event_heap
        while True:
            load, pid, t_ind = heap[0]
            current = registry.cell_load(pid, t_ind)
            if current == load:
                break
            heapq.heapreplace(heap, (current, pid, t_ind))
    else:
        raise ValueError(f"traffic_kind must be 'periodic' or 'event', got {traffic_kind!r}")

    ids, stride = registry.ids, n_cr * t_p
    k = registry._free_k.get((pid, t_ind), 0)
    id_ = cell_id(pid, t_ind, k, n_total, n_cr, t_p)
    while id_ in ids:
        k += 1
        id_ += stride
    registry._free_k[(pid, t_ind)] = k + 1
    if k >= registry.ids_per_cell:
        registry.grew_capacity = True
    registry.add(id_)
    return id_
