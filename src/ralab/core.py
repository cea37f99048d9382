"""Slot arithmetic, transmission schedules, latency budget.

Shared vocabulary for the whole package:

* time advances in slots of ``t_tti`` ms (default 0.5); a frame is 10 slots;
* the preamble space of size ``n_total`` splits into a contention-free pool
  (``n_cf``), a pool for the two-step procedure (``n_cr``, the highest ids),
  and a pool for the four-step procedure (``n_cb``), as a scenario sets them;
* a schedule period ``t_p`` in {1, 2, 3} partitions the frame slots into
  ``t_p`` disjoint classes; a device with offset index ``t_ind`` may transmit
  a preamble only in slots of its own class;
* the slot length ``t_tti`` is a multiple of ``TTI_GRID_MS`` (0.125 ms,
  which covers the NR slot lengths 1, 0.5, 0.25 and 0.125 ms), and a
  scenario with any other value is rejected; slot times ``s * t_tti`` and the
  fixed latency budget below are then exact binary fractions, and sums and
  differences of them are exact in float arithmetic.
"""

from __future__ import annotations

FRAME_LEN = 10
DEFAULT_T_TTI_MS = 0.5
TTI_GRID_MS = 0.125  # every slot length is a whole multiple of this

# Fixed per-message latency budget of contention-based access (ms):
# scheduling alignment, preamble tx, detection + response tx, device
# processing, connection-request tx, base-station processing, setup tx,
# device processing.
LATENCY_COMPONENTS_MS = (0.25, 0.5, 1.5, 1.25, 0.5, 1.0, 0.5, 3.0)

CP_FOURSTEP_MS = sum(LATENCY_COMPONENTS_MS)     # 8.5: all eight components
CP_TWOSTEP_MS = sum(LATENCY_COMPONENTS_MS[:4])  # 3.5: two-message exchange
UP_DATA_MS = 3.0  # uplink data transmission after access completes
TOTAL_FOURSTEP_MS = CP_FOURSTEP_MS + UP_DATA_MS
TOTAL_TWOSTEP_MS = CP_TWOSTEP_MS + UP_DATA_MS

_ALL_SLOTS = frozenset(range(FRAME_LEN))

# For each period, the allowed frame-slot classes indexed by t_ind - 1.
_SCHEDULE_TABLES: dict[int, tuple[frozenset[int], ...]] = {
    1: (_ALL_SLOTS,),
    2: (frozenset({0, 2, 4, 6, 8}), frozenset({1, 3, 5, 7, 9})),
    3: (frozenset({1, 4, 7}), frozenset({2, 5, 8}), frozenset({3, 6, 9})),
}

# _WAIT_SLOTS[t_p][t_ind - 1][frame_slot] = slots to wait until the next
# allowed slot (0 when frame_slot itself is allowed).
_WAIT_SLOTS: dict[int, tuple[tuple[int, ...], ...]] = {}
for _tp, _sets in _SCHEDULE_TABLES.items():
    _rows = []
    for _allowed in _sets:
        _row = []
        for _fs in range(FRAME_LEN):
            _w = 0
            while (_fs + _w) % FRAME_LEN not in _allowed:
                _w += 1
            _row.append(_w)
        _rows.append(tuple(_row))
    _WAIT_SLOTS[_tp] = tuple(_rows)
del _tp, _sets, _rows, _allowed, _row, _fs, _w


def allowed_slots(t_p: int, t_ind: int) -> frozenset[int]:
    """Frame-slot numbers in which offset class ``t_ind`` may transmit.

    Parameters
    ----------
    t_p : int
        Schedule period in slots, one of {1, 2, 3}.
    t_ind : int
        Offset index, 1 <= t_ind <= t_p.
    """
    if t_p not in _SCHEDULE_TABLES:
        raise ValueError(f"t_p must be in {{1, 2, 3}}, got {t_p!r}")
    if not 1 <= t_ind <= t_p:
        raise ValueError(f"t_ind must be in [1, {t_p}], got {t_ind!r}")
    return _SCHEDULE_TABLES[t_p][t_ind - 1]


def mean_class_stride_slots(t_p: int) -> float:
    """Mean slot distance between consecutive allowed slots of one class.

    Each class owns ``10 / t_p`` of the frame on average; this is the
    quantization step of any schedule expressed in transmission
    opportunities, so it bounds how sharp a timing prediction can be.
    """
    if t_p not in _SCHEDULE_TABLES:
        raise ValueError(f"t_p must be in {{1, 2, 3}}, got {t_p!r}")
    return FRAME_LEN / 3.0 if t_p == 3 else float(t_p)


def next_tx_slot(gen_slot: int, t_p: int, t_ind: int) -> int:
    """Smallest absolute slot >= ``gen_slot`` allowed for class ``t_ind``.

    The wait never exceeds one frame.
    """
    if gen_slot < 0:
        raise ValueError(f"gen_slot must be >= 0, got {gen_slot!r}")
    if t_p not in _WAIT_SLOTS:
        raise ValueError(f"t_p must be in {{1, 2, 3}}, got {t_p!r}")
    if not 1 <= t_ind <= t_p:
        raise ValueError(f"t_ind must be in [1, {t_p}], got {t_ind!r}")
    return gen_slot + _WAIT_SLOTS[t_p][t_ind - 1][gen_slot % FRAME_LEN]
