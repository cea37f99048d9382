"""Slot arithmetic, transmission schedules, latency budget, detection law.

Shared vocabulary for the whole package:

* time advances in slots of ``t_tti`` ms (default 0.5); a frame is 10 slots;
* the preamble space of size ``n_total`` splits into a contention-free pool
  (``n_cf``), a pool for the two-step procedure (``n_cr``, the highest ids),
  and a pool for the four-step procedure (``n_cb``), as a scenario sets them;
* a schedule period ``t_p`` in {1, 2, 3} partitions the frame slots into
  ``t_p`` disjoint classes (``SLOT_CLASS``); a device with offset index
  ``t_ind`` may transmit a preamble only in slots of its own class;
* a preamble of load ``m`` (its sender's attempt index, summed over the
  senders sharing it) is detected with ``detection_prob(m) = 1 - e^{-m}``;
* a delivery through random access takes its procedure's fixed budget
  (``CP_TWOSTEP_MS``, ``CP_FOURSTEP_MS``) plus the scenario's ``t_up_ms``;
* the slot length ``t_tti`` is a multiple of ``TTI_GRID_MS`` (0.125 ms,
  which covers the NR slot lengths 1, 0.5, 0.25 and 0.125 ms), and a
  scenario with any other value is rejected; slot times ``s * t_tti`` and the
  fixed latency budget below are then exact binary fractions, and sums and
  differences of them are exact in float arithmetic.
"""

from __future__ import annotations

import math

FRAME_LEN = 10
TTI_GRID_MS = 0.125  # every slot length is a whole multiple of this

# Fixed per-message latency budget of contention-based access (ms):
# scheduling alignment, preamble tx, detection + response tx, device
# processing, connection-request tx, base-station processing, setup tx,
# device processing.
LATENCY_COMPONENTS_MS = (0.25, 0.5, 1.5, 1.25, 0.5, 1.0, 0.5, 3.0)

CP_FOURSTEP_MS = sum(LATENCY_COMPONENTS_MS)     # 8.5: all eight components
CP_TWOSTEP_MS = sum(LATENCY_COMPONENTS_MS[:4])  # 3.5: two-message exchange
UP_DATA_MS = 3.0  # default uplink data transmission after access completes

# SLOT_CLASS[t_p][frame_slot] = the offset class t_ind whose devices may
# transmit in that frame slot, 0 when none may
SLOT_CLASS: dict[int, tuple[int, ...]] = {
    1: (1,) * FRAME_LEN,
    2: (1, 2) * (FRAME_LEN // 2),
    3: (0,) + (1, 2, 3) * 3,
}

# _WAIT_SLOTS[t_p][t_ind - 1][frame_slot] = slots to wait until the next
# allowed slot (0 when frame_slot itself is allowed).
_WAIT_SLOTS: dict[int, tuple[tuple[int, ...], ...]] = {
    t_p: tuple(
        tuple(
            next(w for w in range(FRAME_LEN) if row[(fs + w) % FRAME_LEN] == t_ind)
            for fs in range(FRAME_LEN)
        )
        for t_ind in range(1, t_p + 1)
    )
    for t_p, row in SLOT_CLASS.items()
}


def detection_prob(load: float) -> float:
    """Probability that the base station detects a preamble of load ``load``.

    A device's m-th attempt has load m; devices sending the same preamble
    in the same slot superpose, and their loads add.  The law is
    ``1 - e^{-load}``, evaluated as ``-expm1(-load)``; at whole loads the
    two forms agree bit for bit.
    """
    if not load >= 0:
        raise ValueError(f"detection load must be >= 0, got {load!r}")
    return -math.expm1(-load)


def mean_class_stride_slots(t_p: int) -> float:
    """Mean slot distance between consecutive allowed slots of one class.

    Each class owns ``10 / t_p`` of the frame on average; this is the
    quantization step of any schedule expressed in transmission
    opportunities, so it bounds how sharp a timing prediction can be.
    """
    if t_p not in SLOT_CLASS:
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
