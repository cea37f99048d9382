"""Independent oracles shared by the test modules.

The transition matrices here are written directly from the state diagrams,
on purpose not reusing any closed-form recursion from the package, so they
can arbitrate the analytical solutions. The collision probability is the
explicit binomial tail the package's closed form telescopes, and the root
finder is plain bisection, to arbitrate the package's fixed point.
"""

import math

import numpy as np
from scipy.special import gammaln


def collision_probability_binomial(tau, n_ue, n_cb):
    """P(>= 1 of the other n_ue - 1 devices picks this preamble and slot).

    The explicit binomial tail sum over k = 1 .. n_ue - 1 colliders, with
    log-gamma coefficients so device counts up to 1e5 stay finite.
    """
    n = n_ue - 1
    q = tau / n_cb
    if n == 0 or q == 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    k = np.arange(1, n + 1, dtype=np.float64)
    log_terms = (
        gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
        + k * math.log(q) + (n - k) * math.log1p(-q)
    )
    return float(min(1.0, np.exp(log_terms).sum()))


def root_by_bisection(h, lo=0.0, hi=1.0):
    """Root of h on [lo, hi] (h(lo) >= 0 > h(hi)), bisected to the last bit."""
    assert h(lo) >= 0.0 > h(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if h(mid) >= 0.0:
            lo = mid
        else:
            hi = mid


def fourstep_transition_matrix(M, detect, p2, p3, p4, p_conn, p_idle):
    """Explicit four-step chain: states [C, I, (m,1..4) for m=1..M]."""
    size = 2 + 4 * M
    P = np.zeros((size, size))
    P[0, 0] = p_conn
    P[0, 1] = 1 - p_conn
    P[1, 1] = p_idle
    P[1, 2] = 1 - p_idle
    for m in range(1, M + 1):
        base = 2 + 4 * (m - 1)
        nxt = 2 + 4 * m if m < M else 1
        pm1 = detect[m - 1]
        P[base + 0, base + 1] = pm1
        P[base + 0, nxt] = 1 - pm1
        P[base + 1, base + 2] = p2
        P[base + 1, nxt] += 1 - p2
        P[base + 2, base + 3] = p3
        P[base + 2, nxt] += 1 - p3
        P[base + 3, 0] = p4
        P[base + 3, nxt] += 1 - p4
    return P


def twostep_transition_matrix(M, detect, p2, p_conn, p_idle):
    """Explicit two-step chain: states [C, I, (m,1..2) for m=1..M]."""
    size = 2 + 2 * M
    P = np.zeros((size, size))
    P[0, 0] = p_conn
    P[0, 1] = 1 - p_conn
    P[1, 1] = p_idle
    P[1, 2] = 1 - p_idle
    for m in range(1, M + 1):
        base = 2 + 2 * (m - 1)
        nxt = 2 + 2 * m if m < M else 1
        pm1 = detect[m - 1]
        P[base + 0, base + 1] = pm1
        P[base + 0, nxt] = 1 - pm1
        P[base + 1, 0] = p2
        P[base + 1, nxt] += 1 - p2
    return P


def stationary_by_power_iteration(P, squarings=80):
    """Stationary distribution via repeated squaring of the matrix.

    Squaring k times applies the chain for 2**k steps; rows are
    renormalized each squaring to hold off drift.
    """
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    Q = P.copy()
    for _ in range(squarings):
        Q = Q @ Q
        Q /= Q.sum(axis=1, keepdims=True)
    pi = Q.mean(axis=0)
    return pi / pi.sum()


def solution_vector(solution):
    """Flatten a StationarySolution into the oracle's state order."""
    return np.concatenate(
        ([solution.pi_connected, solution.pi_inactive], solution.pi.ravel())
    )
