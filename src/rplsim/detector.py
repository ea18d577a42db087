"""Detection engine: rank-anomaly classification of DIOs plus EWMA-based
RREQ flood detection, with blacklist/report side effects driven by the
event engine.

Two rank features decide whether an incoming DIO is irrational:

* ``dv_rank``: |parent rank - own rank|. Under hop-count ranks a node's
  rank is its parent's plus one, so this is ``DV_RANK``, one hop, and is
  not stored; a node without a parent scores against it too;
* ``di_rank``: |advertised rank in the DIO - own rank|, computed per
  incoming DIO.

A DIO is malicious iff di_rank > dv_rank (strict). Flood detection keeps
two exponentially weighted moving averages of per-neighbor RREQ counts
(a slow track for general observation, a fast track that drives the
verdict) and flags a neighbor whose average strictly exceeds a threshold.
"""

from __future__ import annotations

from math import isqrt, ldexp
from typing import Optional

BENIGN = "benign"
MALICIOUS_RANK = "malicious_rank"
MALICIOUS_FLOOD = "malicious_flood"

DV_RANK = 1  # the rank gap to the parent under hop-count ranks


def compute_di_rank(node_rank: int, sender_advertised_rank: int) -> int:
    """Rank gap between a node and the rank advertised in an incoming DIO."""
    return abs(sender_advertised_rank - node_rank)


def adaptive_threshold(n: int, total: int, squares: int) -> Optional[float]:
    """mean + 3 * population stddev of n warm-up RREQ counts from their int
    sum and sum of squares; None below two (flood detection stays off,
    which validate_config rules out for flooder runs). The stddev is
    sqrt((n*squares - total**2) / n**2) correctly rounded: a round-to-odd
    integer root at 2*53+3 bits, rounded once to float, as in Python
    3.11's statistics.pstdev, so every interpreter gives the same bits."""
    if n < 2:
        return None
    num, den = n * squares - total * total, n * n
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = isqrt(num // den)
    root |= root * root * den != num
    return float(total) / n + 3.0 * ldexp(root, shift)
