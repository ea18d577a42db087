"""Detection rules shared by the engine and its tests: the verdict kinds,
the rank gap ``DV_RANK`` and the adaptive flood threshold.

The rank rule compares two gaps for an incoming DIO:

* ``dv_rank``: |parent rank - own rank|. Under hop-count ranks a node's
  rank is its parent's plus one, so this is ``DV_RANK``, one hop, and is
  not stored; a node without a parent scores against it too;
* ``di_rank``: |advertised rank in the DIO - own rank|, which the engine
  computes per incoming DIO.

A DIO is malicious iff di_rank > dv_rank (strict). The APT-RREQ flood rule
flags a neighbor whose fast average of hello RREQ counts strictly exceeds
the listener's threshold: a fixed one, or ``adaptive_threshold`` of its
neighbors' warm-up counts. The engine keeps the averages, on the sender
nodes, and acts on every verdict.
"""

from __future__ import annotations

from math import isqrt, ldexp
from typing import Optional

BENIGN = "benign"
MALICIOUS_RANK = "malicious_rank"
MALICIOUS_FLOOD = "malicious_flood"

DV_RANK = 1  # the rank gap to the parent under hop-count ranks


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
