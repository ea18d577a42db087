"""Detection engine: rank-anomaly classification of DIOs plus EWMA-based
RREQ flood detection, with blacklist/report side effects driven by the
event engine.

Two rank features decide whether an incoming DIO is irrational:

* ``dv_rank``: |parent rank - own rank|, stored when the routing table is
  created or updated;
* ``di_rank``: |advertised rank in the DIO - own rank|, computed per
  incoming DIO.

A DIO is malicious iff di_rank > dv_rank (strict). Flood detection keeps
two exponentially weighted moving averages of per-neighbor RREQ counts
(a slow track for general observation, a fast track that drives the
verdict) and flags a neighbor whose average strictly exceeds a threshold.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InvalidAlpha, MissingDvRank, NoParent, UnknownNeighbor

BENIGN = "benign"
MALICIOUS_RANK = "malicious_rank"
MALICIOUS_FLOOD = "malicious_flood"


@dataclass(frozen=True, slots=True)
class RankEvidence:
    dv_rank: Optional[int]
    di_rank: int
    sender_id: int
    receiver_id: int
    time_s: float


@dataclass(frozen=True, slots=True)
class FloodEvidence:
    apt_value: float
    threshold: float
    sender_id: int
    receiver_id: int
    time_s: float


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: str  # BENIGN | MALICIOUS_RANK | MALICIOUS_FLOOD
    evidence: Union[RankEvidence, FloodEvidence]

    @property
    def malicious(self) -> bool:
        return self.kind != BENIGN


def compute_dv_rank(node_rank: int, parent_rank: Optional[int]) -> int:
    """Rank gap between a node and its selected parent."""
    if parent_rank is None:
        raise NoParent("dv_rank undefined without a parent")
    return abs(parent_rank - node_rank)


def compute_di_rank(node_rank: int, sender_advertised_rank: int) -> int:
    """Rank gap between a node and the rank advertised in an incoming DIO."""
    return abs(sender_advertised_rank - node_rank)


def classify_dio(evidence: RankEvidence) -> Verdict:
    """Malicious iff di_rank > dv_rank, strictly; equality is benign."""
    if evidence.dv_rank is None:
        raise MissingDvRank("evidence has no dv_rank")
    kind = MALICIOUS_RANK if evidence.di_rank > evidence.dv_rank else BENIGN
    return Verdict(kind, evidence)


class AptState:
    """Per-neighbor moving average of RREQ counts for one smoothing factor.

    First sample sets the average to the sample itself; afterwards
    s = alpha * x + (1 - alpha) * s. The average therefore always lies
    within [min(samples), max(samples)]. This is the single-track
    reference for the two tracks NodeDetector keeps per neighbor.
    """

    __slots__ = ("alpha", "_cells")

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise InvalidAlpha("alpha must be in (0, 1], got %r" % (alpha,))
        self.alpha = alpha
        self._cells: dict[int, list] = {}  # neighbor -> [s, sample_count]

    def update(self, neighbor: int, x_t: float) -> float:
        if x_t < 0:
            raise ValueError("RREQ count must be >= 0")
        cell = self._cells.get(neighbor)
        if cell is None:
            self._cells[neighbor] = [float(x_t), 1]
            return float(x_t)
        # s + a*(x - s) == a*x + (1-a)*s, but keeps constant inputs an
        # exact fixed point in floating point.
        cell[0] += self.alpha * (x_t - cell[0])
        cell[1] += 1
        return cell[0]

    def value(self, neighbor: int) -> float:
        try:
            return self._cells[neighbor][0]
        except KeyError:
            raise UnknownNeighbor("no samples for neighbor %r" % (neighbor,))

    def sample_count(self, neighbor: int) -> int:
        cell = self._cells.get(neighbor)
        return cell[1] if cell else 0

    def neighbors(self):
        return self._cells.keys()


def update_apt_rreq(state: AptState, neighbor: int, x_t: float) -> float:
    """Feed one per-period RREQ count into the moving average; returns the
    new average."""
    return state.update(neighbor, x_t)


def check_flooding(state: AptState, neighbor: int, threshold: float) -> Verdict:
    """Malicious iff the neighbor's average strictly exceeds the threshold."""
    value = state.value(neighbor)  # raises UnknownNeighbor
    kind = MALICIOUS_FLOOD if value > threshold else BENIGN
    return Verdict(kind, FloodEvidence(value, threshold, neighbor, -1, -1.0))


def adaptive_threshold(samples) -> Optional[float]:
    """mean + 3 * population stddev of warm-up RREQ counts; None when there
    are not enough samples to calibrate (flood detection then stays off)."""
    if len(samples) < 2:
        return None
    return statistics.fmean(samples) + 3.0 * statistics.pstdev(samples)


class NodeDetector:
    """Detector state owned by one node: dual EWMA tracks, calibration
    samples, flood threshold, and report duplicate-suppression. The engine
    updates the tracks in place on each hello it receives."""

    __slots__ = ("alpha_low", "alpha_high", "apt", "warmup_samples", "threshold",
                 "reported")

    def __init__(self, alpha_low: float, alpha_high: float,
                 threshold: Optional[float] = None):
        self.alpha_low = alpha_low
        self.alpha_high = alpha_high
        self.apt: dict[int, list] = {}  # neighbor -> [slow average, fast average]
        self.warmup_samples: list[float] = []
        self.threshold = threshold
        self.reported: set[int] = set()

    def calibrate(self) -> Optional[float]:
        """Freeze the adaptive threshold from warm-up samples (no-op when a
        fixed threshold was configured)."""
        if self.threshold is None:
            self.threshold = adaptive_threshold(self.warmup_samples)
        return self.threshold
