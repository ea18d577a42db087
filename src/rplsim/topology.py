"""Random geometric topology generation under the unit-disk connectivity rule."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .errors import ConnectivityFailure
from .scenario import MAX_CONNECTIVITY_ATTEMPTS, ScenarioConfig


@dataclass(frozen=True)
class Topology:
    """Node placement plus derived unit-disk adjacency.

    ``adjacency[i]`` is the sorted tuple of neighbors of node ``i``;
    two nodes are adjacent iff their Euclidean distance is <= tx_range.
    """

    positions: tuple[tuple[float, float], ...]
    root_id: int
    adjacency: tuple[tuple[int, ...], ...]
    attacker_set: frozenset[int] = field(default_factory=frozenset)

    @property
    def node_count(self) -> int:
        return len(self.positions)


def _build_adjacency(positions, tx_range):
    n = len(positions)
    limit = tx_range * tx_range
    neigh = [[] for _ in range(n)]
    for i in range(n):
        xi, yi = positions[i]
        for j in range(i + 1, n):
            dx = xi - positions[j][0]
            dy = yi - positions[j][1]
            if dx * dx + dy * dy <= limit:
                neigh[i].append(j)
                neigh[j].append(i)
    return tuple(tuple(row) for row in neigh)  # rows already sorted by construction


def hop_counts(adjacency, root) -> list[int]:
    """Breadth-first hop distances from ``root``; -1 for a node it cannot reach."""
    counts = [-1] * len(adjacency)
    counts[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        next_count = counts[u] + 1
        for v in adjacency[u]:
            if counts[v] < 0:
                counts[v] = next_count
                queue.append(v)
    return counts


def _nearest_to_center(positions, area) -> int:
    cx, cy = area[0] / 2.0, area[1] / 2.0
    best = 0
    best_d = float("inf")
    for i, (x, y) in enumerate(positions):
        d = (x - cx) ** 2 + (y - cy) ** 2
        if d < best_d:
            best = i
            best_d = d
    return best


def generate_topology(cfg: ScenarioConfig) -> Topology:
    """Generate a connected random topology from a seeded PRNG.

    Positions are i.i.d. uniform over the area (Mersenne Twister, seeded
    with cfg.seed, so runs replay identically across platforms). The root
    is the node nearest the area center. Attackers are drawn uniformly
    among non-root nodes, |attackers| = round(malicious_fraction * n).
    Re-samples until every node is reachable from the root, up to a bounded
    number of attempts.
    """
    rng = random.Random(cfg.seed)
    w, h = cfg.area
    n = cfg.node_count
    for _ in range(MAX_CONNECTIVITY_ATTEMPTS):
        positions = tuple((rng.uniform(0.0, w), rng.uniform(0.0, h)) for _ in range(n))
        adjacency = _build_adjacency(positions, cfg.tx_range)
        root_id = _nearest_to_center(positions, cfg.area)
        if min(hop_counts(adjacency, root_id)) >= 0:
            break
    else:
        raise ConnectivityFailure(
            "no connected topology in %d attempts (n=%d, area=%gx%g, tx_range=%g)"
            % (MAX_CONNECTIVITY_ATTEMPTS, n, w, h, cfg.tx_range)
        )
    attacker_count = round(cfg.malicious_fraction * n)
    candidates = [i for i in range(n) if i != root_id]
    attackers = frozenset(rng.sample(candidates, attacker_count))
    return Topology(
        positions=positions,
        root_id=root_id,
        adjacency=adjacency,
        attacker_set=attackers,
    )
