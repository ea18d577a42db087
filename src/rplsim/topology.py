"""Random geometric topology generation under the unit-disk connectivity rule.

Two nodes are adjacent iff ``dx * dx + dy * dy <= tx_range * tx_range`` in
float arithmetic, with ``dx`` and ``dy`` their coordinate differences.
Testing every pair costs n(n-1)/2 tests, so ``_build_adjacency`` puts each
node in a square cell of side ``size``, a hair wider than ``tx_range``,
keyed by ``(x // size, y // size)``, and tests only the pairs in one cell
or in two cells that touch, each pair once. That gives the same adjacency
tuples as testing every pair:

- ``fl(a - b) == -fl(b - a)``, so the order of a pair does not change
  ``dx * dx``, nor whether the pair is accepted;
- Python's float ``//`` gives the exact floor of the quotient (below
  2**52), so a cell holds exactly the points of its half-open square;
- a pair the test accepts is less than ``tx_range * (1 + 4 ulp)`` apart,
  since each rounding in the test and in ``tx_range * tx_range`` errs by
  at most half an ulp. That is less than ``size``, so along either axis
  its two points are never two cells apart.

Each node's row of neighbors is sorted once it is complete.
"""

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


# The cell side over tx_range: wide enough that rounding in the range test
# cannot accept a pair two cells apart (see the module docstring).
_CELL_WIDENING = 1.0 + 1e-9
# Each cell's pairs with the cells after it in (x, y) order; with the pairs
# inside the cell, each touching pair of cells is visited once.
_FORWARD_CELLS = ((1, -1), (1, 0), (1, 1), (0, 1))


def _build_adjacency(positions, tx_range):
    """The unit-disk adjacency of ``positions``, one sorted tuple of
    neighbors per node, from a uniform cell grid (see the module docstring)."""
    limit = tx_range * tx_range
    size = tx_range * _CELL_WIDENING
    cells = {}
    for i, (x, y) in enumerate(positions):
        cells.setdefault((int(x // size), int(y // size)), []).append((i, x, y))
    neigh = [[] for _ in positions]
    for (cx, cy), here in cells.items():
        near = [p for ox, oy in _FORWARD_CELLS for p in cells.get((cx + ox, cy + oy), ())]
        for k, (i, xi, yi) in enumerate(here):
            row = neigh[i]
            for j, xj, yj in here[k + 1:] + near:
                dx = xi - xj
                dy = yi - yj
                if dx * dx + dy * dy <= limit:
                    row.append(j)
                    neigh[j].append(i)
    return tuple(tuple(sorted(row)) for row in neigh)


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
