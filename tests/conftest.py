from collections import defaultdict

import pytest
from hypothesis import settings

from rplsim.scenario import ScenarioConfig
from rplsim.topology import Topology

# Property tests draw the same examples on every run (no example database,
# no random seed), so Tier-1 stays deterministic and its runtime fixed.
settings.register_profile("default", derandomize=True, database=None, deadline=None,
                          max_examples=50)


def chain_topology(n, attackers=(), extra_edges=()):
    """0-1-2-...-(n-1) line rooted at 0, plus optional extra edges."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.extend(extra_edges)
    return Topology.from_edges(n, edges, root_id=0, attackers=attackers)


def star_topology(k):
    """Root 0 with k leaves."""
    return Topology.from_edges(k + 1, [(0, i) for i in range(1, k + 1)], root_id=0)


def tiny_cfg(**overrides):
    """A fast, valid config for engine-level tests."""
    params = dict(node_count=10, area=(30.0, 30.0), tx_range=20.0,
                  malicious_fraction=0.0, duration_s=50.0, seed=7)
    params.update(overrides)
    return ScenarioConfig(**params)


@pytest.fixture
def cfg_factory():
    return tiny_cfg


def handle(eng, handler, t, a=0, b=0, c=0):
    """Run ``handler``, an ``Engine._on_<kind>``, on one item ``(a, b, c)``
    at ``t``, as ``Engine.run`` runs a queue entry that holds only it."""
    handler(eng, t, [(a, b, c)])


def rank_rule_oracle(events, attacker_set):
    """Brute-force replay: walk every DIO reception in transcript order and
    apply the gap rule directly, tracking per-receiver condemnations."""
    blacklists = defaultdict(set)
    flagged = set()
    predictions = {}
    for e in events:
        if e[0] != "dio_rx":
            continue
        _, t, receiver, sender, adv, recv_rank, recv_dv, _, _ = e
        if receiver in attacker_set or sender in blacklists[receiver]:
            continue
        dv = 1 if recv_dv is None else recv_dv
        di = abs(adv - recv_rank)
        kind = "malicious_rank" if di > dv else "benign"
        predictions[(t, receiver, sender)] = kind
        if kind == "malicious_rank":
            blacklists[receiver].add(sender)
            flagged.add(sender)
    return flagged, predictions


class AptState:
    """Single-track reference of the engine's APT-RREQ moving average, one
    cell per neighbor: the first sample sets the average, then
    s + alpha * (x - s)."""

    def __init__(self, alpha):
        self.alpha = alpha
        self._cells = {}

    def update(self, neighbor, x):
        s = self._cells.get(neighbor)
        s = float(x) if s is None else s + self.alpha * (x - s)
        self._cells[neighbor] = s
        return s
