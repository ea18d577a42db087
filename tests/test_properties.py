"""Property tests of the four invariants the paper's claims rest on, over
random connected static graphs of at most 30 nodes:

* an attack-free run gives no non-benign verdict and an empty root
  blacklist (the hop-count argument in the ``rpl`` module docstring);
* the parent graph stays a forest whose only parentless nodes are the
  root and orphans;
* packets are conserved: emitted = delivered + dropped, where the packets
  still queued at the horizon count as ``sim_end``, and the trace gives
  every emitted packet exactly one fate (``audit_conservation``);
* every rank verdict equals the brute-force ``rank_rule_oracle``.

Three engine invariants are checked on the same runs: no parent
selection sees a table entry for a neighbor the node blacklists, no node
flags or reports a suspect twice, and a finished run leaves every grid
timer exactly one tick queued, at or past the horizon (the stall guard
relies on the DIO ticks).

Every adaptive flood threshold is also checked against a brute-force
calibration over the neighbors' warm-up hellos, which holds only if no
listener blacklisted anyone before the attack start. Every adjacency row,
generated or built from an edge list, is strictly ascending and
symmetric: the flood relies on it to visit receivers in neighbor order.
"""

import sys
from math import sqrt
from statistics import fmean, pstdev
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from rplsim.engine import Engine
from rplsim.errors import ConnectivityFailure, InvalidConfig
from rplsim.metrics import audit_conservation
from rplsim.rpl import select_parent
from rplsim.scenario import ScenarioConfig
from rplsim.topology import generate_topology

from conftest import queued, rank_rule_oracle, topology_from_edges

DURATION_S = 30.0


@st.composite
def connected_graphs(draw, min_nodes=2):
    """A random spanning tree (node i joins an earlier node) plus random
    extra edges, with a random root."""
    n = draw(st.integers(min_nodes, 30))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return n, edges, draw(node)


@st.composite
def attacked_runs(draw):
    """(config keywords, topology); the config is built by the test."""
    n, edges, root = draw(connected_graphs(min_nodes=3))
    others = [i for i in range(n) if i != root]
    attackers = draw(st.lists(st.sampled_from(others), max_size=max(1, n // 3), unique=True))
    params = dict(
        node_count=n,
        duration_s=DURATION_S,
        attack_type=draw(st.sampled_from(("sinkhole", "flooder"))),
        sinkhole_data_plane=draw(st.sampled_from(("drop", "alter"))),
        attack_start_s=draw(st.floats(0.0, 25.0)),
        attack_interval_s=draw(st.floats(0.25, 5.0)),
        detection_enabled=draw(st.booleans()),
        seed=1,
    )
    return params, topology_from_edges(n, edges, root_id=root, attackers=attackers)


def calibration_too_early(params):
    """A flooder run with detection on needs two hellos (sent at 1 s and
    2 s, heard 5 ms later) before the attack starts to calibrate its
    adaptive threshold."""
    return (params["attack_type"] == "flooder" and params["detection_enabled"]
            and not 2.005 < params["attack_start_s"])


def checked_select_parent(node, nodes):
    """``select_parent``, after checking that the node's table holds no
    neighbor it blacklists, which lets it skip the blacklist."""
    assert node.blacklist.isdisjoint(node.table)
    select_parent(node, nodes)


def assert_one_tick_per_grid_timer(eng):
    """The queue of a finished run holds exactly one item, at or past the
    horizon, of each started grid timer: the DIO and hello grids of every
    node, the traffic grid of the sources and the forged-DIO grid of the
    sinkholes, if there are any. Each item holds its grid's node tuple."""
    cfg, nodes = eng.cfg, eng.nodes
    every = tuple(n.id for n in nodes)
    sources = tuple(n.id for n in nodes if cfg.traffic.sources == "all"
                    or not (n.is_root or n.id in eng.topology.attacker_set))
    sinkholes = tuple(n.id for n in nodes if n.sinkhole)
    started = {grid: [nids] for grid, nids in (("dio", every), ("hello", every),
                                               ("traffic", sources), ("attack_dio", sinkholes))
               if nids}
    grids = {Engine._on_dio_timer: "dio", Engine._on_hello_timer: "hello",
             Engine._on_traffic: "traffic", Engine._on_attack_dio: "attack_dio"}
    ticks = {}
    for t, handler, items in queued(eng):
        if handler in grids:
            assert t >= cfg.duration_s
            ticks.setdefault(grids[handler], []).extend(nids for nids, _, _ in items)
    assert ticks == started


def run_engine(cfg, topo):
    """Run with every parent selection checked, check the grid ticks left
    queued, and return (transcript, parents before the run)."""
    with mock.patch("rplsim.engine.select_parent", checked_select_parent):
        eng = Engine(cfg, topology=topo, record_events=True)
        initial = [node.parent for node in eng.nodes]
        tr = eng.run()
    assert_one_tick_per_grid_timer(eng)
    return tr, initial


def assert_each_suspect_flagged_and_reported_once(tr):
    flagged = [(v[1], v[2]) for v in tr.verdicts if v[3] != "benign"]
    assert len(flagged) == len(set(flagged))
    reports = [(e[2], e[3]) for e in tr.events if e[0] == "report_tx"]
    assert len(reports) == len(set(reports))


def assert_forest(parents, root, adjacency):
    assert parents[root] is None
    for start, parent in enumerate(parents):
        assert parent is None or parent in adjacency[start]
        seen = {start}
        while parent is not None:
            assert parent not in seen, "parent cycle through node %d" % parent
            seen.add(parent)
            parent = parents[parent]


def assert_parents_stay_a_forest(tr, initial):
    parents = list(initial)
    topo = tr.topology
    assert_forest(parents, topo.root_id, topo.adjacency)
    for event in tr.events:
        if event[0] == "parent_change":
            _, _, node, old, new, _ = event
            assert parents[node] == old
            parents[node] = new
            assert_forest(parents, topo.root_id, topo.adjacency)


def assert_rank_verdicts_match_oracle(tr):
    attackers = tr.topology.attacker_set
    _, predictions = rank_rule_oracle(tr.events, attackers)
    rank_verdicts = [v for v in tr.verdicts if v[3] != "malicious_flood"]
    for t, receiver, sender, kind, *_ in rank_verdicts:
        assert predictions.get((t, receiver, sender)) == kind
    # ...and no DIO a detector accepted went without a verdict.
    heard = [e for e in tr.events
             if e[0] == "dio_rx" and e[2] not in attackers and not e[8]]
    assert len(rank_verdicts) == (len(heard) if tr.cfg.detection_enabled else 0)


def assert_thresholds_match_warmup_hellos(tr):
    """Each threshold is fmean + 3 * pstdev of the counts of every
    neighbor hello that arrived before the attack start, or None below two."""
    latency, start = tr.cfg.hop_latency_s, tr.cfg.resolved_attack_start()
    heard = [(e[2], e[3]) for e in tr.events
             if e[0] == "hello_tx" and e[1] + latency < start]
    records = [e for e in tr.events if e[0] == "threshold"]
    assert len(records) == (len(tr.topology.adjacency) - len(tr.topology.attacker_set)
                            if start < tr.end_time_s else 0)
    for _, _, node, value in records:
        neighbors = tr.topology.adjacency[node]
        samples = [count for sender, count in heard if sender in neighbors]
        expected = fmean(samples) + 3 * pstdev(samples) if len(samples) >= 2 else None
        assert value == expected


@given(connected_graphs(), st.floats(0.0, 25.0))
def test_attack_free_runs_flag_nobody(graph, attack_start_s):
    n, edges, root = graph
    cfg = ScenarioConfig(node_count=n, duration_s=DURATION_S,
                         attack_start_s=attack_start_s, seed=1)
    tr, initial = run_engine(cfg, topology_from_edges(n, edges, root_id=root))
    assert [v for v in tr.verdicts if v[3] != "benign"] == []
    assert tr.root_blacklist == frozenset()
    audit_conservation(tr)
    assert_parents_stay_a_forest(tr, initial)
    assert_rank_verdicts_match_oracle(tr)
    assert_each_suspect_flagged_and_reported_once(tr)
    if sys.version_info >= (3, 11):
        assert_thresholds_match_warmup_hellos(tr)


@given(attacked_runs())
def test_attacked_runs_keep_the_invariants(run):
    params, topo = run
    if calibration_too_early(params):
        with pytest.raises(InvalidConfig, match="attack_start_s.*hello_period_s"):
            ScenarioConfig(**params)
        return
    tr, initial = run_engine(ScenarioConfig(**params), topo)
    audit_conservation(tr)
    assert_parents_stay_a_forest(tr, initial)
    assert_rank_verdicts_match_oracle(tr)
    assert_each_suspect_flagged_and_reported_once(tr)
    if tr.cfg.detection_enabled and sys.version_info >= (3, 11):
        assert_thresholds_match_warmup_hellos(tr)  # pstdev rounds correctly from 3.11


def assert_rows_ascending_and_symmetric(adjacency):
    """The engine's flood visits receivers in ascending id, which is the
    neighbor order only if every row is sorted."""
    for node, row in enumerate(adjacency):
        assert all(a < b for a, b in zip(row, row[1:])), "row %d: %r" % (node, row)
        assert all(0 <= nb < len(adjacency) and nb != node and node in adjacency[nb]
                   for nb in row)


@given(st.integers(2, 80), st.floats(4.0, 12.0), st.floats(5.0, 30.0),
       st.integers(0, 2**32 - 1))
def test_generated_adjacency_rows_are_ascending_and_symmetric(n, spread, tx_range, seed):
    side = spread * sqrt(n)
    try:
        topo = generate_topology(ScenarioConfig(node_count=n, area=(side, side),
                                                tx_range=tx_range, seed=seed))
    except ConnectivityFailure:
        assume(False)
    assert_rows_ascending_and_symmetric(topo.adjacency)


@given(connected_graphs())
def test_edge_list_adjacency_rows_are_ascending_and_symmetric(graph):
    n, edges, root = graph
    assert_rows_ascending_and_symmetric(topology_from_edges(n, edges, root_id=root).adjacency)
