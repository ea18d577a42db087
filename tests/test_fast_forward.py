"""The untraced fast-forward through the quiet steady state.

An untraced ``Engine.run`` that finds a quiet DIO period (no write, every
grid ticked, a hello period past the attack start) replays that period's
verdict rows and packet counts on each later grid tick up to one DIO
period plus one traffic period before the horizon; a traced run never
does. So a traced and an untraced run of one config must give the same
verdicts, packet counts, drops and root blacklist. The drawn configs run
long enough (30 to 90 s, DIO periods of 0.5 to 3 s) that many go quiet.

The drawn runs alone catch no missing bump of the write counter: a site
that writes only while the network settles is never the one write of an
otherwise quiet period. So each write site has a white-box test that it
moves ``Engine._writes`` when it changes state.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bounded, chain_topology, handle, star_topology, tiny_cfg, topology_from_edges
from differential import draw
from rplsim.engine import Engine
from rplsim.scenario import ScenarioConfig, TrafficSpec, parse_scenario_text
from rplsim.topology import generate_topology


def outcome(cfg, topo, traced):
    """(outputs, grid ticks replayed) of one run of ``cfg``."""
    eng = Engine(cfg, topo, record_events=traced)
    with bounded():
        tr = eng.run()
    return (dict(verdicts=tr.verdicts, emitted=tr.emitted, delivered=tr.delivered,
                 drops=tr.drops, root_blacklist=tr.root_blacklist), eng._replayed)


def test_untraced_runs_replay_what_traced_runs_simulate():
    jumped = []

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def check(i):
        cfg = parse_scenario_text(draw(i, long=True)[0])
        topo = generate_topology(cfg)
        traced, never = outcome(cfg, topo, True)
        untraced, replayed = outcome(cfg, topo, False)
        assert never == 0
        assert untraced == traced
        jumped.append(replayed > 0)

    check()
    assert 4 * sum(jumped) >= len(jumped), "%d of %d draws jumped" % (sum(jumped), len(jumped))


def test_no_quiet_period_before_a_full_storm():
    # The flooder's storm spans 0.1 s of the hello window at 4 s, which
    # rounds to no RREQ, so the period from 4 s to 5 s writes nothing; the
    # full storm from 5 s on is flagged. A replay from 5 s would skip it.
    # With alphas of 1 the averages hold from then on, and the run replays.
    cfg = ScenarioConfig(node_count=5, area=(30.0, 30.0), tx_range=20.0, dio_period_s=1.0,
                         attack_type="flooder", malicious_fraction=0.0, attack_start_s=3.9,
                         flooder_rreq_rate_per_s=4.0, apt_threshold=2.5, alpha_low=1.0,
                         alpha_high=1.0, duration_s=30.0, seed=1)
    topo = topology_from_edges(5, [(i, j) for i in range(5) for j in range(i)], attackers=(4,))
    traced, _ = outcome(cfg, topo, True)
    untraced, replayed = outcome(cfg, topo, False)
    assert [row[:4] for row in traced["verdicts"] if row[3] != "benign"] == [
        (5.005, r, 4, "malicious_flood") for r in range(4)]
    assert replayed > 0
    assert untraced == traced


@pytest.mark.parametrize("malicious_fraction", [0.0, 0.2])
def test_grids_that_tick_with_the_dio_grid_replay(malicious_fraction):
    # DIOs and hellos tick every 0.5 s, packets and forged DIOs every 1 s.
    # Each whole second, the traffic tick (and the forged-DIO tick) queued
    # a second before shares its time with the DIO tick queued half a
    # second before, and runs first. The mark is taken before any entry at
    # that time runs, so none of their messages is in flight at it.
    cfg = ScenarioConfig(node_count=15, area=(40.0, 40.0), dio_period_s=0.5,
                         hello_period_s=0.5, traffic=TrafficSpec(period_s=1.0),
                         attack_interval_s=1.0, malicious_fraction=malicious_fraction,
                         duration_s=30.0, seed=3)
    topo = generate_topology(cfg)
    assert len(topo.attacker_set) == round(15 * malicious_fraction)
    traced, _ = outcome(cfg, topo, True)
    untraced, replayed = outcome(cfg, topo, False)
    assert replayed > 0
    assert untraced == traced


def diamond():
    """Root 0 with children 1 and 2, which share child 3 (parent 1)."""
    cfg = tiny_cfg(node_count=4, duration_s=30.0)
    eng = Engine(cfg, topology_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    assert eng.nodes[3].parent == 1
    return eng


def moves_writes(eng, action):
    before = eng._writes
    action()
    return eng._writes > before


class TestWriteSites:
    def test_blacklisting_a_neighbor_that_is_not_the_parent(self):
        eng = diamond()
        node = eng.nodes[3]
        assert moves_writes(eng, lambda: eng._blacklist(5.0, node, 2))
        assert node.parent == 1

    def test_a_table_write(self):
        eng = diamond()
        # Node 2 advertises rank 2: node 3 stays under node 1 at rank 2.
        assert moves_writes(eng, lambda: handle(eng, Engine._on_dio_rx, 5.0, (3,), 2, 2))
        assert eng.nodes[3].table[2] == 2 and eng.nodes[3].parent == 1

    def test_a_reselection_that_moves_the_parent(self):
        eng = diamond()
        node = eng.nodes[3]
        node.table[2] = 0
        assert moves_writes(eng, lambda: eng._reselect(node, 5.0))
        assert (node.parent, node.rank) == (2, 1)

    def test_the_calibration(self):
        eng = diamond()
        assert moves_writes(eng, lambda: handle(eng, Engine._on_calibrate, 3.0))

    def test_an_apt_cell_that_moves(self):
        eng = Engine(tiny_cfg(node_count=3, duration_s=30.0), star_topology(2))
        assert moves_writes(eng, lambda: handle(eng, Engine._on_hello_rx, 5.0, (0,), 1, 1))
        assert moves_writes(eng, lambda: handle(eng, Engine._on_hello_rx, 6.0, (0,), 1, 3))


def test_no_replay_of_a_tick_whose_packets_outlive_the_horizon():
    # Three hops of 1/3 s take just under 1 s from 4 to 7 s, so the run
    # goes quiet, and just over 1 s from 8 s on, as each hop's time is
    # rounded. The packet node 3 sends at 10 s is still out at the
    # horizon, one float past 11 s, with the three sent at 11 s. The replay
    # stops a DIO period and a traffic period before the horizon, so the
    # tick at 10 s is simulated and its packet ends as sim_end; a DIO
    # period alone would replay it and count the packet delivered.
    horizon = math.nextafter(11.0, math.inf)
    cfg = tiny_cfg(node_count=4, dio_period_s=1.0, hop_latency_s=1 / 3, attack_start_s=3.0,
                   duration_s=horizon)
    traced, _ = outcome(cfg, chain_topology(4), True)
    untraced, replayed = outcome(cfg, chain_topology(4), False)
    assert traced["drops"] == {"sim_end": 4}
    assert replayed > 0
    assert untraced == traced
