"""Differential test of the queue-entry contract.

``Engine.run`` calls a handler once per popped entry, with the entry's
whole item list, and the handler reads once per entry what no item can
change. ``PerItemEngine`` pops the same entries in the same order but calls
the handler once per item, with a one-item list, so every such value is
read again for each item. Both must give the same transcript, verdicts,
packet counters and root blacklist on drawn sinkhole and flooder
scenarios; per-packet outcomes are compared through the transcript of the
traced draws, since the engine keeps no packet once its fate is logged. Some draws set the hop latency to the hello or traffic period,
so that entries of different handlers interleave at one time, some
start the attack exactly when a hello arrives, and some relabel the root
as node 0. The root's hellos count no RREQs, so its listeners calibrate
the highest flood thresholds, and its hello is then the first item of
every hello entry.

Traced draws also check the hellos against the config: each count is the
sender's RREQs over the last period, and a sender's warm-up moments hold
exactly the hellos that arrived before the attack start and the horizon.
"""

from heapq import heappop
from math import sqrt

from hypothesis import assume, given, settings, strategies as st

from rplsim.attackers import rreq_count_in_window
from rplsim.engine import Engine
from rplsim.errors import InvalidConfig
from rplsim.scenario import ScenarioConfig, TrafficSpec
from rplsim.topology import Topology, generate_topology


class PerItemEngine(Engine):
    """One handler call per item, each with a one-item list."""

    def run(self):
        heap, open_at, duration = self._heap, self._open, self.cfg.duration_s
        while heap and heap[0][0] < duration:
            entry = heappop(heap)
            t, _, handler, items = entry
            if open_at.get(t) is entry:
                del open_at[t]
            self.now = t
            for item in items:
                handler(self, t, [item])
        # Only entries at or past the horizon are left: Engine.run ends the
        # packets they hold and builds the transcript.
        return super().run()


@st.composite
def configs(draw, attacks=("drop", "alter", "fixed", "adaptive"), detection=st.booleans()):
    n = draw(st.integers(15, 45))
    side = draw(st.floats(8.0, 11.0)) * sqrt(n)  # dense enough to connect at once
    hello = draw(st.sampled_from((0.5, 1.0, 2.0)))
    traffic = draw(st.sampled_from((1.0, 2.0)))
    latency = draw(st.sampled_from((0.005, hello, traffic)))
    start = draw(st.floats(2.0, 8.0) | st.integers(3, 6).map(lambda k: k * hello + latency))
    params = dict(
        node_count=n, area=(side, side), hello_period_s=hello, hop_latency_s=latency,
        traffic=TrafficSpec(period_s=traffic, sources=draw(st.sampled_from(("benign", "all")))),
        alpha_low=draw(st.floats(0.05, 1.0)), alpha_high=draw(st.floats(0.05, 1.0)),
        detection_enabled=draw(detection), attack_start_s=start,
        duration_s=draw(st.floats(10.0, 16.0)), seed=draw(st.integers(0, 2**32 - 1)))
    attack = draw(st.sampled_from(attacks))
    if attack in ("drop", "alter"):
        params.update(malicious_fraction=draw(st.floats(0.1, 0.4)), sinkhole_data_plane=attack)
    else:
        params.update(attack_type="flooder", malicious_fraction=draw(st.floats(0.04, 0.2)),
                      flooder_rreq_rate_per_s=draw(st.floats(1.05, 12.0)),
                      apt_threshold=draw(st.floats(0.5, 4.0)) if attack == "fixed"
                      else "adaptive")
    try:
        return ScenarioConfig(**params)
    except InvalidConfig:
        assume(False)


def root_as_node_0(cfg):
    """The config's topology with the labels of the root and node 0 swapped."""
    topo = generate_topology(cfg)
    root = topo.root_id

    def label(i):
        return 0 if i == root else root if i == 0 else i

    edges = [(label(i), label(j)) for i, row in enumerate(topo.adjacency) for j in row]
    return Topology.from_edges(cfg.node_count, edges, root_id=0,
                               attackers=map(label, topo.attacker_set))


def check_hellos(eng, events):
    cfg, start = eng.cfg, eng.attack_start
    warmup = [[0, 0, 0] for _ in eng.nodes]
    for e in events:
        if e[0] != "hello_tx":
            continue
        _, t, nid, count = e
        node = eng.nodes[nid]
        storm = cfg.flooder_rreq_rate_per_s if node.flooder else 0.0
        assert count == (0 if node.is_root else rreq_count_in_window(
            t - cfg.hello_period_s, t, cfg.benign_rreq_rate_per_s, storm, start))
        if node.hello_listeners and t + cfg.hop_latency_s < min(start, cfg.duration_s):
            m = warmup[nid]
            m[0], m[1], m[2] = m[0] + 1, m[1] + count, m[2] + count * count
    assert [node.warmup for node in eng.nodes] == warmup


def outcome(engine_class, cfg, topo, traced):
    eng = engine_class(cfg, topo, record_events=traced)
    tr = eng.run()
    if traced:
        check_hellos(eng, tr.events)
    return dict(events=tr.events, verdicts=tr.verdicts, drops=tr.drops, emitted=tr.emitted,
                delivered=tr.delivered, root_blacklist=tr.root_blacklist)


@settings(max_examples=300)
@given(configs(), st.booleans(), st.booleans())
def test_entry_handlers_match_one_call_per_item(cfg, root_first, traced):
    topo = root_as_node_0(cfg) if root_first else generate_topology(cfg)
    assert outcome(Engine, cfg, topo, traced) == outcome(PerItemEngine, cfg, topo, traced)


@settings(max_examples=100)
@given(configs(attacks=("adaptive",), detection=st.just(True)))
def test_hello_skip_matches_one_call_per_item(cfg):
    # An untraced hello skips its listeners when its fast average is at or
    # below their lowest threshold. Calibrated thresholds differ between
    # senders, and with the root as node 0 the first sender of every hello
    # entry has the highest lowest threshold.
    topo = root_as_node_0(cfg)
    assert outcome(Engine, cfg, topo, False) == outcome(PerItemEngine, cfg, topo, False)
