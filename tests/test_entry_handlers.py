"""Differential test of the queue-entry contract.

``Engine.run`` calls a handler once per popped entry, with the entry's
whole item list, and the handler reads once per entry what no item can
change. ``PerItemEngine`` pops the same entries in the same order but calls
the handler once per item, with a one-item list, so every such value is
read again for each item. Both must give the same transcript, verdicts,
packet counters and root blacklist on drawn sinkhole and flooder
scenarios; per-packet outcomes are compared through the transcript of the
traced draws, since the engine keeps no packet once its fate is logged.
Some draws set the hop latency to the hello, DIO or traffic period or to
the attack interval, so that a grid's next tick falls where the messages
of its last tick arrive, and entries of different handlers interleave at
one time; some start the attack exactly when a hello arrives, and some
relabel the root as node 0. The root's hellos count no RREQs, so its
listeners calibrate the highest flood thresholds, and its hello is then
the first item of every hello entry.

Traced draws also check the hellos against the config: each count is
``round(rate * period)``, plus a flooder's storm over the part of the
period past the attack start, and a sender's warm-up moments hold
exactly the hellos that arrived before the attack start and the horizon.
"""

from heapq import heappop
from math import sqrt

from hypothesis import assume, given, settings, strategies as st

from rplsim.engine import Engine
from rplsim.errors import InvalidConfig
from rplsim.scenario import ScenarioConfig, TrafficSpec
from rplsim.topology import generate_topology

from conftest import bounded, queued, topology_from_edges


class PerItemEngine(Engine):
    """One handler call per item, each with a one-item list. A grid tick
    must leave exactly one tick of its grid queued: one queued per node
    would be run once per item, each queueing one per node again, without
    end, so it fails at once. It never replays a quiet period, so it is
    also an oracle for ``Engine.run``'s fast-forward."""

    def run(self):
        times, duration = self._times, self.cfg.duration_s
        while times and times[0] < duration:
            t = heappop(times)
            for handler, items in reversed(self._due.pop(t)):
                for item in items:
                    handler(self, t, [item])
                if handler in self._grids:
                    ticks = sum(len(e[2]) for e in queued(self) if e[1] is handler)
                    assert ticks == 1, "%s at t=%r left %d ticks" % (handler.__name__, t, ticks)
        # Only entries at or past the horizon are left: Engine.run ends the
        # packets they hold and builds the transcript.
        return super().run()


@st.composite
def configs(draw, attacks=("drop", "alter", "fixed", "adaptive"), detection=st.booleans()):
    n = draw(st.integers(15, 45))
    side = draw(st.floats(8.0, 11.0)) * sqrt(n)  # dense enough to connect at once
    hello = draw(st.sampled_from((0.5, 1.0, 2.0, 0.3)))
    dio = draw(st.sampled_from((1.0, 2.0, 10.0)))
    traffic = draw(st.sampled_from((1.0, 2.0)))
    interval = draw(st.sampled_from((1.0, 1.5)))
    latency = draw(st.sampled_from((0.005, hello, dio, traffic, interval)))
    start = draw(st.floats(2.0, 8.0) | st.integers(3, 6).map(lambda k: k * hello + latency))
    params = dict(
        node_count=n, area=(side, side), hello_period_s=hello, dio_period_s=dio,
        attack_interval_s=interval, hop_latency_s=latency,
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
    return topology_from_edges(cfg.node_count, edges, root_id=0,
                                attackers=map(label, topo.attacker_set))


def check_hellos(eng, events):
    cfg, start, period = eng.cfg, eng.attack_start, eng.cfg.hello_period_s
    warmup = [[0, 0, 0] for _ in eng.nodes]
    for e in events:
        if e[0] != "hello_tx":
            continue
        _, t, nid, count = e
        node = eng.nodes[nid]
        storm = (round(cfg.flooder_rreq_rate_per_s * min(period, max(0.0, t - start)))
                 if node.flooder else 0)
        assert count == (0 if node.is_root else
                         round(cfg.benign_rreq_rate_per_s * period) + storm)
        if node.hello_listeners and t + cfg.hop_latency_s < min(start, cfg.duration_s):
            m = warmup[nid]
            m[0], m[1], m[2] = m[0] + 1, m[1] + count, m[2] + count * count
    assert [node.warmup for node in eng.nodes] == warmup


def outcome(engine_class, cfg, topo, traced):
    eng = engine_class(cfg, topo, record_events=traced)
    with bounded():
        tr = eng.run()
    if traced:
        check_hellos(eng, tr.events)
    return dict(events=tr.events, verdicts=tr.verdicts, drops=tr.drops, emitted=tr.emitted,
                delivered=tr.delivered, root_blacklist=tr.root_blacklist)


@settings(max_examples=300)
@given(configs(), st.booleans(), st.booleans())
def test_entry_handlers_match_one_call_per_item(cfg, root_first, traced):
    topo = root_as_node_0(cfg) if root_first else generate_topology(cfg)
    # PerItemEngine first: it fails at once on a tick that queues more than one next tick.
    per_item = outcome(PerItemEngine, cfg, topo, traced)
    assert outcome(Engine, cfg, topo, traced) == per_item


@settings(max_examples=100)
@given(configs(attacks=("adaptive",), detection=st.just(True)))
def test_hello_skip_matches_one_call_per_item(cfg):
    # An untraced hello skips its listeners when its fast average is at or
    # below their lowest threshold. Calibrated thresholds differ between
    # senders, and with the root as node 0 the first sender of every hello
    # entry has the highest lowest threshold.
    topo = root_as_node_0(cfg)
    per_item = outcome(PerItemEngine, cfg, topo, False)
    assert outcome(Engine, cfg, topo, False) == per_item
