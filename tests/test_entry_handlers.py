"""Differential test of the queue-entry contract.

``Engine.run`` calls a handler once per popped entry, with the entry's
whole item list, and the handler reads once per entry what no item can
change. ``PerItemEngine`` pops the same entries in the same order but calls
the handler once per item, with a one-item list, so every such value is
read again for each item. Both must give the same transcript, verdicts,
packet counters and root blacklist on the sinkhole and flooder scenarios
of ``differential.draw``; per-packet outcomes are compared through the
transcript of the traced runs, since the engine keeps no packet once its
fate is logged. Every third draw sets the hop latency to the hello, DIO
or traffic period or to the attack interval, so that a grid's next tick
falls where the messages of its last tick arrive, and entries of
different handlers interleave at one time; some start the attack exactly
when a hello arrives, and every other run relabels the root as node 0.
The root's hellos count no RREQs, so its listeners calibrate the highest
flood thresholds, and its hello is then the first item of every hello
entry.

Traced draws also check the hellos against the config: each count is
``round(rate * period)``, plus a flooder's storm over the part of the
period past the attack start, and a sender's warm-up moments hold
exactly the hellos that arrived before the attack start and the horizon.
"""

from heapq import heappop

from rplsim.engine import Engine
from rplsim.scenario import parse_scenario_text
from rplsim.topology import generate_topology

from conftest import outcome, queued, topology_from_edges
from differential import draw

ADAPTIVE = ("apt_threshold = adaptive", "detection_enabled = true")  # words of a draw


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


def test_entry_handlers_match_one_call_per_item():
    for i in range(300):
        cfg = parse_scenario_text(draw(i)[0])
        topo = root_as_node_0(cfg) if i % 2 else generate_topology(cfg)
        traced = i // 2 % 2 == 1
        # PerItemEngine first: it fails at once on a tick that queues more than one next tick.
        per_item, eng = outcome(cfg, topo, traced, PerItemEngine)
        batched, batched_eng = outcome(cfg, topo, traced)
        if traced:
            check_hellos(eng, per_item["events"])
            check_hellos(batched_eng, batched["events"])
        assert batched == per_item, "draw %d" % i


def test_hello_skip_matches_one_call_per_item():
    # An untraced hello skips its listeners when its fast average is at or
    # below their lowest threshold. Calibrated thresholds differ between
    # senders, and with the root as node 0 the first sender of every hello
    # entry has the highest lowest threshold.
    adaptive = [i for i in range(1000) if all(w in draw(i)[0] for w in ADAPTIVE)][:100]
    assert len(adaptive) == 100
    for i in adaptive:
        cfg = parse_scenario_text(draw(i)[0])
        topo = root_as_node_0(cfg)
        assert outcome(cfg, topo)[0] == outcome(cfg, topo, engine=PerItemEngine)[0], "draw %d" % i
