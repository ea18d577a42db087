"""Differential test of the blacklist flood.

``TupleFloodEngine`` is the engine with the flood as it was before the
neighbor bitmasks and before each reception applied one suspect: a flood
item carries the sender's neighbor tuple, the handler scans every
neighbor, skipping the ones that have taken the flood, and a node that
took flood ``seen`` applies suspects ``seen + 1 .. bseq`` with one
re-selection. The engine under test must give the same transcript,
verdicts, packet outcomes, root blacklist and final per-node flood state
on drawn sinkhole scenarios.
"""

from math import sqrt
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from rplsim.engine import INF, Engine
from rplsim.scenario import ScenarioConfig, TrafficSpec


class TupleFloodEngine(Engine):
    """The reference: a neighbor-tuple scan per flood reception, and every
    suspect a node has not had yet applied at once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = [0] * len(self.nodes)  # node id -> the last flood it took

    def _root_ingest(self, t, suspect, reporter):
        if self.evlog is not None:
            self.evlog.append(("report_root", t, suspect, reporter))
        if suspect in self.named_at:
            return
        self.flood_order.append(suspect)
        bseq = self.named_at[suspect] = len(self.flood_order)
        root = self.nodes[self.topology.root_id]
        self._blacklist(t, root, suspect)
        self.seen[root.id] = bseq  # never re-forward its own flood
        if self.evlog is not None:
            self.evlog.append(("blacklist_tx", t, bseq, tuple(sorted(self.named_at))))
        self._push(t + self.cfg.hop_latency_s, TupleFloodEngine._on_bcast_rx,
                   root.neighbors, bseq, 0)

    def _on_bcast_rx(self, t, items):
        nodes = self.nodes
        for receivers, bseq, _ in items:
            for receiver in receivers:
                node = nodes[receiver]
                seen = self.seen[receiver]
                if seen >= bseq:
                    continue
                self.seen[receiver] = bseq
                if self.named_at.get(receiver, INF) <= bseq:
                    continue
                new = self.flood_order[seen:bseq]
                if self.evlog is not None:
                    changed = not node.blacklist.issuperset(new)
                    self.evlog.append(("blacklist_rx", t, receiver, bseq, changed))
                hit = node.parent in new
                node.blacklist.update(new)
                for s in new:
                    node.table.pop(s, None)
                if hit:
                    self._reselect(node, t)
                self._push(t + self.cfg.hop_latency_s, TupleFloodEngine._on_bcast_rx,
                           node.neighbors, bseq, 0)


@st.composite
def sinkhole_configs(draw):
    n = draw(st.integers(15, 60))
    side = draw(st.floats(8.0, 11.0)) * sqrt(n)  # dense enough to connect at once
    return ScenarioConfig(
        node_count=n,
        area=(side, side),
        malicious_fraction=draw(st.floats(0.1, 0.4)),
        sinkhole_data_plane=draw(st.sampled_from(("drop", "alter"))),
        traffic=TrafficSpec(sources=draw(st.sampled_from(("benign", "all")))),
        attack_start_s=draw(st.floats(2.0, 8.0)),
        duration_s=draw(st.floats(10.0, 20.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def bounded_flood():
    """Fail the run once more flood items have run than one per node and
    flood, the most there can be when no node forwards a flood twice. A
    flood that never dies out then fails fast instead of growing until the
    horizon."""
    handler = Engine._on_bcast_rx
    ran = [0]

    def bounded(eng, t, items):
        ran[0] += len(items)
        if ran[0] > len(eng.nodes) * len(eng.flood_order):
            raise AssertionError("a flood item beyond one per node and flood")
        handler(eng, t, items)

    return mock.patch.object(Engine, "_on_bcast_rx", bounded)


def floods_taken(eng):
    """Per node, the last flood it took: the reference's ``seen``, and for
    the engine the last flood whose ``_unseen`` mask lacks the node's bit."""
    if isinstance(eng, TupleFloodEngine):
        return eng.seen
    return [max(j for j, mask in enumerate(eng._unseen) if not mask >> i & 1)
            for i in range(len(eng.nodes))]


def outcome(engine_class, cfg):
    eng = engine_class(cfg, record_events=True)
    with bounded_flood():
        tr = eng.run()
    return dict(
        events=tr.events,
        verdicts=tr.verdicts,
        drops=tr.drops,
        emitted=tr.emitted,
        delivered=tr.delivered,
        root_blacklist=tr.root_blacklist,
        blacklists=[node.blacklist for node in eng.nodes],
        floods_taken=floods_taken(eng),
    )


@settings(max_examples=200)
@given(sinkhole_configs())
def test_flood_matches_the_neighbor_tuple_scan(cfg):
    got = outcome(Engine, cfg)
    assume(got["root_blacklist"])  # a draw whose root never floods tests nothing here
    assert got == outcome(TupleFloodEngine, cfg)
