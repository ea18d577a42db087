"""Differential test of the blacklist flood.

``TupleFloodEngine`` is the engine with the flood as it was before the
neighbor bitmasks and before each reception applied one suspect: a flood
item carries the sender's neighbor tuple, the handler scans every
neighbor, skipping the ones that have taken the flood, and a node that
took flood ``seen`` applies suspects ``seen + 1 .. bseq`` with one
re-selection. The engine under test must give the same transcript,
verdicts, packet outcomes, root blacklist and final per-node flood state
on the sinkhole scenarios of ``differential.draw`` with detection on.
"""

from rplsim.engine import INF, Engine
from rplsim.scenario import parse_scenario_text

from conftest import outcome
from differential import draw

SINKHOLES = ("sinkhole_data_plane", "detection_enabled = true")  # words of a draw with floods


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


def floods_taken(eng):
    """Per node, the last flood it took: the reference's ``seen``, and for
    the engine the last flood whose ``_unseen`` mask lacks the node's bit."""
    if isinstance(eng, TupleFloodEngine):
        return eng.seen
    return [max(j for j, mask in enumerate(eng._unseen) if not mask >> i & 1)
            for i in range(len(eng.nodes))]


def flood_outcome(engine_class, cfg):
    got, eng = outcome(cfg, traced=True, engine=engine_class)
    return dict(got, blacklists=[node.blacklist for node in eng.nodes],
                floods_taken=floods_taken(eng))


def test_flood_matches_the_neighbor_tuple_scan():
    sinkholes = [i for i in range(1000) if all(w in draw(i)[0] for w in SINKHOLES)][:200]
    flooded = 0
    for i in sinkholes:
        cfg = parse_scenario_text(draw(i)[0])
        got = flood_outcome(Engine, cfg)
        if got["root_blacklist"]:  # a draw whose root never floods tests nothing here
            flooded += 1
            assert got == flood_outcome(TupleFloodEngine, cfg), "draw %d" % i
    assert flooded >= 100
