"""Evaluation metrics over run transcripts: delivery ratios, detection
rates from the node-level confusion matrix, and throughput.

Conventions:

* PDR/PLR are means of per-run ratios (the 1/n factor applies across
  experiments, not nodes).
* The confusion matrix counts NODES against the root's final blacklist:
  tp = attackers blacklisted at the root by run end, fn = attackers never
  blacklisted, fp = benign nodes blacklisted, tn = the remaining benign.
* DR/FNR/FPR use the standard confusion-matrix definitions, so
  dr + fnr = 100 and pdr + plr = 100 hold by construction. Ratios with an
  empty denominator are None ("undefined"), never a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Optional, Sequence

from .engine import RunTranscript

CSV_COLUMNS = (
    "scenario", "seed", "node_count", "malicious_fraction", "attack_interval_s",
    "detection_enabled", "emitted", "delivered", "tp", "fp", "tn", "fn",
    "dr_pct", "fnr_pct", "fpr_pct", "pdr_pct", "plr_pct", "throughput_kbps",
)

AGGREGATE_COLUMNS = (
    "scenario", "node_count", "malicious_fraction", "attack_interval_s",
    "detection_enabled", "n_runs", "emitted", "delivered", "tp", "fp", "tn", "fn",
    "dr_pct", "fnr_pct", "fpr_pct", "pdr_pct", "plr_pct", "throughput_kbps",
)

_GROUP_KEY = ("scenario", "node_count", "malicious_fraction", "attack_interval_s",
              "detection_enabled")
_MEAN_FIELDS = ("emitted", "delivered", "tp", "fp", "tn", "fn",
                "dr_pct", "fnr_pct", "fpr_pct", "pdr_pct", "plr_pct",
                "throughput_kbps")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Node-level detection outcome counts."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")


def confusion_from_transcript(tr: RunTranscript) -> ConfusionMatrix:
    attackers = tr.topology.attacker_set
    blacklisted = tr.root_blacklist
    tp = len(attackers & blacklisted)
    fp = len(blacklisted - attackers)
    fn = len(attackers) - tp
    tn = (tr.topology.node_count - len(attackers)) - fp
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def detection_rates(cm: ConfusionMatrix) -> dict[str, Optional[float]]:
    """dr/fnr over attackers, fpr over benign nodes; None when undefined."""
    attackers = cm.tp + cm.fn
    benign = cm.fp + cm.tn
    return {
        "dr_pct": 100.0 * cm.tp / attackers if attackers else None,
        "fnr_pct": 100.0 * cm.fn / attackers if attackers else None,
        "fpr_pct": 100.0 * cm.fp / benign if benign else None,
    }


def summarize_run(tr: RunTranscript, scenario: str = "custom") -> dict:
    """One CSV-ready row of all metrics for a single run."""
    cm = confusion_from_transcript(tr)
    rates = detection_rates(cm)
    if tr.emitted > 0:
        pdr_pct = 100.0 * tr.delivered / tr.emitted
        plr_pct = 100.0 * (tr.emitted - tr.delivered) / tr.emitted
    else:
        pdr_pct = plr_pct = None
    # delivered * size * 8/1000 over the run window, in kbps.
    thr = (
        tr.delivered * tr.cfg.packet_size_bytes * (8.0 / 1000.0) / tr.end_time_s
        if tr.end_time_s > 0 else None
    )
    return {
        "scenario": scenario,
        "seed": tr.cfg.seed,
        "node_count": tr.cfg.node_count,
        "malicious_fraction": tr.cfg.malicious_fraction,
        "attack_interval_s": tr.cfg.attack_interval_s,
        "detection_enabled": tr.cfg.detection_enabled,
        "emitted": tr.emitted,
        "delivered": tr.delivered,
        "tp": cm.tp,
        "fp": cm.fp,
        "tn": cm.tn,
        "fn": cm.fn,
        "dr_pct": rates["dr_pct"],
        "fnr_pct": rates["fnr_pct"],
        "fpr_pct": rates["fpr_pct"],
        "pdr_pct": pdr_pct,
        "plr_pct": plr_pct,
        "throughput_kbps": thr,
    }


def aggregate_rows(rows: Sequence[dict]) -> list[dict]:
    """Mean the metrics of rows sharing a scenario configuration.

    Undefined (None) values are excluded from their mean; a group where
    every value is undefined aggregates to None.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in _GROUP_KEY), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        members = groups[key]
        agg = dict(zip(_GROUP_KEY, key))
        agg["n_runs"] = len(members)
        for name in _MEAN_FIELDS:
            defined = [m[name] for m in members if m[name] is not None]
            agg[name] = fmean(defined) if defined else None
        out.append(agg)
    return out


def audit_conservation(tr: RunTranscript) -> None:
    """Check emitted == delivered + sum(drops by reason).

    The engine counts a packet when it is delivered or dropped, and at the
    horizon counts as ``sim_end`` the packets still queued, so a packet a
    bug loses on its way breaks the sum. With a trace, also replay its
    ``traffic_emit`` and ``packet_fate`` records in one pass: every emitted
    packet has exactly one fate, and the tallies equal the counters.
    Raises ValueError on any failure.
    """
    if tr.events is not None:
        emitted, in_flight, tally = 0, set(), {}
        for e in tr.events:
            if e[0] == "traffic_emit":
                emitted += 1
                in_flight.add(e[3])
            elif e[0] == "packet_fate":
                if e[2] not in in_flight:
                    raise ValueError("packet %d does not have exactly one fate" % e[2])
                in_flight.remove(e[2])
                tally[e[3]] = tally.get(e[3], 0) + 1
        if in_flight:
            raise ValueError("packet %d does not have exactly one fate" % min(in_flight))
        if emitted != tr.emitted:
            raise ValueError("emit records (%d) != emitted (%d)" % (emitted, tr.emitted))
        delivered = tally.pop("delivered", 0)
        if delivered != tr.delivered:
            raise ValueError("replayed delivered (%d) != counter (%d)" % (delivered, tr.delivered))
        if tally != tr.drops:
            raise ValueError("replayed drops %r != counters %r" % (tally, tr.drops))
    if tr.emitted != tr.delivered + sum(tr.drops.values()):
        raise ValueError(
            "conservation violated: %d emitted vs %d delivered + %d dropped"
            % (tr.emitted, tr.delivered, sum(tr.drops.values()))
        )
