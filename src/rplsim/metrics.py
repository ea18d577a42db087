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

from statistics import fmean
from typing import Sequence

from .engine import RunTranscript

_GROUP_KEY = ("scenario", "node_count", "malicious_fraction", "attack_interval_s",
              "detection_enabled")
_MEAN_FIELDS = ("emitted", "delivered", "tp", "fp", "tn", "fn",
                "dr_pct", "fnr_pct", "fpr_pct", "pdr_pct", "plr_pct",
                "throughput_kbps")
CSV_COLUMNS = _GROUP_KEY[:1] + ("seed",) + _GROUP_KEY[1:] + _MEAN_FIELDS
AGGREGATE_COLUMNS = _GROUP_KEY + ("n_runs",) + _MEAN_FIELDS


def summarize_run(tr: RunTranscript, scenario: str = "custom") -> dict:
    """One CSV-ready row of all metrics for a single run."""
    attackers = tr.topology.attacker_set
    tp = len(attackers & tr.root_blacklist)
    fp = len(tr.root_blacklist - attackers)
    fn = len(attackers) - tp
    tn = (tr.topology.node_count - len(attackers)) - fp
    if tn < 0:  # only tn can be: a blacklist naming ids that are not nodes
        raise ValueError("confusion counts must be non-negative")
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
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
        "dr_pct": 100.0 * tp / (tp + fn) if tp + fn else None,
        "fnr_pct": 100.0 * fn / (tp + fn) if tp + fn else None,
        "fpr_pct": 100.0 * fp / (fp + tn) if fp + tn else None,
        "pdr_pct": pdr_pct,
        "plr_pct": plr_pct,
        "throughput_kbps": thr,
    }


def aggregate_rows(rows: Sequence[dict]) -> list[dict]:
    """Mean the metrics of rows sharing a scenario configuration.

    Undefined (None) values are excluded from their mean; a group where
    every value is undefined aggregates to None. Groups are listed by the
    values of their key, an undefined one last.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in _GROUP_KEY), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: [(x is None, x) for x in k]):
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
