"""The engine takes every duration from the model, not from the clock.

A hello window is one hello period long and a packet ``h`` hops out is
``h * hop_latency_s`` old, so no count and no packet fate rests on the
difference of two clock readings, where float noise in the grid times
would leak in. A handler's clock is its argument ``t``. This test parses
``engine.py`` and allows only three arithmetic uses of ``t``:

* ``t + <...>.hop_latency_s``, the time a message arrives;
* ``t - self.attack_start``, how long the attack has run;
* a comparison of ``t`` with ``self.attack_start``.

A ``t`` that is passed on, stored in a record or unpacked is no arithmetic
and is not checked.
"""

import ast
from pathlib import Path

import rplsim.engine


def _is_t(node):
    return isinstance(node, ast.Name) and node.id == "t"


def _is_attack_start(node):
    return (isinstance(node, ast.Attribute) and node.attr == "attack_start"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _allowed(node):
    if isinstance(node, ast.Compare):
        return len(node.comparators) == 1 and any(
            map(_is_attack_start, (node.left, node.comparators[0])))
    if not _is_t(node.left):
        return False
    if isinstance(node.op, ast.Add):
        return isinstance(node.right, ast.Attribute) and node.right.attr == "hop_latency_s"
    return isinstance(node.op, ast.Sub) and _is_attack_start(node.right)


def clock_reads(source):
    """The text of each ``BinOp`` or ``Compare`` in ``source`` that has
    ``t`` as an operand and is none of the three allowed forms."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
        else:
            continue
        if any(map(_is_t, operands)) and not _allowed(node):
            flagged.append(ast.get_source_segment(source, node))
    return sorted(flagged)


def test_engine_reads_the_clock_only_to_schedule_and_against_the_attack_start():
    assert clock_reads(Path(rplsim.engine.__file__).read_text(encoding="utf-8")) == []


def test_a_duration_from_two_clock_readings_is_flagged():
    source = """
def handler(self, t, pkt, period, cfg):
    benign = rreq_count(t - (t - period), cfg.benign_rreq_rate_per_s)
    expired = t > pkt.emitted_at + cfg.packet_timeout_s
    rx_t = t + cfg.hop_latency_s
    storm = min(period, max(0.0, t - self.attack_start))
    attacking = t >= self.attack_start
    warmup = self.attack_start > t
    late = t + period
    scaled = period * t
"""
    assert clock_reads(source) == sorted([
        "t - (t - period)", "t - period", "t > pkt.emitted_at + cfg.packet_timeout_s",
        "t + period", "period * t"])
