"""Deterministic discrete-event simulator of a simplified RPL IoT network
with rank-anomaly and RREQ-flood sinkhole detection."""
