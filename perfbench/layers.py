"""Per-layer split of a cProfile pass over one iteration.

A layer is one module of the ``rplsim`` package. Its self time is the
cProfile tottime of the Python functions defined in it, plus the tottime of
the built-in functions they call directly (heap operations, list appends),
taken from the caller edge. Call counts are exact and repeat run to run.
"""

from __future__ import annotations

import pstats
from pathlib import Path

MODULES = ("scenario", "topology", "rpl", "detector", "attackers", "engine",
           "metrics", "cli")

# Event kind -> the engine method that handles it.
HANDLERS = {
    "hello_rx": "_on_hello_rx",
    "dio_rx": "_on_dio_rx",
    "data_rx": "_on_data_rx",
    "bcast_rx": "_on_bcast_rx",
    "report_rx": "_on_report_rx",
    "hello_timer": "_on_hello_timer",
    "dio_timer": "_on_dio_timer",
    "attack_dio": "_on_attack_dio",
    "traffic": "_on_traffic",
    "calibrate": "_on_calibrate",
}

# metric name -> (module, function) whose call count it reports.
CALL_COUNTS = {
    "detector.ingest_hello.calls": ("detector", "ingest_hello"),
    "detector.apt_update.calls": ("detector", "update"),
    "detector.classify_dio.calls": ("detector", "classify_dio"),
    "rpl.select_parent.calls": ("rpl", "select_parent"),
    "rpl.apply_blacklist.calls": ("rpl", "apply_blacklist_broadcast"),
    "engine.loop_guard.calls": ("engine", "loop_free"),
}


def split(profile, package_dir: Path) -> dict:
    """Aggregate a finished ``cProfile.Profile`` into per-layer metrics."""
    stats = pstats.Stats(profile).stats
    files = {str(package_dir / (m + ".py")): m for m in MODULES}

    def module_of(key):
        return files.get(key[0])

    by_func = {}  # (module, name) -> [calls, tottime]
    self_s = dict.fromkeys(MODULES, 0.0)
    heap = {"heappop": [0, 0.0], "heappush": [0, 0.0]}
    for key, (_, ncalls, tottime, _, callers) in stats.items():
        module = module_of(key)
        if module is not None:
            cell = by_func.setdefault((module, key[2]), [0, 0.0])
            cell[0] += ncalls
            cell[1] += tottime
            self_s[module] += tottime
            continue
        if key[0] != "~":
            continue
        # A built-in: charge each caller edge to the calling module.
        for caller, (_, edge_calls, edge_tt, _) in callers.items():
            caller_module = module_of(caller)
            if caller_module is None:
                continue
            self_s[caller_module] += edge_tt
            for name, cell in heap.items():
                if caller_module == "engine" and name in key[2]:
                    cell[0] += edge_calls
                    cell[1] += edge_tt

    def func(module, name):
        return by_func.get((module, name), (0, 0.0))

    out = {"%s.self_s" % m: self_s[m] for m in MODULES}
    for kind, handler in HANDLERS.items():
        calls, tottime = func("engine", handler)
        out["engine.%s.calls" % kind] = calls
        out["engine.%s.self_s" % kind] = tottime
    for metric, (module, name) in CALL_COUNTS.items():
        out[metric] = func(module, name)[0]
    out["engine.loop_guard.self_s"] = func("engine", "loop_free")[1]
    out["engine.heap_pops"] = heap["heappop"][0]
    out["engine.heap.pop_self_s"] = heap["heappop"][1]
    out["engine.heap.push_self_s"] = heap["heappush"][1]
    return out
