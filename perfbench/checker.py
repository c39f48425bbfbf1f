"""Schedule checker for simulator reports, written against the report and
graph data alone so that it shares no code with the simulator it checks."""
from __future__ import annotations

# calibrate_compute_rate stops once its rate bracket is within 1e-3.
CALIBRATION_TOLERANCE = 1e-3

MAX_VIOLATIONS = 5


def edges_of(nodes, producers: dict, control_edges) -> list[tuple[str, str]]:
    """Data edges (producer of each input -> consumer) plus control edges;
    ``nodes`` yields (node id, input tensor ids)."""
    out = [(producers[t], nid) for nid, inputs in nodes for t in inputs if t in producers]
    out.extend((a, b) for a, b in control_edges)
    return out


def edges_of_graph(g) -> list[tuple[str, str]]:
    """Edges of an in-memory graph, read from its node and tensor fields."""
    return edges_of(((n.id, n.inputs) for n in g.nodes),
                    {t.id: t.producer for t in g.tensors}, g.control_edges)


def edges_of_document(doc: dict) -> tuple[list[str], list[tuple[str, str]]]:
    """Node ids and edges of a training-graph JSON document."""
    g = doc["graph"]
    nodes = [(n["id"], n.get("inputs", ())) for n in g["nodes"]]
    producers = {t["id"]: t["producer"] for t in g["tensors"]}
    return [nid for nid, _ in nodes], edges_of(nodes, producers, g.get("control_edges", ()))


def check_schedule(events, makespan: float, node_ids, edges) -> list[str]:
    """Violations of: one event per node, no overlap on any channel (compute,
    d2h, h2d), end(u) <= start(v) on every edge, makespan == latest end."""
    bad: list[str] = []
    span: dict[str, tuple[float, float]] = {}
    by_channel: dict[str, list[tuple[float, float, str]]] = {}
    for nid, channel, start, end in events:
        if nid in span:
            bad.append(f"node {nid!r} has two events")
        if not start <= end:
            bad.append(f"node {nid!r} ends before it starts")
        span[nid] = (start, end)
        by_channel.setdefault(channel, []).append((start, end, nid))
    missing = set(node_ids) - span.keys()
    extra = span.keys() - set(node_ids)
    if missing:
        bad.append(f"{len(missing)} nodes never ran, e.g. {min(missing)!r}")
    if extra:
        bad.append(f"{len(extra)} events name unknown nodes, e.g. {min(extra)!r}")
    for channel, evs in sorted(by_channel.items()):
        evs.sort()
        for (_, prev_end, prev), (start, _, nid) in zip(evs, evs[1:]):
            if start < prev_end:
                bad.append(f"{channel}: {nid!r} starts before {prev!r} ends")
                break
    for u, v in edges:
        if u in span and v in span and span[u][1] > span[v][0]:
            bad.append(f"edge {u!r} -> {v!r}: ends at {span[u][1]!r}, "
                       f"successor starts at {span[v][0]!r}")
            if len(bad) >= MAX_VIOLATIONS:
                break
    latest = max((end for _, end in span.values()), default=0.0)
    if makespan != latest:
        bad.append(f"makespan {makespan!r} != latest event end {latest!r}")
    return bad[:MAX_VIOLATIONS]


def check_calibrated(makespan: float, target: float) -> list[str]:
    if abs(makespan - target) > CALIBRATION_TOLERANCE * target:
        return [f"calibrated makespan {makespan!r} misses target {target!r} "
                f"by more than {CALIBRATION_TOLERANCE:g} relative"]
    return []


def check_budget(peak: int, budget: int) -> list[str]:
    return [] if peak <= budget else [f"peak {peak} B exceeds the enforced {budget} B budget"]
