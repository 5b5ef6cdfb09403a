"""Independent reference for checking route-localization results.

Nothing here imports the package under test.  The oracle reads the graph
text file itself, enumerates routes with its own depth-first search, sums
per-step costs in plain Python floats, and orders routes by distance, then
by the location-id sequence.  Turn bits are recomputed from positions and
binary semantic codes from tags.

Graph file records (the format the package writes):

    N <id> <x> <y> <heading> <tag,...|->
    E <id_a> <id_b>
    L <id> <f0> <f1> ...
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Bit order of a binary semantic descriptor: one bit per tag.
BSD_TAGS = ("junction_ahead", "junction_behind", "gap_left", "gap_right")

TURN_THRESHOLD_DEG = 30.0


@dataclass
class Graph:
    """Adjacency, positions and tags keyed by location id."""

    adj: dict       # id -> tuple of neighbour ids, ascending
    pos: dict       # id -> (x, y)
    tags: dict      # id -> frozenset of tag names

    def allowed(self, exclusions=()) -> list:
        """Ids, ascending, that carry none of the excluded tags."""
        excl = frozenset(exclusions)
        return [i for i in sorted(self.adj) if not (self.tags[i] & excl)]


def read_graph(path) -> Graph:
    """Parse the N and E records of a graph file (latents are not needed)."""
    adj, pos, tags = {}, {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "N":
                nid = int(parts[1])
                pos[nid] = (float(parts[2]), float(parts[3]))
                tags[nid] = frozenset() if parts[5] == "-" else frozenset(parts[5].split(","))
                adj.setdefault(nid, [])
            elif parts[0] == "E":
                a, b = int(parts[1]), int(parts[2])
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
    return Graph({i: tuple(sorted(n)) for i, n in adj.items()}, pos, tags)


def bearing(a, b) -> float:
    """Bearing of the segment a -> b in degrees, in [0, 360)."""
    return math.degrees(math.atan2(b[1] - a[1], b[0] - a[0])) % 360.0


def turn_bit(pos, a, b, c, threshold=TURN_THRESHOLD_DEG) -> int:
    """1 when the bearing changes by more than ``threshold`` at b on a -> b -> c."""
    b0 = bearing(pos[a], pos[b])
    b1 = bearing(pos[b], pos[c])
    return 1 if abs((b1 - b0 + 180.0) % 360.0 - 180.0) > threshold else 0


def turn_bits(route, pos, threshold=TURN_THRESHOLD_DEG) -> tuple:
    """m-1 bits for a route of m locations; the first bit is always 0."""
    if len(route) < 2:
        return ()
    return (0,) + tuple(turn_bit(pos, route[i - 1], route[i], route[i + 1], threshold)
                        for i in range(1, len(route) - 1))


def bsd_code(tag_set) -> tuple:
    return tuple(1 if t in tag_set else 0 for t in BSD_TAGS)


def hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def hamming_costs(graph: Graph, query_codes) -> list:
    """Per-step cost maps id -> Hamming distance between query and map codes."""
    codes = {i: bsd_code(t) for i, t in graph.tags.items()}
    return [{i: float(hamming(code, q)) for i, code in codes.items()} for q in query_codes]


def is_legal(route, graph: Graph, exclusions=()) -> bool:
    """Consecutive locations adjacent, no location twice, no excluded tag."""
    excl = frozenset(exclusions)
    if len(set(route)) != len(route):
        return False
    if any(graph.tags[i] & excl for i in route):
        return False
    return all(b in graph.adj[a] for a, b in zip(route, route[1:]))


def route_cost(route, costs) -> float:
    """Sum of ``costs[i][route[i]]``, accumulated step by step."""
    total = 0.0
    for i, loc in enumerate(route):
        total += costs[i][loc]
    return total


def ranked_routes(graph: Graph, costs, m: int, exclusions=(), turns=None) -> list:
    """Every legal route of exactly m locations as (distance, route), best first.

    ``costs[i]`` maps a location id to its cost at step i.  With ``turns``
    (the query's m-1 turn bits), routes whose own turn bits differ are left
    out.  Order is by distance, then by the location-id sequence.
    """
    allowed = set(graph.allowed(exclusions))
    out = []
    path = []
    on_path = set()

    def grow(dist):
        if len(path) == m:
            out.append((dist, tuple(path)))
            return
        step = len(path)
        last = path[-1]
        for nb in graph.adj[last]:
            if nb not in allowed or nb in on_path:
                continue
            if turns is not None and step >= 2:
                if turn_bit(graph.pos, path[-2], last, nb) != turns[step - 1]:
                    continue
            path.append(nb)
            on_path.add(nb)
            grow(dist + costs[step][nb])
            on_path.discard(nb)
            path.pop()

    for start in sorted(allowed):
        path.append(start)
        on_path.add(start)
        grow(costs[0][start])
        on_path.discard(start)
        path.pop()
    out.sort()
    return out


def top_routes(graph: Graph, costs, m: int, k: int, exclusions=(), turns=None) -> list:
    """The first k of :func:`ranked_routes`, as (route, distance) pairs."""
    return [(r, d) for d, r in ranked_routes(graph, costs, m, exclusions, turns)[:k]]
