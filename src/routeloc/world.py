"""Road-network world model: discrete locations, routes and turn patterns.

A world is an undirected graph of locations spaced roughly evenly along
roads.  Each location carries a planar position in meters, a heading, a set
of semantic tags and (optionally) a latent feature vector that stands in for
the visual/map content of the place.  Routes are ordered walks over adjacent
locations that never revisit a location.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Canonical tag vocabulary.  Order matters: serialization and the tag
# matrix use this ordering.
TAG_NAMES = (
    "tunnel",
    "motorway",
    "junction_ahead",
    "junction_behind",
    "gap_left",
    "gap_right",
)

Route = tuple[int, ...]
TurnPattern = tuple[int, ...]

DEFAULT_TURN_THRESHOLD = 30.0


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed; message carries line context."""


class GraphInvariantError(ValueError):
    """Raised when a graph violates a structural invariant; names the offending id."""


@dataclass
class Location:
    """One discrete map location.

    Attributes
    ----------
    id : int
        Unique non-negative identifier.
    position : tuple of float
        Planar (x, y) coordinates in meters.
    heading : float
        Facing direction in degrees, in [0, 360).
    neighbors : tuple of int
        Ids of adjacent locations, ascending.
    tags : frozenset of str
        Semantic tags drawn from TAG_NAMES.
    latent : ndarray or None
        Feature vector standing in for the location's content.
    """

    id: int
    position: tuple[float, float]
    heading: float
    neighbors: tuple[int, ...]
    tags: frozenset = frozenset()
    latent: np.ndarray | None = None


class MapGraph:
    """Immutable undirected graph of locations.

    The constructor validates structural invariants (unique ids, symmetric
    adjacency, resolvable neighbor ids, uniform latent dimension) and
    computes ``spacing`` as the mean edge length in meters.  Instances are
    treated as read-only after construction; index arrays for vectorized
    consumers are built lazily and cached.
    """

    def __init__(self, locations: Iterable[Location], validate: bool = True):
        locs: dict[int, Location] = {}
        for loc in locations:
            if loc.id in locs:
                raise GraphInvariantError(f"duplicate location id {loc.id}")
            locs[loc.id] = loc
        self._locs = dict(sorted(locs.items()))
        self.spacing = self._mean_edge_length()
        self._index_built = False
        # Route trees derived from this graph (see localizer.route_tree).
        self._route_trees = {}
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._locs)

    def __contains__(self, loc_id: int) -> bool:
        return loc_id in self._locs

    def location(self, loc_id: int) -> Location:
        try:
            return self._locs[loc_id]
        except KeyError:
            raise GraphInvariantError(f"unknown location id {loc_id}") from None

    def locations(self) -> Iterator[Location]:
        """Iterate locations in ascending id order."""
        return iter(self._locs.values())

    def neighbors_of(self, loc_id: int) -> tuple[int, ...]:
        return self.location(loc_id).neighbors

    def edge_count(self) -> int:
        return sum(len(loc.neighbors) for loc in self._locs.values()) // 2

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _mean_edge_length(self) -> float:
        total = 0.0
        count = 0
        for loc in self._locs.values():
            for nb in loc.neighbors:
                if nb > loc.id and nb in self._locs:
                    other = self._locs[nb]
                    total += math.dist(loc.position, other.position)
                    count += 1
        return total / count if count else 0.0

    def validate(self) -> None:
        """Check structural invariants, raising GraphInvariantError on the first failure."""
        latent_dim = None
        saw_latent = False
        for loc in self._locs.values():
            if loc.id < 0:
                raise GraphInvariantError(f"negative location id {loc.id}")
            if not (0.0 <= loc.heading < 360.0):
                raise GraphInvariantError(
                    f"location {loc.id}: heading {loc.heading!r} outside [0, 360)"
                )
            unknown = set(loc.tags) - set(TAG_NAMES)
            if unknown:
                raise GraphInvariantError(
                    f"location {loc.id}: unknown tags {sorted(unknown)}"
                )
            seen = set()
            for nb in loc.neighbors:
                if nb == loc.id:
                    raise GraphInvariantError(f"location {loc.id}: self-reference in neighbors")
                if nb in seen:
                    raise GraphInvariantError(f"location {loc.id}: duplicate neighbor {nb}")
                seen.add(nb)
                if nb not in self._locs:
                    raise GraphInvariantError(
                        f"location {loc.id}: neighbor {nb} does not resolve"
                    )
                if loc.id not in self._locs[nb].neighbors:
                    raise GraphInvariantError(
                        f"asymmetric edge: {loc.id} lists {nb} but not vice versa"
                    )
            if loc.latent is not None:
                saw_latent = True
                dim = int(np.asarray(loc.latent).shape[-1])
                if latent_dim is None:
                    latent_dim = dim
                elif dim != latent_dim:
                    raise GraphInvariantError(
                        f"location {loc.id}: latent dimension {dim} != {latent_dim}"
                    )
        if saw_latent:
            missing = [loc.id for loc in self._locs.values() if loc.latent is None]
            if missing:
                raise GraphInvariantError(
                    f"location {missing[0]}: latent missing while others have one"
                )
        if self.edge_count() > 0 and not self.spacing > 0.0:
            raise GraphInvariantError("spacing must be positive for a graph with edges")

    # ------------------------------------------------------------------
    # vectorized index (row space)
    # ------------------------------------------------------------------

    def _build_index(self) -> None:
        if self._index_built:
            return
        ids = np.fromiter(self._locs.keys(), dtype=np.int64)
        n = len(ids)
        pos = np.empty((n, 2), dtype=np.float64)
        row_of = {int(i): r for r, i in enumerate(ids)}
        max_deg = max((len(l.neighbors) for l in self._locs.values()), default=0)
        nbr = np.full((n, max(max_deg, 1)), -1, dtype=np.int32)
        tags = np.zeros((n, len(TAG_NAMES)), dtype=bool)
        for r, loc in enumerate(self._locs.values()):
            pos[r] = loc.position
            for j, nb in enumerate(sorted(loc.neighbors)):
                nbr[r, j] = row_of[nb]
            for t, name in enumerate(TAG_NAMES):
                if name in loc.tags:
                    tags[r, t] = True
        self._ids = ids
        self._pos = pos
        self._row_of = row_of
        self._nbr = nbr
        self._tags = tags
        self._index_built = True

    @property
    def id_array(self) -> np.ndarray:
        """Location ids ascending, shape (N,)."""
        self._build_index()
        return self._ids

    @property
    def position_array(self) -> np.ndarray:
        """Positions by row, shape (N, 2)."""
        self._build_index()
        return self._pos

    @property
    def neighbor_rows(self) -> np.ndarray:
        """Padded adjacency in row indices, ascending, shape (N, max_degree); -1 pads."""
        self._build_index()
        return self._nbr

    def row_of(self, loc_id: int) -> int:
        self._build_index()
        try:
            return self._row_of[int(loc_id)]
        except KeyError:
            raise GraphInvariantError(f"unknown location id {loc_id}") from None

    def rows_of(self, loc_ids) -> np.ndarray:
        """Map an array of ids to row indices (raises on unknown ids)."""
        self._build_index()
        ids = np.asarray(loc_ids, dtype=np.int64)
        rows = np.searchsorted(self._ids, ids)
        bad = (rows >= len(self._ids)) | (self._ids[np.minimum(rows, len(self._ids) - 1)] != ids)
        if np.any(bad):
            raise GraphInvariantError(
                f"unknown location id {int(ids[np.argmax(bad)])}"
            )
        return rows

    def allowed_mask(self, exclusions: Iterable[str] = ()) -> np.ndarray:
        """Boolean row mask of locations carrying none of the excluded tags."""
        self._build_index()
        excl = frozenset(exclusions)
        unknown = excl - set(TAG_NAMES)
        if unknown:
            raise ValueError(f"unknown exclusion tags {sorted(unknown)}")
        if not excl:
            return np.ones(len(self._ids), dtype=bool)
        cols = [TAG_NAMES.index(t) for t in excl]
        return ~self._tags[:, cols].any(axis=1)

    def latent_matrix(self) -> np.ndarray:
        """Latents stacked by row, shape (N, d); raises if any are missing."""
        rows = []
        for loc in self._locs.values():
            if loc.latent is None:
                raise GraphInvariantError(f"location {loc.id}: latent missing")
            rows.append(np.asarray(loc.latent, dtype=np.float64))
        return np.stack(rows)


# ----------------------------------------------------------------------
# graph file format
# ----------------------------------------------------------------------
#
#   # comment
#   N <id> <x_m> <y_m> <heading_deg> <tag,...|->
#   E <id_a> <id_b>
#   L <id> <f0> <f1> ...


def save_graph(g: MapGraph, path) -> None:
    """Serialize a graph to the text format (deterministic byte-for-byte)."""
    lines = ["# routeloc map graph"]
    for loc in g.locations():
        tag_field = ",".join(t for t in TAG_NAMES if t in loc.tags) or "-"
        lines.append(
            "N %d %.17g %.17g %.17g %s"
            % (loc.id, loc.position[0], loc.position[1], loc.heading, tag_field)
        )
    for loc in g.locations():
        for nb in loc.neighbors:
            if nb > loc.id:
                lines.append(f"E {loc.id} {nb}")
    for loc in g.locations():
        if loc.latent is not None:
            vals = " ".join("%.17g" % v for v in np.asarray(loc.latent, dtype=np.float64))
            lines.append(f"L {loc.id} {vals}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> MapGraph:
    """Parse a graph file and validate invariants.

    Raises GraphFormatError with line context for malformed records,
    non-finite numbers among them, and GraphInvariantError (naming the
    offending id) for structural violations.
    """
    nodes: dict[int, tuple] = {}
    edges: set[tuple[int, int]] = set()
    latents: dict[int, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "N":
                    if len(parts) != 6:
                        raise ValueError("expected: N <id> <x> <y> <heading> <tags|->")
                    nid = int(parts[1])
                    if nid in nodes:
                        raise ValueError(f"duplicate node record for id {nid}")
                    x, y, heading = float(parts[2]), float(parts[3]), float(parts[4])
                    if not all(map(math.isfinite, (x, y, heading))):
                        raise ValueError("position and heading must be finite")
                    tags = frozenset() if parts[5] == "-" else frozenset(parts[5].split(","))
                    unknown = tags - set(TAG_NAMES)
                    if unknown:
                        raise ValueError(f"unknown tags {sorted(unknown)}")
                    nodes[nid] = (x, y, heading, tags)
                elif kind == "E":
                    if len(parts) != 3:
                        raise ValueError("expected: E <id_a> <id_b>")
                    a, b = int(parts[1]), int(parts[2])
                    if a == b:
                        raise GraphInvariantError(f"location {a}: self-loop edge")
                    key = (min(a, b), max(a, b))
                    if key in edges:
                        raise ValueError(f"duplicate edge {key[0]}-{key[1]}")
                    edges.add(key)
                elif kind == "L":
                    if len(parts) < 3:
                        raise ValueError("expected: L <id> <f0> ...")
                    nid = int(parts[1])
                    if nid in latents:
                        raise ValueError(f"duplicate latent record for id {nid}")
                    values = [float(v) for v in parts[2:]]
                    if not all(map(math.isfinite, values)):
                        raise ValueError("latent values must be finite")
                    latents[nid] = np.array(values, dtype=np.float64)
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except GraphInvariantError:
                raise
            except ValueError as exc:
                raise GraphFormatError(f"{path}, line {lineno}: {exc}") from None
    adjacency: dict[int, list[int]] = {nid: [] for nid in nodes}
    for a, b in sorted(edges):
        if a not in nodes:
            raise GraphInvariantError(f"edge endpoint {a} does not resolve")
        if b not in nodes:
            raise GraphInvariantError(f"edge endpoint {b} does not resolve")
        adjacency[a].append(b)
        adjacency[b].append(a)
    for nid in latents:
        if nid not in nodes:
            raise GraphInvariantError(f"latent record for unknown location id {nid}")
    locs = []
    for nid, (x, y, heading, tags) in nodes.items():
        locs.append(
            Location(
                id=nid,
                position=(x, y),
                heading=heading,
                neighbors=tuple(sorted(adjacency[nid])),
                tags=tags,
                latent=latents.get(nid),
            )
        )
    return MapGraph(locs)


# ----------------------------------------------------------------------
# routes
# ----------------------------------------------------------------------


def enumerate_routes(g: MapGraph, m: int, exclusions: Iterable[str] = ()) -> set:
    """All directed routes of exactly m distinct, consecutively adjacent locations.

    Locations carrying any tag in ``exclusions`` never appear in a route.
    A route and its reverse are distinct members of the result.
    """
    if m < 1:
        raise ValueError(f"route length must be >= 1, got {m}")
    excl = frozenset(exclusions)
    allowed = {loc.id for loc in g.locations() if not (loc.tags & excl)}
    routes: set[Route] = set()
    path: list[int] = []

    def grow(last: int) -> None:
        if len(path) == m:
            routes.add(tuple(path))
            return
        for nb in g.neighbors_of(last):
            if nb in allowed and nb not in on_path:
                path.append(nb)
                on_path.add(nb)
                grow(nb)
                on_path.remove(nb)
                path.pop()

    for start in sorted(allowed):
        path = [start]
        on_path = {start}
        grow(start)
    return routes


def extend_routes(routes: Iterable[Route], g: MapGraph, exclusions: Iterable[str] = ()) -> set:
    """Extend every length-m route by each legal next location (length m+1 results).

    Rejects a mixed-length input set.  Routes with no legal extension simply
    contribute nothing.
    """
    routes = list(routes)
    if not routes:
        return set()
    lengths = {len(r) for r in routes}
    if len(lengths) != 1:
        raise ValueError(f"mixed route lengths in input: {sorted(lengths)}")
    excl = frozenset(exclusions)
    out: set[Route] = set()
    for r in routes:
        members = set(r)
        for nb in g.neighbors_of(r[-1]):
            if nb in members:
                continue
            if g.location(nb).tags & excl:
                continue
            out.add(r + (nb,))
    return out


# ----------------------------------------------------------------------
# turn patterns
# ----------------------------------------------------------------------


def bearing_deg(a: Sequence[float], b: Sequence[float]) -> float:
    """Bearing of the segment a -> b in degrees, in [0, 360)."""
    return math.degrees(math.atan2(b[1] - a[1], b[0] - a[0])) % 360.0


def turn_bits(a, b, c, threshold: float = DEFAULT_TURN_THRESHOLD) -> np.ndarray:
    """Turn bits at b of the walks a -> b -> c, over broadcast (..., 2) positions.

    A bit is set iff the bearing of b -> c differs from that of a -> b by
    more than ``threshold`` degrees, the difference wrapped into [0, 180].
    """
    return bearing_turns(segment_bearings(a, b), segment_bearings(b, c), threshold)


def segment_bearings(a, b) -> np.ndarray:
    """Bearings in degrees, in [-180, 180], of the segments a -> b over (..., 2) positions."""
    d = np.asarray(b) - np.asarray(a)
    return np.degrees(np.arctan2(d[..., 1], d[..., 0]))


def bearing_turns(b0, b1, threshold: float = DEFAULT_TURN_THRESHOLD) -> np.ndarray:
    """Turn bits between segments of bearings b0 and b1 (see turn_bits)."""
    return np.abs((b1 - b0 + 180.0) % 360.0 - 180.0) > threshold


def turn_pattern(route: Route, g: MapGraph, threshold: float = DEFAULT_TURN_THRESHOLD) -> TurnPattern:
    """Binary turn pattern of a route: m-1 bits for a route of m locations.

    Bit 0 is fixed to 0 (the first step has no preceding segment).  Bit i for
    1 <= i <= m-2 is 1 iff the absolute bearing change at interior location
    i+1 exceeds ``threshold`` degrees.  Bearings come from location
    positions, not stored headings.
    """
    if len(route) < 2:
        raise ValueError(f"route must have at least 2 locations, got {len(route)}")
    return tuple(turn_pattern_matrix(np.asarray([route]), g, threshold)[0].tolist())


def turn_pattern_matrix(route_matrix: np.ndarray, g: MapGraph,
                        threshold: float = DEFAULT_TURN_THRESHOLD) -> np.ndarray:
    """Vectorized turn patterns for many routes at once.

    ``route_matrix`` holds location ids, shape (R, m) with m >= 2; returns a
    uint8 array of shape (R, m-1) following the same convention as
    :func:`turn_pattern`.
    """
    rm = np.asarray(route_matrix)
    if rm.ndim != 2 or rm.shape[1] < 2:
        raise ValueError("route matrix must be (R, m) with m >= 2")
    rows = g.rows_of(rm.ravel()).reshape(rm.shape)
    p = g.position_array[rows]                      # (R, m, 2)
    bits = np.zeros((rm.shape[0], rm.shape[1] - 1), dtype=np.uint8)
    bits[:, 1:] = turn_bits(p[:, :-2], p[:, 1:-1], p[:, 2:], threshold)
    return bits
