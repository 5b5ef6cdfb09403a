"""Road-network world model: discrete locations, routes and turn patterns.

A world is an undirected graph of locations spaced roughly evenly along
roads.  Each location carries a planar position in meters, a heading, a set
of semantic tags and (optionally) a latent feature vector that stands in for
the visual/map content of the place.  Routes are ordered walks over adjacent
locations that never revisit a location.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
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

# A bearing change of more than this many degrees is a turn.
DEFAULT_TURN_THRESHOLD = 30.0


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed; message carries line context."""


class GraphInvariantError(ValueError):
    """Raised when a graph violates a structural invariant; names the offending id."""


def check_whole(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is a whole number (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")


def rows_in(sorted_ids: np.ndarray, ids, error: type[Exception]) -> np.ndarray:
    """Positions of ``ids`` (any shape, 0-d included) in the ascending ``sorted_ids``.

    Raises ``error`` naming the first id, in flat order, that is missing.
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.searchsorted(sorted_ids, ids)
    if len(sorted_ids):
        bad = sorted_ids[np.minimum(rows, len(sorted_ids) - 1)] != ids
    else:
        bad = np.ones(ids.shape, dtype=bool)
    if bad.any():
        raise error(f"unknown location id {int(ids.flat[np.argmax(bad)])}")
    return rows


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it."""
    a.flags.writeable = False
    return a


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV file: the ``header`` row, then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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

    The constructor validates structural invariants (unique ids, finite
    positions and latents, symmetric adjacency, resolvable neighbor ids,
    uniform latent dimension) and computes ``spacing`` as the mean edge
    length in meters.  Instances are treated as read-only after
    construction; the row-space arrays for vectorized consumers are built
    on first use, cached and read-only.
    """

    def __init__(self, locations: Iterable[Location]):
        locs: dict[int, Location] = {}
        for loc in locations:
            if loc.id in locs:
                raise GraphInvariantError(f"duplicate location id {loc.id}")
            locs[loc.id] = loc
        self._locs = dict(sorted(locs.items()))
        self.spacing = self._mean_edge_length()
        self.validate()

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------

    def __setattr__(self, name, value):
        # The cached index; cached_property fills the instance __dict__ past this check.
        if name in ("id_array", "position_array", "neighbor_rows", "tag_matrix"):
            raise AttributeError(f"MapGraph.{name} is derived from the locations")
        super().__setattr__(name, value)

    def __len__(self) -> int:
        return len(self._locs)

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
            if not all(map(math.isfinite, loc.position)):
                raise GraphInvariantError(
                    f"location {loc.id}: position {loc.position!r} is not finite"
                )
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
            # One pass over the stacked latents: a check per location costs
            # as much as building the graph.
            finite = np.isfinite(self.latent_matrix().reshape(len(self), -1)).all(axis=1)
            if not finite.all():
                raise GraphInvariantError(
                    f"location {self.id_array[np.argmin(finite)]}: latent is not finite"
                )
        if self.edge_count() > 0 and not self.spacing > 0.0:
            raise GraphInvariantError("spacing must be positive for a graph with edges")

    # ------------------------------------------------------------------
    # vectorized index (row space)
    # ------------------------------------------------------------------

    @cached_property
    def id_array(self) -> np.ndarray:
        """Location ids ascending, shape (N,)."""
        return _read_only(np.fromiter(self._locs, dtype=np.int64, count=len(self)))

    @cached_property
    def position_array(self) -> np.ndarray:
        """Positions by row, shape (N, 2)."""
        pos = [loc.position for loc in self._locs.values()]
        return _read_only(np.array(pos, dtype=np.float64).reshape(len(self), 2))

    @cached_property
    def neighbor_rows(self) -> np.ndarray:
        """Padded adjacency in row indices, ascending, shape (N, max_degree); -1 pads."""
        degree = np.array([len(loc.neighbors) for loc in self._locs.values()], dtype=np.intp)
        nbr = np.full((len(self), max(degree.max(initial=0), 1)), -1, dtype=np.int32)
        # A boolean mask assigns in row-major order: each row's neighbors, left-aligned.
        nbr[np.arange(nbr.shape[1]) < degree[:, None]] = self.rows_of(
            [nb for loc in self._locs.values() for nb in sorted(loc.neighbors)])
        return _read_only(nbr)

    @cached_property
    def tag_matrix(self) -> np.ndarray:
        """Tag flags by row, shape (N, len(TAG_NAMES)), columns in TAG_NAMES order."""
        tags = [[name in loc.tags for name in TAG_NAMES] for loc in self._locs.values()]
        return _read_only(np.array(tags, dtype=bool).reshape(len(self), len(TAG_NAMES)))

    def rows_of(self, loc_ids) -> np.ndarray:
        """Row indices of an array of ids, same shape (raises on unknown ids)."""
        return rows_in(self.id_array, loc_ids, GraphInvariantError)

    def allowed_mask(self, exclusions: Iterable[str] = ()) -> np.ndarray:
        """Boolean row mask of locations carrying none of the excluded tags."""
        excl = frozenset(exclusions)
        unknown = excl - set(TAG_NAMES)
        if unknown:
            raise ValueError(f"unknown exclusion tags {sorted(unknown)}")
        if not excl:
            return np.ones(len(self), dtype=bool)
        cols = [TAG_NAMES.index(t) for t in excl]
        return ~self.tag_matrix[:, cols].any(axis=1)

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


# ----------------------------------------------------------------------
# turn patterns
# ----------------------------------------------------------------------


def bearing_deg(a: Sequence[float], b: Sequence[float]) -> float:
    """Bearing of the segment a -> b in degrees, in [0, 360)."""
    return math.degrees(math.atan2(b[1] - a[1], b[0] - a[0])) % 360.0


def segment_bearings(a, b) -> np.ndarray:
    """Bearings in degrees, in [-180, 180], of the segments a -> b over (..., 2) positions."""
    d = np.asarray(b) - np.asarray(a)
    return np.degrees(np.arctan2(d[..., 1], d[..., 0]))


def bearing_turns(b0, b1) -> np.ndarray:
    """Turn bits between segments of bearings b0 and b1.

    A bit is set iff b1 differs from b0 by more than
    ``DEFAULT_TURN_THRESHOLD`` degrees, the difference wrapped into [0, 180].
    """
    return np.abs((b1 - b0 + 180.0) % 360.0 - 180.0) > DEFAULT_TURN_THRESHOLD


def turn_pattern(route: Route, g: MapGraph) -> TurnPattern:
    """Binary turn pattern of a route: m-1 bits for a route of m locations.

    Bit 0 is fixed to 0 (the first step has no preceding segment).  Bit i for
    1 <= i <= m-2 is 1 iff the absolute bearing change at interior location
    i+1 exceeds ``DEFAULT_TURN_THRESHOLD`` degrees.  Bearings come from location
    positions, not stored headings.
    """
    if len(route) < 2:
        raise ValueError(f"route must have at least 2 locations, got {len(route)}")
    p = g.position_array[g.rows_of(route)]
    bearings = segment_bearings(p[:-1], p[1:])
    return (0, *bearing_turns(bearings[:-1], bearings[1:]).astype(int).tolist())
