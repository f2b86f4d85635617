"""Computable globally hyperbolic backends in static split form.

A spacetime here is the product of a time axis and a spatial factor,
with metric  -alpha dt^2 + alpha g_opt  where g_opt is the *optical*
spatial metric (light travels at unit optical speed).  Two backends are
provided:

* ``minkowski-1+1`` -- spatial factor is the real line, optical
  distance ``|x - y|``;
* ``static-graph`` -- spatial factor is a connected metric graph with
  positive edge lengths, optical distance is shortest-path length
  (edge-interior points included).  Construction checks connectivity in
  O(V + E) and writes the edge lengths as exact integers over their
  common power-of-two denominator.  Each source vertex a run queries
  keeps one integer Dijkstra, resumed only as far as a query needs: to
  its target vertex, or, for a causal adjacency row, until no unsettled
  vertex can be causally related.  A settled distance is exact, the same
  whatever order queries come in, and is rounded to float once.  Vertex
  chains are built only for geodesics, by a walk over the source's
  settled distances; :func:`causal_geodesic` refines its leg at the
  vertex crossings with the leg refiner that every curve constructor
  shares.

The lapse ``alpha`` and the conformal factor ``u`` are global positive
constants per scenario; they enter the auxiliary Riemannian product
metric whose distance is :func:`Spacetime.riemannian_distance` and the
Lipschitz constant :func:`causal_lipschitz_constant`.

Spatial points are plain values: a float for the Minkowski backend; a
vertex id (str) or an ``(a, b, offset)`` tuple for a point at the given
optical offset from vertex ``a`` along edge ``(a, b)`` on the graph
backend.  Edge tuples are kept in canonical orientation (``a < b``) and
exact endpoint offsets are normalised to vertices.

Each comparison reads one constant, with no per-call override: points and
events are close within ``GEOM_ATOL``, causal pairs within ``causal_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappush, heappop

from .errors import InputError, PreconditionError

# Absolute tolerance for geometric comparisons on derived quantities
# (breakpoints, interpolated offsets).  Raw scenario data is expected to
# be exactly representable; this guards rounding of derived values only.
GEOM_ATOL = 1e-9
# Absolute tolerance for matching mesh times and curve domain endpoints.
GRID_ATOL = 1e-12


def _dyadic_ints(values):
    """Floats as exact integers over their common power-of-two
    denominator: ``(ints, scale)`` with ``values[k] == ints[k] / scale``."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios], scale


def _over(value, den):
    # A float as an exact integer over den, a power of two that its own
    # denominator divides.
    num, d = value.as_integer_ratio()
    return num * (den // d)


def _to_float(num, den):
    # num / den rounded once; beyond the float range it is inf, as a float
    # sum of the lengths would be.
    try:
        return num / den
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Event:
    """A point (t, x) of the split spacetime; the atom of causality queries."""

    t: float
    x: object

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise InputError(f"event time must be finite, got {self.t}")


class Spacetime:
    """Immutable backend bundling the spatial factor and the constants.

    On the graph backend, each queried source vertex keeps one resumable
    Dijkstra (see ``_tree``), searched only as far as a query needs; only
    :meth:`geodesic_track` builds a vertex chain, from the source's
    settled distances alone.  The searches are internal, and every
    distance and track is the same whatever order queries come in.

    Parameters
    ----------
    backend : ``"minkowski-1+1"`` or ``"static-graph"``
    vertices, edges : graph data (ignored for Minkowski); edges are
        ``(a, b, length)`` triples with ``length > 0``.
    alpha, u : positive finite global constants (lapse, conformal factor).
    eps_caus : finite causality slack (default 0); :meth:`causally_precedes`
        compares at ``causal_tol = max(eps_caus, GEOM_ATOL)``.
    """

    MINKOWSKI = "minkowski-1+1"
    GRAPH = "static-graph"

    def __init__(self, backend, vertices=None, edges=None, alpha=1.0, u=1.0,
                 eps_caus=0.0):
        if backend not in (self.MINKOWSKI, self.GRAPH):
            raise InputError(f"unknown backend {backend!r}")
        for name, value in (("alpha", alpha), ("u", u), ("eps_caus", eps_caus)):
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
        if alpha <= 0 or u <= 0:
            raise InputError("alpha and u must be positive")
        if eps_caus < 0:
            raise InputError("eps_caus must be nonnegative")
        self.backend = backend
        self.alpha = float(alpha)
        self.u = float(u)
        self.eps_caus = float(eps_caus)
        self.causal_tol = max(self.eps_caus, GEOM_ATOL)
        if backend == self.GRAPH:
            self._init_graph(vertices, edges)
        else:
            self.vertices = ()
            self.edges = {}

    # -- graph construction -------------------------------------------------

    def _init_graph(self, vertices, edges):
        if not vertices:
            raise InputError("graph backend needs at least one vertex")
        self.vertices = tuple(sorted(str(v) for v in vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        # Vertex i is self.vertices[i]; ids sort like their indices.
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = {}
        for a, b, length in (edges or ()):
            a, b = str(a), str(b)
            if a == b:
                raise InputError(f"self-loop at {a!r} not allowed")
            if a not in self._index or b not in self._index:
                raise InputError(f"edge ({a!r}, {b!r}) references unknown vertex")
            key = (a, b) if a < b else (b, a)
            if key in self.edges:
                raise InputError(f"duplicate edge {key!r}")
            if not (length > 0):
                raise InputError(f"edge {key!r} must have positive length")
            if not math.isfinite(length):
                raise InputError(f"edge {key!r} must have finite length")
            self.edges[key] = float(length)
        # Exact lengths: integers over the common denominator self._scale.
        ints, self._scale = _dyadic_ints(list(self.edges.values()) or [1.0])
        adj = [[] for _ in self.vertices]
        for (a, b), length in zip(self.edges, ints):
            i, j = self._index[a], self._index[b]
            adj[i].append((j, length))
            adj[j].append((i, length))
        # Neighbours of vertex i as (j, exact length), sorted by j.
        self._adj = [sorted(ws) for ws in adj]
        seen = {0}
        stack = [0]
        while stack:
            for j, _ in self._adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(self.vertices):
            raise InputError("graph is not connected")
        self._trees = {}

    def _tree(self, source, until):
        """Distances from vertex id ``source`` as exact integers over
        self._scale, listed by vertex index; ``None`` where not yet settled.

        The one Dijkstra from ``source`` keeps its settled list and its
        heap in ``self._trees`` and resumes where the last query left it,
        until ``until(done, key)`` holds for the settled list and the
        heap's smallest key, or the heap is empty.  A settled distance is
        final (the settled-set invariant: every unsettled vertex lies at
        least the smallest key away), so it is the full search's, whatever
        the order of the queries; a full search is the same search run to
        the end.  Queries stop when their target vertex is settled, or, for
        a causal adjacency row, when the smallest key already fails the
        row's comparison (see ``_graph_distances``).
        """
        search = self._trees.get(source)
        if search is None:
            search = self._trees[source] = ([None] * len(self.vertices),
                                            [(0, self._index[source])])
        done, heap = search
        adj = self._adj
        while heap and not until(done, heap[0][0]):
            dist, i = heappop(heap)
            if done[i] is not None:
                continue
            done[i] = dist
            for j, length in adj[i]:
                if done[j] is None:
                    heappush(heap, (dist + length, j))
        return done

    def _vertex_distance(self, source, target):
        # Exact distance between vertex ids over self._scale; the search
        # from source stops once target is settled.
        end = self._index[target]
        return self._tree(source, lambda done, key: done[end] is not None)[end]

    def edge_length(self, a, b):
        key = (a, b) if a < b else (b, a)
        try:
            return self.edges[key]
        except KeyError:
            raise InputError(f"no edge between {a!r} and {b!r}") from None

    # -- spatial points ------------------------------------------------------

    def normalize_point(self, x):
        """Validate a spatial point and return it in canonical form; a
        canonical point (see ``_is_canonical``) is returned as it is."""
        if self.backend == self.MINKOWSKI:
            try:
                x = float(x)
            except (TypeError, ValueError):
                raise InputError(f"Minkowski point must be a real number, got {x!r}")
            if not math.isfinite(x):
                raise InputError(f"Minkowski point must be finite, got {x!r}")
            return x
        if isinstance(x, str):
            if x not in self._index:
                raise InputError(f"unknown vertex {x!r}")
            return x
        if self._is_canonical(x):
            return x
        try:
            a, b, off = x
        except (TypeError, ValueError):
            raise InputError(f"graph point must be a vertex id or (a, b, offset), got {x!r}")
        a, b, off = str(a), str(b), float(off)
        length = self.edge_length(a, b)
        if a > b:
            a, b = b, a
            off = length - off
        if not (-GEOM_ATOL <= off <= length + GEOM_ATOL):
            raise InputError(f"offset {off} outside edge ({a!r}, {b!r}) of length {length}")
        if off <= 0.0:
            return a
        if off >= length:
            return b
        return (a, b, off)

    def point_key(self, x):
        """Total-order sort key for canonical spatial points: unequal points
        get unequal keys.

        A Minkowski point or a vertex reads ``(0, x, "", 0.0)`` or
        ``(0, 0.0, v, 0.0)``; an edge-interior point ``(1, 0.0, a|b, off,
        a)``, whose last element tells ``("a|b", "c", off)`` from ``("a",
        "b|c", off)``.  Keys of unequal lengths differ at the kind flag, so
        a comparison is decided before one of them ends, and a key joined
        after another (a coupling's pair key) is compared only once the
        first keys are equal."""
        if self.backend == self.MINKOWSKI:
            return (0, x, "", 0.0)
        if isinstance(x, str):
            return (0, 0.0, x, 0.0)
        a, b, off = x
        return (1, 0.0, a + "|" + b, off, a)

    def points_close(self, x, y):
        if self.backend == self.MINKOWSKI:
            return abs(x - y) <= GEOM_ATOL
        if isinstance(x, str) or isinstance(y, str):
            if isinstance(x, str) and isinstance(y, str):
                return x == y
            # vertex vs interior point: close only if the offset is within
            # GEOM_ATOL of the matching endpoint (normalisation keeps genuinely
            # interior points off the vertices).
            v, e = (x, y) if isinstance(x, str) else (y, x)
            a, b, off = e
            if v == a:
                return off <= GEOM_ATOL
            if v == b:
                return self.edge_length(a, b) - off <= GEOM_ATOL
            return False
        return x[0] == y[0] and x[1] == y[1] and abs(x[2] - y[2]) <= GEOM_ATOL

    def event_key(self, e):
        return (e.t,) + self.point_key(e.x)

    def events_close(self, p, q):
        return abs(p.t - q.t) <= GEOM_ATOL and self.points_close(p.x, q.x)

    def event(self, t, x):
        return Event(float(t), self.normalize_point(x))

    def canonical_event(self, e):
        """``self.event(e.t, e.x)``, or e itself when it is already that
        event: a float time and a canonical point (see ``_is_canonical``),
        edge-interior graph points included, so couplings of adjacent slabs
        meet at one junction event object.  Any other event is normalized."""
        if type(e) is Event and type(e.t) is float and self._is_canonical(e.x):
            return e
        return self.event(e.t, e.x)

    def _is_canonical(self, x):
        # True for points normalize_point returns as they are: a finite
        # float (Minkowski), a known vertex id, or an (a, b, offset) triple
        # of an edge key and a float offset strictly inside the edge.
        if self.backend == self.MINKOWSKI:
            return type(x) is float and math.isfinite(x)
        if type(x) is not tuple or len(x) != 3:
            return type(x) is str and x in self._index
        a, b, off = x
        return (type(a) is str and type(b) is str and type(off) is float
                and 0.0 < off < self.edges.get((a, b), 0.0))

    # -- distances -----------------------------------------------------------

    def optical_distance(self, x, y):
        """Length-metric distance in the spatial factor.

        On a graph the distance is the exact shortest route length,
        rounded to float once."""
        x, y = self.normalize_point(x), self.normalize_point(y)
        if self.backend == self.MINKOWSKI:
            return abs(x - y)
        den = max(self._den(x), self._den(y))
        return _to_float(self._graph_distance(x, y, den), den)

    def _graph_distances(self, xs, ys, gaps):
        """The causal adjacency's bounded query on canonical graph points:
        row k holds ``optical_distance(xs[k], y)``, or ``inf`` where row
        k's comparison ``t - p.t >= d - tol`` cannot hold for any right
        time t; ``gaps[k]`` is that row's largest ``t - p.t``.

        The searches of x's exits are resumed only until the heap's
        smallest key, taken as the route length through that exit and
        rounded with ``_to_float``, fails ``gaps[k] >= d - tol``.  Every
        unsettled vertex lies at least that key away, the offsets onto y
        are nonnegative, and ``_to_float``, float subtraction and ``>=``
        are monotone, so no route through an unsettled vertex passes the
        comparison at any t of the row; the row's verdicts are the full
        search's.  The direct move along a shared edge is always counted.
        """
        tol = self.causal_tol
        den = max(self._den(x) for x in xs + ys)
        f = den // self._scale
        exits_y = [[(self._index[vy], oy) for vy, oy in self._exits(y, den)] for y in ys]
        rows = []
        for x, gap in zip(xs, gaps):
            ex = self._exits(x, den)
            trees = [(ox, self._tree(vx, lambda done, key:
                                     gap < _to_float(ox + key * f, den) - tol))
                     for vx, ox in ex]
            row = []
            for y, ey in zip(ys, exits_y):
                best = math.inf
                for ox, dist in trees:
                    for vy, oy in ey:
                        d = dist[vy]
                        if d is not None and ox + d * f + oy < best:
                            best = ox + d * f + oy
                if len(ex) == len(ey) == 2 and x[:2] == y[:2]:
                    best = min(best, abs(ex[0][1] - ey[0][1]))
                row.append(_to_float(best, den))
            rows.append(row)
        return rows

    def _den(self, x):
        # A power-of-two denominator over which the exits of canonical
        # graph point x are exact integers.
        if isinstance(x, str):
            return self._scale
        return max(self._scale, x[2].as_integer_ratio()[1])

    def _exits(self, x, den):
        # (vertex, offset-to-it) pairs describing how to leave canonical
        # graph point x; offsets are exact integers over den.
        if isinstance(x, str):
            return ((x, 0),)
        a, b, off = x
        off = _over(off, den)
        return ((a, off), (b, _over(self.edges[a, b], den) - off))

    def _graph_distance(self, x, y, den):
        """Exact distance between canonical graph points as an integer
        over den: the shortest of the routes through the exits of x and y,
        or the direct move when both lie inside one edge."""
        if isinstance(x, str) and isinstance(y, str):
            return self._vertex_distance(x, y) * (den // self._scale)
        ex, ey = self._exits(x, den), self._exits(y, den)
        f = den // self._scale
        best = min(ox + self._vertex_distance(vx, vy) * f + oy
                   for vx, ox in ex for vy, oy in ey)
        if len(ex) == len(ey) == 2 and x[:2] == y[:2]:
            best = min(best, abs(ex[0][1] - ey[0][1]))
        return best

    def _graph_chain(self, x, y):
        """Vertex chain of the shortest route between canonical graph points.

        Ties are broken by the lexicographically smallest vertex sequence;
        the empty chain (direct move along a shared edge) wins every tie.
        Every length is compared exactly, and only the searches of x's exit
        vertices are read, each settled as far as y's exits.
        """
        den = max(self._den(x), self._den(y))
        best = self._graph_distance(x, y, den)
        shared = self._shared_edge(x, y)
        if shared is not None and abs(_over(shared[1], den) - _over(shared[2], den)) == best:
            return ()
        f = den // self._scale
        return min(self._lex_path(vx, vy)
                   for vx, ox in self._exits(x, den) for vy, oy in self._exits(y, den)
                   if ox + self._vertex_distance(vx, vy) * f + oy == best)

    def _lex_path(self, source, target):
        # Lexicographically smallest shortest vertex sequence from source to
        # target.  Shortest routes are the paths of tight edges,
        # dist[u] + len(u, w) == dist[w]; the walk steps from source to the
        # smallest tight neighbour that still reaches target.  The search
        # stops once target is settled; an unsettled u is not tight, since
        # dist[u] >= the last key popped >= dist[target] >= dist[w] and
        # every length is at least 1.
        end = self._index[target]
        dist = self._tree(source, lambda done, key: done[end] is not None)
        reaches = {end}
        stack = [end]
        while stack:
            w = stack.pop()
            for u, length in self._adj[w]:
                if u not in reaches and dist[u] is not None and dist[u] + length == dist[w]:
                    reaches.add(u)
                    stack.append(u)
        path = [self._index[source]]
        while path[-1] != end:
            u = path[-1]
            path.append(next(w for w, length in self._adj[u]
                             if w in reaches and dist[u] + length == dist[w]))
        return tuple(self.vertices[i] for i in path)

    def _shared_edge(self, x, y):
        """Common edge of two distinct canonical graph points as (key,
        off_x, off_y), or None: an interior point's own edge, when the
        other point lies on it, or the edge between two vertices."""
        if isinstance(x, str) and isinstance(y, str):
            key = (x, y) if x < y else (y, x)
            if key not in self.edges:
                return None
        else:
            key = y[:2] if isinstance(x, str) else x[:2]
            if not all(p in key if isinstance(p, str) else p[:2] == key for p in (x, y)):
                return None
        return key, self._offset_on(x, key), self._offset_on(y, key)

    def _offset_on(self, x, key):
        if isinstance(x, str):
            return 0.0 if x == key[0] else self.edges[key]
        return x[2]

    def point_on_segment(self, x, y, frac):
        """Point at fraction ``frac`` of the way from x to y along their
        common edge (or straight line on Minkowski).  Both points must lie
        on one edge; curve constructors guarantee this for stored segments."""
        if frac <= 0.0:
            return x
        if frac >= 1.0:
            return y
        if self.backend == self.MINKOWSKI:
            return x + frac * (y - x)
        if x == y:
            return x
        shared = self._shared_edge(x, y)
        if shared is None:
            raise PreconditionError(
                f"segment endpoints {x!r}, {y!r} do not share an edge")
        key, off_x, off_y = shared
        return self.normalize_point((key[0], key[1], off_x + frac * (off_y - off_x)))

    def segment_length(self, x, y):
        """Optical length of the stored segment from x to y (single edge)."""
        if self.backend == self.MINKOWSKI:
            return abs(x - y)
        if x == y:
            return 0.0
        shared = self._shared_edge(x, y)
        if shared is None:
            raise PreconditionError(
                f"segment endpoints {x!r}, {y!r} do not share an edge")
        return abs(shared[1] - shared[2])

    def geodesic_track(self, x, y):
        """Deterministic shortest spatial track from x to y.

        The track is a list of spatial points with consecutive entries on a
        common edge, so it can be traversed by single-edge segments.
        """
        x, y = self.normalize_point(x), self.normalize_point(y)
        if self.backend == self.MINKOWSKI:
            return [x] if x == y else [x, y]
        if x == y:
            return [x]
        track = [x]
        for v in self._graph_chain(x, y):
            if track[-1] != v:
                track.append(v)
        if track[-1] != y:
            track.append(y)
        return track

    def riemannian_distance(self, p, q):
        """Distance in the auxiliary complete Riemannian product metric.

        Equals ``sqrt(u * alpha) * hypot(dt, optical_distance)``; this is
        the yardstick for all Lipschitz bounds in the package.
        """
        d_opt = self.optical_distance(p.x, q.x)
        return math.sqrt(self.u * self.alpha) * math.hypot(q.t - p.t, d_opt)

    # -- causality -----------------------------------------------------------

    def causally_precedes(self, p, q):
        """True iff q is in the causal future of p: ``q.t - p.t >=
        optical_distance(p.x, q.x) - causal_tol``, null-boundary pairs
        included.  It is the library's one causal relation: every path,
        curve, coupling, lift, geodesic and decision compares by it.
        """
        return q.t - p.t >= self.optical_distance(p.x, q.x) - self.causal_tol


def causal_lipschitz_constant(st, a, b):
    """Lipschitz constant ``sqrt(2 u alpha)`` of causal evolutions between
    the time values a and b, w.r.t. the Riemannian product distance.

    With constant ``u`` and ``alpha`` the maximum over the compact slab is
    the constant itself; the slab argument is kept for interface parity and
    validated."""
    if a > b:
        raise InputError(f"slab requires a <= b, got [{a}, {b}]")
    return math.sqrt(2.0 * st.u * st.alpha)


def causal_geodesic(st, p, q):
    """Deterministic causal geodesic from p to q, time-affine in t.

    The spatial track is the deterministic shortest path (lexicographic
    tie-break) traversed at constant optical speed, parametrized over
    [p.t, q.t] with unit pace w.r.t. the canonical time function.  For
    p != q the curve is the one ``canonicalize_compact(st, T0,
    RawPath(st, [p, q]), p.t, q.t)`` builds, bit for bit: the leg is
    refined at its vertex crossings by the one leg refiner of
    :mod:`causalot.curves` and parametrized by the lift's own
    construction, so identical inputs give identical curves on every
    route.
    """
    from .curves import CausalCurve, Interval, _compact_curve
    from .timefunc import canonical_time

    p = st.canonical_event(p)
    q = st.canonical_event(q)
    if not st.causally_precedes(p, q):
        raise PreconditionError(f"{p} does not causally precede {q}")
    if p == q:
        return CausalCurve(st, Interval.compact(p.t, q.t), [(p.t, p)],
                           pace=1.0, time_function=canonical_time())
    if q.t <= p.t:
        raise PreconditionError(
            f"degenerate pair: distinct events {p}, {q} on one time slice")
    return _compact_curve(st, canonical_time(), (p, q), p.t, q.t, Interval.compact(p.t, q.t))
