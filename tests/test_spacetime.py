import math
from fractions import Fraction
from heapq import heappop, heappush
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st_

from causalot import (InputError, PreconditionError, RawPath, Spacetime, canonical_time,
                      canonicalize_compact, causal_geodesic, causal_lipschitz_constant,
                      verify_causal)
from causalot.coupling import _causal_adjacency
from genrand import dyadic, random_graph, rng_for


# -- causally_precedes ---------------------------------------------------------

def test_precedes_reflexive(mink, chain_graph):
    for st, x in ((mink, 0.0), (chain_graph, "A")):
        p = st.event(0.0, x)
        assert st.causally_precedes(p, p)


def test_precedes_minkowski_closed_form(mink):
    p = mink.event(0.0, 0.0)
    assert mink.causally_precedes(p, mink.event(1.0, 0.5))
    assert not mink.causally_precedes(p, mink.event(1.0, 1.5))
    # null boundary counts as related
    assert mink.causally_precedes(p, mink.event(1.0, 1.0))


def test_precedes_graph_shortest_path(edge_graph):
    p = edge_graph.event(0.0, "A")
    assert not edge_graph.causally_precedes(p, edge_graph.event(1.0, "B"))
    assert edge_graph.causally_precedes(p, edge_graph.event(2.0, "B"))


@pytest.mark.parametrize("constant, value", [("alpha", math.nan), ("alpha", math.inf),
                                             ("u", math.inf), ("u", math.nan),
                                             ("eps_caus", math.inf), ("eps_caus", math.nan)])
def test_non_finite_constants_are_refused(constant, value):
    with pytest.raises(InputError, match=f"{constant} must be finite, got {value!r}"):
        Spacetime("minkowski-1+1", **{constant: value})


def test_precedes_rejects_bad_points(mink, chain_graph):
    with pytest.raises(InputError):
        chain_graph.causally_precedes(chain_graph.event(0, "A"),
                                      chain_graph.event(1, "Q"))
    with pytest.raises(InputError):
        mink.event(0.0, float("nan"))


def test_normalize_point_returns_a_canonical_interior_point_itself(chain_graph):
    x = ("B", "C", 0.5)
    assert chain_graph.normalize_point(x) is x
    # reversed edges, end offsets and non-float offsets are still normalized
    assert chain_graph.normalize_point(("C", "B", 1.5)) == x
    assert chain_graph.normalize_point(["B", "C", 0.5]) == x
    assert chain_graph.normalize_point(("B", "C", 1)) == ("B", "C", 1.0)
    assert chain_graph.normalize_point(("B", "C", 0.0)) == "B"
    assert chain_graph.normalize_point(("C", "B", 0.0)) == "C"
    assert chain_graph.normalize_point(("B", "C", 2.0 + 5e-10)) == "C"
    with pytest.raises(InputError, match="no edge between 'A' and 'C'"):
        chain_graph.normalize_point(("A", "C", 0.5))
    with pytest.raises(InputError, match="outside edge"):
        chain_graph.normalize_point(("B", "C", 2.5))


# -- optical distance -----------------------------------------------------------

def test_optical_distance_examples(chain_graph, edge_graph):
    assert chain_graph.optical_distance("B", "B") == 0.0
    assert chain_graph.optical_distance("A", "C") == 3.0
    assert edge_graph.optical_distance(("A", "B", 0.5), "B") == 1.5


def test_optical_distance_shortcut(net_graph):
    # A-B-C via 0.5+0.5 beats the direct A-C edge of length 1 only by tie;
    # the direct edge has equal length, distance must be 1 either way
    assert net_graph.optical_distance("A", "C") == 1.0
    assert net_graph.optical_distance(("A", "Z", 10.0), "A") == 10.0


def test_disconnected_graph_rejected():
    # C isolated; A (vertices[0]) isolated; a second component without A
    for vertices, edges in ((["A", "B", "C"], [("A", "B", 1.0)]),
                            (["A", "B", "C"], [("B", "C", 1.0)]),
                            (["A", "B", "C", "D"], [("A", "B", 1.0), ("C", "D", 1.0)])):
        with pytest.raises(InputError, match="graph is not connected"):
            Spacetime("static-graph", vertices=vertices, edges=edges)


def _settled(st):
    # The state of every search: settled distances and heap, per source.
    return {v: (list(done), sorted(heap)) for v, (done, heap) in st._trees.items()}


def _exhausted(st):
    # st with the search from every vertex run to the end
    for v in st.vertices:
        st._tree(v, lambda done, key: False)
    assert all(None not in done and not heap for done, heap in st._trees.values())
    return st


def test_graph_build_runs_no_dijkstra_and_lookups_are_lazy():
    names = [f"v{i:03d}" for i in range(400)]
    edges = [(names[i], names[(i + 1) % 400], 1.0) for i in range(400)]
    edges += [(names[i], names[(i + 133) % 400], 4.0) for i in range(0, 400, 7)]
    st = Spacetime("static-graph", vertices=names, edges=edges)
    assert st._trees == {}
    assert st.optical_distance("v000", "v002") == 2.0
    # a near target settles only v000, its ring neighbours and v002
    assert list(st._trees) == ["v000"]
    assert sum(d is not None for d in st._trees["v000"][0]) == 4
    d = st.optical_distance("v000", "v200")
    state = _settled(st)
    assert st.optical_distance("v000", "v200") == d
    assert st.optical_distance("v000", "v002") == 2.0
    assert _settled(st) == state


def _assert_query_order_free(st_forward, st_reversed, st_eager):
    _exhausted(st_eager)
    pts = list(st_eager.vertices)
    for a, b in sorted(st_eager.edges):
        pts += [(a, b, st_eager.edge_length(a, b) / 4), (a, b, st_eager.edge_length(a, b) / 2)]
    pairs = [(x, y) for x in pts for y in pts]
    got = {}
    for st, order in ((st_forward, pairs), (st_reversed, pairs[::-1])):
        got[st] = {(x, y): (st.optical_distance(x, y), st.geodesic_track(x, y))
                   for x, y in order}
    for x, y in pairs:
        want = (st_eager.optical_distance(x, y), st_eager.geodesic_track(x, y))
        assert got[st_forward][x, y] == want, (x, y)
        assert got[st_reversed][x, y] == want, (x, y)


def test_graph_routes_do_not_depend_on_query_order():
    # edge lengths in {0.5, 1, 2}: equal-length routes occur
    for n_vertices in (3, 5, 8, 12):
        for seed in range(3):
            st_forward, st_reversed, st_eager = (
                random_graph(rng_for(7000 + 10 * n_vertices + seed), n_vertices=n_vertices)
                for _ in range(3))
            _assert_query_order_free(st_forward, st_reversed, st_eager)


def test_graph_route_ties_take_the_lexicographically_smaller_route():
    def square():
        return Spacetime("static-graph", vertices=["A", "B", "C", "D"],
                         edges=[("A", "B", 1.0), ("B", "C", 1.0),
                                ("C", "D", 1.0), ("A", "D", 1.0)])

    _assert_query_order_free(square(), square(), square())
    for first in ("A", "C"):
        st = square()
        st.optical_distance(first, "B")
        assert st.geodesic_track("A", "C") == ["A", "B", "C"]
        assert st.geodesic_track("C", "A") == ["C", "B", "A"]
        assert st.geodesic_track("B", "D") == ["B", "A", "D"]
        # from mid A-B to mid C-D: via A-D and via B-C both have length 2
        assert st.geodesic_track(("A", "B", 0.5), ("C", "D", 0.5)) == [
            ("A", "B", 0.5), "A", "D", ("C", "D", 0.5)]


def _exits(st, x):
    # (vertex, exact offset) pairs for leaving the canonical point x
    if isinstance(x, str):
        return [(x, Fraction(0))]
    a, b, off = x
    return [(a, Fraction(off)), (b, Fraction(st.edge_length(a, b)) - Fraction(off))]


def _brute_route(st, x, y):
    """Independent oracle: enumerate all simple vertex paths in exact
    arithmetic.  Returns (length, chain), ties broken by the smallest chain;
    the empty chain is a direct move along a shared edge."""
    def edges_of(p):
        return {e for e in st.edges if p in e} if isinstance(p, str) else {p[:2]}

    def offset_on(p, key):
        if isinstance(p, str):
            return Fraction(0) if p == key[0] else Fraction(st.edges[key])
        return Fraction(p[2])

    x, y = st.normalize_point(x), st.normalize_point(y)
    best = [(abs(offset_on(x, key) - offset_on(y, key)), ())
            for key in edges_of(x) & edges_of(y)]
    for va, da in _exits(st, x):
        for vb, db in _exits(st, y):
            if va == vb:
                best.append((da + db, (va,)))
                continue
            for k in range(len(st.vertices) - 1):
                for mid in permutations([v for v in st.vertices if v not in (va, vb)], k):
                    seq = (va,) + mid + (vb,)
                    keys = [(u, w) if u < w else (w, u) for u, w in zip(seq, seq[1:])]
                    if all(key in st.edges for key in keys):
                        best.append((da + sum(Fraction(st.edges[key]) for key in keys) + db, seq))
    return min(best)


def _track(st, x, chain, y):
    # geodesic track through the vertices of chain
    x, y = st.normalize_point(x), st.normalize_point(y)
    if x == y:
        return [x]
    track = [x]
    for v in chain + (y,):
        if track[-1] != v:
            track.append(v)
    return track


def test_optical_distance_against_bruteforce():
    rng = rng_for(101)
    for trial in range(25):
        st = random_graph(rng, n_vertices=4, far=False)
        pts = []
        for _ in range(4):
            if rng.random() < 0.5:
                pts.append(rng.choice(st.vertices))
            else:
                a, b = rng.choice(sorted(st.edges))
                pts.append((a, b, dyadic(rng, 0.0, st.edge_length(a, b), 8)))
        for x in pts:
            for y in pts:
                want = float(_brute_route(st, x, y)[0])
                assert st.optical_distance(x, y) == want, (x, y, st.edges)


def test_route_ties_below_float_resolution_are_exact():
    # A-C-D-B has length 1 + 2**-53 + 2**-53 == 1 + 2**-52 == len(A-B)
    # exactly; float sums along A-C-D-B round to 1.0, shorter than every
    # route.  The exact distance is 1 + 2**-52, and the tie goes to the
    # lexicographically smaller chain A, B.
    st = Spacetime("static-graph", vertices=["A", "B", "C", "D"],
                   edges=[("A", "C", 1.0), ("C", "D", 2.0 ** -53),
                          ("D", "B", 2.0 ** -53), ("A", "B", 1 + 2.0 ** -52)])
    assert st.optical_distance("A", "B") == 1 + 2.0 ** -52
    assert st.geodesic_track("A", "B") == ["A", "B"]
    assert st.geodesic_track("B", "A") == ["B", "A"]
    assert st.optical_distance("A", "D") == 1.0
    assert st.geodesic_track("A", "D") == ["A", "C", "D"]
    # the comparison's edge sits causal_tol below the exact distance; from
    # the float sum 1.0 it would sit two ulps lower
    edge = 1 + 2.0 ** -52 - st.causal_tol
    assert st.causally_precedes(st.event(0.0, "A"), st.event(edge, "B"))
    assert not st.causally_precedes(st.event(0.0, "A"),
                                    st.event(math.nextafter(edge, 0.0), "B"))


def test_a_vertex_and_its_edge_endpoint_tuples_give_one_segment(chain_graph):
    # A user-built curve can hold (a, b, 0.0) or (a, b, length) in place of
    # vertex a or b.  The segment queries compare points by equality, and
    # give either form the vertex's results against every point of its edge.
    st = chain_graph
    for (a, b), length in st.edges.items():
        on_edge = [a, b, (a, b, length / 4), (a, b, length / 2)]
        for v, tup in ((a, (a, b, 0.0)), (b, (a, b, length))):
            for y in on_edge:
                assert st.segment_length(tup, y) == st.segment_length(v, y)
                assert st.segment_length(y, tup) == st.segment_length(y, v)
                assert st.geodesic_track(tup, y) == st.geodesic_track(v, y)
                assert st.geodesic_track(y, tup) == st.geodesic_track(y, v)
                for frac in (0.0, 0.25, 0.5, 1.0):
                    got = st.point_on_segment(tup, y, frac)
                    assert st.normalize_point(got) == st.point_on_segment(v, y, frac)
                    got = st.point_on_segment(y, tup, frac)
                    assert st.normalize_point(got) == st.point_on_segment(y, v, frac)


def test_exact_lengths_beyond_the_float_range():
    # the exact route length exceeds the largest float: it reads inf, as the
    # float sum did; an infinite edge has no exact length and is refused
    st = Spacetime("static-graph", vertices=["A", "B", "C"],
                   edges=[("A", "B", 1e308), ("B", "C", 1e308)])
    assert st.optical_distance("A", "B") == 1e308
    assert st.optical_distance("A", "C") == math.inf
    assert not st.causally_precedes(st.event(0.0, "A"), st.event(1.0, "C"))
    with pytest.raises(InputError, match="finite length"):
        Spacetime("static-graph", vertices=["A", "B"], edges=[("A", "B", math.inf)])


def _path_dijkstra(st, source):
    # The earlier float tree: heap keyed by (dist, path), so equal-length
    # routes are broken by the lexicographically smallest vertex sequence.
    adj = {v: [] for v in st.vertices}
    for a, b in st.edges:
        adj[a].append(b)
        adj[b].append(a)
    done = {}
    heap = [(0.0, (source,))]
    while heap:
        dist, path = heappop(heap)
        v = path[-1]
        if v in done:
            continue
        done[v] = (dist, path)
        for w in sorted(adj[v]):
            if w not in done:
                heappush(heap, (dist + st.edge_length(v, w), path + (w,)))
    return done


def _path_route(st, x, y, trees):
    x, y = st.normalize_point(x), st.normalize_point(y)
    candidates = []
    shared = st._shared_edge(x, y)
    if shared is not None:
        candidates.append((abs(shared[1] - shared[2]), ()))
    for vx, dx in _exits(st, x):
        for vy, dy in _exits(st, y):
            if vx not in trees:
                trees[vx] = _path_dijkstra(st, vx)
            dist, path = trees[vx][vy]
            candidates.append((float(dx) + dist + float(dy), path))
    return min(candidates)


def _grid_graph(rng, n):
    names = [f"{chr(ord('a') + i)}{j}" for i in range(n) for j in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                edges.append((names[i * n + j], names[(i + 1) * n + j], rng.choice([0.5, 1.0])))
            if j + 1 < n:
                edges.append((names[i * n + j], names[i * n + j + 1], rng.choice([0.5, 1.0])))
    return Spacetime("static-graph", vertices=names, edges=edges)


def test_graph_routes_match_the_path_carrying_dijkstra():
    # Lengths in {0.5, 1, 2} (random graphs) or {0.5, 1} (grids) make float
    # sums exact and equal-length routes common, so the earlier tree is an
    # oracle for distances and for the lexicographic tie-break.
    graphs = [random_graph(rng_for(8100 + seed), n_vertices=n)
              for seed, n in enumerate((4, 6, 9, 12, 12, 16))]
    graphs += [_grid_graph(rng_for(8200 + n), n) for n in (3, 4, 5)]
    for st in graphs:
        pts = list(st.vertices)
        for a, b in sorted(st.edges)[::2]:
            pts += [(a, b, st.edge_length(a, b) / 4), (a, b, st.edge_length(a, b) / 2)]
        trees = {}
        for x in pts:
            for y in pts:
                dist, chain = _path_route(st, x, y, trees)
                assert st.optical_distance(x, y) == dist, (x, y)
                assert st.geodesic_track(x, y) == _track(st, x, chain, y), (x, y)


_EXPONENTS = (0, 1, 2, 26, 52, 53, 60)
_lengths = st_.one_of(
    st_.builds(lambda m, e: m * 2.0 ** -e,
               st_.sampled_from((1, 3, 5)), st_.sampled_from(_EXPONENTS)),
    st_.sampled_from((1 + 2.0 ** -52, 1 - 2.0 ** -53, 2 + 2.0 ** -51, 0.5 + 2.0 ** -60)))


@st_.composite
def _small_graphs(draw):
    n = draw(st_.integers(3, 5))
    names = "ABCDE"[:n]
    pairs = [(names[draw(st_.integers(0, i - 1))], names[i]) for i in range(1, n)]
    others = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
              if (a, b) not in pairs]
    pairs += draw(st_.lists(st_.sampled_from(others), unique=True, max_size=len(others)))
    graph = Spacetime("static-graph", vertices=list(names),
                      edges=[(a, b, draw(_lengths)) for a, b in pairs])
    pts = list(names)
    for a, b in draw(st_.lists(st_.sampled_from(sorted(graph.edges)), max_size=3)):
        frac = draw(st_.sampled_from((0.125, 0.375, 0.5, 0.875)))
        pts.append((a, b, graph.edge_length(a, b) * frac))
    return graph, pts


@settings(max_examples=80, deadline=None)
@given(_small_graphs())
def test_graph_routes_are_exact_for_mixed_dyadic_lengths(case):
    st, pts = case
    for x in pts:
        for y in pts:
            length, chain = _brute_route(st, x, y)
            assert st.optical_distance(x, y) == float(length), (x, y, st.edges)
            assert st.geodesic_track(x, y) == _track(st, x, chain, y), (x, y, st.edges)


@st_.composite
def _graphs_with_points(draw):
    # _small_graphs, or a 3x3 to 5x5 grid with up to three edge-interior points
    if draw(st_.booleans()):
        return draw(_small_graphs())
    graph = _grid_graph(rng_for(draw(st_.integers(0, 999))), draw(st_.integers(3, 5)))
    pts = list(graph.vertices)
    for a, b in draw(st_.lists(st_.sampled_from(sorted(graph.edges)), max_size=3)):
        pts.append((a, b, graph.edge_length(a, b) * draw(st_.sampled_from((0.25, 0.5)))))
    return graph, pts


def _same_graph(st, eps_caus):
    return Spacetime("static-graph", vertices=st.vertices, eps_caus=eps_caus,
                     edges=[(a, b, length) for (a, b), length in st.edges.items()])


@st_.composite
def _adjacency_query(draw, ref, pts):
    # Left events at a few times; each right event lies a drawn gap after a
    # left one: at the exact null boundary d or at the comparison's edge
    # d - causal_tol, each moved one ulp either way, or at d + causal_tol,
    # with d the exhausted spacetime's distance.
    left = [ref.event(draw(st_.sampled_from((0.0, -0.5, -2.0))), x)
            for x in draw(st_.lists(st_.sampled_from(pts), min_size=1, max_size=4))]
    right = []
    for _ in range(draw(st_.integers(1, 4))):
        p, y = draw(st_.sampled_from(left)), draw(st_.sampled_from(pts))
        d = ref.optical_distance(p.x, y)
        edge = draw(st_.sampled_from((d, d - ref.causal_tol)))
        gap = draw(st_.sampled_from((edge, math.nextafter(edge, -math.inf),
                                     math.nextafter(edge, math.inf), d + ref.causal_tol)))
        right.append(ref.event(p.t + gap, y))
    return ("adjacency", SimpleNamespace(atoms=[(e, 1.0) for e in left]),
            SimpleNamespace(atoms=[(e, 1.0) for e in right]))


def _answer(st, query):
    kind, x, y = query
    if kind == "adjacency":
        return _causal_adjacency(st, x, y)
    if kind == "distance":
        return st.optical_distance(x, y)
    return st.geodesic_track(x, y)


@settings(max_examples=150, deadline=None)
@given(st_.data(), _graphs_with_points(), st_.sampled_from([0.0, 1e-6, 0.25]))
def test_interleaved_queries_match_exhausted_searches(data, case, eps_caus):
    # Adjacency rows stop their searches early, distances and geodesics at
    # their targets; in any interleaving on one spacetime each answer is
    # that of a spacetime whose searches all ran to the end.
    graph, pts = case
    st, ref = _same_graph(graph, eps_caus), _exhausted(_same_graph(graph, eps_caus))
    pairs = st_.tuples(st_.sampled_from(pts), st_.sampled_from(pts))
    queries = data.draw(st_.lists(st_.one_of(
        _adjacency_query(ref, pts),
        pairs.map(lambda xy: ("distance",) + xy),
        pairs.map(lambda xy: ("track",) + xy)), min_size=1, max_size=12))
    for query in queries:
        assert _answer(st, query) == _answer(ref, query), query


def test_geodesic_track_after_distance_runs_no_dijkstra():
    st = _grid_graph(rng_for(8300), 5)
    pts = ["a0", "e4", "c2", ("b2", "c2", st.edge_length("b2", "c2") / 2)]
    for x in pts:
        for y in pts:
            st.optical_distance(x, y)
            state = _settled(st)
            st.geodesic_track(x, y)
            assert _settled(st) == state, (x, y)
    assert sorted(st._trees) == ["a0", "b2", "c2", "e4"]


def test_metric_properties_random_triples():
    rng = rng_for(202)
    for trial in range(20):
        st = random_graph(rng, n_vertices=5, far=False)
        pts = [rng.choice(st.vertices) for _ in range(3)]
        events = [st.event(dyadic(rng, -2, 2), x) for x in pts]
        x, y, z = pts
        assert st.optical_distance(x, y) == pytest.approx(st.optical_distance(y, x), abs=1e-9)
        assert st.optical_distance(x, z) <= st.optical_distance(x, y) + st.optical_distance(y, z) + 1e-9
        p, q, r = events
        assert st.riemannian_distance(p, q) == pytest.approx(st.riemannian_distance(q, p), abs=1e-9)
        assert st.riemannian_distance(p, r) <= st.riemannian_distance(p, q) + st.riemannian_distance(q, r) + 1e-9


def test_partial_order_on_random_event_sets():
    rng = rng_for(303)
    for trial in range(15):
        st = random_graph(rng, n_vertices=4, far=False) if trial % 2 else Spacetime("minkowski-1+1")
        events = []
        for _ in range(12):
            x = rng.choice(st.vertices) if st.backend == Spacetime.GRAPH else dyadic(rng, -2, 2)
            events.append(st.event(float(rng.randint(-4, 4)), x))
        for p in events:
            assert st.causally_precedes(p, p)
            for q in events:
                if st.causally_precedes(p, q) and st.causally_precedes(q, p):
                    assert p.t == q.t and p.x == q.x
                for r in events:
                    if st.causally_precedes(p, q) and st.causally_precedes(q, r):
                        assert st.causally_precedes(p, r)


# -- riemannian distance ----------------------------------------------------------

def test_riemannian_distance_examples(mink, mink_alpha4):
    p = mink.event(0.0, 0.0)
    assert mink.riemannian_distance(p, p) == 0.0
    q = mink.event(3.0, 4.0)
    assert mink.riemannian_distance(p, q) == pytest.approx(5.0, abs=1e-12)
    assert mink_alpha4.riemannian_distance(mink_alpha4.event(0, 0.0),
                                           mink_alpha4.event(3, 4.0)) == pytest.approx(10.0, abs=1e-12)


# -- geodesics -----------------------------------------------------------------

def test_geodesic_static(chain_graph):
    g = causal_geodesic(chain_graph, chain_graph.event(0, "A"), chain_graph.event(1, "A"))
    assert g.at(0.5).x == "A"
    assert g.at(0.5).t == 0.5
    assert g.pace == 1.0


def test_geodesic_minkowski_line(mink):
    g = causal_geodesic(mink, mink.event(0, 0.0), mink.event(2, 1.0))
    for tau in (0.0, 0.5, 1.0, 1.5, 2.0):
        e = g.at(tau)
        assert e.t == pytest.approx(tau, abs=1e-12)
        assert e.x == pytest.approx(tau / 2, abs=1e-12)


def test_geodesic_graph_vertex_crossing(chain_graph):
    g = causal_geodesic(chain_graph, chain_graph.event(0, "A"), chain_graph.event(4, "C"))
    taus = [tau for tau, e in g.breakpoints if e.x == "B"]
    assert taus == [pytest.approx(4.0 / 3.0, abs=1e-12)]
    assert g.pace == 1.0
    assert verify_causal(chain_graph, g).ok


def test_geodesic_deterministic(net_graph):
    a = causal_geodesic(net_graph, net_graph.event(0, "A"), net_graph.event(2, "D"))
    b = causal_geodesic(net_graph, net_graph.event(0, "A"), net_graph.event(2, "D"))
    assert a.breakpoints == b.breakpoints
    # A-C-D and A-B-C-D tie at length 1.5; the lexicographically smaller
    # vertex sequence starts A, B
    track = [e.x for _, e in a.breakpoints]
    assert track == ["A", "B", "C", "D"]


def test_geodesic_rejects_non_causal(mink):
    with pytest.raises(PreconditionError):
        causal_geodesic(mink, mink.event(0, 0.0), mink.event(1, 5.0))
    with pytest.raises(PreconditionError):
        causal_geodesic(mink, mink.event(1, 0.0), mink.event(0, 0.0))


def test_geodesic_outputs_verify_causal_randomized():
    rng = rng_for(404)
    for trial in range(20):
        st = random_graph(rng, n_vertices=4, far=False) if trial % 2 else Spacetime("minkowski-1+1")
        x = rng.choice(st.vertices) if st.backend == Spacetime.GRAPH else dyadic(rng, -2, 2)
        y = rng.choice(st.vertices) if st.backend == Spacetime.GRAPH else dyadic(rng, -2, 2)
        t0 = dyadic(rng, -2, 2)
        t1 = t0 + st.optical_distance(x, y) + dyadic(rng, 0.0, 2.0, 4)
        if t1 == t0:
            t1 = t0 + 1.0
        g = causal_geodesic(st, st.event(t0, x), st.event(t1, y))
        assert g.pace == 1.0
        assert verify_causal(st, g, samples=6).ok


def _bits(curve):
    """Every parameter and event of a curve, floats written by float.hex."""
    def hexed(v):
        if isinstance(v, float):
            return v.hex()
        return tuple(map(hexed, v)) if isinstance(v, tuple) else v
    return [(tau.hex(), e.t.hex(), hexed(e.x)) for tau, e in curve.breakpoints]


def test_geodesic_is_the_canonical_parametrization_of_its_leg():
    # One leg, one parametrization: the geodesic and the canonical
    # parametrization of the two-event path agree bit for bit, also where
    # the crossing times of non-dyadic edges are not exact.
    rng = rng_for(2718)
    tf = canonical_time()
    mink = Spacetime("minkowski-1+1")
    for trial in range(300):
        if trial % 3 == 0:
            st = mink
            x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        else:
            k = rng.randint(3, 7)
            names = [f"V{i}" for i in range(k + 1)]
            st = Spacetime("static-graph", vertices=names,
                           edges=[(u, v, rng.uniform(0.1, 2.0))
                                  for u, v in zip(names, names[1:])])
            i = rng.randrange(k)
            x, y = (names[0], names[-1]) if trial % 2 else (names[i], names[rng.randint(i + 1, k)])
        t0 = rng.uniform(-3, 3)
        t1 = t0 + st.optical_distance(x, y) + rng.uniform(0.01, 2.0)
        p, q = st.event(t0, x), st.event(t1, y)
        want = canonicalize_compact(st, tf, RawPath(st, [p, q]), p.t, q.t)
        got = causal_geodesic(st, p, q)
        assert _bits(got) == _bits(want), (trial, p, q)
        assert got.pace == want.pace == 1.0


def test_causality_slack():
    soft = Spacetime("minkowski-1+1", eps_caus=0.25)
    p = soft.event(0.0, 0.0)
    q = soft.event(1.0, 1.2)   # 0.2 beyond the light cone
    assert soft.causally_precedes(p, q)
    assert not soft.causally_precedes(p, soft.event(1.0, 1.3))
    hard = Spacetime("minkowski-1+1")
    assert not hard.causally_precedes(hard.event(0, 0.0), hard.event(1, 1.2))


def test_causality_slack_flows_to_couplings():
    from causalot import SliceMeasure, find_causal_coupling
    soft = Spacetime("minkowski-1+1", eps_caus=0.25)
    mu = SliceMeasure(soft, [(soft.event(0, 0.0), 1.0)])
    nu = SliceMeasure(soft, [(soft.event(1, 1.2), 1.0)])
    assert find_causal_coupling(soft, mu, nu) is not None
    hard = Spacetime("minkowski-1+1")
    mu = SliceMeasure(hard, [(hard.event(0, 0.0), 1.0)])
    nu = SliceMeasure(hard, [(hard.event(1, 1.2), 1.0)])
    assert find_causal_coupling(hard, mu, nu) is None


# -- the slab constant -------------------------------------------------------------

def test_lipschitz_constant_values():
    assert causal_lipschitz_constant(Spacetime("minkowski-1+1"), 0, 1) == pytest.approx(math.sqrt(2))
    assert causal_lipschitz_constant(Spacetime("minkowski-1+1", alpha=2.0), 0, 1) == pytest.approx(2.0)
    assert causal_lipschitz_constant(Spacetime("minkowski-1+1", u=0.5), 0, 1) == pytest.approx(1.0)
    with pytest.raises(InputError):
        causal_lipschitz_constant(Spacetime("minkowski-1+1"), 1, 0)
