import math
from collections import deque
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st_

from causalot import (Coupling, Evolution, InputError, MeshSpec, NonCausalEvolutionError,
                      SliceMeasure, Spacetime, TimeFunction, canonical_time, check_evolution,
                      compose_couplings, cut_witness, dominates_on_upsets,
                      find_causal_coupling, synthesize_slabs, transport_distance)
from genrand import (inject_superluminal, random_backend, random_causal_evolution,
                     random_graph, random_slice_measure, rng_for)
from causalot import coupling
from causalot.coupling import _Instance, _causal_adjacency, _max_flow
from causalot.spacetime import GEOM_ATOL, Event

T0 = canonical_time()


def delta(st, t, x):
    return SliceMeasure(st, [(st.event(t, x), 1.0)])


def two(st, t, x1, x2, w=0.5):
    return SliceMeasure(st, [(st.event(t, x1), w), (st.event(t, x2), 1.0 - w)])


# -- feasibility --------------------------------------------------------------------

def test_point_masses_couple_iff_causal(mink):
    mu = delta(mink, 0, 0.0)
    nu = delta(mink, 1, 0.5)
    w = find_causal_coupling(mink, mu, nu)
    assert w is not None and len(w.atoms) == 1
    assert find_causal_coupling(mink, mu, delta(mink, 1, 3.0)) is None


def test_unique_fractional_matching(mink):
    # a=(0,0) reaches only c=(1,0.9); b=(0,2) reaches both c and d=(1,2.5)
    mu = two(mink, 0, 0.0, 2.0)
    nu = two(mink, 1, 0.9, 2.5)
    w = find_causal_coupling(mink, mu, nu)
    assert w is not None
    plan = {(p.x, q.x): wt for (p, q), wt in w.atoms}
    assert plan == {(0.0, 0.9): 0.5, (2.0, 2.5): 0.5}


def test_cut_argument_infeasible(mink):
    # both left atoms reach only c, which carries half the mass
    mu = two(mink, 0, 0.0, 0.5)
    nu = two(mink, 1, 0.25, 30.0)
    assert find_causal_coupling(mink, mu, nu) is None
    cut = cut_witness(mink, mu, nu)
    assert cut.mu_mass == pytest.approx(1.0)
    assert cut.nu_future_mass == pytest.approx(0.5)


def test_witness_marginals_exact(mink):
    rng = rng_for(123)
    for _ in range(40):
        mu = random_slice_measure(rng, mink, 0.0)
        nu = random_slice_measure(rng, mink, 4.0)
        w = find_causal_coupling(mink, mu, nu)
        if w is None:
            continue
        left = w.marginal(0)
        for e, wt in mu.atoms:
            assert left.weight_of(e) == pytest.approx(wt, abs=1e-12)


# -- the upset characterization --------------------------------------------------------

def test_upsets_equal_measures(mink):
    mu = two(mink, 0, -1.0, 1.0)
    assert dominates_on_upsets(mink, mu, mu)


def test_upsets_on_feasible_2x2(mink):
    mu = two(mink, 0, 0.0, 2.0)
    nu = two(mink, 1, 0.9, 2.5)
    assert dominates_on_upsets(mink, mu, nu)


def test_upsets_on_infeasible_pair(mink):
    mu = two(mink, 0, 0.0, 0.5)
    nu = two(mink, 1, 0.25, 30.0)
    assert not dominates_on_upsets(mink, mu, nu)


def test_upsets_support_cap(mink):
    atoms = [(mink.event(0, float(i)), 1.0 / 32) for i in range(32)]
    big = SliceMeasure(mink, atoms)
    with pytest.raises(InputError, match="cap"):
        dominates_on_upsets(mink, big, big)


def test_flow_agrees_with_upsets_randomized():
    rng = rng_for(321)
    agree = 0
    for _ in range(150):
        st = random_backend(rng, far=False)
        s = rng.randint(-2, 2)
        t = s + rng.randint(0, 3)
        mu = random_slice_measure(rng, st, float(s))
        nu = random_slice_measure(rng, st, float(t))
        assert (find_causal_coupling(st, mu, nu) is not None) == \
            dominates_on_upsets(st, mu, nu)
        agree += 1
    assert agree == 150


# -- causal adjacency --------------------------------------------------------------

NUDGES = (lambda v: v, lambda v: math.nextafter(v, math.inf),
          lambda v: math.nextafter(v, -math.inf))


def _index_rows(matrix):
    """A boolean matrix as the support graph's ascending index rows."""
    return [[j for j, arc in enumerate(row) if arc] for row in matrix]


def _listed(rows):
    # run-route rows are ranges
    return [list(row) for row in rows]


@pytest.mark.parametrize("eps_caus", [0.0, 1e-6, 0.25])
def test_minkowski_adjacency_matches_causally_precedes(eps_caus):
    # Right atoms sit on the null boundary |dx| = dt (and on dt + tol), then
    # one ulp either side of it in x and in t; the adjacency's index rows
    # must list the pairs the per-pair loop accepts at the spacetime's
    # causal tolerance.
    st = Spacetime("minkowski-1+1", eps_caus=eps_caus)
    tol = st.causal_tol
    assert tol == max(eps_caus, GEOM_ATOL)
    xs = [-1.5, -0.3, 0.0, 0.1, 0.7, 1.1, 2.0, 3.3]
    t0 = 0.1
    mu = SliceMeasure(st, [(st.event(t0, x), 0.125) for x in xs])
    seen = set()
    for dt in (0.25, 0.3, 1.0):
        for slack in (0.0, tol):
            for sign in (1.0, -1.0):
                for nudge_t in NUDGES:
                    for nudge_x in NUDGES:
                        nu = SliceMeasure(st, [
                            (st.event(nudge_t(t0 + dt), nudge_x(x + sign * (dt + slack))),
                             0.125) for x in xs])
                        want = [[st.causally_precedes(p, q) for q, _ in nu.atoms]
                                for p, _ in mu.atoms]
                        assert _listed(_causal_adjacency(st, mu, nu)) == _index_rows(want)
                        seen.update(want[i][i] for i in range(len(xs)))
    assert seen == {True, False}


@pytest.mark.parametrize("eps_caus", [0.0, 1e-6, 0.25])
def test_graph_adjacency_matches_causally_precedes(eps_caus, monkeypatch):
    # Right atoms sit at times equal to left-right distances (the null
    # boundary), plus the tolerance, then one ulp either side; lengths and
    # offsets carry large power-of-two denominators.  The adjacency reads
    # the distance searches directly and must list the per-pair arcs.
    st = Spacetime("static-graph", vertices=["A", "B", "C", "D"],
                   edges=[("A", "B", 1.0), ("B", "C", 2.0 ** -53), ("C", "D", 1 + 2.0 ** -52),
                          ("A", "D", 0.75), ("A", "C", 1 + 2.0 ** -52)],
                   eps_caus=eps_caus)
    tol = st.causal_tol
    xs = ["A", "B", "C", "D", ("C", "D", 0.1), ("A", "B", 0.5), ("A", "D", 0.3), ("C", "D", 1.0)]
    mu = SliceMeasure(st, [(st.event(0.0, x), 0.125) for x in xs])
    dts = sorted({st.optical_distance(x, y) for x in xs[::3] for y in xs} - {0.0})
    calls = []
    precedes = Spacetime.causally_precedes
    seen = set()
    for dt in dts:
        for slack in (0.0, tol):
            for nudge_t in NUDGES:
                nu = SliceMeasure(st, [(st.event(nudge_t(dt + slack), y), 0.125) for y in xs])
                monkeypatch.setattr(Spacetime, "causally_precedes",
                                    lambda *args: calls.append(args) or precedes(*args))
                adjacency = _causal_adjacency(st, mu, nu)
                monkeypatch.setattr(Spacetime, "causally_precedes", precedes)
                want = [[st.causally_precedes(p, q) for q, _ in nu.atoms]
                        for p, _ in mu.atoms]
                assert _listed(adjacency) == _index_rows(want)
                seen.update(b for row in want for b in row)
    assert calls == []
    assert seen == {True, False}


def _pair_verdicts(st, p, q):
    """Whether p causally precedes q, to the relation itself, to the
    causal adjacency row, to Coupling and to the decision of two Diracs."""
    try:
        Coupling(st, [((p, q), 1.0)])
        coupled = True
    except InputError:
        coupled = False
    mu, nu = delta(st, p.t, p.x), delta(st, q.t, q.x)
    return (st.causally_precedes(p, q), list(_causal_adjacency(st, mu, nu)[0]) == [0],
            coupled, find_causal_coupling(st, mu, nu) is not None)


@pytest.mark.parametrize("backend", [Spacetime.MINKOWSKI, Spacetime.GRAPH])
@pytest.mark.parametrize("eps_caus", [0.0, 1e-6, 0.25])
def test_one_causal_relation(backend, eps_caus):
    # Right events at gaps d and d - causal_tol after the left one, each also
    # one ulp either way: the relation users query is the one every check
    # applies.
    if backend == Spacetime.MINKOWSKI:
        st = Spacetime(backend, eps_caus=eps_caus)
        p, ys = st.event(0.0, 0.0), [1.0, -2.5, 1 + 5e-10]
        # a pair within causal_tol of the light cone is causal to all four
        assert _pair_verdicts(st, p, st.event(1.0, 1 + 5e-10)) == (True,) * 4
    else:
        st = Spacetime(backend, vertices=["A", "B", "C"],
                       edges=[("A", "B", 1.0), ("B", "C", 2.0)], eps_caus=eps_caus)
        p, ys = st.event(0.0, "A"), ["B", ("B", "C", 0.5), "C"]
    seen = set()
    for y in ys:
        d = st.optical_distance(p.x, y)
        for edge in (d, d - st.causal_tol):
            for gap in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                verdicts = _pair_verdicts(st, p, st.event(gap, y))
                assert len(set(verdicts)) == 1, (y, gap, verdicts)
                seen.add(verdicts[0])
    assert seen == {True, False}


def _ulps(v, k):
    """v moved |k| ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


def _support(st, events):
    # The atoms in SliceMeasure's order (by event_key) but unmerged, so that
    # repeated and ulp-close positions stay separate atoms.
    return SimpleNamespace(atoms=tuple((e, 1.0) for e in sorted(events, key=st.event_key)))


def _adjacency_matches(st, left, right):
    mu, nu = _support(st, left), _support(st, right)
    want = [[st.causally_precedes(p, q) for q, _ in nu.atoms]
            for p, _ in mu.atoms]
    return _listed(_causal_adjacency(st, mu, nu)) == _index_rows(want)


_EPS_CAUS = st_.sampled_from([0.0, 1e-6, 0.25])
_DTS = st_.sampled_from([0.0, 2.0 ** -40, 1.0, 7.3])
_POSITIONS = st_.one_of(st_.sampled_from([0.0, -0.0, 1.0, -2.5]), st_.floats(-8.0, 8.0))


@st_.composite
def _boundary_events(draw, st, left, t=None):
    """A right event on or next to the light cone of a left event p: at
    p.x +/- dt or p.x +/- (dt + tol), moved up to three ulps either way.
    It lies at time t when given, else a drawn dt after p, that time also
    moved up to three ulps."""
    p = draw(st_.sampled_from(left))
    if t is None:
        dt = draw(_DTS)
        t = _ulps(p.t + dt, draw(st_.integers(-3, 3)))
    else:
        dt = t - p.t
    slack = draw(st_.sampled_from([0.0, st.causal_tol]))
    y = p.x + draw(st_.sampled_from([1.0, -1.0])) * (dt + slack)
    return st.event(t, _ulps(y, draw(st_.integers(-3, 3))))


@settings(max_examples=300, deadline=None)
@given(st_.data(), _EPS_CAUS, _DTS, st_.sampled_from([0.0, 0.1, -3.7]))
def test_one_time_adjacency_matches_causally_precedes(data, eps_caus, dt, s):
    # The run route: right atoms on one time, so each row is one run.  Left
    # atoms lie on one time too, or some of them 2**-40 or 0.5 earlier.
    st = Spacetime("minkowski-1+1", eps_caus=eps_caus)
    left = [st.event(s - ds, x) for ds, x in data.draw(st_.lists(
        st_.tuples(st_.sampled_from([0.0, 0.0, 0.0, 2.0 ** -40, 0.5]), _POSITIONS),
        min_size=1, max_size=8))]
    right = data.draw(st_.lists(_boundary_events(st, left, s + dt), min_size=1, max_size=12))
    # repeated positions, and both zeros
    right += [st.event(s + dt, y) for y in data.draw(
        st_.lists(st_.sampled_from([q.x for q in right] + [0.0, -0.0]), max_size=4))]
    assert _adjacency_matches(st, left, right)


@settings(max_examples=300, deadline=None)
@given(st_.data(), _EPS_CAUS, st_.sampled_from([0.0, 0.5, -0.75]))
def test_mixed_time_adjacency_matches_causally_precedes(data, eps_caus, slope):
    # The dense route: left atoms on a tilted level set (slope 0 is a time
    # slice) or at mixed times, right atoms on a second tilted level set
    # and next to the light cones of left atoms.
    st = Spacetime("minkowski-1+1", eps_caus=eps_caus)
    tilt = TimeFunction(slope=slope)
    left = [tilt.level_event(st, tau, x) for tau, x in data.draw(st_.lists(
        st_.tuples(st_.sampled_from([0.0, 0.0, 0.5, -2.0]), _POSITIONS), min_size=1, max_size=8))]
    right = [tilt.level_event(st, 1.0, x)
             for x in data.draw(st_.lists(_POSITIONS, max_size=4))]
    right += data.draw(st_.lists(_boundary_events(st, left), min_size=1, max_size=12))
    assume(len({q.t for q in right}) > 1)
    assert _adjacency_matches(st, left, right)


def test_transport_distance_computes_no_causal_adjacency(net_graph, monkeypatch):
    # W1 builds its own tight arcs; the causal adjacency of the instance
    # would be graph distances computed for nothing.
    calls = []
    distances = Spacetime._graph_distances
    monkeypatch.setattr(Spacetime, "_graph_distances",
                        lambda *args: calls.append(args) or distances(*args))
    mu = two(net_graph, 0.0, "A", "B", 0.25)
    nu = SliceMeasure(net_graph, [(net_graph.event(1.0, "C"), 0.5),
                                  (net_graph.event(1.0, "D"), 0.375),
                                  (net_graph.event(1.0, "Z"), 0.125)])
    assert transport_distance(net_graph, mu, nu) > 0
    assert calls == []
    # a decision still reads the adjacency, once
    assert find_causal_coupling(net_graph, mu, two(net_graph, 1.0, "C", "D")) is not None
    assert len(calls) == 1



# -- max flow against plain Edmonds-Karp ----------------------------------------------

def _oracle_max_flow(instance):
    """Edmonds-Karp with a BFS for every augmenting path: ``_max_flow``
    as it was before the greedy pass, kept as the oracle for it."""
    m = len(instance.supply)
    n = len(instance.demand)
    flows = [[0] * n for _ in range(m)]
    used_supply, used_demand = [0] * m, [0] * n
    while True:
        parent = {}
        queue = deque()
        for i in range(m):
            if instance.supply[i] - used_supply[i] > 0:
                parent[i] = -1
                queue.append(i)
        found = None
        while queue and found is None:
            v = queue.popleft()
            if v < m:
                for j in instance.adjacency[v]:
                    if (m + j) not in parent:
                        parent[m + j] = v
                        if instance.demand[j] - used_demand[j] > 0:
                            found = m + j
                            break
                        queue.append(m + j)
            else:
                j = v - m
                for i in range(m):
                    if flows[i][j] > 0 and i not in parent:
                        parent[i] = v
                        queue.append(i)
        if found is None:
            reachable = {v for v in parent if v < m}
            value = sum(sum(row) for row in flows)
            return value, flows, reachable
        path = []
        v = found
        while v != -1:
            path.append(v)
            v = parent[v]
        path.reverse()
        bottleneck = instance.supply[path[0]] - used_supply[path[0]]
        j_final = path[-1] - m
        bottleneck = min(bottleneck, instance.demand[j_final] - used_demand[j_final])
        for k in range(1, len(path) - 1):
            if path[k] >= m and path[k + 1] < m:
                bottleneck = min(bottleneck, flows[path[k + 1]][path[k] - m])
        used_supply[path[0]] += bottleneck
        used_demand[j_final] += bottleneck
        for k in range(len(path) - 1):
            v, w = path[k], path[k + 1]
            if v < m <= w:
                flows[v][w - m] += bottleneck
            elif w < m <= v:
                flows[w][v - m] -= bottleneck


def _dense(flows, n):
    """``_max_flow``'s per-row ``{j: units}`` flows as an m x n matrix."""
    return [[row.get(j, 0) for j in range(n)] for row in flows]


def _sparse(result):
    """The oracle's (value, flows, reachable) in ``_max_flow``'s form: each
    row's non-zero flows as ``{j: units}``."""
    value, flows, reachable = result
    return value, [{j: f for j, f in enumerate(row) if f} for row in flows], reachable


def _same_as_oracle(inst):
    """``_max_flow``, its flows densified, and the oracle return the same
    (value, flows, reachable), and the sparse rows store no zero flow;
    returns the densified result."""
    value, flows, reachable = _max_flow(inst)
    assert all(all(row.values()) for row in flows)
    got = value, _dense(flows, len(inst.demand)), reachable
    assert got == _oracle_max_flow(inst)
    return got


def _oracle_decide(st, mu, nu):
    """``coupling._decide``'s atoms and cut, read off the oracle's flow by a
    full m x n scan; an arc whose weight rounds to 0.0 is dust, left out."""
    inst = _Instance(mu, nu, _causal_adjacency(st, mu, nu))
    value, flows, reachable = _oracle_max_flow(inst)
    if not coupling._deficient(inst.scale - value, inst):
        weighed = [((p, q), float(Fraction(flows[i][j], inst._unit_den)))
                   for i, (p, _) in enumerate(mu.atoms)
                   for j, (q, _) in enumerate(nu.atoms) if flows[i][j] > 0]
        return [(pq, w) for pq, w in weighed if w > 0.0], None
    left = sorted(reachable)
    future = sorted({j for i in left for j in inst.adjacency[i]})
    return None, coupling.CutWitness(tuple(mu.atoms[i][0] for i in left),
                                     math.fsum(mu.atoms[i][1] for i in left),
                                     math.fsum(nu.atoms[j][1] for j in future))


# Weights with power-of-two denominators up to 2**1074: halves, thirds
# rounded to floats, the smallest normal and subnormal numbers.
_WEIGHTS = st_.one_of(
    st_.sampled_from([0.5, 0.25, 1 / 3, 2.0 ** -600, 2.0 ** -1022, 5e-324, 3 * 5e-324]),
    st_.integers(1, 64).map(lambda k: k / 64),
    st_.floats(2.0 ** -30, 1.0))
_GRID = st_.integers(-16, 16).map(lambda k: k / 8)


def _weighted(st, atoms):
    # A support in SliceMeasure's order, unmerged and unnormalized: the
    # instance balances the two totals itself.
    return SimpleNamespace(atoms=tuple(sorted(atoms, key=lambda a: st.event_key(a[0]))))


@st_.composite
def _flow_pair(draw, kind):
    """A spacetime and two weighted supports on it: one-time or tilted
    Minkowski slices, mixed times, or a random graph."""
    if kind == "graph":
        st = random_graph(rng_for(draw(st_.integers(0, 2 ** 16))), far=False)
        sites = st_.sampled_from(sorted(st.vertices))
        left = [st.event(0.0, v) for v in draw(st_.lists(sites, min_size=1, max_size=7))]
        dt = draw(st_.sampled_from([0.5, 1.0, 2.0]))
        right = [st.event(dt, v) for v in draw(st_.lists(sites, min_size=1, max_size=7))]
    else:
        st = Spacetime("minkowski-1+1")
        tilt = TimeFunction(slope=draw(st_.sampled_from([0.5, -0.75]))) \
            if kind == "tilted" else T0
        taus = [0.0] if kind != "mixed-time" else [0.0, 0.25, -0.5]
        left = [tilt.level_event(st, draw(st_.sampled_from(taus)), x)
                for x in draw(st_.lists(_GRID, min_size=1, max_size=8))]
        right = [tilt.level_event(st, 1.0 + draw(st_.sampled_from(taus)), x)
                 for x in draw(st_.lists(_GRID, min_size=1, max_size=8))]
    return (st, _weighted(st, [(e, draw(_WEIGHTS)) for e in left]),
            _weighted(st, [(e, draw(_WEIGHTS)) for e in right]))


_KINDS = st_.sampled_from(["one-time", "tilted", "mixed-time", "graph"])


@settings(max_examples=400, deadline=None)
@given(st_.data(), _KINDS)
def test_max_flow_matches_plain_edmonds_karp(data, kind):
    # The greedy pass pushes exactly the direct-arc augmentations the BFS
    # would find first, so value, flows and the min-cut side are the BFS's.
    st, mu, nu = data.draw(_flow_pair(kind))
    inst = _Instance(mu, nu, _causal_adjacency(st, mu, nu))
    _same_as_oracle(inst)


@settings(max_examples=300, deadline=None)
@given(st_.data())
def test_max_flow_matches_plain_edmonds_karp_on_bipartite_graphs(data):
    # Arbitrary arcs and integer capacities, so that after the pass the BFS
    # must often route through reverse arcs.
    m, n = data.draw(st_.integers(1, 7)), data.draw(st_.integers(1, 7))
    adjacency = data.draw(st_.lists(st_.lists(st_.booleans(), min_size=n, max_size=n),
                                    min_size=m, max_size=m))
    supply = data.draw(st_.lists(st_.integers(1, 6), min_size=m, max_size=m))
    demand = data.draw(st_.lists(st_.integers(1, 6), min_size=n, max_size=n))
    inst = SimpleNamespace(supply=supply, demand=demand, adjacency=_index_rows(adjacency))
    _same_as_oracle(inst)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_max_flow_reroutes_after_the_greedy_pass(k):
    # Left i < k reaches right i and i + 1, left k only right 0.  The pass
    # sends each left i < k to right i, which leaves left k one augmenting
    # path of 2k + 1 arcs: k -> 0 -> left 0 -> 1 -> ... -> right k.
    adjacency = [[j in (i, i + 1) for j in range(k + 1)] for i in range(k)]
    adjacency.append([j == 0 for j in range(k + 1)])
    inst = SimpleNamespace(supply=[1] * (k + 1), demand=[1] * (k + 1),
                           adjacency=_index_rows(adjacency))
    value, flows, reachable = _same_as_oracle(inst)
    assert value == k + 1
    assert flows == [[int(j == i + 1) for j in range(k + 1)] for i in range(k)] + \
        [[int(j == 0) for j in range(k + 1)]]
    assert reachable == set()
    # two units on left k, which reaches only right 0: after the reroute,
    # left k alone is the cut
    inst.supply[k] = inst.demand[k] = 2
    value, _, reachable = _same_as_oracle(inst)
    assert value == k + 1 and reachable == {k}


def test_the_greedy_pass_leaves_one_bfs_on_worldline_pairs(monkeypatch):
    # Right atoms are the left ones moved inside their light cones, ordered
    # as the left ones: the pass saturates every atom, and the only BFS is
    # the one that proves the flow maximal.
    rounds = []
    monkeypatch.setattr(coupling, "deque", lambda: rounds.append(1) or deque())
    st = Spacetime("minkowski-1+1")
    mu = SliceMeasure(st, [(st.event(0.0, x / 4), 1 / 16) for x in range(16)])
    nu = SliceMeasure(st, [(st.event(1.0, x / 4 + 1 / 8), 1 / 16) for x in range(16)])
    plan = find_causal_coupling(st, mu, nu)
    assert [(p.x, q.x - p.x, w) for (p, q), w in plan.atoms] == \
        [(x / 4, 1 / 8, 1 / 16) for x in range(16)]
    assert len(rounds) == 1


@settings(max_examples=300, deadline=None)
@given(st_.data(), st_.sampled_from([0.5, 2.0 ** -52, 2.0 ** -1022, 5e-324]))
def test_max_flow_is_exact_on_tiny_power_of_two_weights(data, tiny):
    # Weights with denominators up to 2**1074 next to 0.5, on a pair whose
    # identity plan is causal: the flow saturates exactly, and each left
    # atom's mass comes back as its input float.
    st = Spacetime("minkowski-1+1")
    n = data.draw(st_.integers(1, 8))
    xs = data.draw(st_.lists(st_.integers(-64, 64), min_size=n, max_size=n, unique=True))
    moves = data.draw(st_.lists(st_.integers(-8, 8), min_size=n, max_size=n))
    ws = data.draw(st_.lists(st_.one_of(st_.just(tiny), _WEIGHTS), min_size=n, max_size=n))
    mu = _weighted(st, [(st.event(0.0, x / 8), w) for x, w in zip(xs, ws)])
    nu = _weighted(st, [(st.event(1.0, x / 8 + d / 8), w) for x, d, w in zip(xs, moves, ws)])
    inst = _Instance(mu, nu, _causal_adjacency(st, mu, nu))
    value, flows, reachable = _same_as_oracle(inst)
    assert value == inst.scale and reachable == set()
    assert [sum(row) for row in flows] == inst.supply
    assert [sum(col) for col in zip(*flows)] == inst.demand
    assert [inst.weight_from_units(sum(row)) for row in flows] == [w for _, w in mu.atoms]


class _Emitted:
    """Stands in for ``Coupling`` in ``coupling``: holds the atoms a
    decision hands to either constructor, unchecked, so that the supports
    of ``_flow_pair``, which are not unit measures, can be decided."""

    def __init__(self, st, atoms):
        self.atoms = list(atoms)

    _trusted = classmethod(lambda cls, st, atoms: cls(st, atoms))


@settings(max_examples=400, deadline=None)
@given(st_.data(), _KINDS)
def test_decisions_match_plain_edmonds_karp(data, kind):
    # Coupling atoms (in order, weights as floats) and cut witnesses are
    # the ones read from the oracle's flow by a full m x n scan.
    st, mu, nu = data.draw(_flow_pair(kind))
    with mock.patch.object(coupling, "Coupling", _Emitted):
        plan, cut = coupling._decide(st, mu, nu)
    assert (None if plan is None else plan.atoms, cut) == _oracle_decide(st, mu, nu)


def test_w1_matches_plain_edmonds_karp(monkeypatch):
    # The primal-dual W1 (graph and tilted pairs) runs one max flow per
    # phase; its distances are bit-identical to the oracle's.
    rng = rng_for(1501)
    pairs = []
    for _ in range(120):
        st = random_backend(rng, far=False)
        tf = TimeFunction(slope=rng.choice([0.5, -0.25])) \
            if st.backend == st.MINKOWSKI and rng.random() < 0.5 else T0
        pairs.append((st, random_slice_measure(rng, st, 0.0, max_atoms=6, tf=tf),
                       random_slice_measure(rng, st, rng.choice([0.5, 1.0, 2.0]),
                                            max_atoms=6, tf=tf)))
    got = [transport_distance(*pair).hex() for pair in pairs]
    monkeypatch.setattr(coupling, "_max_flow", lambda inst: _sparse(_oracle_max_flow(inst)))
    assert got == [transport_distance(*pair).hex() for pair in pairs]


def test_a_subnormal_atom_is_coupled_exactly(mink):
    # 0.5 + 0.5 + 2**-1074 sums to 1 in floats; the instance keeps the
    # subnormal atom as one unit in 2**1074 and couples it exactly.
    mu = SliceMeasure(mink, [(mink.event(0.0, 10.0 * k), w)
                             for k, w in enumerate([0.5, 0.5, 5e-324])])
    nu = SliceMeasure(mink, [(mink.event(1.0, 10.0 * k + 0.5), w)
                             for k, w in enumerate([0.5, 0.5, 5e-324])])
    plan = find_causal_coupling(mink, mu, nu)
    assert [(p.x, q.x, w) for (p, q), w in plan.atoms] == \
        [(0.0, 0.5, 0.5), (10.0, 10.5, 0.5), (20.0, 20.5, 5e-324)]


@pytest.mark.parametrize("dust, causal", [(1e-10, False), (5e-13, True)])
def test_every_entry_point_decides_at_the_mass_tolerance(mink, dust, causal):
    # Atom (0, 0.0) reaches only (1, 0.5), which carries dust less than it.
    # A deficit beyond MASS_ATOL is a cut for every entry point, and none
    # raises the unit-mass error; one within it is forgiven by all of them.
    mu = SliceMeasure(mink, [(mink.event(0, 0.0), 0.5), (mink.event(0, 2.0), 0.5)])
    nu = SliceMeasure(mink, [(mink.event(1, 0.5), 0.5 - dust),
                             (mink.event(1, 2.5), 0.5 + dust)])
    evo = Evolution(mink, [(0.0, mu), (1.0, nu)], T0, MeshSpec("integer"))
    cut = (mink.event(0, 0.0),)
    for mode in ("consecutive", "all-pairs"):
        report = check_evolution(mink, evo, mode)
        assert report.causal is causal
        assert causal or report.first_failure.witness.events == cut
    witness = cut_witness(mink, mu, nu)
    assert witness is None if causal else witness.events == cut
    assert dominates_on_upsets(mink, mu, nu) is causal
    assert (find_causal_coupling(mink, mu, nu) is not None) is causal
    if causal:
        synthesize_slabs(mink, T0, evo, 1, "forward")
    else:
        with pytest.raises(NonCausalEvolutionError) as err:
            synthesize_slabs(mink, T0, evo, 1, "forward")
        assert err.value.witness.events == cut


def _edge_pair(st, mu_weights, nu_weights):
    """Atom (0, 0.0) reaches only (1, 0.5), and (0, 2.0) only (1, 2.5)."""
    mu = SliceMeasure(st, [(st.event(0, x), w) for x, w in zip((0.0, 2.0), mu_weights)])
    nu = SliceMeasure(st, [(st.event(1, x), w) for x, w in zip((0.5, 2.5), nu_weights)])
    return mu, nu


def _verdicts(st, mu, nu):
    """The verdict of every decision entry point on a pair; none may raise."""
    evo = Evolution(st, [(0.0, mu), (1.0, nu)], T0, MeshSpec("integer"))
    return {"consecutive": check_evolution(st, evo, "consecutive").causal,
            "all-pairs": check_evolution(st, evo, "all-pairs").causal,
            "cut_witness": cut_witness(st, mu, nu) is None,
            "dominates_on_upsets": dominates_on_upsets(st, mu, nu),
            "find_causal_coupling": find_causal_coupling(st, mu, nu) is not None}


def test_a_deficit_at_the_mass_bound_is_a_cut_for_every_entry_point():
    # mu sits 9e-13 below unit mass, and (0, 0.0) sends 5e-13 less than it
    # carries: within MASS_ATOL as a share of the mass, but the witness
    # coupling would total 1 - 1.4e-12, which no measure accepts
    st = Spacetime("minkowski-1+1", eps_caus=0.0)
    mu, nu = _edge_pair(st, (0.5 - 4.5e-13, 0.5 - 4.5e-13), (0.5 - 5e-13, 0.5 + 5e-13))
    assert not any(_verdicts(st, mu, nu).values())
    cut = (st.event(0, 0.0),)
    assert cut_witness(st, mu, nu).events == cut
    evo = Evolution(st, [(0.0, mu), (1.0, nu)], T0, MeshSpec("integer"))
    with pytest.raises(NonCausalEvolutionError) as err:
        synthesize_slabs(st, T0, evo, 1, "forward")
    assert err.value.witness.events == cut


_TICK = 2.0 ** -45  # MASS_ATOL is about 35.2 ticks


@settings(max_examples=150, deadline=None)
@given(st_.lists(st_.integers(-40, 40), min_size=4, max_size=4))
def test_every_entry_point_agrees_at_the_mass_bound(ticks):
    # Weights 0.5 + k ticks: totals within 35 ticks of one are measures.
    # The verdict is the exact rule: a deficit is forgiven when it is at
    # most MASS_ATOL of mu's mass and leaves at least 1 - MASS_ATOL.
    # Synthesis is left out: its closing check compares each slice weight
    # at MASS_ATOL with the witness's, which carries mu's total, not nu's
    # (ROADMAP, small defects).
    a, b, c, d = ticks
    assume(abs(a + b) <= 35 and abs(c + d) <= 35)
    st = Spacetime("minkowski-1+1", eps_caus=0.0)
    mu, nu = _edge_pair(st, (0.5 + a * _TICK, 0.5 + b * _TICK),
                        (0.5 + c * _TICK, 0.5 + d * _TICK))
    ws = [Fraction(w) for _, w in mu.atoms + nu.atoms]
    mu_total, nu_total = ws[0] + ws[1], ws[2] + ws[3]
    flow = sum(min(x, y * mu_total / nu_total) for x, y in zip(ws[:2], ws[2:]))
    deficit, atol = mu_total - flow, Fraction(coupling.MASS_ATOL)
    feasible = deficit <= atol * mu_total and flow >= 1 - atol
    assert set(_verdicts(st, mu, nu).values()) == {feasible}


# -- the witness coupling, built once -------------------------------------------------


def _dust_pair(st):
    """nu's 5e-324 atom leaves the scaled totals one unit apart, and the
    saturating flow sends about 2**-1075 of mu's mass along (0, 0) -> (1, 0.5)."""
    mu = SliceMeasure(st, [(st.event(0, 0.0), 0.5), (st.event(0, 0.25), 0.5)], tau=0.0)
    nu = SliceMeasure(st, [(st.event(1, 0.0), 0.5), (st.event(1, 0.5), 0.5),
                           (st.event(1, 0.75), 5e-324)], tau=1.0)
    return mu, nu


def test_a_witness_leaves_out_arcs_whose_weight_rounds_to_zero():
    # That arc's weight rounds to 0.0, which no measure holds: it is dust,
    # left out, and the pair that check_evolution calls causal couples.
    st = Spacetime("minkowski-1+1", eps_caus=0.0)
    mu, nu = _dust_pair(st)
    evo = Evolution(st, [(0.0, mu), (1.0, nu)], T0, MeshSpec("integer"))
    assert check_evolution(st, evo).causal
    plan = find_causal_coupling(st, mu, nu)
    assert [(p.x, q.x, w) for (p, q), w in plan.atoms] == \
        [(0.0, 0.0, 0.5), (0.25, 0.5, 0.5), (0.25, 0.75, 5e-324)]
    sigma = synthesize_slabs(st, T0, evo, 1, "forward")
    assert sorted((c.at(0.0).x, c.at(1.0).x, w) for c, w in sigma.atoms) == \
        [(0.0, 0.0, 0.5), (0.25, 0.5, 0.5), (0.25, 0.75, 5e-324)]


def test_a_witness_is_not_checked_again(monkeypatch):
    # A feasible decision on a one-time Minkowski pair builds its coupling
    # from the measures' own canonical events over the rows' own causal
    # comparison: it canonicalizes nothing and calls causally_precedes
    # nowhere.  The public constructor still checks both.
    st = Spacetime("minkowski-1+1")
    mu = SliceMeasure(st, [(st.event(0.0, x / 4), 1 / 16) for x in range(16)])
    nu = SliceMeasure(st, [(st.event(1.0, x / 4 + 1 / 8), 1 / 16) for x in range(16)])
    calls = []
    for name in ("causally_precedes", "canonical_event"):
        method = getattr(Spacetime, name)
        monkeypatch.setattr(Spacetime, name, lambda self, *args, name=name, method=method:
                            calls.append(name) or method(self, *args))
    assert len(find_causal_coupling(st, mu, nu).atoms) == 16
    assert calls == []
    with pytest.raises(InputError, match="is not causally related"):
        Coupling(st, [((st.event(0.0, 0.0), st.event(1.0, 3.0)), 1.0)])
    with pytest.raises(InputError, match="Minkowski point must be a real number"):
        Coupling(st, [((Event(0.0, "west"), st.event(1.0, 0.0)), 1.0)])
    assert set(calls) == {"causally_precedes", "canonical_event"}


def test_the_trusted_constructor_keeps_the_weight_rule(mink):
    # a zero, a NaN and a total short of one: refused with the public
    # constructor's message
    pair, far = ((mink.event(0.0, x), mink.event(1.0, x)) for x in (0.0, 2.0))
    for weights in ((0.0, 1.0), (float("nan"), 1.0), (0.5, 0.25)):
        atoms = list(zip((pair, far), weights))
        with pytest.raises(InputError) as want:
            Coupling(mink, atoms)
        with pytest.raises(InputError) as got:
            Coupling._trusted(mink, atoms)
        assert str(got.value) == str(want.value)


def _bits(plan):
    # atoms, their order and every float bit (repr round-trips floats)
    return [(repr(pq), w.hex()) for pq, w in plan.atoms]


def _witness_route(st, mu, nu):
    """Decide mu -> nu and, when feasible, compare the witness with
    ``Coupling(st, atoms)`` on the oracle's atoms (``_oracle_decide``, the
    same ones by ``test_decisions_match_plain_edmonds_karp``): the same
    atoms in the same order with the same float bits, or the same
    ``InputError``.  Returns the constructor the decision used:
    ``"trusted"``, ``"public"``, or None for a cut."""
    with mock.patch.object(coupling, "Coupling", wraps=Coupling) as spy:
        try:
            got = coupling._decide(st, mu, nu)
        except InputError as err:
            got = err
    atoms, cut = _oracle_decide(st, mu, nu)
    if cut is not None:
        assert got == (None, cut)
        return None
    try:
        want = Coupling(st, atoms)
    except InputError as err:
        assert isinstance(got, InputError) and str(got) == str(err)
    else:
        assert not isinstance(got, InputError) and got[1] is None
        assert _bits(got[0]) == _bits(want)
    return "public" if spy.called else "trusted"


def test_a_join_across_a_gap_in_a_row_goes_through_the_merge():
    # nu's atoms (1, 5) and (1 + 9e-10, 5 + 1e-10) are close but not
    # neighbours, and (0, 5) sends to both: the merge joins them (ROADMAP
    # item 5), so the witness is the public constructor's two atoms.
    st = Spacetime("minkowski-1+1")
    mu = SliceMeasure(st, [(st.event(0.0, 0.0), 0.4), (st.event(0.0, 5.0), 0.6)])
    nu = SliceMeasure(st, [(st.event(1.0, 5.0), 0.3), (st.event(1 + 5e-10, 0.0), 0.4),
                           (st.event(1 + 9e-10, 5 + 1e-10), 0.3)])
    assert _witness_route(st, mu, nu) == "public"
    assert [(p, q, w) for (p, q), w in find_causal_coupling(st, mu, nu).atoms] == \
        [(st.event(0.0, 0.0), st.event(1 + 5e-10, 0.0), 0.4),
         (st.event(0.0, 5.0), st.event(1.0, 5.0), 0.6)]


# Vertex names with "|" give unequal edge points one sort key:
# ("a", "b|c", off) and ("a|b", "c", off) both read "a|b|c" at off.
TIED = Spacetime("static-graph", vertices=["a", "a|b", "b|c", "c"],
                 edges=[("a", "b|c", 2.0), ("a|b", "c", 2.0), ("a", "a|b", 1.0),
                        ("b|c", "c", 1.0)])
_TIED_POINTS = st_.one_of(st_.sampled_from(sorted(TIED.vertices)), st_.tuples(
    st_.sampled_from([("a", "b|c"), ("a|b", "c")]),
    st_.sampled_from([0.25, 0.5, 1.5])).map(lambda e: (*e[0], e[1])))
_TINY = st_.sampled_from([2.0 ** -52, 2.0 ** -600, 2.0 ** -1022, 3 * 5e-324, 5e-324])


@st_.composite
def _pushed_pair(draw, st, left, right_of):
    """Unit measures on the left events and on right events drawn by
    ``right_of(p)`` next to them: each left atom's weight k / K is split
    over one or two of its right events, and either side may gain an atom
    of a tiny weight, a power of two down to 2**-1074."""
    ks = draw(st_.lists(st_.integers(1, 64), min_size=len(left), max_size=len(left)))
    mu_atoms, nu_atoms = [], []
    for p, k in zip(left, ks):
        w = k / sum(ks)
        mu_atoms.append((p, w))
        cut = draw(st_.sampled_from([1.0, 0.5, 0.25, 2.0 ** -30]))
        nu_atoms.append((draw(right_of(p)), w * cut))
        if cut < 1.0:
            nu_atoms.append((draw(right_of(p)), w - w * cut))
    for atoms, events in ((mu_atoms, left), (nu_atoms, [q for q, _ in nu_atoms])):
        if draw(st_.booleans()):
            atoms.append((draw(st_.sampled_from(events)), draw(_TINY)))
    return SliceMeasure(st, mu_atoms), SliceMeasure(st, nu_atoms)


@st_.composite
def _witness_pair(draw, kind):
    """A spacetime and a slice pair for the witness oracle: Minkowski right
    events on the light cones of left ones, at ``d`` or ``d + tol`` moved
    up to three ulps either way, on one time or at mixed times; graph
    points on vertices and inside edges with tied sort keys, right times
    ``d``, ``d +/- tol`` or ``d +/- 1 ulp`` after a left event; the
    item 5 join, in a row and across rows that carry no flow; and the dust
    pair."""
    if kind == "dust":
        st = Spacetime("minkowski-1+1", eps_caus=0.0)
        return (st, *_dust_pair(st))
    if kind == "join":
        # (0, x) sends to nu's first and third atoms, which are close
        st = Spacetime("minkowski-1+1")
        x = draw(st_.sampled_from([2.0, 5.0, 7.5]))
        a = draw(st_.integers(1, 63)) / 64
        c = (1.0 - a) * draw(st_.sampled_from([0.25, 0.5, 0.75]))
        d1 = draw(st_.sampled_from([1e-10, 5e-10]))
        d2 = draw(st_.sampled_from([6e-10, 9e-10]))
        dx = draw(st_.sampled_from([-9e-10, -1e-10, 0.0, 1e-10, 9e-10]))
        mu = SliceMeasure(st, [(st.event(0.0, 0.0), a), (st.event(0.0, x), 1.0 - a)])
        nu = SliceMeasure(st, [(st.event(1.0, x), c), (st.event(1.0 + d1, 0.0), a),
                               (st.event(1.0 + d2, x + dx), 1.0 - a - c)])
        return st, mu, nu
    if kind == "left-join":
        # mu's first and third atoms are close, and its second, of dust
        # mass, reaches nothing: both send to nu's first atom
        st = Spacetime("minkowski-1+1")
        x = draw(st_.sampled_from([2.0, 5.0, 7.5]))
        dust = draw(st_.sampled_from([1e-13, 2.0 ** -60, 5e-324]))
        a = draw(st_.integers(1, 63)) / 64
        mu = SliceMeasure(st, [(st.event(0.0, x), a), (st.event(5e-10, 0.0), dust),
                               (st.event(9e-10, x + 1e-10), 1.0 - a - dust)])
        nu = SliceMeasure(st, [(st.event(1.0, x), 1.0 - a * 0.5), (st.event(1.0, x + 0.5), a * 0.5)])
        return st, mu, nu
    if kind == "graph":
        st = TIED
        left = [st.event(0.0, x) for x in draw(st_.lists(_TIED_POINTS, min_size=1, max_size=6))]

        @st_.composite
        def right_of(draw, p):
            y = draw(_TIED_POINTS)
            d = st.optical_distance(p.x, y)
            t = p.t + d + draw(st_.sampled_from([0.0, st.causal_tol, -st.causal_tol]))
            return st.event(_ulps(t, draw(st_.integers(-1, 1))), y)
        return (st, *draw(_pushed_pair(st, left, right_of)))
    st = Spacetime("minkowski-1+1", eps_caus=draw(_EPS_CAUS))
    taus = [0.0] if kind == "one-time" else [0.0, 0.0, 2.0 ** -40, 0.5]
    left = [st.event(-draw(st_.sampled_from(taus)), x)
            for x in draw(st_.lists(_POSITIONS, min_size=1, max_size=6))]
    t = draw(_DTS) if kind == "one-time" else None
    return (st, *draw(_pushed_pair(st, left, lambda p: _boundary_events(st, [p], t))))


@settings(max_examples=600, deadline=None)
@given(st_.data(), st_.sampled_from(["one-time", "mixed-time", "graph", "join", "left-join",
                                     "dust"]))
def test_the_trusted_witness_is_the_public_constructors(data, kind):
    st, mu, nu = data.draw(_witness_pair(kind))
    route = _witness_route(st, mu, nu)
    if kind in ("join", "left-join", "dust"):
        assert route == ("trusted" if kind == "dust" else "public")


def test_monotone_embedding(mink):
    rng = rng_for(654)
    for _ in range(30):
        mu = random_slice_measure(rng, mink, 0.0)
        nu = random_slice_measure(rng, mink, 3.0)
        if find_causal_coupling(mink, mu, nu) is None:
            continue
        # every subset of the left support obeys the future-mass inequality
        events = [e for e, _ in mu.atoms]
        for mask in range(1, 1 << len(events)):
            sel = [events[i] for i in range(len(events)) if mask & (1 << i)]
            mu_mass = sum(mu.weight_of(e) for e in sel)
            nu_mass = sum(wt for q, wt in nu.atoms
                          if any(mink.causally_precedes(p, q) for p in sel))
            assert mu_mass <= nu_mass + 1e-12


# -- coupling composition ------------------------------------------------------------------

def test_gluing_soundness(mink):
    rng = rng_for(987)
    glued = 0
    for _ in range(40):
        mu = random_slice_measure(rng, mink, 0.0)
        nu = random_slice_measure(rng, mink, 3.0)
        rho = random_slice_measure(rng, mink, 6.0)
        w1 = find_causal_coupling(mink, mu, nu)
        w2 = find_causal_coupling(mink, nu, rho)
        if w1 is None or w2 is None:
            continue
        w = compose_couplings(mink, w1, w2)
        # construction validates: marginals match, every pair causal
        assert all(mink.causally_precedes(p, q) for (p, q), _ in w.atoms)
        left = w.marginal(0)
        for e, wt in mu.atoms:
            assert left.weight_of(e) == pytest.approx(wt, abs=1e-9)
        glued += 1
    assert glued > 5


# -- evolutions ------------------------------------------------------------------------------

def test_static_evolution_causal(chain_graph):
    entries = [(float(t), delta(chain_graph, t, "A")) for t in range(4)]
    evo = Evolution(chain_graph, entries, T0, MeshSpec("integer"))
    assert check_evolution(chain_graph, evo).causal


def test_superluminal_step_flagged(mink):
    entries = [(0.0, delta(mink, 0, 0.0)), (1.0, delta(mink, 1, 2.0))]
    evo = Evolution(mink, entries, T0, MeshSpec("integer"))
    rep = check_evolution(mink, evo)
    assert not rep.causal
    assert rep.first_failure.s == 0.0 and rep.first_failure.t == 1.0
    assert rep.first_failure.witness is not None


def test_consecutive_implies_all_pairs():
    rng = rng_for(135)
    for _ in range(15):
        st = random_backend(rng)
        times = [float(k) for k in range(rng.randint(3, 5))]
        evo, _, _ = random_causal_evolution(rng, st, times, mesh=MeshSpec("integer"))
        assert check_evolution(st, evo, "consecutive").causal
        assert check_evolution(st, evo, "all-pairs").causal


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_slice_time_is_refused(mink, bad):
    # NaN compares False both ways, so neither the order check nor the unit
    # step check would see it; it is refused by name
    entries = [(0.0, delta(mink, 0, 0.0)), (bad, delta(mink, 1, 0.0)),
               (2.0, delta(mink, 2, 0.0))]
    with pytest.raises(InputError, match=f"slice time {bad} is not finite"):
        Evolution(mink, entries, T0, MeshSpec("integer"))


def test_integer_mesh_needs_unit_steps(mink):
    entries = [(t, delta(mink, t, 0.0)) for t in (0.0, 1.0, 2.5)]
    evo = Evolution(mink, entries, T0, MeshSpec("integer"))
    with pytest.raises(InputError, match="integer grid needs unit steps, got 1.0 then 2.5"):
        evo.validate_mesh()
    # a NaN smuggled past the constructor fails the step check too
    evo.entries = ((0.0, entries[0][1]), (math.nan, entries[1][1]))
    with pytest.raises(InputError, match="unit steps"):
        evo.validate_mesh()


@pytest.mark.parametrize("kind", ["bogus", "Dyadic", ""])
def test_unknown_mesh_kind_is_refused(kind):
    with pytest.raises(InputError, match=f"unknown mesh kind {kind!r}"):
        MeshSpec(kind)


@pytest.mark.parametrize("depth", [-1, 2.5, True, "3"])
def test_dyadic_depth_must_be_a_non_negative_int(depth):
    with pytest.raises(InputError, match=f"non-negative integer depth, got {depth!r}"):
        MeshSpec("dyadic", 0.0, 1.0, depth)


def test_deep_dyadic_mesh_is_refused_without_building_its_times(mink, monkeypatch):
    def refuse(*args):
        raise AssertionError("dyadic_times called")

    monkeypatch.setattr(coupling, "dyadic_times", refuse)
    entries = [(t, delta(mink, t, 0.0)) for t in (0.0, 0.5, 1.0)]
    evo = Evolution(mink, entries, T0, MeshSpec("dyadic", 0.0, 1.0, 60))
    with pytest.raises(InputError, match=r"do not form the dyadic mesh of \[0.0, 1.0\] "
                                         r"at depth 60"):
        evo.validate_mesh()


def test_slice_tag_violation_names_atom(mink):
    bad = SliceMeasure(mink, [(mink.event(5.0, 0.0), 1.0)])
    with pytest.raises(InputError, match="5.0"):
        Evolution(mink, [(0.0, bad)], T0, MeshSpec("explicit"))


def test_feasibility_monotone_in_time_separation():
    # enlarging the time gap only grows the causal future of every left
    # atom, so feasibility is monotone in the separation
    rng = rng_for(579)
    seen_feasible = 0
    for _ in range(60):
        st = random_backend(rng, far=False)
        mu = random_slice_measure(rng, st, 0.0)
        nu = random_slice_measure(rng, st, float(rng.randint(0, 2)))
        if find_causal_coupling(st, mu, nu) is None:
            continue
        seen_feasible += 1
        shift = float(rng.randint(1, 3))
        shifted = SliceMeasure(st, [(st.event(e.t + shift, e.x), w)
                                    for e, w in nu.atoms])
        assert find_causal_coupling(st, mu, shifted) is not None
    assert seen_feasible > 10


def test_injected_step_is_first_failure():
    rng = rng_for(246)
    for _ in range(15):
        st = random_backend(rng)
        times = [float(k) for k in range(rng.randint(3, 6))]
        evo, step = inject_superluminal(rng, st, times, mesh=MeshSpec("integer"))
        rep = check_evolution(st, evo)
        assert not rep.causal
        assert rep.first_failure.s == times[step]
        assert rep.first_failure.t == times[step + 1]
