import itertools
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st_
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance as scipy_w1

import causalot.coupling as C
import causalot.measures as M
from causalot import (CausalCurve, Coupling, CurveMeasure, Event, InputError,
                      Interval, PreconditionError,
                      RawPath, SliceMeasure, Spacetime, TimeFunction,
                      canonical_time, canonicalize_noncompact,
                      causal_geodesic, concat, concat_measures,
                      curve_measures_equal, disintegrate, marginal_at,
                      pushforward_reparametrize, reparametrize,
                      slice_measures_equal, transport_distance)
from causalot.spacetime import GEOM_ATOL
from genrand import (identity_parametrized_bundle, random_backend, random_graph,
                     random_slice_measure, random_time_function, rng_for)

T0 = canonical_time()


def geod(st, t0, x0, t1, x1):
    return causal_geodesic(st, st.event(t0, x0), st.event(t1, x1))


def point_mass(st, curve):
    return CurveMeasure(st, [(curve, 1.0)])


# -- slice measures ---------------------------------------------------------------

def test_slice_measure_merges_and_validates(mink):
    m = SliceMeasure(mink, [(mink.event(0, 1.0), 0.5), (mink.event(0, 1.0), 0.25),
                            (mink.event(0, 2.0), 0.25)])
    assert len(m) == 2
    assert m.weight_of(mink.event(0, 1.0)) == pytest.approx(0.75, abs=0)
    with pytest.raises(InputError):
        SliceMeasure(mink, [(mink.event(0, 1.0), 0.5)])
    with pytest.raises(InputError):
        SliceMeasure(mink, [(mink.event(0, 1.0), 1.0)], time_function=T0, tau=5.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_non_finite_level_set_time_is_refused(mink, tau):
    # |v - NaN| > tol is False, so the level-set test alone would accept it
    with pytest.raises(InputError, match=f"tau={tau} is not finite"):
        SliceMeasure(mink, [(mink.event(0, 1.0), 1.0)], time_function=T0, tau=tau)


@pytest.mark.parametrize("atoms", [[(0.0, math.nan)], [(0.0, 1.0), (1.0, math.nan)]])
def test_nan_weight_is_refused(mink, atoms):
    # NaN is neither positive nor a mass that sums to one
    with pytest.raises(InputError, match="weights must be positive, got nan"):
        SliceMeasure(mink, [(mink.event(0.0, x), w) for x, w in atoms])


@pytest.mark.parametrize("pairs, named", [
    # one atom listed twice: the lower weight in IEEE total order is named
    ([((0.0, 0.0), 0.0), ((0.0, 0.0), -0.25)], (-0.25, (0.0, 0.0))),
    ([((0.0, 0.0), 0.0), ((0.0, 0.0), -0.0)], (-0.0, (0.0, 0.0))),
    ([((0.0, 0.0), math.nan), ((0.0, 0.0), -0.25)], (-0.25, (0.0, 0.0))),
    ([((0.0, 0.0), -math.nan), ((0.0, 0.0), -0.25)], (math.nan, (0.0, 0.0))),
    # equal atoms spelled apart, at one weight: the atom's text decides
    ([((0.0, 0.0), 0.0), ((0.0, -0.0), 0.0)], (0.0, (0.0, -0.0))),
    ([((0.0, 0.0), 0.0), ((-0.0, 0.0), 0.0)], (0.0, (-0.0, 0.0))),
])
def test_a_weight_refusal_names_one_pair_in_every_order(mink, pairs, named):
    pairs = [(Event(*e), w) for e, w in pairs] + [(Event(0.0, 1.0), 1.0)]
    w, e = named[0], Event(*named[1])
    pair = (e, Event(1.0, e.x))
    for order in itertools.permutations(pairs):
        with pytest.raises(InputError) as err:
            SliceMeasure(mink, order)
        assert str(err.value) == f"weights must be positive, got {w} at {e!r}"
        with pytest.raises(InputError) as err:
            Coupling(mink, [((p, Event(1.0, p.x)), v) for p, v in order])
        assert str(err.value) == f"weights must be positive, got {w} at {pair!r}"


def _two_atoms(st, kind, ws, off=False):
    """A measure of the given kind with two distinct atoms of weights ws;
    with ``off``, a slice measure whose atoms miss its level set, or a
    coupling whose atom pairs are not causally related."""
    if kind == "slice":
        return SliceMeasure(st, [(st.event(0.0, x), w) for x, w in zip((0.0, 1.0), ws)],
                            time_function=T0, tau=5.0 if off else 0.0)
    if kind == "coupling":
        dx = 5.0 if off else 0.0
        return Coupling(st, [((st.event(0.0, x), st.event(1.0, x + dx)), w)
                             for x, w in zip((0.0, 1.0), ws)])
    return CurveMeasure(st, [(geod(st, 0, x, 1, x), w) for x, w in zip((0.0, 1.0), ws)])


@pytest.mark.parametrize("kind", ["slice", "coupling", "curve"])
def test_weights_must_sum_to_one_within_mass_atol(mink, kind):
    for dw in (5e-13, -5e-13):
        assert len(_two_atoms(mink, kind, [0.5, 0.5 + dw])) == 2
    for dw in (2e-12, -2e-12):
        ws = [0.5, 0.5 + dw]
        with pytest.raises(InputError) as err:
            _two_atoms(mink, kind, ws)
        assert str(err.value) == f"weights must sum to 1 within 1e-12, got {math.fsum(ws)!r}"
    # a non-positive weight is reported before the mass
    with pytest.raises(InputError, match="weights must be positive, got -0.25"):
        _two_atoms(mink, kind, [-0.25, 0.5 + 2e-12])
    if kind != "curve":
        # the mass is reported before the level set and the causal relation
        with pytest.raises(InputError, match="not on the level set|not causally related"):
            _two_atoms(mink, kind, [0.5, 0.5], off=True)
        with pytest.raises(InputError, match="weights must sum to 1"):
            _two_atoms(mink, kind, [0.5, 0.5 + 2e-12], off=True)


# -- merging atoms -------------------------------------------------------------------

def _sorted_merge(items, key, close, groups=None):
    """Reference: the merge that sorts every pair by key and merges each atom
    into the previous one when they are close, without grouping first (so
    it ignores ``groups``); the members of an atom are the input indices its
    sweep merged into it.  The first non-positive weight, by atom key, then
    by value with -0.0 below 0.0, then by the atom's text, is refused first,
    and the total mass is checked as ``_merge`` does."""
    order = lambda aw: (key(aw[0]), aw[1], math.copysign(1.0, aw[1]), repr(aw[0]))
    for atom, w in sorted((aw for aw in items if aw[1] <= 0), key=order)[:1]:
        raise InputError(f"weights must be positive, got {w} at {atom!r}")
    out = []
    for i, (atom, w) in sorted(enumerate(items), key=lambda iaw: key(iaw[1][0])):
        if out and close(out[-1][0], atom):
            out[-1][1].append(w)
            out[-1][2].append(i)
        else:
            out.append([atom, [w], [i]])
    atoms = tuple((atom, math.fsum(ws)) for atom, ws, _ in out)
    total = math.fsum(w for _, w in atoms)
    if abs(total - 1.0) > M.MASS_ATOL:
        raise InputError(f"weights must sum to 1 within {M.MASS_ATOL}, got {total!r}")
    return atoms, [sorted(idx) for _, _, idx in out]


def _outcome(build, merge=None):
    """The atoms of ``build()`` (curves by identity, weights bit for bit),
    each with the input indices its merge reports, or its error text."""
    merge = merge or M._merge
    merged = []

    def recording(*args):
        merged.append(merge(*args))
        return merged[-1]

    try:
        with mock.patch.object(M, "_merge", recording):
            build()
    except InputError as err:
        return "error", str(err)
    (atoms, members), = merged
    return [(id(a) if isinstance(a, CausalCurve) else repr(a), w.hex(), list(idx))
            for (a, w), idx in zip(atoms, members)]


def _reference(build):
    """``_outcome(build)`` with the sorted merge and one ``st.event`` per raw event."""
    with mock.patch.object(Spacetime, "canonical_event", lambda st, e: st.event(e.t, e.x)):
        return _outcome(build, _sorted_merge)


def _weights(draw, n):
    """n weights proportional to small integers; sometimes one or two are 0
    or negative."""
    ks = draw(st_.lists(st_.integers(1, 8), min_size=n, max_size=n))
    ws = [k / sum(ks) for k in ks]
    for _ in range(draw(st_.sampled_from((0,) * 8 + (1, 2)))):
        ws[draw(st_.integers(0, n - 1))] = draw(st_.sampled_from([0.0, -0.0, -0.25]))
    return ws


MERGE_MINK = Spacetime("minkowski-1+1")
# Vertex ids with "|" name the edges ("A|B", "C") and ("A", "B|C"), whose
# interior points at one offset share the edge name "A|B|C" in their sort
# keys, which only the edge's first vertex tells apart.
MERGE_GRAPH = Spacetime("static-graph", vertices=["A", "B", "C", "1", "A|B", "B|C"],
                        edges=[("A", "B", 1.0), ("B", "C", 2.0), ("1", "B", 1.0),
                               ("A|B", "C", 1.0), ("A", "B|C", 1.0)])
# repeated values, -0.0 against 0.0, int against float, atoms within GEOM_ATOL
MINK_TIMES = (0, 0.0, -0.0, 1, 1.0, 5e-10, 1.5e-9)
MINK_POINTS = (0, 0.0, -0.0, 1, 1.0, 1 + 4e-10, 1 + 8e-10, 1 + 1.2e-9, -0.5, 2e-9)
# offsets that normalize onto vertices, both edge orientations, near-vertex
# interior points, a list, which cannot be hashed, equal vertex ids of
# other types, which only the id "1" names, and the points of the two edges
# named "A|B|C" at one offset, one within GEOM_ATOL of another
GRAPH_POINTS = ("A", "B", "C", ("A", "B", 0.0), ("B", "A", 1.0), ("A", "B", 0.5),
                ("B", "A", 0.5), ("A", "B", 0.5 + 3e-10), ("A", "B", 4e-10),
                ["A", "B", 0.5], ("B", "C", 2.0), ("B", "C", 1.0), "1", 1, 1.0,
                (1, "B", 0.5), (1.0, "B", 0.5), (True, "B", 0.5), ("1", "B", 0.5),
                ("A|B", "C", 0.5), ("C", "A|B", 0.5), ("A", "B|C", 0.5),
                ("A", "B|C", 0.5 + 3e-10))


@st_.composite
def raw_slice_atoms(draw):
    if draw(st_.booleans()):
        st, times, points = MERGE_MINK, MINK_TIMES, MINK_POINTS
    else:
        st, times, points = MERGE_GRAPH, (0.0, 1.0, 1.0 + 5e-10), GRAPH_POINTS
    n = draw(st_.integers(1, 12))
    events = [Event(draw(st_.sampled_from(times)), draw(st_.sampled_from(points)))
              for _ in range(n)]
    return st, list(zip(events, _weights(draw, n)))


# P, Q, P for the points P and Q of the two edges named "A|B|C": the sorted
# merge, which sorts every pair, keeps three atoms when P and Q tie
P_Q_P = [Event(0.0, x) for x in (("A|B", "C", 0.5), ("A", "B|C", 0.5), ("A|B", "C", 0.5))]


@settings(max_examples=400, deadline=None)
@given(raw_slice_atoms())
@example((MERGE_GRAPH, list(zip(P_Q_P, (0.25, 0.25, 0.5)))))
def test_slice_measure_merge_matches_the_sorted_merge(case):
    st, atoms = case
    build = lambda: SliceMeasure(st, atoms)
    assert _outcome(build) == _reference(build)


@st_.composite
def raw_coupling_atoms(draw):
    """Minkowski pairs from one to a later time, or graph pairs from
    ``GRAPH_POINTS`` at time 0 to ``GRAPH_POINTS`` at time 10, late
    enough for every pair to be causal."""
    if draw(st_.booleans()):
        xs = (0, 0.0, -0.0, 0.25, 0.25 + 4e-10, 0.25 + 8e-10, -0.5, 0.5)
        st, times = MERGE_MINK, (0.0, 1)
    else:
        st, xs, times = MERGE_GRAPH, GRAPH_POINTS, (0.0, 10.0)
    n = draw(st_.integers(1, 10))
    pairs = [tuple(Event(t, draw(st_.sampled_from(xs))) for t in times) for _ in range(n)]
    return st, list(zip(pairs, _weights(draw, n)))


@settings(max_examples=300, deadline=None)
@given(raw_coupling_atoms())
@example((MERGE_GRAPH, [((p, Event(10.0, "A")), w) for p, w in zip(P_Q_P, (0.25, 0.25, 0.5))]))
def test_coupling_merge_matches_the_sorted_merge(case):
    st, atoms = case
    build = lambda: Coupling(st, atoms)
    assert _outcome(build) == _reference(build)


def _curve_pool():
    """Geodesics on [0, 1], equal copies of some (other objects), copies
    moved by 3e-10 (within GEOM_ATOL), and copies without a pace."""
    st = MERGE_MINK
    pool = [causal_geodesic(st, st.event(0, x0), st.event(1, x1))
            for x0 in (0.0, 0.5) for x1 in (0.0, 0.25, 1.0)]
    for c in pool[:3]:
        pool.append(CausalCurve(st, c.domain, c.breakpoints, pace=c.pace,
                                time_function=c.time_function))
        pool.append(CausalCurve(st, c.domain,
                                [(tau, Event(e.t, e.x + 3e-10)) for tau, e in c.breakpoints],
                                pace=c.pace, time_function=c.time_function))
        pool.append(CausalCurve(st, c.domain, c.breakpoints))
    return pool


CURVE_POOL = _curve_pool()


@settings(max_examples=300, deadline=None)
@given(st_.data())
def test_curve_measure_merge_matches_the_sorted_merge(data):
    n = data.draw(st_.integers(1, 12))
    curves = data.draw(st_.lists(st_.sampled_from(CURVE_POOL), min_size=n, max_size=n))
    atoms = list(zip(curves, _weights(data.draw, n)))
    build = lambda: CurveMeasure(MERGE_MINK, atoms)
    assert _outcome(build) == _reference(build)


@pytest.mark.parametrize("reverse", [False, True])
def test_equal_raw_points_that_normalize_differently_are_each_checked(reverse):
    # (1, "B", 0.5), (1.0, "B", 0.5) and (True, "B", 0.5) are equal tuples,
    # but only the first names the edge ("1", "B"); the others must raise
    # whichever comes first.
    good = Event(0.0, (1, "B", 0.5))
    for bad in (Event(0.0, (1.0, "B", 0.5)), Event(0.0, (True, "B", 0.5))):
        atoms = [(good, 0.5), (bad, 0.5)]
        if reverse:
            atoms.reverse()
        with pytest.raises(InputError, match="no edge between"):
            SliceMeasure(MERGE_GRAPH, atoms)
        with pytest.raises(InputError, match="no edge between"):
            Coupling(MERGE_GRAPH, [((e, Event(1.0, "B")), w) for e, w in atoms])


def test_canonical_event_returns_canonical_events_themselves(mink):
    e = Event(0.5, -0.0)
    assert mink.canonical_event(e) is e
    g = Event(1.0, "A")
    assert MERGE_GRAPH.canonical_event(g) is g
    # anything else is normalized, as st.event does
    for st, raw in [(mink, Event(0, 1)), (mink, Event(0.0, 1)), (mink, Event(0.0, True)),
                    (MERGE_GRAPH, Event(0.0, ("B", "A", 0.25))),
                    (MERGE_GRAPH, Event(0.0, ("A", "B", 0.0))),
                    (MERGE_GRAPH, Event(0.0, ["A", "B", 0.5]))]:
        got = st.canonical_event(raw)
        assert got == st.event(raw.t, raw.x) and got is not raw
        assert repr(got) == repr(st.event(raw.t, raw.x))
    for st, raw in [(mink, Event(0.0, math.inf)), (mink, Event(0.0, "A")),
                    (MERGE_GRAPH, Event(0.0, "Z")), (MERGE_GRAPH, Event(0.0, 1.0))]:
        with pytest.raises(InputError):
            st.canonical_event(raw)


def test_canonical_edge_interior_events_are_returned_themselves():
    st = MERGE_GRAPH
    for x in [("A", "B", 0.5), ("B", "C", 1.5), ("1", "B", 5e-324), ("B", "C", 2.0 - 2 ** -51)]:
        e = Event(1.0, x)
        assert st.canonical_event(e) is e and st.event(e.t, e.x) == e
    # reversed, on an end, within tolerance of one, an int offset: normalized
    for x in [("B", "A", 0.5), ("A", "B", 0.0), ("A", "B", -0.0), ("A", "B", 1.0),
              ("B", "C", 2.0), ("A", "B", -5e-10), ("B", "C", 1), ("B", "C", True)]:
        raw = Event(1.0, x)
        got = st.canonical_event(raw)
        assert got is not raw and repr(got) == repr(st.event(raw.t, raw.x))
    # an unknown edge, an unknown vertex, an offset beyond the edge: the same error
    for x in [("A", "C", 0.5), ("A", "Z", 0.5), ("A", "B", 1.5), ("A", "B", math.nan)]:
        with pytest.raises(InputError) as want:
            st.event(1.0, x)
        with pytest.raises(InputError) as got:
            st.canonical_event(Event(1.0, x))
        assert str(got.value) == str(want.value)


def test_unequal_atoms_get_unequal_keys_and_their_atoms_come_in_key_order():
    # The points P of edge ("A|B", "C") and Q of edge ("A", "B|C") both read
    # "A|B|C" at offset 0.5, and a geodesic and its copy without a pace have
    # one list of breakpoints: the keys end on the edge's first vertex and on
    # the pace, with None below every pace, so each pair is ordered in every
    # listing of its atoms.
    st = MERGE_GRAPH
    p, q, _ = P_Q_P
    assert st.event_key(q) < st.event_key(p)
    for order in itertools.permutations([(p, 0.25), (q, 0.25), (p, 0.5)]):
        assert SliceMeasure(st, order).atoms == ((q, 0.25), (p, 0.75))
    c = causal_geodesic(MERGE_MINK, MERGE_MINK.event(0, 0.0), MERGE_MINK.event(1, 0.5))
    bare = CausalCurve(MERGE_MINK, c.domain, c.breakpoints)
    assert bare.sort_key() < c.sort_key()
    for order in itertools.permutations([(c, 0.25), (bare, 0.25), (c, 0.5)]):
        assert CurveMeasure(MERGE_MINK, order).atoms == ((bare, 0.25), (c, 0.75))


def test_event_and_pair_keys_are_total_and_decided_before_a_key_ends():
    # Vertex keys have four elements and edge-interior keys five: unequal
    # keys must differ within the shorter one, so that a pair key, the left
    # key joined to the right one, orders pairs by their left events first.
    st = MERGE_GRAPH
    points = sorted(st.vertices) + [("A", "B", 0.5), ("A", "B", 0.5 + 3e-10), ("1", "B", 0.5),
                                    ("A|B", "C", 0.5), ("A", "B|C", 0.5), ("A", "B|C", 0.25)]
    events = [st.event(t, x) for t in (0.0, 1.0) for x in points]
    keys = {e: st.event_key(e) for e in events}
    assert len(set(keys.values())) == len(events)
    for e, f in itertools.combinations(events, 2):
        k, l = keys[e], keys[f]
        assert k[:min(len(k), len(l))] != l[:min(len(k), len(l))]
    pairs = list(itertools.product(events, repeat=2))
    assert sorted(pairs, key=M._pair_key(st)) == \
        sorted(pairs, key=lambda pq: (keys[pq[0]], keys[pq[1]]))


@st_.composite
def permuted_atoms(draw):
    """A measure kind, its spacetime, its (atom, weight) pairs from the
    sorted-merge oracles' pools, and a permutation of those pairs."""
    kind = draw(st_.sampled_from(["slice", "coupling", "curve"]))
    if kind == "curve":
        n = draw(st_.integers(1, 12))
        st = MERGE_MINK
        atoms = list(zip(draw(st_.lists(st_.sampled_from(CURVE_POOL), min_size=n, max_size=n)),
                         _weights(draw, n)))
    else:
        st, atoms = draw(raw_slice_atoms() if kind == "slice" else raw_coupling_atoms())
    return kind, st, atoms, draw(st_.permutations(atoms))


def _by_value(measure):
    # atoms by value (a curve by its sort key) and weights bit for bit
    return [(a.sort_key() if isinstance(a, CausalCurve) else a, w.hex())
            for a, w in measure.atoms]


_BARE = CausalCurve(MERGE_MINK, CURVE_POOL[0].domain, CURVE_POOL[0].breakpoints)


@settings(max_examples=400, deadline=None)
@given(permuted_atoms())
@example(("slice", MERGE_GRAPH, list(zip(P_Q_P, (0.25, 0.25, 0.5))),
          list(zip(P_Q_P[1:] + P_Q_P[:1], (0.25, 0.5, 0.25)))))
@example(("curve", MERGE_MINK, [(CURVE_POOL[0], 0.5), (_BARE, 0.5)],
          [(_BARE, 0.5), (CURVE_POOL[0], 0.5)]))
# one atom listed twice with two non-positive weights
@example(("slice", MERGE_MINK, [(Event(0.0, 0.0), 0.0), (Event(0.0, 0.0), -0.25),
                                (Event(0.0, 1.0), 1.0)],
          [(Event(0.0, 0.0), -0.25), (Event(0.0, 0.0), 0.0), (Event(0.0, 1.0), 1.0)]))
@example(("slice", MERGE_MINK, [(Event(0.0, 0.0), 0.0), (Event(0.0, -0.0), 0.0),
                                (Event(0.0, 1.0), 1.0)],
          [(Event(0.0, -0.0), 0.0), (Event(0.0, 0.0), 0.0), (Event(0.0, 1.0), 1.0)]))
# two malformed points, both refused: the message names the same one
@example(("slice", MERGE_GRAPH, [(Event(0.0, 1), 0.5), (Event(0.0, 1.0), 0.5)],
          [(Event(0.0, 1.0), 0.5), (Event(0.0, 1), 0.5)]))
@example(("coupling", MERGE_GRAPH, [((Event(0.0, 1), Event(1.0, "A")), 0.5),
                                    ((Event(0.0, "A"), Event(1.0, 1.0)), 0.5)],
          [((Event(0.0, "A"), Event(1.0, 1.0)), 0.5),
           ((Event(0.0, 1), Event(1.0, "A")), 0.5)]))
def test_a_measure_does_not_depend_on_the_order_of_its_atoms(case):
    # ROADMAP item 5's permutation check.  A refusal is compared by its
    # message: a weight or mass refusal, and a point that does not normalize.
    kind, st, atoms, shuffled = case
    build = {"slice": lambda a: SliceMeasure(st, a), "coupling": lambda a: Coupling(st, a),
             "curve": lambda a: CurveMeasure(st, a)}[kind]
    try:
        want = build(atoms)
    except InputError as refused:
        with pytest.raises(InputError) as again:
            build(shuffled)
        assert str(again.value) == str(refused)
        return
    got = build(shuffled)
    assert _by_value(got) == _by_value(want)
    if kind == "slice":
        assert slice_measures_equal(got, want)


# -- evaluation marginals ------------------------------------------------------------

def test_marginal_point_mass(chain_graph):
    line = RawPath(chain_graph, [chain_graph.event(0, "A"), chain_graph.event(1, "A")],
                   extend_past=True, extend_future=True)
    c = canonicalize_noncompact(chain_graph, T0, line, Interval.line(), 1.0, 0.0)
    m = marginal_at(point_mass(chain_graph, c), 5.0)
    assert len(m) == 1 and m.atoms[0][0] == chain_graph.event(5.0, "A")


def test_marginal_merges_shared_start(mink):
    c1 = geod(mink, 0, 0.0, 1, 1.0)
    c2 = geod(mink, 0, 0.0, 1, -1.0)
    sigma = CurveMeasure(mink, [(c1, 0.5), (c2, 0.5)])
    start = marginal_at(sigma, 0.0)
    assert len(start) == 1 and start.atoms[0][1] == 1.0
    mid = marginal_at(sigma, 1.0)
    assert [(e.x, w) for e, w in mid.atoms] == [(-1.0, 0.5), (1.0, 0.5)]


def test_marginal_outside_domain(mink):
    sigma = point_mass(mink, geod(mink, 0, 0.0, 1, 0.0))
    with pytest.raises(InputError):
        marginal_at(sigma, 2.0)


# -- disintegration -------------------------------------------------------------------

def test_disintegrate_point_mass(mink):
    sigma = point_mass(mink, geod(mink, 0, 0.0, 1, 0.0))
    base, cond = disintegrate(sigma, 0.0)
    assert len(base) == 1 and len(cond) == 1
    assert curve_measures_equal(cond[0][1], sigma)


def test_disintegrate_distinct_fibers(mink):
    c1 = geod(mink, 0, 0.0, 1, 1.0)
    c2 = geod(mink, 0, 1.0, 1, 0.0)
    sigma = CurveMeasure(mink, [(c1, 0.5), (c2, 0.5)])
    base, cond = disintegrate(sigma, 0.0)
    assert len(cond) == 2
    for x, fiber in cond:
        assert len(fiber) == 1
        assert fiber.atoms[0][1] == 1.0


def test_disintegrate_renormalizes(mink):
    c1 = geod(mink, 0, 0.0, 1, 0.5)
    c2 = geod(mink, 0, 0.0, 1, -0.5)
    c3 = geod(mink, 0, 2.0, 1, 2.0)
    sigma = CurveMeasure(mink, [(c1, 0.25), (c2, 0.25), (c3, 0.5)])
    base, cond = disintegrate(sigma, 0.0)
    fiber = dict((x.x, f) for x, f in cond)[0.0]
    assert [w for _, w in fiber.atoms] == [pytest.approx(0.5), pytest.approx(0.5)]
    # reconstruction: mixing conditionals against the base reproduces sigma
    rebuilt = []
    for (x, fiber), (_, wx) in zip(cond, base.atoms):
        rebuilt.extend((c, wx * w) for c, w in fiber.atoms)
    assert curve_measures_equal(CurveMeasure(mink, rebuilt), sigma)


# -- concatenation of measures ----------------------------------------------------------

def test_concat_point_masses(chain_graph):
    s1 = point_mass(chain_graph, geod(chain_graph, 0, "A", 1, "A"))
    s2 = point_mass(chain_graph, geod(chain_graph, 1, "A", 2, "B"))
    out = concat_measures(s1, s2)
    assert len(out) == 1
    assert out.domain == Interval.compact(0, 2)


def test_concat_matches_fibers(mink):
    # nu = half at x=-1, half at x=1; each side continues deterministically
    s1 = CurveMeasure(mink, [(geod(mink, 0, 0.0, 1, -1.0), 0.5),
                             (geod(mink, 0, 0.0, 1, 1.0), 0.5)])
    s2 = CurveMeasure(mink, [(geod(mink, 1, -1.0, 2, -2.0), 0.5),
                             (geod(mink, 1, 1.0, 2, 2.0), 0.5)])
    out = concat_measures(s1, s2)
    assert len(out) == 2
    assert all(w == pytest.approx(0.5) for _, w in out.atoms)


def test_concat_product_inside_fiber(mink):
    # one shared junction event, 2x2 independent choices -> four atoms at 1/4
    s1 = CurveMeasure(mink, [(geod(mink, 0, -1.0, 1, 0.0), 0.5),
                             (geod(mink, 0, 1.0, 1, 0.0), 0.5)])
    s2 = CurveMeasure(mink, [(geod(mink, 1, 0.0, 2, -1.0), 0.5),
                             (geod(mink, 1, 0.0, 2, 1.0), 0.5)])
    out = concat_measures(s1, s2)
    assert len(out) == 4
    assert all(w == pytest.approx(0.25) for _, w in out.atoms)


def test_concat_requires_compatible_marginals(mink):
    s1 = point_mass(mink, geod(mink, 0, 0.0, 1, 0.0))
    s2 = point_mass(mink, geod(mink, 1, 1.0, 2, 1.0))
    with pytest.raises(PreconditionError, match="junction"):
        concat_measures(s1, s2)


def _on(st, domain, a, b):
    """A point mass on the static curve at x = 0 over [a, b], on ``domain``."""
    return point_mass(st, CausalCurve(st, domain, [(a, st.event(a, 0.0)), (b, st.event(b, 0.0))],
                                      pace=1.0))


@pytest.mark.parametrize("left, right, start, message", [
    (Interval.future(0.0), Interval.compact(1.0, 2.0), 1.0,
     "left measure must live on curves bounded above, got [0.0, +inf)"),
    (Interval.line(), Interval.future(1.0), 1.0,
     "left measure must live on curves bounded above, got R"),
    (Interval.compact(0.0, 1.0), Interval.past(2.0), 1.0,
     "right measure must live on curves bounded below, got (-inf, 2.0]"),
    (Interval.past(1.0), Interval.line(), 1.0,
     "right measure must live on curves bounded below, got R"),
    (Interval.compact(0.0, 1.0), Interval.compact(1 + 2e-9, 2.0), 1 + 2e-9,
     "domains do not meet: [0.0, 1.0] then [1.000000002, 2.0]"),
    (Interval.past(1.0), Interval.future(1 - 2e-9), 1 - 2e-9,
     "domains do not meet: (-inf, 1.0] then [0.999999998, +inf)"),
])
def test_concat_measures_refuses_domains_that_do_not_join(mink, left, right, start, message):
    s1, s2 = _on(mink, left, 0.0, 1.0), _on(mink, right, start, 2.0)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        concat_measures(s1, s2)


def test_concat_marginal_law_five_probes(mink):
    s1 = CurveMeasure(mink, [(geod(mink, 0, -1.0, 1, 0.0), 0.5),
                             (geod(mink, 0, 1.0, 1, 0.0), 0.5)])
    s2 = CurveMeasure(mink, [(geod(mink, 1, 0.0, 2, -0.5), 0.25),
                             (geod(mink, 1, 0.0, 2, 0.5), 0.75)])
    out = concat_measures(s1, s2)
    for t in (0.0, 0.5):
        assert slice_measures_equal(marginal_at(out, t), marginal_at(s1, t))
    assert slice_measures_equal(marginal_at(out, 1.0), marginal_at(s1, 1.0))
    for t in (1.5, 2.0):
        assert slice_measures_equal(marginal_at(out, t), marginal_at(s2, t))


def test_concat_associative_bitwise(mink):
    rng = rng_for(77)
    curves, weights = identity_parametrized_bundle(rng, mink, T0, [0.0, 1.0, 2.0, 3.0])
    pieces = []
    for lo, hi in ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)):
        atoms = [(c.restrict(lo, hi), w) for c, w in zip(curves, weights)]
        pieces.append(CurveMeasure(mink, atoms))
    left = concat_measures(concat_measures(pieces[0], pieces[1]), pieces[2])
    right = concat_measures(pieces[0], concat_measures(pieces[1], pieces[2]))
    assert len(left) == len(right)
    for (c1, w1), (c2, w2) in zip(left.atoms, right.atoms):
        assert c1.breakpoints == c2.breakpoints
        assert w1 == pytest.approx(w2, abs=1e-15)


def _concat_by_disintegration(s1, s2):
    """Concatenation as conditional products: for each junction atom x of
    weight wx, the conditionals of s1 and of s2 over x, mixed as wx * w1 * w2."""
    st = s1.spacetime
    base, conds1 = disintegrate(s1, s1.domain.b)
    _, conds2 = disintegrate(s2, s2.domain.a)
    atoms = []
    for (x, wx), (_, cond1) in zip(base.atoms, conds1):
        cond2 = next(cond for y, cond in conds2 if st.events_close(x, y))
        atoms += [(concat(c1, c2), wx * w1 * w2)
                  for c1, w1 in cond1.atoms for c2, w2 in cond2.atoms]
    return CurveMeasure(st, atoms)


def test_concat_matches_disintegration_oracle():
    rng = rng_for(2718)
    glued_fibers = 0
    for trial in range(40):
        st = random_backend(rng)
        curves, weights = identity_parametrized_bundle(rng, st, T0, [0.0, 1.0, 2.0],
                                                       n_paths=rng.randint(2, 6))
        s1, s2 = (CurveMeasure(st, [(c.restrict(lo, hi), w) for c, w in zip(curves, weights)])
                  for lo, hi in ((0.0, 1.0), (1.0, 2.0)))
        got = concat_measures(s1, s2)
        want = _concat_by_disintegration(s1, s2)
        assert len(got) == len(want)
        for (c1, w1), (c2, w2) in zip(got.atoms, want.atoms):
            assert c1.domain == c2.domain
            assert c1.breakpoints == c2.breakpoints
            assert w1 == w2
        glued_fibers += len(got) > len(s1)
    # the seed exercises fibers that carry several curves on both sides
    assert glued_fibers >= 5


# -- fibers ------------------------------------------------------------------------------

def _glued_pair(st, starts, junction, ends, weights):
    """Geodesic curve measures on [0, 1] and [1, 2], and the matching
    couplings, whose i-th atoms run from starts[i] through junction[i] at
    t = 1 to ends[i]."""
    ev = st.event
    legs = list(zip(starts, junction, ends, weights))
    s1 = CurveMeasure(st, [(geod(st, 0, a, 1, x), w) for a, x, _, w in legs])
    s2 = CurveMeasure(st, [(geod(st, 1, x, 2, b), w) for _, x, b, w in legs])
    c1 = Coupling(st, [((ev(0, a), ev(1, x)), w) for a, x, _, w in legs])
    c2 = Coupling(st, [((ev(1, x), ev(2, b)), w) for _, x, b, w in legs])
    return s1, s2, c1, c2


def test_an_event_close_to_two_junction_atoms_lies_in_one_fiber(mink):
    # The junction events 0 and 1.5e-9 are two atoms, and 0.75e-9 lies
    # within GEOM_ATOL of both; the merge puts it with 0, and so must every
    # fiber, or the glued weights sum past 1.
    s1, s2, c1, c2 = _glued_pair(mink, (-0.5, 0.0, 0.5), (0.0, 0.75e-9, 1.5e-9),
                                 (-0.5, 0.0, 0.5), (0.25, 0.25, 0.5))
    base, conds = disintegrate(s1, 1.0)
    assert [(x.x, wx) for x, wx in base.atoms] == [(0.0, 0.5), (1.5e-9, 0.5)]
    assert [[(c.at(0.0).x, w) for c, w in cond.atoms] for _, cond in conds] == [
        [(-0.5, 0.5), (0.0, 0.5)], [(0.5, 1.0)]]
    glued = concat_measures(s1, s2)
    assert sorted((c.at(0.0).x, c.at(2.0).x, w) for c, w in glued.atoms) == [
        (-0.5, -0.5, 0.125), (-0.5, 0.0, 0.125), (0.0, -0.5, 0.125), (0.0, 0.0, 0.125),
        (0.5, 0.5, 0.5)]
    composed = C.compose_couplings(mink, c1, c2)
    assert [((p.x, r.x), w) for (p, r), w in composed.atoms] == [
        ((-0.5, -0.5), 0.125), ((-0.5, 0.0), 0.125), ((0.0, -0.5), 0.125),
        ((0.0, 0.0), 0.125), ((0.5, 0.5), 0.5)]


@settings(max_examples=150, deadline=None)
@given(st_.data())
def test_fibers_partition_junction_events_jittered_within_tolerance(data):
    st = MERGE_MINK
    n = data.draw(st_.integers(1, 8))
    centres = data.draw(st_.lists(st_.sampled_from((0.0, 0.25, 0.5)), min_size=n, max_size=n))
    jitter = data.draw(st_.lists(st_.floats(-GEOM_ATOL, GEOM_ATOL), min_size=n, max_size=n))
    ks = data.draw(st_.lists(st_.integers(1, 8), min_size=n, max_size=n))
    # distinct ends keep the curves apart, so only junction events merge
    starts = [0.1 * i - 0.3 for i in range(n)]
    junction = [c + j for c, j in zip(centres, jitter)]
    ends = data.draw(st_.permutations(starts))
    s1, s2, c1, c2 = _glued_pair(st, starts, junction, ends, [k / sum(ks) for k in ks])
    base, conds = disintegrate(s1, 1.0)
    # the fibers partition the curve indices, and each fiber's weights
    # sum to its atom's weight
    assert sorted(i for fiber in base._members for i in fiber) == list(range(len(s1)))
    for (_, wx), fiber in zip(base.atoms, base._members):
        assert math.fsum(s1.atoms[i][1] for i in fiber) == wx
    assert Counter(id(c) for _, cond in conds for c, _ in cond.atoms) == \
        Counter(id(c) for c, _ in s1.atoms)
    # the mixture of the conditionals reproduces sigma
    rebuilt = [(c, wx * w) for (_, wx), (_, cond) in zip(base.atoms, conds)
               for c, w in cond.atoms]
    assert curve_measures_equal(CurveMeasure(st, rebuilt), s1)
    # gluing keeps the junction marginal
    assert slice_measures_equal(marginal_at(concat_measures(s1, s2), 1.0), base)
    composed = C.compose_couplings(st, c1, c2)
    assert slice_measures_equal(composed.marginal(0), c1.marginal(0))
    assert slice_measures_equal(composed.marginal(1), c2.marginal(1))


def test_pushforwards_evaluate_each_curve_once(monkeypatch):
    rng = rng_for(2718)
    st = random_backend(rng)
    curves, weights = identity_parametrized_bundle(rng, st, T0, [0.0, 1.0, 2.0], n_paths=6)
    s1, s2 = (CurveMeasure(st, [(c.restrict(lo, hi), w) for c, w in zip(curves, weights)])
              for lo, hi in ((0.0, 1.0), (1.0, 2.0)))
    calls = Counter()
    real_at = CausalCurve.at

    def counting_at(self, tau):
        calls[id(self)] += 1
        return real_at(self, tau)

    monkeypatch.setattr(CausalCurve, "at", counting_at)
    once = lambda *sigmas: Counter({id(c): 1 for sigma in sigmas for c, _ in sigma.atoms})
    marginal_at(s1, 0.5)
    assert calls == once(s1)
    calls.clear()
    disintegrate(s1, 1.0)
    assert calls == once(s1)
    calls.clear()
    concat_measures(s1, s2)
    assert calls == once(s1, s2)


def test_a_glue_above_the_curve_cap_is_refused_before_building_a_curve(mink, monkeypatch):
    # two curves meet at x = 0 on each side and one at x = 1: 2 * 2 + 1 pairs
    s1, s2, _, _ = _glued_pair(mink, (-0.5, 0.0, 0.5), (0.0, 0.0, 1.0), (-0.5, 0.0, 0.5),
                               (0.25, 0.25, 0.5))
    count = 5
    monkeypatch.setattr(M, "MAX_GLUED_CURVES", count - 1)

    def refuse(c1, c2):
        raise AssertionError("a curve was glued")

    monkeypatch.setattr(M, "concat", refuse)
    with pytest.raises(InputError, match=f"would build {count} curves, more than the cap "
                                         f"of {count - 1}"):
        concat_measures(s1, s2)
    monkeypatch.undo()
    monkeypatch.setattr(M, "MAX_GLUED_CURVES", count)
    assert len(concat_measures(s1, s2)) == count


# -- pushforward by reparametrization ------------------------------------------------------

def test_pushforward_identity(mink):
    rng = rng_for(55)
    curves, weights = identity_parametrized_bundle(rng, mink, T0, [-1.0, 0.0, 1.0])
    sigma = CurveMeasure(mink, list(zip(curves, weights)))
    out = pushforward_reparametrize(sigma, T0, T0)
    assert ([(c.domain, c.breakpoints, c.pace, w) for c, w in out.atoms]
            == [(c.domain, c.breakpoints, c.pace, w) for c, w in sigma.atoms])


def test_pushforward_single_atom(mink):
    tf2 = TimeFunction(slope=0.3)
    line = RawPath(mink, [mink.event(-2, -1.0), mink.event(2, 1.0)],
                   extend_past=True, extend_future=True)
    base = canonicalize_noncompact(mink, T0, line, Interval.line(), 1.0, 0.0)
    sigma = point_mass(mink, base)
    out = pushforward_reparametrize(sigma, T0, tf2)
    assert len(out) == 1
    got = out.atoms[0][0]
    want = reparametrize(mink, base, T0, tf2)
    assert got.breakpoints == want.breakpoints


def test_pushforward_preserves_mass_and_atoms(mink):
    rng = rng_for(56)
    for _ in range(10):
        tf1 = random_time_function(rng, mink)
        tf2 = random_time_function(rng, mink)
        curves, weights = identity_parametrized_bundle(
            rng, mink, tf1, [-1.0, 0.0, 1.0], n_paths=4)
        sigma = CurveMeasure(mink, list(zip(curves, weights)))
        out = pushforward_reparametrize(sigma, tf1, tf2)
        assert len(out) == len(sigma)
        assert math.fsum(w for _, w in out.atoms) == pytest.approx(1.0, abs=1e-12)


# -- transport distance ----------------------------------------------------------------------

def test_transport_distance_identical(mink):
    m = SliceMeasure(mink, [(mink.event(0, -1.0), 0.5), (mink.event(0, 1.0), 0.5)])
    assert transport_distance(mink, m, m) == pytest.approx(0.0, abs=1e-12)


def test_transport_distance_point_masses(chain_graph):
    m1 = SliceMeasure(chain_graph, [(chain_graph.event(0, "A"), 1.0)])
    m2 = SliceMeasure(chain_graph, [(chain_graph.event(1, "A"), 1.0)])
    assert transport_distance(chain_graph, m1, m2) == pytest.approx(1.0, abs=1e-12)


def test_transport_distance_translation(chain_graph):
    # shifting both atoms by dt=2 costs 2 when the spatial split is wide
    m1 = SliceMeasure(chain_graph, [(chain_graph.event(0, "A"), 0.5),
                                    (chain_graph.event(0, "C"), 0.5)])
    m2 = SliceMeasure(chain_graph, [(chain_graph.event(2, "A"), 0.5),
                                    (chain_graph.event(2, "C"), 0.5)])
    assert transport_distance(chain_graph, m1, m2) == pytest.approx(2.0, abs=1e-9)


def test_transport_distance_against_1d_oracle():
    # same-time Minkowski slices reduce to the classical 1-D W1
    rng = rng_for(88)
    st = Spacetime("minkowski-1+1", alpha=4.0, u=0.25)
    for _ in range(20):
        m1 = random_slice_measure(rng, st, 0.0)
        m2 = random_slice_measure(rng, st, 0.0)
        got = transport_distance(st, m1, m2)
        want = scipy_w1([e.x for e, _ in m1.atoms], [e.x for e, _ in m2.atoms],
                        [w for _, w in m1.atoms], [w for _, w in m2.atoms])
        assert got == pytest.approx(math.sqrt(st.u * st.alpha) * want, abs=1e-9)


# The closed form (monotone coupling between two Minkowski time slices)
# against the exact primal-dual route, and that route against HiGHS, with
# the tolerance fixed before looking at results.
W1_RTOL = 1e-12


def _w1_close(got, want):
    return abs(got - want) <= W1_RTOL * max(1.0, abs(want))


@st_.composite
def dyadic_weight_lists(draw, n, max_bits=52):
    """n positive weights summing exactly to one, over 2**e with e <= max_bits."""
    e = draw(st_.integers(max(1, (n - 1).bit_length()), max_bits))
    cuts = draw(st_.lists(st_.integers(1, 2 ** e - 1), min_size=n - 1,
                          max_size=n - 1, unique=True))
    bounds = [0] + sorted(cuts) + [2 ** e]
    return [(b - a) / 2 ** e for a, b in zip(bounds, bounds[1:])]


@st_.composite
def dusted_weight_lists(draw, n):
    """Weights over 2**12, then up to 3 * 2**-50 of mass moved between two
    atoms, so denominators reach 2**52.

    HiGHS decides signs only to its primal feasibility tolerance (1e-7 of
    mass), so it is an exact oracle only while every gap between sums of
    the two sides' weights is far above that or so small that misrouting
    it costs under 1e-12; here the gaps are at least 2**-13 or at most
    6 * 2**-50.  The exact route needs no such domain.
    """
    ws = draw(dyadic_weight_lists(n, max_bits=12))
    if n > 1 and draw(st_.booleans()):
        give, take = draw(st_.lists(st_.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True))
        dust = draw(st_.integers(1, 3)) * 2.0 ** -draw(st_.integers(50, 52))
        ws[give] -= dust
        ws[take] += dust
    return ws


@st_.composite
def minkowski_slice_pairs(draw, dts=(0.0, 0.125, 1.0, 3.0, -0.5, -2.0),
                          weights=dusted_weight_lists):
    alpha = draw(st_.sampled_from([1.0, 0.25, 4.0, 0.75, 2.5]))
    u = draw(st_.sampled_from([1.0, 0.5, 3.0, 1.25]))
    st = Spacetime("minkowski-1+1", alpha=alpha, u=u)
    t_mu = draw(st_.integers(-16, 16)) / 8
    dt = draw(st_.sampled_from(dts))
    grid = st_.integers(-64, 64).map(lambda k: k / 8)
    xs = draw(st_.lists(grid, min_size=1, max_size=12, unique=True))
    # the right side reuses some left positions, so coincident x is common
    ys = draw(st_.lists(st_.one_of(st_.sampled_from(xs), grid),
                        min_size=1, max_size=12, unique=True))
    mu = SliceMeasure(st, [(st.event(t_mu, x), w) for x, w in
                           zip(xs, draw(weights(len(xs))))])
    nu = SliceMeasure(st, [(st.event(t_mu + dt, y), w) for y, w in
                           zip(ys, draw(weights(len(ys))))])
    return st, mu, nu


@settings(max_examples=300, deadline=None)
@given(minkowski_slice_pairs(weights=dyadic_weight_lists))
def test_transport_closed_form_matches_lp(case):
    # the full dyadic range, denominators up to 2**52
    st, mu, nu = case
    assert _w1_close(transport_distance(st, mu, nu), C._transport_exact(st, mu, nu))


@settings(max_examples=300, deadline=None)
@given(minkowski_slice_pairs(dts=(0.0,), weights=dyadic_weight_lists))
def test_transport_closed_form_matches_1d_oracle(case):
    # any dyadic weights, tiny cumulative gaps included
    st, mu, nu = case
    want = math.sqrt(st.u * st.alpha) * scipy_w1(
        [e.x for e, _ in mu.atoms], [e.x for e, _ in nu.atoms],
        [w for _, w in mu.atoms], [w for _, w in nu.atoms])
    assert _w1_close(transport_distance(st, mu, nu), want)


def _highs_w1(st, mu, nu):
    """W1 as a dense linear program solved by HiGHS: the oracle for pairs
    that have no closed form."""
    m, n = len(mu.atoms), len(nu.atoms)
    cost = [st.riemannian_distance(p, q) for p, _ in mu.atoms for q, _ in nu.atoms]
    # the last column constraint is implied by the others
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))[:-1]])
    b_eq = [w for _, w in mu.atoms] + [w for _, w in nu.atoms[:-1]]
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.fun


@st_.composite
def graph_or_tilted_pairs(draw):
    """Pairs the closed form does not take: on a random graph (vertices and
    points inside edges) or on two level sets of a tilted time function."""
    if draw(st_.booleans()):
        st = random_graph(rng_for(draw(st_.integers(0, 999))), draw(st_.integers(3, 6)),
                          far=False)
        vertex = st_.sampled_from(list(st.vertices))
        inside = st_.tuples(st_.sampled_from(list(st.edges)), st_.integers(1, 7)).map(
            lambda e: (*e[0], st.edges[e[0]] * e[1] / 8))
        point = st_.one_of(vertex, inside)
        tau = draw(st_.integers(-8, 8)) / 4

        def side(t):
            xs = draw(st_.lists(point, min_size=1, max_size=12, unique=True))
            return SliceMeasure(st, [(st.event(t, x), w)
                                     for x, w in zip(xs, draw(dusted_weight_lists(len(xs))))])
        return st, side(tau), side(tau + draw(st_.sampled_from([0.0, 0.5, 2.0])))
    st = Spacetime("minkowski-1+1", alpha=draw(st_.sampled_from([1.0, 4.0, 0.75])))
    tilt = TimeFunction(slope=draw(st_.sampled_from([0.5, -0.25, 0.75])))
    grid = st_.integers(-32, 32).map(lambda k: k / 8)

    def level(tau):
        xs = draw(st_.lists(grid, min_size=1, max_size=12, unique=True))
        return SliceMeasure(st, [(tilt.level_event(st, tau, x), w)
                                 for x, w in zip(xs, draw(dusted_weight_lists(len(xs))))],
                            time_function=tilt, tau=tau)
    tau = draw(st_.integers(-8, 8)) / 4
    return st, level(tau), level(tau + draw(st_.sampled_from([0.0, 0.5, 3.0])))


@settings(max_examples=300, deadline=None)
@given(graph_or_tilted_pairs())
def test_transport_exact_matches_highs(case):
    st, mu, nu = case
    assert _w1_close(C._transport_exact(st, mu, nu), _highs_w1(st, mu, nu))


# Where HiGHS was not exact: it returned 0.1562499851 on the first pair
# and called the second, feasible, infeasible.
HIGHS_MISSES = {
    "a": ([(-0.25, 1 - 2.0 ** -24), (-0.125, 2.0 ** -24)],
          [(-0.25, 0.25), (-0.125, 0.25), (0.0, 0.5)],
          0.15625 - 2.0 ** -27),
    "b": ([(-0.875, 0.5), (-0.25, 2.0 ** -24), (0.75, 2.0 ** -24), (-0.625, 0.5 - 2.0 ** -23)],
          [(0.875, 2.0 ** -40), (-0.375, 2.0 ** -24), (0.5, 2.0 ** -40),
           (0.625, 1 - 2.0 ** -24 - 2.0 ** -39)],
          1.3749998509882744),
}


@pytest.mark.parametrize("pair", sorted(HIGHS_MISSES))
def test_transport_exact_returns_the_closed_form_where_highs_missed(mink, pair):
    left, right, want = HIGHS_MISSES[pair]
    mu = SliceMeasure(mink, [(mink.event(0.0, x), w) for x, w in left])
    nu = SliceMeasure(mink, [(mink.event(0.0, y), w) for y, w in right])
    assert M._transport_monotone(mink, mu, nu) == want
    assert C._transport_exact(mink, mu, nu) == want


def test_transport_closed_form_cases():
    # dt = 0, > 0, < 0; alpha and u off one; one atom on a side; coincident x
    for alpha, u in ((1.0, 1.0), (4.0, 0.25), (0.75, 3.0)):
        st = Spacetime("minkowski-1+1", alpha=alpha, u=u)
        for dt in (0.0, 1.5, -2.0):
            for left, right in (
                    ([(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.25), (1.0, 0.75)]),
                    ([(-1.0, 1.0)], [(0.0, 0.5), (2.0, 0.5)]),
                    ([(0.0, 0.5), (2.0, 0.5)], [(3.0, 1.0)]),
                    ([(x / 4, 2.0 ** -52) for x in range(1, 5)]
                     + [(5.0, 1.0 - 4 * 2.0 ** -52)], [(5.0, 0.5), (0.25, 0.5)])):
                mu = SliceMeasure(st, [(st.event(1.0, x), w) for x, w in left])
                nu = SliceMeasure(st, [(st.event(1.0 + dt, y), w) for y, w in right])
                got = M._transport_monotone(st, mu, nu)
                assert _w1_close(got, C._transport_exact(st, mu, nu))
                assert got == transport_distance(st, mu, nu)


def test_transport_closed_form_value(mink):
    # monotone plan: 1/2 from -1 to 0, 1/4 from 1 to 0, 1/4 from 1 to 2
    mu = SliceMeasure(mink, [(mink.event(0, -1.0), 0.5), (mink.event(0, 1.0), 0.5)])
    nu = SliceMeasure(mink, [(mink.event(1, 0.0), 0.75), (mink.event(1, 2.0), 0.25)])
    want = math.fsum([0.5 * math.hypot(1, 1), 0.25 * math.hypot(1, 1), 0.25 * math.hypot(1, 1)])
    assert transport_distance(mink, mu, nu) == want


def _exact_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("closed form used off two Minkowski time slices")
    monkeypatch.setattr(M, "_transport_monotone", refuse)


def test_transport_routes_tilted_pair_to_lp(monkeypatch):
    st = Spacetime("minkowski-1+1", alpha=4.0)
    tilt = TimeFunction(slope=0.5)

    def level(tau, atoms):
        return SliceMeasure(st, [(tilt.level_event(st, tau, x), w) for x, w in atoms],
                            time_function=tilt, tau=tau)
    mu = level(0.0, [(-1.0, 0.25), (0.5, 0.25), (2.0, 0.5)])
    nu = level(1.0, [(0.0, 0.5), (1.5, 0.5)])
    want = C._transport_exact(st, mu, nu)
    _exact_only(monkeypatch)
    assert transport_distance(st, mu, nu) == want


def test_transport_routes_graph_pair_to_lp(chain_graph, monkeypatch):
    g = chain_graph
    mu = SliceMeasure(g, [(g.event(0, "A"), 0.5), (g.event(0, ("B", "C", 0.5)), 0.5)])
    nu = SliceMeasure(g, [(g.event(1, "B"), 0.25), (g.event(1, "C"), 0.75)])
    want = C._transport_exact(g, mu, nu)
    _exact_only(monkeypatch)
    assert transport_distance(g, mu, nu) == want


def test_transport_routes_one_ulp_off_slice_to_lp(mink, monkeypatch):
    t = math.nextafter(1.0, 2.0)
    mu = SliceMeasure(mink, [(mink.event(0, 0.0), 0.5), (mink.event(0, 1.0), 0.5)])
    nu = SliceMeasure(mink, [(mink.event(1.0, 0.5), 0.5), (mink.event(t, 3.0), 0.5)])
    want = C._transport_exact(mink, mu, nu)
    _exact_only(monkeypatch)
    assert transport_distance(mink, mu, nu) == want


def test_transport_routes_time_slices_to_closed_form(mink, monkeypatch):
    mu = SliceMeasure(mink, [(mink.event(0, 0.0), 0.5), (mink.event(0, 1.0), 0.5)])
    nu = SliceMeasure(mink, [(mink.event(2, 0.5), 0.5), (mink.event(2, 3.0), 0.5)])
    want = C._transport_exact(mink, mu, nu)

    def refuse(*args):
        raise AssertionError("exact route used between two Minkowski time slices")
    monkeypatch.setattr(C, "_transport_exact", refuse)
    assert _w1_close(transport_distance(mink, mu, nu), want)


def test_transport_of_a_measure_with_itself_is_zero_without_a_solve(chain_graph, monkeypatch):
    st = Spacetime("minkowski-1+1", alpha=4.0)
    tilt = TimeFunction(slope=0.5)
    tilted = [(tilt.level_event(st, 1.0, x), w) for x, w in ((-1.0, 0.25), (2.0, 0.75))]
    g = chain_graph
    on_graph = [(g.event(1, "A"), 0.5), (g.event(1, ("B", "C", 0.5)), 0.5)]
    pairs = [(st, SliceMeasure(st, tilted, time_function=tilt, tau=1.0),
              SliceMeasure(st, tilted[::-1], time_function=tilt, tau=1.0)),
             (g, SliceMeasure(g, on_graph), SliceMeasure(g, on_graph[::-1]))]

    def refuse(*args):
        raise AssertionError("W1 of a measure with itself reached a solver")
    monkeypatch.setattr(C, "_transport_exact", refuse)
    monkeypatch.setattr(M, "_transport_monotone", refuse)
    for backend, mu, nu in pairs:
        assert mu is not nu
        got = transport_distance(backend, mu, nu)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_transport_one_ulp_apart_still_reaches_the_lp(chain_graph, monkeypatch):
    g = chain_graph
    off = math.nextafter(0.5, 1.0)
    mu = SliceMeasure(g, [(g.event(1, "A"), 0.5), (g.event(1, ("B", "C", 0.5)), 0.5)])
    nu = SliceMeasure(g, [(g.event(1, "A"), 0.5), (g.event(1, ("B", "C", off)), 0.5)])
    solves = []
    exact = C._transport_exact

    def counted(*args):
        solves.append(args)
        return exact(*args)
    monkeypatch.setattr(C, "_transport_exact", counted)
    transport_distance(g, mu, nu)
    assert len(solves) == 1


# -- reconstruction through disintegrate + concat ------------------------------------------------

def test_reconstruction_roundtrip(mink):
    rng = rng_for(99)
    for _ in range(5):
        curves, weights = identity_parametrized_bundle(
            rng, mink, T0, [0.0, 1.0, 2.0], n_paths=4)
        sigma = CurveMeasure(mink, list(zip(curves, weights)))
        left = CurveMeasure(mink, [(c.restrict(0.0, 1.0), w) for c, w in sigma.atoms])
        right = CurveMeasure(mink, [(c.restrict(1.0, 2.0), w) for c, w in sigma.atoms])
        rebuilt = concat_measures(left, right)
        # the rebuilt measure couples the halves through the junction only;
        # its marginals agree with sigma's everywhere
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert slice_measures_equal(marginal_at(rebuilt, t), marginal_at(sigma, t))
