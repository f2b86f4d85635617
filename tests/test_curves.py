import math

import pytest
from hypothesis import given, settings, strategies as st_

from causalot import (CausalCurve, Coupling, InputError, Interval,
                      PreconditionError, RawPath, Spacetime, TimeFunction,
                      bilipschitz_report, canonical_time, canonicalize_compact,
                      canonicalize_noncompact, causal_geodesic, concat,
                      curves_close, is_time_parametrized, lift_coupling,
                      reparametrize, verify_causal)
from genrand import (random_full_line_curve, random_graph, random_time_function,
                     rng_for)

T0 = canonical_time()


def static_path(st, x, t0, t1, extend=False):
    return RawPath(st, [st.event(t0, x), st.event(t1, x)],
                   extend_past=extend, extend_future=extend)


# -- canonicalize on compact intervals --------------------------------------------

def test_canonicalize_static_identity(chain_graph):
    c = canonicalize_compact(chain_graph, T0, static_path(chain_graph, "A", 0, 1), 0, 1)
    assert c.pace == pytest.approx(1.0, abs=0)
    assert c.at(0.25).t == pytest.approx(0.25, abs=1e-12)


def test_canonicalize_rescales_pace(chain_graph):
    c = canonicalize_compact(chain_graph, T0, static_path(chain_graph, "A", 0, 1), 0, 2)
    assert c.pace == pytest.approx(0.5, abs=0)
    assert c.at(2.0).t == 1.0


def test_canonicalize_tilted_minkowski(mink):
    tf = TimeFunction(slope=0.5)
    path = RawPath(mink, [mink.event(0, 0.0), mink.event(2, 1.0)])
    c = canonicalize_compact(mink, tf, path, 0.0, 1.0)
    assert c.pace == pytest.approx(2.5, abs=1e-12)
    mid = c.at(0.5)
    assert tf.value(mink, mid) == pytest.approx(1.25, abs=1e-12)
    assert (mid.t, mid.x) == (pytest.approx(1.0), pytest.approx(0.5))


def test_canonicalize_idempotent():
    rng = rng_for(21)
    for _ in range(20):
        st = random_graph(rng, 4, far=False) if rng.random() < 0.5 else Spacetime("minkowski-1+1")
        tf = random_time_function(rng, st)
        c = random_full_line_curve(rng, st, tf)
        piece = c.restrict(-1.0, 1.0)
        again = canonicalize_compact(st, tf, RawPath(st, piece.raw_path()), -1.0, 1.0)
        assert curves_close(again, piece)


def test_canonicalize_degenerate_rejected(mink):
    with pytest.raises(InputError):
        canonicalize_compact(mink, T0, RawPath(mink, [mink.event(0, 0.0)]), 1, 0)
    with pytest.raises(PreconditionError):
        canonicalize_compact(mink, T0, RawPath(mink, [mink.event(0, 0.0)]), 0, 1)


# -- one leg, one chain ---------------------------------------------------------------


def _bits(e):
    x = e.x
    if isinstance(x, float):
        x = x.hex()
    elif isinstance(x, tuple):
        x = (x[0], x[1], x[2].hex())
    return e.t.hex(), x


def _leg_events(st, tf, p, q):
    """Breakpoint events, bit for bit, of the four constructions of the leg
    p -> q: the geodesic, from_breakpoints, canonicalize_compact and the
    lift of a one-atom coupling."""
    a, b = tf.value(st, p), tf.value(st, q)
    curves = [
        causal_geodesic(st, p, q),
        CausalCurve.from_breakpoints(st, Interval.compact(p.t, q.t), [(p.t, p), (q.t, q)], T0),
        canonicalize_compact(st, tf, RawPath(st, [p, q]), a, b),
        lift_coupling(st, tf, Coupling(st, [((p, q), 1.0)]), a, b).atoms[0][0],
    ]
    return [[_bits(e) for _, e in c.breakpoints] for c in curves]


def test_one_leg_one_chain_on_an_inexact_track():
    # 0.1 + 0.2 + 0.3 rounds differently summed naively and by fsum
    st = Spacetime("static-graph", vertices=["A", "B", "C", "D"],
                   edges=[("A", "B", 0.1), ("B", "C", 0.2), ("C", "D", 0.3)])
    geodesic, *others = _leg_events(st, T0, st.event(0.0, "A"), st.event(1.0, "D"))
    assert [x for _, x in geodesic] == ["A", "B", "C", "D"]
    assert geodesic[1][0] == "0x1.5555555555556p-3"
    assert geodesic[2][0] == "0x1.0000000000001p-1"
    assert all(events == geodesic for events in others)


@st_.composite
def _graph_legs(draw):
    n = draw(st_.integers(3, 7))
    names = [f"V{i}" for i in range(n)]
    lengths = [draw(st_.integers(1, 30)) / draw(st_.sampled_from([3, 7, 10, 11]))
               for _ in range(n)]
    edges = [(names[i], names[i + 1], lengths[i]) for i in range(n - 1)]
    if draw(st_.booleans()):  # ring
        edges.append((names[-1], names[0], lengths[-1]))
    st = Spacetime("static-graph", vertices=names, edges=edges)

    def point(k):
        a, b, length = edges[k]
        return st.normalize_point((a, b, length * draw(st_.sampled_from([0.0, 0.3, 0.5, 1.0]))))

    # the ends of the chain first: long tracks are where summation order shows
    x = point(draw(st_.integers(0, n - 2)))
    y = point(n - 2 - draw(st_.integers(0, n - 2)))
    t0 = draw(st_.integers(-20, 20)) / 3
    slack = draw(st_.sampled_from([0.0, 0.1, 1.0]))
    p = st.event(t0, x)
    q = st.event(t0 + st.optical_distance(x, y) * (1 + slack) + (1 / 3 if x == y else 0.0), y)
    c = draw(st_.sampled_from([0.0, 0.45, -0.8]))
    tf = TimeFunction(offsets={v: c * st.optical_distance(names[0], v) for v in names},
                      spacetime=st)
    return st, tf, p, q


@settings(max_examples=80, deadline=None)
@given(_graph_legs())
def test_one_leg_one_chain_on_graphs(case):
    st, tf, p, q = case
    geodesic, *others = _leg_events(st, tf, p, q)
    assert all(events == geodesic for events in others)


@settings(max_examples=60, deadline=None)
@given(st_.integers(-30, 30), st_.integers(-30, 30), st_.integers(0, 30),
       st_.sampled_from([3, 7, 10]), st_.floats(-0.9, 0.9))
def test_one_leg_one_chain_on_tilted_minkowski(t0, x0, dx, den, slope):
    st = Spacetime("minkowski-1+1")
    p = st.event(t0 / den, x0 / den)
    q = st.event(t0 / den + (dx + 1) / den, (x0 + dx) / den)
    geodesic, *others = _leg_events(st, TimeFunction(slope=slope), p, q)
    assert len(geodesic) == 2
    assert all(events == geodesic for events in others)


# -- canonicalize on noncompact intervals -------------------------------------------

def test_noncompact_static_line(chain_graph):
    path = static_path(chain_graph, "A", 0, 1, extend=True)
    c = canonicalize_noncompact(chain_graph, T0, path, Interval.line(), rate=1.0, shift=0.0)
    for tau in (-3.0, 0.5, 7.0):
        e = c.at(tau)
        assert (e.t, e.x) == (pytest.approx(tau, abs=0), "A")


def test_noncompact_affine_freedom(chain_graph):
    path = static_path(chain_graph, "A", 0, 1, extend=True)
    c = canonicalize_noncompact(chain_graph, T0, path, Interval.line(), rate=2.0, shift=3.0)
    assert c.pace == 2.0
    for tau in (-1.0, 0.0, 2.0):
        assert c.at(tau).t == pytest.approx(2 * tau + 3, abs=1e-12)


def test_noncompact_kind_mismatch(chain_graph):
    compact = static_path(chain_graph, "A", 0, 1)
    with pytest.raises(InputError, match="compact"):
        canonicalize_noncompact(chain_graph, T0, compact, Interval.line())
    half = RawPath(chain_graph, [chain_graph.event(0, "A"), chain_graph.event(1, "A")],
                   extend_future=True)
    with pytest.raises(InputError, match="future"):
        canonicalize_noncompact(chain_graph, T0, half, Interval.line())
    c = canonicalize_noncompact(chain_graph, T0, half, Interval.future(0.0), rate=1.0)
    assert c.domain == Interval.future(0.0)


@pytest.mark.parametrize("build", [lambda v: Interval.compact(v, 1.0),
                                   lambda v: Interval.compact(0.0, v),
                                   Interval.future, Interval.past])
@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_interval_endpoints_must_be_finite(build, v):
    with pytest.raises(InputError, match=f"interval endpoints must be finite, got {v}"):
        build(v)


@pytest.mark.parametrize("pace, breakpoints", [
    # NaN passes `pace <= 0` and every affinity comparison
    (math.nan, [(0.0, (0.0, 0.0)), (1.0, (1.0, 0.0))]),
    # one breakpoint: inf is checked only against itself (inf * 0 is NaN)
    (math.inf, [(0.0, (0.0, 0.0))]),
    (-math.inf, [(0.0, (0.0, 0.0))]),
    (0.0, [(0.0, (0.0, 0.0))]),
])
def test_a_pace_must_be_positive_and_finite(mink, pace, breakpoints):
    b = breakpoints[-1][0]
    bps = [(tau, mink.event(*e)) for tau, e in breakpoints]
    with pytest.raises(InputError, match=f"pace must be positive and finite, got {pace}"):
        CausalCurve(mink, Interval.compact(0.0, b), bps, pace=pace, time_function=T0)


# -- reparametrize -------------------------------------------------------------------

def test_reparametrize_identity(mink):
    c = random_full_line_curve(rng_for(31), mink, T0, rate=1.0, shift=0.0)
    out = reparametrize(mink, c, T0, T0)
    assert (out.domain, out.breakpoints, out.pace) == (c.domain, c.breakpoints, c.pace)


def test_reparametrize_closed_form(mink):
    path = RawPath(mink, [mink.event(-2, -1.0), mink.event(2, 1.0)],
                   extend_past=True, extend_future=True)
    c = canonicalize_noncompact(mink, T0, path, Interval.line(), rate=1.0, shift=0.0)
    tf2 = TimeFunction(slope=0.3)
    out = reparametrize(mink, c, T0, tf2)
    # worldline x = t/2, so tf2(curve(tau)) = 1.15 tau; new parameter s has
    # out(s) = (s/1.15, s/2.3)
    e = out.at(1.15)
    assert e.t == pytest.approx(1.0, abs=1e-12)
    assert e.x == pytest.approx(0.5, abs=1e-12)
    assert out.pace == pytest.approx(c.pace, abs=0)
    assert out.raw_path() == c.raw_path()


def test_reparametrize_round_trip_randomized():
    rng = rng_for(32)
    for _ in range(25):
        st = random_graph(rng, 4, far=False) if rng.random() < 0.5 else Spacetime("minkowski-1+1")
        tf1 = random_time_function(rng, st)
        tf2 = random_time_function(rng, st)
        c = random_full_line_curve(rng, st, tf1)
        moved = reparametrize(st, c, tf1, tf2)
        back = reparametrize(st, moved, tf2, tf1)
        assert moved.raw_path() == c.raw_path()
        assert moved.pace == pytest.approx(c.pace, abs=1e-9)
        assert curves_close(back, c)
        # the identity tf2(moved(s)) = tf1(c(s)) at all breakpoints
        for (s, e), (tau, f) in zip(moved.breakpoints, c.breakpoints):
            assert tf2.value(st, e) == pytest.approx(tf1.value(st, f) + c.pace * (s - tau),
                                                     abs=1e-9)


def test_reparametrize_requires_full_line(mink):
    g = causal_geodesic(mink, mink.event(0, 0.0), mink.event(1, 0.0))
    with pytest.raises(InputError):
        reparametrize(mink, g, T0, TimeFunction(slope=0.3))


# -- sequential continuity of the reparametrization map ------------------------------

def _sup_distance(st, c1, c2, window=(-2.0, 2.0), n=41):
    lo, hi = window
    return max(st.riemannian_distance(c1.at(lo + (hi - lo) * i / (n - 1)),
                                      c2.at(lo + (hi - lo) * i / (n - 1)))
               for i in range(n))


def test_sequential_continuity_witness(mink):
    tf2 = TimeFunction(slope=0.4)
    base_events = [mink.event(t, 0.25 * t) for t in range(-3, 4)]
    base = canonicalize_noncompact(
        mink, T0, RawPath(mink, base_events, extend_past=True, extend_future=True),
        Interval.line(), rate=1.0, shift=0.0)
    moved = reparametrize(mink, base, T0, tf2)
    sups = []
    paces = []
    for delta in (1e-2, 1e-3, 1e-4):
        events = [mink.event(t, 0.25 * t + delta * (1 - abs(t) / 4)) for t in range(-3, 4)]
        pert = canonicalize_noncompact(
            mink, T0, RawPath(mink, events, extend_past=True, extend_future=True),
            Interval.line(), rate=1.0, shift=0.0)
        moved_pert = reparametrize(mink, pert, T0, tf2)
        sups.append(_sup_distance(mink, moved_pert, moved))
        paces.append(abs(pert.pace - base.pace))
    assert sups[0] > sups[1] > sups[2] > 0
    # pace converges within a computable multiple of the sup distance
    for delta, dp in zip((1e-2, 1e-3, 1e-4), paces):
        assert dp <= 2.0 * math.sqrt(2.0) * delta + 1e-12


# -- concatenation -------------------------------------------------------------------

def test_concat_static(chain_graph):
    c1 = causal_geodesic(chain_graph, chain_graph.event(0, "A"), chain_graph.event(1, "A"))
    c2 = causal_geodesic(chain_graph, chain_graph.event(1, "A"), chain_graph.event(2, "A"))
    c = concat(c1, c2)
    assert c.domain == Interval.compact(0, 2)
    assert c.pace == 1.0
    assert c.at(1.5).x == "A"


def test_concat_mixed_pace_flagged(mink):
    p1 = RawPath(mink, [mink.event(0, 0.0), mink.event(1, 0.0)])
    p2 = RawPath(mink, [mink.event(1, 0.0), mink.event(3, 0.0)])
    c1 = canonicalize_compact(mink, T0, p1, 0, 1)   # pace 1
    c2 = canonicalize_compact(mink, T0, p2, 1, 2)   # pace 2
    c = concat(c1, c2)
    assert c.pace is None
    # restrictions are pointwise exact even though the affinity flag is gone
    assert c.restrict(0, 1).breakpoints == c1.breakpoints
    assert c.restrict(1, 2).breakpoints == c2.breakpoints


def test_restrict_inside_one_segment(mink, chain_graph):
    g = causal_geodesic(mink, mink.event(0, 0.0), mink.event(2, 1.0))
    inner = g.restrict(0.25, 0.75)
    assert inner.domain == Interval.compact(0.25, 0.75)
    assert inner.at(0.5).x == pytest.approx(0.25, abs=1e-12)
    assert inner.pace == g.pace
    gc = causal_geodesic(chain_graph, chain_graph.event(0, "A"), chain_graph.event(4, "C"))
    part = gc.restrict(2.0, 3.0)  # strictly inside the B-C segment
    assert part.at(2.5).x[0:2] == ("B", "C")
    assert verify_causal(chain_graph, part).ok


def test_concat_endpoint_mismatch(chain_graph):
    c1 = causal_geodesic(chain_graph, chain_graph.event(0, "A"), chain_graph.event(1, "A"))
    c2 = causal_geodesic(chain_graph, chain_graph.event(1, "B"), chain_graph.event(2, "B"))
    with pytest.raises(InputError, match="mismatch"):
        concat(c1, c2)


def _bare(st, domain, points, pace=None):
    return CausalCurve(st, domain, [(tau, st.event(t, x)) for tau, t, x in points], pace=pace)


def test_concat_rejects_a_junction_where_the_parameter_does_not_increase(mink):
    # c2 starts within GEOM_ATOL of c1's end, but its second breakpoint lies
    # before c1's last one: only the junction pair shows it.
    c1 = _bare(mink, Interval.compact(0, 1), [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
    c2 = _bare(mink, Interval.compact(1 - 5e-10, 2),
               [(1 - 5e-10, 1.0, 0.0), (1 - 2e-10, 1.5, 0.0), (2.0, 2.0, 0.0)])
    with pytest.raises(InputError, match="parameters must increase"):
        concat(c1, c2)


def test_concat_rejects_a_junction_where_time_does_not_increase(mink):
    c1 = _bare(mink, Interval.compact(0, 1), [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
    c2 = _bare(mink, Interval.compact(1, 2),
               [(1.0, 1 - 5e-10, 0.0), (1.5, 1 - 2e-10, 0.0), (2.0, 2.0, 0.0)])
    with pytest.raises(InputError, match="coordinate time must increase"):
        concat(c1, c2)


def test_concat_rejects_endpoints_apart_beyond_tolerance(mink):
    c1 = _bare(mink, Interval.compact(0, 1), [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
    c2 = _bare(mink, Interval.compact(1, 2), [(1.0, 1.0, 2e-9), (2.0, 2.0, 2e-9)])
    with pytest.raises(InputError, match="endpoint mismatch"):
        concat(c1, c2)


def test_concat_checks_the_appended_part_against_the_left_piece(mink):
    # Each piece is affine on its own, but over 1e4 units of parameter c2
    # (pace 1 + 5e-10) drifts 5e-6 away from the line through c1's first
    # breakpoint: the glue is stored without a pace.
    c1 = _bare(mink, Interval.compact(0, 1), [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)], pace=1.0)
    pace2 = 1 + 5e-10
    c2 = _bare(mink, Interval.compact(1, 1e4),
               [(1.0, 1.0, 0.0), (1e4, 1.0 + pace2 * (1e4 - 1.0), 0.0)], pace=pace2)
    glued = concat(c1, c2)
    assert glued.pace is None and glued.time_function is None
    # the same pieces over a short span glue into one affine curve
    c3 = _bare(mink, Interval.compact(1, 2), [(1.0, 1.0, 0.0), (2.0, 1.0 + pace2, 0.0)],
               pace=pace2)
    assert concat(c1, c3).pace == 1.0


@pytest.mark.parametrize("shared", [True, False])
def test_a_glued_piece_is_checked_against_the_first_pieces_anchor(mink, shared):
    # Three pieces of slope-1/4 time, each affine on its own: c2 and c3 have
    # pace 1 + 2e-10.  Glued, they keep c1's pace 1 while their values stay
    # within GEOM_ATOL of c1's law, and the drift against c1's anchor only
    # shows over c3's long span.  c3's time function is c1's own object, or
    # an equal copy.
    tf = TimeFunction(slope=0.25)
    tf3 = tf if shared else TimeFunction(slope=0.25)
    pace = 1 + 2e-10

    def piece(a, b, t0, rate, time_function):
        return CausalCurve(mink, Interval.compact(a, b),
                           [(a, mink.event(t0, 0.0)), (b, mink.event(t0 + rate * (b - a), 0.0))],
                           pace=rate, time_function=time_function)

    left = concat(piece(0.0, 1.0, 0.0, 1.0, tf), piece(1.0, 2.0, 1.0, pace, tf))
    assert left.pace == 1.0
    assert concat(left, piece(2.0, 1e4, 1.0 + pace, pace, tf3)).pace is None
    assert concat(left, piece(2.0, 3.0, 1.0 + pace, pace, tf3)).pace == 1.0


@pytest.mark.parametrize("pace2, end, affine", [
    (1 + 3e-9, 1.25, True),    # paces 3e-9 apart, values 7.5e-10 off c1's law
    (1 + 1.5e-9, 2.0, False),  # paces apart, values 1.5e-9 off
    (1 + 9e-10, 3.0, False),   # paces within GEOM_ATOL, values 1.8e-9 off
])
def test_a_glue_is_affine_by_the_rule_every_curve_is_checked_by(mink, pace2, end, affine):
    # concat keeps c1's pace exactly when the glued breakpoints satisfy the
    # affinity check a curve built from them with that pace passes, whatever
    # the two paces are; otherwise the glue has no pace, and no error
    c1 = _bare(mink, Interval.compact(0, 1), [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)], pace=1.0)
    c2 = _bare(mink, Interval.compact(1, end),
               [(1.0, 1.0, 0.0), (end, 1.0 + pace2 * (end - 1.0), 0.0)], pace=pace2)
    glued = concat(c1, c2)
    assert glued.pace == (1.0 if affine else None)
    build = lambda: CausalCurve(mink, glued.domain, glued.breakpoints, pace=1.0)
    if affine:
        assert build().pace == 1.0
    else:
        with pytest.raises(InputError, match="time-affinity"):
            build()


# -- causality verification ------------------------------------------------------------

def test_verify_causal_geodesic(mink):
    g = causal_geodesic(mink, mink.event(0, 0.0), mink.event(2, 1.0))
    assert verify_causal(mink, g).ok


def test_verify_causal_flags_superluminal(mink):
    bad = CausalCurve.from_breakpoints(
        mink, Interval.compact(0, 1),
        [(0.0, mink.event(0, 0.0)), (1.0, mink.event(1, 2.0))])
    rep = verify_causal(mink, bad)
    assert not rep.ok
    s, t, es, et = rep.violations[0]
    assert not mink.causally_precedes(es, et)


def test_verify_causal_single_breakpoint(mink):
    c = causal_geodesic(mink, mink.event(0, 0.0), mink.event(0, 0.0))
    assert verify_causal(mink, c).ok


def test_verify_causal_needs_two_samples(mink):
    c = causal_geodesic(mink, mink.event(0, 0.0), mink.event(1, 0.0))
    with pytest.raises(InputError):
        verify_causal(mink, c, samples=1)


def test_membership_needs_full_line(mink):
    g = causal_geodesic(mink, mink.event(0, 0.0), mink.event(1, 0.0))
    with pytest.raises(InputError):
        is_time_parametrized(mink, T0, g)


# -- identity parametrization membership -------------------------------------------------

def test_membership_examples(chain_graph):
    st = chain_graph
    line = static_path(st, "A", 0, 1, extend=True)
    good = canonicalize_noncompact(st, T0, line, Interval.line(), rate=1.0, shift=0.0)
    assert is_time_parametrized(st, T0, good)
    fast = canonicalize_noncompact(st, T0, line, Interval.line(), rate=2.0, shift=0.0)
    assert not is_time_parametrized(st, T0, fast)
    offset = canonicalize_noncompact(st, T0, line, Interval.line(), rate=1.0, shift=1.0)
    assert not is_time_parametrized(st, T0, offset)


# -- time-affinity as an interpolation identity -------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st_.integers(0, 10 ** 6), st_.floats(-1.5, 1.5), st_.floats(-2, 2), st_.floats(-2, 2))
def test_barycentric_identity(seed, t, a, b):
    rng = rng_for(seed)
    st = Spacetime("minkowski-1+1")
    tf = random_time_function(rng, st)
    c = random_full_line_curve(rng, st, tf)
    if abs(a - b) < 1e-3:
        b = a + 1.0
    va = tf.value(st, c.at(a))
    vb = tf.value(st, c.at(b))
    vt = tf.value(st, c.at(t))
    assert vt == pytest.approx(((b - t) * va + (t - a) * vb) / (b - a), abs=1e-9)


# -- bi-Lipschitz envelopes ----------------------------------------------------------------

def test_bilipschitz_static_curve(mink):
    c = causal_geodesic(mink, mink.event(0, 0.0), mink.event(1, 0.0))
    rep = bilipschitz_report(mink, T0, [c], 0.0, 1.0)
    assert rep.dw_ratio_min == pytest.approx(1.0, abs=1e-12)
    assert rep.dw_ratio_max == pytest.approx(1.0, abs=1e-12)
    assert rep.dw_lower <= rep.dw_ratio_min
    assert rep.dw_ratio_max <= rep.dw_upper
    assert rep.within()


def test_bilipschitz_lightlike_saturates(mink):
    c = causal_geodesic(mink, mink.event(0, 0.0), mink.event(1, 1.0))
    rep = bilipschitz_report(mink, T0, [c], 0.0, 1.0)
    assert rep.dw_ratio_max == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert rep.dw_upper == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert rep.within()


def test_bilipschitz_family_uses_extreme_paces(mink):
    p = static_path(mink, 0.0, 0.0, 4.0)
    c1 = canonicalize_compact(mink, T0, p, 0.0, 4.0)   # pace 1
    c2 = canonicalize_compact(mink, T0, p, 0.0, 2.0)   # pace 2
    c2 = CausalCurve(mink, Interval.compact(0, 2), c2.breakpoints, pace=2.0,
                     time_function=T0)
    rep = bilipschitz_report(mink, T0, [c1, c2], 0.0, 2.0)
    assert rep.pace_min == 1.0 and rep.pace_max == 2.0
    assert rep.dw_lower == pytest.approx(1.0)
    assert rep.dw_upper == pytest.approx(2.0 * math.sqrt(2.0))
    assert rep.within()


def test_bilipschitz_randomized_families():
    rng = rng_for(44)
    for _ in range(15):
        st = random_graph(rng, 4, far=False) if rng.random() < 0.5 else Spacetime("minkowski-1+1")
        tf1 = random_time_function(rng, st)
        tf2 = random_time_function(rng, st)
        curves = [random_full_line_curve(rng, st, tf1, rate=rng.choice([0.5, 1.0, 2.0]))
                  for _ in range(3)]
        rep = bilipschitz_report(st, tf2, curves, -1.0, 1.0)
        assert rep.within(1e-9), rep.to_dict()


def test_bilipschitz_empty_family(mink):
    with pytest.raises(InputError):
        bilipschitz_report(mink, T0, [], 0.0, 1.0)


def test_bilipschitz_refuses_a_slack_that_is_not_finite_and_nonnegative(mink):
    c = causal_geodesic(mink, mink.event(0, 0.0), mink.event(1, 0.0))
    rep = bilipschitz_report(mink, T0, [c], 0.0, 1.0)
    assert rep.within(0.0) and rep.within(0) and rep.within(0.5)
    for slack in (math.nan, math.inf, -1.0):
        with pytest.raises(InputError, match="slack must be finite and nonnegative"):
            rep.within(slack)


@pytest.mark.parametrize("samples", [1, 0])
def test_bilipschitz_needs_two_samples(mink, samples):
    c = causal_geodesic(mink, mink.event(0, 0.0), mink.event(1, 0.0))
    with pytest.raises(InputError, match="need at least 2 samples"):
        bilipschitz_report(mink, T0, [c], 0.0, 1.0, samples=samples)
