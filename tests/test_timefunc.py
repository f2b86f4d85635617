import pytest
from hypothesis import given, settings, strategies as st_

from causalot import (InputError, Spacetime, TimeFunction, canonical_time,
                      causal_geodesic, validate_time_function)
from genrand import dyadic, random_graph, random_time_function, rng_for


def test_validate_canonical_always_ok(mink, chain_graph, net_graph):
    for st in (mink, chain_graph, net_graph):
        assert validate_time_function(st, canonical_time()).ok


def test_validate_edge_slopes(edge_graph):
    ok = TimeFunction(offsets={"A": 0.0, "B": 1.5}, spacetime=edge_graph)
    rep = validate_time_function(edge_graph, ok)
    assert rep.ok and rep.lipschitz == pytest.approx(0.75)
    bad = TimeFunction(offsets={"A": 0.0, "B": 2.5}, spacetime=edge_graph)
    rep = validate_time_function(edge_graph, bad)
    assert not rep.ok
    assert rep.violations[0][:2] == ("A", "B")


def test_validate_minkowski_slope(mink):
    assert validate_time_function(mink, TimeFunction(slope=0.75)).ok
    assert not validate_time_function(mink, TimeFunction(slope=1.0)).ok
    assert not validate_time_function(mink, TimeFunction(slope=-1.5)).ok


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_slopes_and_offsets_refused(edge_graph, value):
    with pytest.raises(InputError, match="slope must be finite"):
        TimeFunction(slope=value)
    with pytest.raises(InputError, match="offset of vertex 'B' must be finite"):
        TimeFunction(offsets={"A": 0.0, "B": value}, spacetime=edge_graph)


def test_offset_difference_beyond_the_float_range_refused(edge_graph):
    with pytest.raises(InputError, match=r"along edge \('A', 'B'\)"):
        TimeFunction(offsets={"A": -1e308, "B": 1e308}, spacetime=edge_graph)


def test_validate_missing_vertex(edge_graph):
    with pytest.raises(InputError):
        validate_time_function(edge_graph, TimeFunction(offsets={"A": 0.0},
                                                        spacetime=edge_graph))


def test_eval_examples(mink, edge_graph):
    T0 = canonical_time()
    assert T0.value(mink, mink.event(7.0, 3.0)) == 7.0
    k = TimeFunction(slope=0.3)
    assert k.value(mink, mink.event(1.0, 2.0)) == pytest.approx(1.6, abs=1e-12)
    f = TimeFunction(offsets={"A": 0.0, "B": 1.0}, spacetime=edge_graph)
    p = edge_graph.event(0.0, ("A", "B", 0.5))
    assert f.value(edge_graph, p) == pytest.approx(0.25, abs=1e-12)


def test_level_event_examples(mink, edge_graph):
    T0 = canonical_time()
    assert T0.level_event(mink, 3.0, 0.0).t == 3.0
    k = TimeFunction(slope=0.5)
    e = k.level_event(mink, 0.0, 2.0)
    assert (e.t, e.x) == (-1.0, 2.0)
    f = TimeFunction(offsets={"A": 0.0, "B": 1.0}, spacetime=edge_graph)
    e = f.level_event(edge_graph, 2.0, "B")
    assert (e.t, e.x) == (1.0, "B")


@given(st_.floats(-4, 4, allow_nan=False), st_.floats(-0.9, 0.9))
def test_level_event_inverts_eval(tau, k):
    # exact in real arithmetic; one rounding survives in floats
    mink = Spacetime("minkowski-1+1")
    tf = TimeFunction(slope=k)
    for x in (-1.0, 0.0, 2.5):
        assert tf.value(mink, tf.level_event(mink, tau, x)) == pytest.approx(tau, abs=1e-12)


def test_level_event_inverts_eval_graph():
    rng = rng_for(11)
    for _ in range(20):
        st = random_graph(rng, n_vertices=4, far=False)
        tf = random_time_function(rng, st)
        a, b = sorted(st.edges)[0]
        for x in (a, b, (a, b, st.edge_length(a, b) / 2)):
            tau = dyadic(rng, -4, 4)
            assert tf.value(st, tf.level_event(st, tau, x)) == pytest.approx(tau, abs=1e-12)


def test_monotone_along_causal_curves():
    # strictly increasing along every geodesic sample, for valid members
    rng = rng_for(12)
    for _ in range(20):
        st = random_graph(rng, n_vertices=4, far=False)
        tf = random_time_function(rng, st)
        assert validate_time_function(st, tf).ok
        x, y = rng.sample([v for v in st.vertices if v != "Z"], 2)
        t1 = st.optical_distance(x, y) + dyadic(rng, 0.0, 1.0, 4)
        g = causal_geodesic(st, st.event(0.0, x), st.event(t1, y))
        taus = [g.domain.a + (g.domain.b - g.domain.a) * i / 8 for i in range(9)]
        values = [tf.value(st, g.at(tau)) for tau in taus]
        assert all(v < w for v, w in zip(values, values[1:]))


def test_interior_interpolation_is_linear(edge_graph):
    f = TimeFunction(offsets={"A": 0.25, "B": 1.25}, spacetime=edge_graph)
    length = edge_graph.edge_length("A", "B")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = ("A", "B", frac * length)
        assert f.spatial_part(edge_graph, x) == pytest.approx(0.25 + frac, abs=1e-12)


@settings(max_examples=200)
@given(st_.floats(-0.999, 0.999))
def test_slope_validation_threshold(k):
    mink = Spacetime("minkowski-1+1")
    rep = validate_time_function(mink, TimeFunction(slope=k))
    assert rep.ok == (abs(k) <= 1.0 - 1e-9)


def test_spatial_part_normalizes_only_points_that_are_not_canonical(mink, edge_graph,
                                                                     monkeypatch):
    # A canonical point is used as it is; any other point is normalized
    # first, so a malformed one still raises whatever the time function.
    slope = TimeFunction(slope=0.5)
    ramp = TimeFunction(offsets={"A": 0.25, "B": 1.25}, spacetime=edge_graph)
    for st, tf, bad in ((mink, canonical_time(), "west"), (mink, slope, "west"),
                        (mink, slope, float("nan")), (edge_graph, canonical_time(), "Z"),
                        (edge_graph, ramp, "Z"), (edge_graph, ramp, ("A", "B", 2.5)),
                        (edge_graph, ramp, ("A", "Z", 0.5))):
        with pytest.raises(InputError):
            tf.spatial_part(st, bad)
    assert slope.spatial_part(mink, 3) == 1.5  # an int is normalized to 3.0
    assert ramp.spatial_part(edge_graph, ("B", "A", 1.5)) == 0.5  # ("A", "B", 0.5)
    assert ramp.spatial_part(edge_graph, ("A", "B", 0.0)) == 0.25  # vertex A
    calls = []
    normalize = Spacetime.normalize_point
    monkeypatch.setattr(Spacetime, "normalize_point",
                        lambda self, x: calls.append(x) or normalize(self, x))
    assert slope.spatial_part(mink, 3.0) == 1.5
    assert ramp.spatial_part(edge_graph, ("A", "B", 0.5)) == 0.5
    assert ramp.spatial_part(edge_graph, "B") == 1.25
    assert calls == []
    assert ramp.spatial_part(edge_graph, ("B", "A", 1.5)) == 0.5
    assert calls == [("B", "A", 1.5)]


def test_offsets_need_a_graph(mink):
    with pytest.raises(InputError, match="^offset form only applies to the graph backend$"):
        TimeFunction(offsets={"A": 1.0}, spacetime=mink)
    with pytest.raises(InputError, match="^vertex offsets need the spacetime they refer to$"):
        TimeFunction(offsets={"A": 1.0})
