import math
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st_

from causalot import (Evolution, InputError, MeshSpec, SliceMeasure, Spacetime,
                      TimeFunction, canonical_time, check_evolution, compose_couplings,
                      cut_witness, dominates_on_upsets, find_causal_coupling,
                      transport_distance)
from genrand import (inject_superluminal, random_backend, random_causal_evolution,
                     random_slice_measure, rng_for)
from causalot.coupling import _causal_adjacency
from causalot.spacetime import GEOM_ATOL

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


@pytest.mark.parametrize("eps_caus", [0.0, 1e-6, 0.25])
def test_minkowski_adjacency_matches_causally_precedes(eps_caus):
    # Right atoms sit on the null boundary |dx| = dt (and on dt + tol), then
    # one ulp either side of it in x and in t; the vectorised adjacency must
    # give the same booleans as the per-pair loop at the spacetime's causal
    # tolerance.
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
                        want = [[st.causally_precedes(p, q, tol) for q, _ in nu.atoms]
                                for p, _ in mu.atoms]
                        assert _causal_adjacency(st, mu, nu) == want
                        seen.update(want[i][i] for i in range(len(xs)))
    assert seen == {True, False}


@pytest.mark.parametrize("eps_caus", [0.0, 1e-6, 0.25])
def test_graph_adjacency_matches_causally_precedes(eps_caus, monkeypatch):
    # Right atoms sit at times equal to left-right distances (the null
    # boundary), plus the tolerance, then one ulp either side; lengths and
    # offsets carry large power-of-two denominators.  The adjacency reads
    # the distance trees directly and must give the per-pair booleans.
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
                want = [[st.causally_precedes(p, q, tol) for q, _ in nu.atoms]
                        for p, _ in mu.atoms]
                assert adjacency == want
                seen.update(b for row in want for b in row)
    assert calls == []
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
    want = [[st.causally_precedes(p, q, st.causal_tol) for q, _ in nu.atoms]
            for p, _ in mu.atoms]
    return _causal_adjacency(st, mu, nu) == want


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
                          if any(mink.causally_precedes(p, q, 1e-9) for p in sel))
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
        assert all(mink.causally_precedes(p, q, mink.causal_tol) for (p, q), _ in w.atoms)
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


def test_slice_tag_violation_names_atom(mink):
    bad = SliceMeasure(mink, [(mink.event(5.0, 0.0), 1.0)])
    evo = Evolution(mink, [(0.0, bad)], T0, MeshSpec("explicit"))
    with pytest.raises(InputError, match="5.0"):
        check_evolution(mink, evo)


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
