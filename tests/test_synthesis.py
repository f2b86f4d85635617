import gc
import re
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st_

from causalot import (CausalCurve, Coupling, CurveMeasure, Event, Evolution, InputError, Interval,
                      MeshSpec, NonCausalEvolutionError, PreconditionError,
                      SliceMeasure, Spacetime,
                      TimeFunction, canonical_time,
                      canonicalize_noncompact, causal_geodesic, check_evolution,
                      concat_measures, disintegrate, dyadic_times, extract_coupling,
                      find_causal_coupling,
                      geometric_times, is_time_parametrized, lift_coupling,
                      marginal_at, observer_invariance_report,
                      pushforward_reparametrize, slice_measures_equal,
                      synthesize_compact, synthesize_open, synthesize_slabs,
                      reparametrize, to_time_parametrized,
                      transport_distance, RawPath, VerificationError)
from causalot import curves, measures, synthesis, timefunc
from causalot.measures import _evaluators
from genrand import (dyadic_weights, random_backend, random_causal_evolution,
                     random_graph, random_time_function, rng_for)

T0 = canonical_time()


def delta(st, t, x):
    return SliceMeasure(st, [(st.event(t, x), 1.0)])


def evolution_from(st, pairs, tf=T0, mesh=None):
    entries = [(t, m) for t, m in pairs]
    return Evolution(st, entries, tf, mesh or MeshSpec("explicit"))


def dyadic_evolution(st, a, b, depth, slices, tf=T0):
    return Evolution(st, list(zip(dyadic_times(a, b, depth), slices)), tf,
                     MeshSpec("dyadic", a, b, depth))


# -- lifting couplings ----------------------------------------------------------------

def test_lift_static_pair(chain_graph):
    omega = Coupling(chain_graph, [((chain_graph.event(0, "A"),
                                     chain_graph.event(1, "A")), 1.0)])
    sigma = lift_coupling(chain_graph, T0, omega, 0.0, 1.0)
    assert len(sigma) == 1
    assert sigma.atoms[0][0].at(0.5).x == "A"


def test_lift_two_atoms_marginals(mink):
    omega = Coupling(mink, [((mink.event(0, 0.0), mink.event(1, 0.5)), 0.5),
                            ((mink.event(0, 0.0), mink.event(1, -0.5)), 0.5)])
    sigma = lift_coupling(mink, T0, omega, 0.0, 1.0)
    assert len(sigma) == 2
    assert slice_measures_equal(marginal_at(sigma, 0.0), omega.marginal(0))
    assert slice_measures_equal(marginal_at(sigma, 1.0), omega.marginal(1))


def test_lift_lightlike_boundary(mink):
    omega = Coupling(mink, [((mink.event(0, 0.0), mink.event(1, 1.0)), 1.0)])
    sigma = lift_coupling(mink, T0, omega, 0.0, 1.0)
    e = sigma.atoms[0][0].at(0.5)
    assert e.x == pytest.approx(0.5, abs=1e-12)


def test_lift_rejects_off_level_atoms(mink):
    omega = Coupling(mink, [((mink.event(0, 0.0), mink.event(1, 0.0)), 1.0)])
    with pytest.raises(Exception, match="level"):
        lift_coupling(mink, T0, omega, 0.0, 2.0)


def test_lift_checks_the_causality_of_a_coupling_on_another_spacetime(mink):
    # a Coupling on the lift's own spacetime is causal by construction; one
    # built with a looser slack may hold a pair that mink calls superluminal
    loose = Spacetime("minkowski-1+1", eps_caus=0.25)
    pair = (loose.event(0, 0.0), loose.event(1, 1.2))
    omega = Coupling(loose, [(pair, 1.0)])
    with pytest.raises(PreconditionError, match="non-causal coupling atom"):
        lift_coupling(mink, T0, omega, 0.0, 1.0)
    assert lift_coupling(loose, T0, omega, 0.0, 1.0).atoms[0][0].at(1.0) == pair[1]


@pytest.mark.parametrize("tf, q, b", [
    (T0, (0.0, 0.0), 1e-10),                       # one event
    (T0, (0.0, 1e-10), 1e-10),                     # one time slice
    (TimeFunction(slope=0.5), (0.0, 1e-9), 5e-10),  # one slice, yet tf increases
])
def test_lift_refuses_atoms_that_do_not_advance_in_time(mink, tf, q, b):
    omega = Coupling(mink, [((mink.event(0, 0.0), mink.event(*q)), 1.0)])
    with pytest.raises(PreconditionError, match="degenerate"):
        lift_coupling(mink, tf, omega, 0.0, b)


# -- compact synthesis ----------------------------------------------------------------

def test_compact_static_point_mass(chain_graph):
    slices = [delta(chain_graph, t, "A") for t in dyadic_times(0.0, 1.0, 2)]
    evo = dyadic_evolution(chain_graph, 0.0, 1.0, 2, slices)
    sigma = synthesize_compact(chain_graph, T0, evo)
    assert len(sigma) == 1
    assert sigma.atoms[0][0].at(0.3).x == "A"


def test_compact_branching_reproduces_marginals(mink):
    mu0 = delta(mink, 0.0, 0.0)
    mu1 = SliceMeasure(mink, [(mink.event(0.5, -0.5), 0.5), (mink.event(0.5, 0.5), 0.5)])
    mu2 = SliceMeasure(mink, [(mink.event(1.0, -1.0), 0.5), (mink.event(1.0, 1.0), 0.5)])
    evo = dyadic_evolution(mink, 0.0, 1.0, 1, [mu0, mu1, mu2])
    sigma = synthesize_compact(mink, T0, evo)
    for t, mu in evo.entries:
        got = marginal_at(sigma, t)
        assert slice_measures_equal(got, mu)
        assert transport_distance(mink, got, mu) <= 1e-12


def test_compact_refuses_with_witness(mink):
    mu0 = delta(mink, 0.0, 0.0)
    mu1 = delta(mink, 0.5, 5.0)
    mu2 = delta(mink, 1.0, 5.5)
    evo = dyadic_evolution(mink, 0.0, 1.0, 1, [mu0, mu1, mu2])
    with pytest.raises(NonCausalEvolutionError) as err:
        synthesize_compact(mink, T0, evo)
    assert err.value.step == (0.0, 0.5)
    assert err.value.witness.nu_future_mass == 0.0


def test_compact_requires_dyadic_mesh(mink):
    evo = evolution_from(mink, [(0.0, delta(mink, 0.0, 0.0)),
                                (1.0, delta(mink, 1.0, 0.0))])
    with pytest.raises(InputError, match="dyadic"):
        synthesize_compact(mink, T0, evo)


# -- slab synthesis --------------------------------------------------------------------

def grid_evolution(st, lo, hi, site_fn, tf=T0):
    entries = []
    for k in range(lo, hi + 1):
        entries.append((float(k), site_fn(k)))
    return Evolution(st, entries, tf, MeshSpec("integer"))


def test_slabs_static_full_line(chain_graph):
    evo = grid_evolution(chain_graph, -3, 3, lambda k: delta(chain_graph, k, "A"))
    sigma = synthesize_slabs(chain_graph, T0, evo, 3, "both")
    assert sigma.domain == Interval.line()
    assert len(sigma) == 1
    # static window extension beyond the horizon
    assert sigma.atoms[0][0].at(10.0).x == "A"
    assert sigma.atoms[0][0].at(10.0).t == 10.0


def test_slabs_forward_branching_product_weights(mink):
    def site(k):
        if k == 0:
            return delta(mink, 0, 0.0)
        atoms = [(mink.event(k, x), None) for x in _branch_sites(k)]
        w = 1.0 / len(atoms)
        return SliceMeasure(mink, [(e, w) for e, _ in atoms])

    def _branch_sites(k):
        return sorted({i - k / 2 for i in range(k + 1)})

    evo = grid_evolution(mink, 0, 3, site)
    sigma = synthesize_slabs(mink, T0, evo, 3, "forward")
    assert sigma.domain == Interval.future(0.0)
    for t, mu in evo.entries:
        assert slice_measures_equal(marginal_at(sigma, t), mu)


def test_slabs_two_site_branching_exact(mink):
    # split into two sites at every step: 2^N atoms with product weights
    def site(k):
        if k == 0:
            return delta(mink, 0, 0.0)
        xs = [i - k / 2 for i in range(k + 1)]
        from math import comb
        return SliceMeasure(mink, [(mink.event(k, x), comb(k, i) / 2 ** k)
                                   for i, x in enumerate(xs)])

    evo = grid_evolution(mink, 0, 4, site)
    sigma = synthesize_slabs(mink, T0, evo, 4, "forward")
    assert len(sigma) == 2 ** 4
    for _, w in sigma.atoms:
        assert w == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_slabs_forward_truncation(mink):
    rng = rng_for(41)
    times = [float(k) for k in range(0, 6)]
    evo, _, _ = random_causal_evolution(rng, mink, times, mesh=MeshSpec("integer"))
    deep = synthesize_slabs(mink, T0, evo, 4, "forward")
    shallow = synthesize_slabs(mink, T0, evo, 3, "forward")
    projected = CurveMeasure(mink, [(c.restrict(0.0, 3.0), w) for c, w in deep.atoms])
    reference = CurveMeasure(mink, [(c.restrict(0.0, 3.0), w) for c, w in shallow.atoms])
    assert len(projected) == len(reference)
    for (c1, w1), (c2, w2) in zip(projected.atoms, reference.atoms):
        assert c1.breakpoints == c2.breakpoints
        assert w1 == pytest.approx(w2, abs=1e-12)


def test_slabs_truncation_consistency(mink):
    rng = rng_for(42)
    times = [float(k) for k in range(-4, 5)]
    evo, _, _ = random_causal_evolution(rng, mink, times, mesh=MeshSpec("integer"))
    deep = synthesize_slabs(mink, T0, evo, 4, "both")
    shallow = synthesize_slabs(mink, T0, evo, 3, "both")
    projected = CurveMeasure(mink, [(c.restrict(-3.0, 3.0), w) for c, w in deep.atoms])
    reference = CurveMeasure(mink, [(c.restrict(-3.0, 3.0), w) for c, w in shallow.atoms])
    assert len(projected) == len(reference)
    for (c1, w1), (c2, w2) in zip(projected.atoms, reference.atoms):
        assert c1.breakpoints == c2.breakpoints
        assert w1 == pytest.approx(w2, abs=1e-12)


def _assert_projects(st, deep, shallow, a, b):
    """Restricted to [a, b], the deeper synthesis is the shallower one:
    the same breakpoints, and weights within MASS_ATOL."""
    projected = CurveMeasure(st, [(c.restrict(a, b), w) for c, w in deep.atoms])
    reference = CurveMeasure(st, [(c.restrict(a, b), w) for c, w in shallow.atoms])
    assert len(projected) == len(reference)
    for (c1, w1), (c2, w2) in zip(projected.atoms, reference.atoms):
        assert c1.breakpoints == c2.breakpoints
        assert w1 == pytest.approx(w2, abs=1e-12)


def _backend(name, rng):
    return Spacetime("minkowski-1+1") if name == "minkowski" else random_graph(rng, 4, far=False)


@pytest.mark.parametrize("backend", ["minkowski", "graph"])
@pytest.mark.parametrize("seed", [103, 151, 156])
def test_slabs_backward_truncation(backend, seed):
    rng = rng_for(seed)
    st = _backend(backend, rng)
    evo, _, _ = random_causal_evolution(rng, st, [float(k) for k in range(5)],
                                        mesh=MeshSpec("integer"))
    deep = synthesize_slabs(st, T0, evo, 4, "backward")
    shallow = synthesize_slabs(st, T0, evo, 3, "backward")
    _assert_projects(st, deep, shallow, 1.0, 4.0)


@pytest.mark.parametrize("backend", ["minkowski", "graph"])
@pytest.mark.parametrize("seed", [103, 132, 151])
def test_open_right_truncation(backend, seed):
    # the geometric times of horizon 3 are the first four of horizon 4
    rng = rng_for(seed)
    st = _backend(backend, rng)
    times = geometric_times(0.0, 1.0, 4)
    evo, _, _ = random_causal_evolution(rng, st, times)
    shallow_evo = Evolution(st, evo.entries[:4], T0)
    deep = synthesize_open(st, T0, evo, 0.0, 1.0, 4, "right")
    shallow = synthesize_open(st, T0, shallow_evo, 0.0, 1.0, 3, "right")
    _assert_projects(st, deep, shallow, 0.0, times[3])


@pytest.mark.parametrize("backend", ["minkowski", "graph"])
@pytest.mark.parametrize("seed", [103, 106, 115])
def test_compact_restricts_to_its_half(backend, seed):
    # the first half of the depth-3 mesh of [0, 2] is the depth-2 mesh of [0, 1]
    rng = rng_for(seed)
    st = _backend(backend, rng)
    evo, _, _ = random_causal_evolution(rng, st, dyadic_times(0.0, 2.0, 3),
                                        mesh=MeshSpec("dyadic", 0.0, 2.0, 3))
    half = Evolution(st, evo.entries[:5], T0, MeshSpec("dyadic", 0.0, 1.0, 2))
    _assert_projects(st, synthesize_compact(st, T0, evo), synthesize_compact(st, T0, half),
                     0.0, 1.0)


def _offset_diracs(st, times, offsets, mesh):
    """One Dirac slice per time at x = 0, each atom offset in time from its
    level set by its entry of ``offsets``."""
    return Evolution(st, [(float(t), delta(st, t + d, 0.0)) for t, d in zip(times, offsets)],
                     T0, mesh)


@pytest.mark.parametrize("request_", ["forward", "backward", "compact"])
def test_a_fold_of_lifts_with_paces_apart_is_refused(mink, request_):
    # the two slab lifts have paces 1 +/- 9e-10 (1 +/- 1.8e-9 on the
    # half-width slabs), so the glued curve ends 1.8e-9 off the first lift's
    # law, beyond GEOM_ATOL, and has no pace
    offsets = (0.0, 9e-10, 0.0)
    if request_ == "compact":
        evo = _offset_diracs(mink, (0.0, 0.5, 1.0), offsets, MeshSpec("dyadic", 0.0, 1.0, 1))
        run = lambda: synthesize_compact(mink, T0, evo)
    else:
        evo = _offset_diracs(mink, (0.0, 1.0, 2.0), offsets, MeshSpec("integer"))
        run = lambda: synthesize_slabs(mink, T0, evo, 2, request_)
    assert check_evolution(mink, evo).causal
    with pytest.raises(VerificationError, match="not time-affine"):
        run()


def test_a_two_sided_glue_of_paces_apart_is_refused(mink):
    evo = _offset_diracs(mink, (-1.0, 0.0, 1.0), (6e-10, 0.0, 6e-10), MeshSpec("integer"))
    assert check_evolution(mink, evo).causal
    with pytest.raises(VerificationError, match="not time-affine"):
        synthesize_slabs(mink, T0, evo, 1, "both")


def test_a_two_sided_glue_of_paces_within_tolerance_keeps_its_pace(mink):
    evo = _offset_diracs(mink, (-1.0, 0.0, 1.0), (9e-10, 0.0, 0.0), MeshSpec("integer"))
    sigma = synthesize_slabs(mink, T0, evo, 1, "both")
    assert [c.pace for c, _ in sigma.atoms] == [pytest.approx(1 - 9e-10, abs=1e-15)]


def test_a_pace_drift_within_tolerance_per_glue_is_refused_as_synthesis(mink):
    # paces 1 + 0.9e-9, 1, 1: each pair of adjacent paces is within
    # GEOM_ATOL, but at the third slab the values drift 1.8e-9 from the
    # first lift's law, so the glue has no pace
    evo = _offset_diracs(mink, (0.0, 1.0, 2.0, 3.0), (0.0, 0.9e-9, 0.9e-9, 0.9e-9),
                         MeshSpec("integer"))
    assert check_evolution(mink, evo).causal
    with pytest.raises(VerificationError, match="not time-affine"):
        synthesize_slabs(mink, T0, evo, 3, "forward")


def test_slabs_junctions_connect(mink):
    rng = rng_for(43)
    times = [float(k) for k in range(-3, 4)]
    evo, _, _ = random_causal_evolution(rng, mink, times, mesh=MeshSpec("integer"))
    sigma = synthesize_slabs(mink, T0, evo, 3, "both")
    for c, _ in sigma.atoms:
        for (s, p), (t, q) in zip(c.breakpoints, c.breakpoints[1:]):
            assert t > s and q.t > p.t
            assert mink.causally_precedes(p, q)


# -- extraction ------------------------------------------------------------------------

def test_extract_point_mass_endpoints(chain_graph):
    sigma = CurveMeasure(chain_graph,
                         [(causal_geodesic(chain_graph, chain_graph.event(0, "A"),
                                           chain_graph.event(2, "B")), 1.0)])
    omega = extract_coupling(sigma, 0.0, 2.0)
    assert len(omega) == 1
    (p, q), w = omega.atoms[0]
    assert (p.x, q.x, w) == ("A", "B", 1.0)


def test_extract_diagonal(mink):
    sigma = CurveMeasure(mink, [(causal_geodesic(mink, mink.event(0, 0.0),
                                                 mink.event(1, 1.0)), 1.0)])
    omega = extract_coupling(sigma, 0.5, 0.5)
    (p, q), _ = omega.atoms[0]
    assert p == q


def test_extract_matches_synthesis_witness(mink):
    mu0 = delta(mink, 0.0, 0.0)
    mu1 = SliceMeasure(mink, [(mink.event(1.0, -1.0), 0.5), (mink.event(1.0, 1.0), 0.5)])
    evo = dyadic_evolution(mink, 0.0, 1.0, 0, [mu0, mu1])
    sigma = synthesize_compact(mink, T0, evo)
    got = extract_coupling(sigma, 0.0, 1.0)
    from causalot import find_causal_coupling
    want = find_causal_coupling(mink, mu0, mu1)
    assert {(p.x, q.x): w for (p, q), w in got.atoms} == \
        {(p.x, q.x): w for (p, q), w in want.atoms}


# -- identity-parametrized normalization ---------------------------------------------------

def test_normalize_synthesized_line(chain_graph):
    evo = grid_evolution(chain_graph, -2, 2, lambda k: delta(chain_graph, k, "A"))
    sigma = synthesize_slabs(chain_graph, T0, evo, 2, "both")
    ups = to_time_parametrized(chain_graph, T0, sigma)
    assert all(is_time_parametrized(chain_graph, T0, c) for c, _ in ups.atoms)
    # the checked measure itself: its atoms are merged, and its slab windows stay
    assert ups is sigma and ups._windows is not None


def test_normalize_rejects_wrong_pace(chain_graph):
    line = RawPath(chain_graph, [chain_graph.event(0, "A"), chain_graph.event(1, "A")],
                   extend_past=True, extend_future=True)
    fast = canonicalize_noncompact(chain_graph, T0, line, Interval.line(), 2.0, 0.0)
    sigma = CurveMeasure(chain_graph, [(fast, 1.0)])
    from causalot import VerificationError
    with pytest.raises(VerificationError):
        to_time_parametrized(chain_graph, T0, sigma)


def test_normalized_pushforward_lands_in_target(mink):
    tf2 = TimeFunction(slope=0.25)
    evo = grid_evolution(mink, -2, 2, lambda k: delta(mink, k, 0.0))
    sigma = synthesize_slabs(mink, T0, evo, 2, "both")
    ups = to_time_parametrized(mink, T0, sigma)
    moved = pushforward_reparametrize(ups, T0, tf2)
    out = to_time_parametrized(mink, tf2, moved)
    assert all(is_time_parametrized(mink, tf2, c) for c, _ in out.atoms)


# -- observer invariance --------------------------------------------------------------------

def test_observer_identity(mink):
    evo = grid_evolution(mink, -2, 2, lambda k: delta(mink, k, 0.25 * k))
    rep = observer_invariance_report(mink, T0, T0, evo)
    assert rep.ok


def test_observer_tilt(mink):
    tf2 = TimeFunction(slope=0.3)
    evo = grid_evolution(mink, -2, 2, lambda k: delta(mink, k, 0.25 * k))
    rep = observer_invariance_report(mink, T0, tf2, evo)
    assert rep.ok and rep.slices_tagged and rep.evolution_causal and rep.rawpaths_equal


def test_observer_randomized():
    rng = rng_for(77)
    for _ in range(10):
        st = random_backend(rng, far=False)
        tf2 = random_time_function(rng, st)
        times = [float(k) for k in range(-2, 3)]
        evo, _, _ = random_causal_evolution(rng, st, times, mesh=MeshSpec("integer"))
        rep = observer_invariance_report(st, T0, tf2, evo)
        assert rep.ok


# -- open bounded intervals -----------------------------------------------------------------

def test_plan_right_open_geometric(mink):
    times = geometric_times(0.0, 1.0, 3)
    entries = [(t, delta(mink, t, 0.0)) for t in times]
    evo = Evolution(mink, entries, T0, MeshSpec("explicit"))
    sigma = synthesize_open(mink, T0, evo, 0.0, 1.0, 3, "right")
    assert sigma.domain == Interval.compact(0.0, times[-1])
    for t, mu in entries:
        assert slice_measures_equal(marginal_at(sigma, t), mu)


def test_geometric_times_stay_below_the_open_end_or_are_refused():
    # 1 - 2**-53 is the last float below 1.0; 1 - 2**-54 rounds to it
    times = geometric_times(0.0, 1.0, 53)
    assert times[-1] == 1.0 - 2.0 ** -53 and all(s < t for s, t in zip(times, times[1:]))
    assert times == [1.0 - 2.0 ** -i for i in range(54)]
    for n in (54, 2000):
        with pytest.raises(InputError, match=re.escape(
                f"a geometric mesh {n} halvings deep reaches 1.0 in floating point on "
                "[0.0, 1.0); the deepest that stays below it is 53")):
            geometric_times(0.0, 1.0, n)
    # far from zero the float grid is coarser, and the limit comes sooner
    assert geometric_times(1024.0, 1025.0, 42)[-1] < 1025.0
    with pytest.raises(InputError, match="the deepest that stays below it is 42$"):
        geometric_times(1024.0, 1025.0, 43)


def test_engines_refuse_an_unknown_direction_or_side(mink):
    entries = [(t, delta(mink, t, 0.0)) for t in geometric_times(0.0, 1.0, 1)]
    evo = Evolution(mink, entries, T0, MeshSpec("explicit"))
    with pytest.raises(InputError, match="unknown side 'middle'"):
        synthesize_open(mink, T0, evo, 0.0, 1.0, 1, "middle")
    with pytest.raises(InputError, match="unknown direction 'sideways'"):
        synthesize_slabs(mink, T0, evo, 1, "sideways")


@pytest.mark.parametrize("side", ["right", "left", "both"])
@pytest.mark.parametrize("horizon", [0, -1])
def test_open_synthesis_refuses_a_horizon_below_one(mink, side, horizon):
    # refused before the mesh is compared, as synthesize_slabs refuses it
    entries = [(t, delta(mink, t, 0.0)) for t in geometric_times(0.0, 1.0, 3)]
    evo = Evolution(mink, entries, T0, MeshSpec("explicit"))
    with pytest.raises(InputError, match=f"^horizon must be >= 1, got {horizon}$"):
        synthesize_open(mink, T0, evo, 0.0, 1.0, horizon, side)


@pytest.mark.parametrize("horizon", [2.0, 1.5, True, "2"])
@pytest.mark.parametrize("engine", ["slabs", "open", "observer"])
def test_engines_refuse_a_horizon_that_is_not_an_integer(mink, engine, horizon):
    # a bool is not an integer here, as for a mesh depth
    grid = grid_evolution(mink, -2, 2, lambda k: delta(mink, k, 0.0))
    entries = [(t, delta(mink, t, 0.0)) for t in geometric_times(0.0, 1.0, 2)]
    geometric = Evolution(mink, entries, T0, MeshSpec("explicit"))
    run = {"slabs": lambda: synthesize_slabs(mink, T0, grid, horizon, "both"),
           "open": lambda: synthesize_open(mink, T0, geometric, 0.0, 1.0, horizon, "right"),
           "observer": lambda: observer_invariance_report(mink, T0, T0, grid, horizon)}[engine]
    with pytest.raises(InputError, match=re.escape(f"horizon must be an integer, got {horizon!r}")):
        run()


def test_nan_mesh_times_match_nothing(mink):
    from causalot.synthesis import _match_times
    with pytest.raises(InputError, match="do not match the right-open mesh"):
        _match_times([0.5], [float("nan")], "right-open")
    entries = [(t, delta(mink, t, 0.0)) for t in (0.0, 0.5, 1.0)]
    assert Evolution(mink, entries, T0, MeshSpec("dyadic", 0.0, 1.0, 1)).validate_mesh() is None
    evo = Evolution(mink, entries, T0, MeshSpec("dyadic", float("nan"), 1.0, 1))
    with pytest.raises(InputError, match="do not form the dyadic mesh"):
        evo.validate_mesh()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: causality compared with slack is not "
                          "transitive, so consecutive mode accepts what all-pairs refuses")
def test_consecutive_causality_composes_at_the_tolerance_edge():
    # Dirac slices at (k, k * (1 + 0.9e-9)): each unit step is superluminal
    # by 0.9e-9, inside GEOM_ATOL, but the two steps together by 1.8e-9.
    # Consecutive mode, all-pairs mode and the synthesized curves must agree.
    st = Spacetime("minkowski-1+1", eps_caus=0.0)
    evo = Evolution(st, [(float(k), delta(st, k, k * (1 + 0.9e-9))) for k in range(3)],
                    T0, MeshSpec("integer"))
    causal = check_evolution(st, evo).causal
    assert check_evolution(st, evo, "all-pairs").causal == causal
    if causal:
        sigma = synthesize_slabs(st, T0, evo, 2, "forward")
        for s, t in [(0.0, 1.0), (1.0, 2.0), (0.0, 2.0)]:
            extract_coupling(sigma, s, t)
    else:
        with pytest.raises(NonCausalEvolutionError):
            synthesize_slabs(st, T0, evo, 2, "forward")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a decision reads two slices of unit mass within MASS_ATOL "
                          "on one scale, while synthesis compares their witness's "
                          "marginals with them atom by atom at MASS_ATOL")
def test_synthesis_succeeds_exactly_when_the_evolution_is_causal_at_the_mass_edge():
    # Dirac slices at x = 0 whose masses differ by 1.8e-12, each within
    # MASS_ATOL of 1: the decisions call every pair causal, while synthesis
    # refuses at horizon 1 by its closing marginal check and at horizon 2
    # by its junction check
    st = Spacetime("minkowski-1+1", eps_caus=0.0)
    masses = (1 - 0.9e-12, 1 + 0.9e-12, 1 - 0.9e-12)
    evo = Evolution(st, [(float(t), SliceMeasure(st, [(st.event(t, 0.0), m)]))
                         for t, m in enumerate(masses)], T0, MeshSpec("integer"))
    causal = check_evolution(st, evo).causal
    assert check_evolution(st, evo, "all-pairs").causal == causal
    for horizon in (1, 2):
        try:
            synthesize_slabs(st, T0, evo, horizon, "forward")
            refusal = None
        except (PreconditionError, VerificationError) as err:
            refusal = err
        assert (refusal is None) == causal, (horizon, causal, refusal)


def test_plan_left_open_geometric(mink):
    wanted = [1.0 - t for t in geometric_times(0.0, 1.0, 3)][::-1]
    entries = [(t, delta(mink, t, 0.0)) for t in wanted]
    evo = Evolution(mink, entries, T0, MeshSpec("explicit"))
    sigma = synthesize_open(mink, T0, evo, 0.0, 1.0, 3, "left")
    assert sigma.domain == Interval.compact(wanted[0], 1.0)
    for t, mu in entries:
        assert slice_measures_equal(marginal_at(sigma, t), mu)


def test_plan_open_both_sides(mink):
    mid = 0.5
    left = [1.0 - t for t in geometric_times(mid, 1.0, 2)][::-1]
    right = geometric_times(mid, 1.0, 2)
    times = left[:-1] + right
    entries = [(t, delta(mink, t, 0.0)) for t in times]
    evo = Evolution(mink, entries, T0, MeshSpec("explicit"))
    sigma = synthesize_open(mink, T0, evo, 0.0, 1.0, 2, "both")
    assert sigma.domain == Interval.compact(times[0], times[-1])
    for t, mu in entries:
        assert slice_measures_equal(marginal_at(sigma, t), mu)


# -- edge-interior atoms through the whole pipeline -------------------------------------------

def test_walk_scenario_with_interior_atoms(chain_graph):
    st = chain_graph
    mid = ("B", "C", 1.0)
    entries = [
        (-1.0, delta(st, -1, "A")),
        (0.0, SliceMeasure(st, [(st.event(0, "A"), 0.5), (st.event(0, "B"), 0.5)])),
        (1.0, SliceMeasure(st, [(st.event(1, "B"), 0.5), (st.event(1, mid), 0.5)])),
        (2.0, SliceMeasure(st, [(st.event(2, "C"), 0.5), (st.event(2, mid), 0.5)])),
    ]
    evo = Evolution(st, entries, T0, MeshSpec("integer"))
    assert check_evolution(st, evo).causal
    sigma = synthesize_slabs(st, T0, evo, 1, "forward")
    for t, mu in entries[:2]:
        assert slice_measures_equal(marginal_at(sigma, t), mu)
    # breakpoints between vertex and interior points stay on a single edge
    for c, _ in sigma.atoms:
        for (s, p), (t, q) in zip(c.breakpoints, c.breakpoints[1:]):
            st.segment_length(p.x, q.x)


def test_interior_atom_observer_pipeline(chain_graph):
    st = chain_graph
    tf2 = TimeFunction(offsets={"A": 0.0, "B": 0.25, "C": 0.75}, spacetime=st)
    mid = ("B", "C", 1.0)
    sites = {-2: "B", -1: "B", 0: mid, 1: mid, 2: "C"}
    entries = [(float(k), delta(st, k, sites[k])) for k in range(-2, 3)]
    evo = Evolution(st, entries, T0, MeshSpec("integer"))
    rep = observer_invariance_report(st, T0, tf2, evo)
    assert rep.ok, rep


# -- round trip over randomized evolutions ----------------------------------------------------

def test_round_trip_randomized():
    rng = rng_for(31415)
    for trial in range(15):
        st = random_backend(rng)
        tf = T0
        if rng.random() < 0.5 and st.backend == Spacetime.MINKOWSKI:
            depth = rng.randint(1, 3)
            times = dyadic_times(0.0, 1.0, depth)
            mesh = MeshSpec("dyadic", 0.0, 1.0, depth)
            evo, _, _ = random_causal_evolution(rng, st, times, tf=tf, mesh=mesh)
            sigma = synthesize_compact(st, tf, evo)
        else:
            horizon = rng.randint(1, 3)
            times = [float(k) for k in range(-horizon, horizon + 1)]
            evo, _, _ = random_causal_evolution(rng, st, times, tf=tf,
                                                mesh=MeshSpec("integer"))
            sigma = synthesize_slabs(st, tf, evo, horizon, "both")
        times = evo.times
        for i in range(len(times)):
            for j in range(i, len(times)):
                omega = extract_coupling(sigma, times[i], times[j])
                assert all(st.causally_precedes(p, q) for (p, q), _ in omega.atoms)
        # and back: the marginal family of sigma is a causal evolution
        entries = [(t, marginal_at(sigma, t)) for t in times]
        evo2 = Evolution(st, entries, tf, MeshSpec("explicit"))
        assert check_evolution(st, evo2).causal


# -- evaluation through leaves against the plain pushforwards ---------------------------------

def _bits(v):
    """A value with every float spelled by float.hex (events by their fields)."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, Event):
        return ("event", _bits(v.t), _bits(v.x))
    if isinstance(v, (tuple, list)):
        return tuple(_bits(u) for u in v)
    return v


def _slice_bits(m):
    return (_bits(m.atoms), m._members, _bits(m.tau), repr(m.time_function))


def _outcome(f, *args):
    """What ``f(*args)`` gives, bit for bit, or the InputError it raises."""
    try:
        out = f(*args)
    except InputError as err:
        return "error", str(err)
    if isinstance(out, SliceMeasure):
        return _slice_bits(out)
    if isinstance(out, Coupling):
        return _bits(out.atoms)
    base, conditionals = out  # disintegrate: conditionals hold the curves by identity
    return _slice_bits(base), [(_bits(x), [(id(c), w.hex()) for c, w in cond.atoms])
                               for x, cond in conditionals]


def _assert_leaves_match_plain(sigma, times):
    """Every pushforward of a measure with slab windows equals, bit for bit,
    the one of the same atoms without them, where each atom evaluates
    itself (the plain oracle).  Returns how many of the times some atom is
    evaluated through a leaf."""
    plain = CurveMeasure(sigma.spacetime, sigma.atoms)
    assert sigma._windows is not None and plain._windows is None
    assert [a for a, _ in plain.atoms] == [a for a, _ in sigma.atoms]
    for t in times:
        for f in (marginal_at, disintegrate):
            assert _outcome(f, sigma, t) == _outcome(f, plain, t), (f.__name__, t)
    for i, s in enumerate(times):
        for t in times[i::2]:
            assert _outcome(extract_coupling, sigma, s, t) == \
                _outcome(extract_coupling, plain, s, t), (s, t)
    return sum(any(e is not c for e, (c, _) in zip(_evaluators(sigma, t), sigma.atoms))
               for t in times)


def _probe_times(sigma):
    """Junction times and window edges, points inside windows, times within
    GEOM_ATOL of the outer edges, and times on the static extension."""
    windows = sigma._windows
    edges = [windows[0][0]] + [b for _, b in windows]
    lo, hi = edges[0], edges[-1]
    inside = [a + (b - a) * f for a, b in windows for f in (0.25, 0.5, 0.875)]
    near = [lo - 5e-10, lo + 5e-10, hi - 5e-10, hi + 5e-10]
    beyond = [lo - 1.5, hi + 2.0]
    return sorted(set(edges + inside + near + beyond))


def _branching_evolution(rng, st, tf, times, mesh):
    """Slices on one small site set, each with its own dyadic weights, so
    that witness couplings split mass and glued curves outnumber the curves
    each slab lifts.  Every site pair lies within half the shortest step
    on Minkowski and within one unit edge on a graph (sites: its two ends
    and its midpoint); a tilt can still make a step non-causal."""
    if st.backend == Spacetime.MINKOWSKI:
        half = min(t - s for s, t in zip(times, times[1:])) / 2
        sites = sorted({half * rng.randint(0, 8) / 8 for _ in range(3)})
    else:
        edges = sorted((a, b) for (a, b), length in st.edges.items() if length <= 1.0)
        if not edges:  # assume only on failure, so that a plain test may call this
            assume(False)
        a, b = rng.choice(edges)
        sites = [a, b, (a, b, st.edges[(a, b)] / 2)]
    entries = []
    for t in times:
        weights = dyadic_weights(rng, len(sites))
        entries.append((t, SliceMeasure(st, [(tf.level_event(st, t, x), w)
                                             for x, w in zip(sites, weights)],
                                        time_function=tf, tau=t)))
    return Evolution(st, entries, tf, mesh)


@settings(max_examples=200, deadline=None)
@given(st_.sampled_from(["minkowski", "tilted", "graph", "tilted graph"]),
       st_.sampled_from(["forward", "backward", "both", "compact"]),
       st_.sampled_from(["bundle", "branching"]), st_.integers(1, 3), st_.integers(0, 2 ** 16))
def test_factored_pushforwards_match_the_plain_path(backend, direction, slices, horizon, seed):
    rng = rng_for(seed)
    if backend in ("minkowski", "tilted"):
        st = Spacetime("minkowski-1+1")
    else:
        st = random_graph(rng, n_vertices=rng.randint(3, 5), far=False)
    tf = random_time_function(rng, st, max_lip=0.5) if "tilted" in backend else T0
    if direction == "compact":
        times = dyadic_times(0.0, 1.0, horizon)
        mesh = MeshSpec("dyadic", 0.0, 1.0, horizon)
    else:
        times = [float(k) for k in range(-horizon, horizon + 1)]
        mesh = MeshSpec("integer")
    if slices == "bundle":  # cross-sections of worldlines, which may share sites
        evo, _, _ = random_causal_evolution(rng, st, times, max_atoms=3, tf=tf, mesh=mesh)
    else:
        evo = _branching_evolution(rng, st, tf, times, mesh)
    try:
        if direction == "compact":
            sigma = synthesize_compact(st, tf, evo)
        else:
            sigma = synthesize_slabs(st, tf, evo, horizon, direction)
    except (NonCausalEvolutionError, PreconditionError):
        assume(False)  # a tilt can make a drawn step non-causal
    _assert_leaves_match_plain(sigma, _probe_times(sigma))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_factored_pushforwards_match_the_plain_path_on_interior_atoms(chain_graph, direction):
    # couplings pass canonical edge-interior events through, so slabs meet
    # at one junction event and every glued curve keeps its leaves; the
    # mass at mid splits, so three curves run through two first lifts
    st = chain_graph
    mid = ("B", "C", 1.0)
    entries = [(0.0, SliceMeasure(st, [(st.event(0, "A"), 0.5), (st.event(0, "B"), 0.5)])),
               (1.0, SliceMeasure(st, [(st.event(1, "B"), 0.5), (st.event(1, mid), 0.5)])),
               (2.0, SliceMeasure(st, [(st.event(2, "C"), 0.25), (st.event(2, mid), 0.75)]))]
    sigma = synthesize_slabs(st, T0, Evolution(st, entries, T0, MeshSpec("integer")), 2,
                             direction)
    assert all(len(c._leaves) == 2 for c, _ in sigma.atoms)
    assert _assert_leaves_match_plain(sigma, _probe_times(sigma)) > 0


def _rewrapped_slabs(st, tf, evo, horizon, direction):
    """Slab synthesis by rewrapping compact folds, the oracle for lifting the
    end slabs onto their half-lines: the folds of public lifts, split at
    the grid time 0 for ``both``, each curve rebuilt over its half-line
    with its breakpoints, pace, time function and leaves, and each fold's
    measure merged again with its slab windows."""
    entries = evo.entries
    if direction == "both":
        center = [t for t, _ in entries].index(0.0)
        entries = entries[center - horizon:center + horizon + 1]
        parts = [(entries[:horizon + 1], Interval.past(0.0)),
                 (entries[horizon:], Interval.future(0.0))]
    elif direction == "forward":
        entries = entries[:horizon + 1]
        parts = [(entries, Interval.future(entries[0][0]))]
    else:
        entries = entries[-(horizon + 1):]
        parts = [(entries, Interval.past(entries[-1][0]))]
    folds = []
    for part, half_line in parts:
        sigma = None
        for (s, mu), (t, nu) in zip(part, part[1:]):
            piece = lift_coupling(st, tf, find_causal_coupling(st, mu, nu), s, t)
            sigma = piece if sigma is None else concat_measures(sigma, piece)
        atoms = []
        for c, w in sigma.atoms:
            rebuilt = CausalCurve(st, half_line, c.breakpoints, pace=c.pace,
                                  time_function=c.time_function)
            rebuilt._leaves = c._leaves
            atoms.append((rebuilt, w))
        rewrapped = CurveMeasure(st, atoms)
        rewrapped._windows = sigma._windows
        folds.append(rewrapped)
    return folds[0] if len(folds) == 1 else concat_measures(*folds)


def _curve_bits(c):
    return (_bits(c.breakpoints), _bits(c.pace), id(c.time_function),
            (c.domain.kind, _bits(c.domain.a), _bits(c.domain.b)))


@pytest.mark.parametrize("backend", ["minkowski", "tilted", "graph"])
@pytest.mark.parametrize("direction", ["forward", "backward", "both"])
@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_half_line_synthesis_matches_the_rewrapped_folds(backend, direction, horizon):
    # horizon 1 forward or backward lifts one slab that is both the first
    # and the last of its fold
    rng = rng_for(29)
    if backend == "graph":
        st = random_graph(rng, n_vertices=4, far=False)
    else:
        st = Spacetime("minkowski-1+1")
    tf = TimeFunction(slope=0.3) if backend == "tilted" else T0
    times = [float(k) for k in range(-3, 4)]
    evo = _branching_evolution(rng, st, tf, times, MeshSpec("integer"))
    sigma = synthesize_slabs(st, tf, evo, horizon, direction)
    old = _rewrapped_slabs(st, tf, evo, horizon, direction)
    assert sigma.domain == old.domain
    assert [(_curve_bits(c), w.hex()) for c, w in sigma.atoms] == \
        [(_curve_bits(c), w.hex()) for c, w in old.atoms]
    assert sigma._windows == old._windows
    assert len(sigma._windows) == horizon * (2 if direction == "both" else 1)
    # a one-slab measure's curves are their own leaves
    through_leaves = _assert_leaves_match_plain(sigma, _probe_times(sigma))
    assert (through_leaves > 0) == (len(sigma._windows) > 1)


def _merging_glue_pieces():
    """Two lifts on a graph whose glue merges two curves within GEOM_ATOL,
    and the merge keeps as its atom the glued pair with the larger input
    index.

    On the edge A-B (length 2), curves start at offsets 1.25 - 5e-10 and
    1.25 and end at t = 1 on B and 5e-10 before B: each lift keeps them
    apart, and so does the junction, where the points sort as B, C, the
    interior points (A, B, 0.5) and (A, B, 0.6), then the one near B.
    Gluing joins the two curves, and the one whose pair comes later sorts
    first; the separating curves cross a vertex in one slab only, so their
    glued curves are longer and sort elsewhere.  The curve through C
    branches three ways, so the glue has more atoms than the first lift.
    """
    st = Spacetime("static-graph", vertices=["A", "B", "C"],
                   edges=[("A", "B", 2.0), ("A", "C", 1.0)])
    ev = st.event
    near_b = ev(1, ("A", "B", 2.0 - 5e-10))
    b, c, z = ev(1, "B"), ev(1, "C"), ev(2, ("A", "B", 1.5))
    y, y2 = ev(1, ("A", "B", 0.5)), ev(1, ("A", "B", 0.6))
    first = Coupling(st, [((ev(0, ("A", "B", 1.25)), b), 0.25),
                          ((ev(0, ("A", "B", 1.25 - 2.5e-10)), y), 0.125),
                          ((ev(0, ("A", "C", 0.2)), y2), 0.125),
                          ((ev(0, ("A", "B", 1.25 - 5e-10)), near_b), 0.25),
                          ((ev(0, ("A", "C", 0.9)), c), 0.25)])
    second = Coupling(st, [((b, z), 0.25), ((y, ev(2, ("A", "C", 0.25))), 0.125),
                           ((y2, ev(2, ("A", "B", 0.6))), 0.125), ((near_b, z), 0.25),
                           ((c, ev(2, ("A", "C", 0.5))), 0.125),
                           ((c, ev(2, ("A", "C", 0.6))), 0.0625),
                           ((c, ev(2, ("A", "C", 0.7))), 0.0625)])
    return (st, lift_coupling(st, T0, first, 0.0, 1.0),
            lift_coupling(st, T0, second, 1.0, 2.0))


def test_a_glue_that_merges_curves_keeps_its_representatives_view():
    st, s1, s2 = _merging_glue_pieces()
    starts = [c.at(0.0).x for c, _ in s1.atoms]
    assert starts[0] == ("A", "B", 1.25 - 5e-10) and starts[2] == ("A", "B", 1.25)
    glued = concat_measures(s1, s2)
    # seven pairs glue into six atoms; the merged one holds the first pair,
    # through s1's curve 2, and the last, through s1's curve 0, which comes
    # first in key order and represents it
    assert (len(s1), len(glued)) == (5, 6) and glued.atoms[0][1] == 0.5
    assert glued.atoms[0][0].at(0.0).x == starts[0]
    assert glued.atoms[0][0]._leaves[0] is s1.atoms[0][0]
    # every glued curve keeps its leaves, so they serve every time in the windows
    assert _assert_leaves_match_plain(glued, [0.0, 0.5, 1.0, 1.5, 2.0]) == 5


def test_factored_pushforwards_evaluate_each_lifted_curve_once(monkeypatch):
    _, s1, s2 = _merging_glue_pieces()
    glued = concat_measures(s1, s2)
    calls = Counter()
    real_at = CausalCurve.at

    def counting_at(self, tau):
        calls[id(self)] += 1
        return real_at(self, tau)

    monkeypatch.setattr(CausalCurve, "at", counting_at)
    once = Counter({id(c._leaves[0]): 1 for c, _ in glued.atoms})
    marginal_at(glued, 0.5)
    assert calls == once and len(once) < len(glued)
    calls.clear()
    extract_coupling(glued, 0.25, 0.75)  # both times in the first window
    assert calls == once + once
    calls.clear()
    marginal_at(glued, 1.5)
    assert calls == Counter({id(c._leaves[1]): 1 for c, _ in glued.atoms})


def test_a_glue_over_junction_events_merged_within_tolerance_has_no_view(mink):
    # the pieces meet at 0 and at 5e-10, one junction atom: the glued
    # curve leaves the junction from the left piece's event, so the right
    # lift's curve is not its leaf there, and it keeps no leaves.  Two
    # equal junction events that are separate objects keep none either:
    # leaves are kept only over one junction event object.
    ev = mink.event
    for x in (5e-10, 0.0):
        s1 = lift_coupling(mink, T0, Coupling(mink, [((ev(0, 0.0), ev(1, 0.0)), 1.0)]),
                           0.0, 1.0)
        s2 = lift_coupling(mink, T0, Coupling(mink, [((ev(1, x), ev(2, 0.5)), 1.0)]), 1.0, 2.0)
        e1, e2 = s1.atoms[0][0].breakpoints[-1][1], s2.atoms[0][0].breakpoints[0][1]
        assert e1 is not e2 and (e1 == e2) == (x == 0.0)
        glued = concat_measures(s1, s2)
        assert glued._windows == ((0.0, 1.0), (1.0, 2.0))
        (curve, _), = glued.atoms
        assert curve._leaves is None and _evaluators(glued, 1.5) == [curve]
        assert marginal_at(glued, 1.5).atoms[0][0].x == 0.25
        times = [0.0, 0.5, 1.0 - 5e-10, 1.0, 1.0 + 5e-10, 1.5, 2.0]
        assert _assert_leaves_match_plain(glued, times) == 0


def test_a_glue_over_junction_parameters_apart_keeps_no_leaves(mink):
    # the second lift starts 5e-10 after the first ends, within the glue's
    # tolerance: inside the second window the glued curve runs from the
    # first piece's junction parameter, not from its leaf's
    ev = mink.event
    mid = ev(1, 0.0)
    s1 = lift_coupling(mink, T0, Coupling(mink, [((ev(0, 0.0), mid), 1.0)]), 0.0, 1.0)
    s2 = lift_coupling(mink, T0, Coupling(mink, [((mid, ev(2, 0.5)), 1.0)]), 1.0 + 5e-10, 2.0)
    glued = concat_measures(s1, s2)
    assert [c._leaves for c, _ in glued.atoms] == [None]
    times = [0.0, 0.5, 1.0, 1.0 + 2.5e-10, 1.0 + 5e-10, 1.5, 2.0]
    assert _assert_leaves_match_plain(glued, times) == 0
    assert marginal_at(glued, 1.5).atoms[0][0].x == 0.25


def test_leaves_are_kept_per_glued_curve(mink):
    # one junction pair meets at events 5e-10 apart, the other at one
    # object; only the first pair's glued curve loses its leaves, and the
    # second junction atom branches, so two glued curves keep theirs
    ev = mink.event
    mid = ev(1, 0.5)
    s1 = lift_coupling(mink, T0, Coupling(mink, [((ev(0, 0.0), ev(1, 0.0)), 0.5),
                                                 ((ev(0, 0.25), mid), 0.5)]), 0.0, 1.0)
    s2 = lift_coupling(mink, T0, Coupling(mink, [((ev(1, 5e-10), ev(2, 0.25)), 0.5),
                                                 ((mid, ev(2, 0.5)), 0.25),
                                                 ((mid, ev(2, 0.75)), 0.25)]), 1.0, 2.0)
    glued = concat_measures(s1, s2)
    by_start = {c.at(0.0).x: c for c, _ in glued.atoms}
    assert len(glued) == 3 and list(by_start) == [0.0, 0.25]
    kept = [c for c, _ in glued.atoms if c._leaves is not None]
    assert by_start[0.0]._leaves is None and len(kept) == 2
    assert all(c._leaves[0] is s1.atoms[1][0] for c in kept)
    # the window edges (the junction among them), inside the windows, and
    # on either side of the junction
    times = [0.0, 0.25, 0.5, 0.875, 1.0 - 5e-10, 1.0, 1.0 + 5e-10, 1.25, 1.5, 1.875, 2.0]
    assert _assert_leaves_match_plain(glued, times) == len(times)


def test_a_synthesized_measure_holds_no_reference_cycle(mink):
    # a lifted curve held by its glued curves' leaves dies with the
    # measure, without the cyclic garbage collector
    entries = [(float(k), SliceMeasure(mink, [(mink.event(k, 0.0), 0.5),
                                              (mink.event(k, 0.25), 0.5)]))
               for k in range(-2, 3)]
    evo = Evolution(mink, entries, T0, MeshSpec("integer"))
    gc.collect()
    gc.disable()
    try:
        sigma = synthesize_slabs(mink, T0, evo, 2, "both")
        assert len(sigma.atoms[0][0]._leaves) == 4
        leaf = weakref.ref(sigma.atoms[0][0]._leaves[0])
        curve = weakref.ref(sigma.atoms[0][0])
        del sigma
        assert leaf() is None and curve() is None
    finally:
        gc.enable()


# -- one level-set rule, checked where the input enters ---------------------------

def _curve_measure_bits(sigma):
    """A curve measure bit for bit: each curve's domain, breakpoints, pace
    and time function with its weight, and the slab windows."""
    return ([(_bits((c.domain.a, c.domain.b)), _bits(c.breakpoints), _bits(c.pace),
              c.time_function, w.hex()) for c, w in sigma.atoms], _bits(sigma._windows))


@settings(max_examples=60, deadline=None)
@given(st_.sampled_from(["minkowski", "graph"]),
       st_.sampled_from(["forward", "backward", "both", "compact"]),
       st_.sampled_from(["bundle", "branching"]), st_.integers(1, 3), st_.integers(0, 2 ** 16))
def test_the_folds_trusted_lift_is_the_public_lift(backend, direction, slices, horizon, seed):
    # the fold lifts each witness through _lift, which trusts the checks the
    # evolution and _synthesize ran; lift_coupling runs them itself
    rng = rng_for(seed)
    if backend == "minkowski":
        st = Spacetime("minkowski-1+1")
    else:
        st = random_graph(rng, n_vertices=rng.randint(3, 5), far=False)
    tf = random_time_function(rng, st, max_lip=0.5)  # a slope, or vertex offsets
    if direction == "compact":
        times, mesh = dyadic_times(0.0, 1.0, horizon), MeshSpec("dyadic", 0.0, 1.0, horizon)
    else:
        times, mesh = [float(k) for k in range(-horizon, horizon + 1)], MeshSpec("integer")
    if slices == "bundle":
        evo, _, _ = random_causal_evolution(rng, st, times, max_atoms=3, tf=tf, mesh=mesh)
    else:
        evo = _branching_evolution(rng, st, tf, times, mesh)
    lifts, trusted = [], synthesis._lift

    def spy(*args):
        lifts.append((args, trusted(*args)))
        return lifts[-1][1]

    with mock.patch.object(synthesis, "_lift", spy):
        try:
            if direction == "compact":
                synthesize_compact(st, tf, evo)
            else:
                synthesize_slabs(st, tf, evo, horizon, direction)
        except (NonCausalEvolutionError, PreconditionError):
            assume(False)  # a tilt can make a drawn step non-causal
    assert len(lifts) == (len(times) - 1 if direction in ("compact", "both") else horizon)
    for (st_arg, tf_arg, omega, a, b, domain), piece in lifts:
        assert st_arg is st and tf_arg is tf
        public = lift_coupling(st, tf, omega, a, b)
        if domain != Interval.compact(a, b):  # an end slab, lifted onto its half-line
            piece = trusted(st, tf, omega, a, b, Interval.compact(a, b))
        assert _curve_measure_bits(piece) == _curve_measure_bits(public)


def _engines(mink):
    """Each synthesis engine and the observer check, with an evolution of
    Dirac slices at x = 0 on the canonical level sets that each accepts."""
    def static(times, mesh):
        return Evolution(mink, [(t, delta(mink, t, 0.0)) for t in times], T0, mesh)
    line = static([float(k) for k in range(-2, 3)], MeshSpec("integer"))
    return {
        "compact": (lambda st, tf: synthesize_compact(
            st, tf, static(dyadic_times(0.0, 1.0, 2), MeshSpec("dyadic", 0.0, 1.0, 2)))),
        "slabs": lambda st, tf: synthesize_slabs(st, tf, line, 2, "both"),
        "open": (lambda st, tf: synthesize_open(
            st, tf, static(geometric_times(0.0, 1.0, 2), MeshSpec("explicit")),
            0.0, 1.0, 2, "right")),
        "observer": lambda st, tf: observer_invariance_report(st, tf, T0, line),
    }


@pytest.mark.parametrize("engine", ["compact", "slabs", "open", "observer"])
def test_synthesis_reads_an_evolution_in_its_own_frame_only(mink, engine):
    run = _engines(mink)[engine]
    with pytest.raises(InputError, match="^the evolution was built on another spacetime$"):
        run(Spacetime("minkowski-1+1"), T0)
    # every atom lies at x = 0, on the tilted level sets too, yet the
    # evolution was checked on T0's alone
    with pytest.raises(InputError, match=re.escape(
            "the evolution's time function is TimeFunction(T0), not "
            "TimeFunction(('slope', 0.5))")):
        run(mink, TimeFunction(slope=0.5))
    assert run(mink, TimeFunction(slope=0.0))  # the same time function by value


def test_synthesis_refuses_an_invalid_time_function(mink):
    null = TimeFunction(slope=1.0)  # null level sets: not a valid time function
    evo = Evolution(mink, [(float(k), delta(mink, k, 0.0)) for k in range(2)], null,
                    MeshSpec("integer"))
    with pytest.raises(InputError, match="^time function is not valid on this spacetime$"):
        synthesize_slabs(mink, null, evo, 1, "forward")


def _count_validations(monkeypatch):
    """Count the calls of timefunc.validate, under each name it is imported by."""
    calls, real = [], timefunc.validate

    def counted(st, tf):
        calls.append(tf)
        return real(st, tf)

    monkeypatch.setattr(timefunc, "validate", counted)
    for module in (synthesis, measures, curves):
        monkeypatch.setattr(module, "validate_tf", counted, raising=False)
    return calls


@pytest.mark.parametrize("backend", ["minkowski", "graph"])
@pytest.mark.parametrize("horizon, atoms", [(1, 1), (2, 3), (3, 4)])
def test_a_synthesis_validates_its_time_function_once(monkeypatch, backend, horizon, atoms):
    rng = rng_for(7 * horizon + atoms)
    st = (Spacetime("minkowski-1+1") if backend == "minkowski"
          else random_graph(rng, n_vertices=4, far=False))
    tf, tf2 = (TimeFunction(slope=0.25), TimeFunction(slope=-0.25)) if backend == "minkowski" \
        else (random_time_function(rng, st, 0.5), random_time_function(rng, st, 0.5))
    times = [float(k) for k in range(-horizon, horizon + 1)]
    evo, _, _ = random_causal_evolution(rng, st, times, max_atoms=atoms, tf=tf,
                                        mesh=MeshSpec("integer"))
    calls = _count_validations(monkeypatch)
    sigma = synthesize_slabs(st, tf, evo, horizon, "both")
    assert calls == [tf]
    for direction in ("forward", "backward"):
        calls.clear()
        synthesize_slabs(st, tf, evo, horizon, direction)
        assert calls == [tf]
    calls.clear()
    moved = pushforward_reparametrize(sigma, tf, tf2)
    assert calls == [tf, tf2] and len(moved) == len(sigma) > 0
    calls.clear()
    observer_invariance_report(st, tf, tf2, evo, horizon)
    assert calls == [tf, tf, tf2]  # synthesis, then the pushforward


def _lift_refusal(mink, atoms, a, b, tf=T0, st=None):
    omega = Coupling(st or mink, [((mink.event(*p), mink.event(*q)), w) for p, q, w in atoms])
    return lambda: lift_coupling(mink, tf, omega, a, b)


def _line_curve(mink, tf=None, pace=1.0, domain=None):
    return CausalCurve(mink, domain or Interval.line(), [(0.0, mink.event(0.0, 0.0)),
                                                          (1.0, mink.event(1.0, 0.0))],
                       pace=pace, time_function=tf)


@pytest.mark.parametrize("case, error, message", [
    ("lift a = b", InputError, "lift needs a < b, got [1.0, 1.0]"),
    ("lift invalid tf", InputError, "time function is not valid on this spacetime"),
    ("lift left off", PreconditionError,
     "left atom Event(t=0.0, x=0.0) not on the level set 0.5 (value 0.0)"),
    ("lift right off", PreconditionError,
     "right atom Event(t=1.0, x=0.0) not on the level set 2.0 (value 1.0)"),
    ("lift first atom first", PreconditionError,
     "right atom Event(t=1.0, x=0.0) not on the level set 1.5 (value 1.0)"),
    ("lift non-causal", PreconditionError,
     "non-causal coupling atom (Event(t=0.0, x=0.0), Event(t=1.0, x=1.2))"),
    ("lift degenerate", PreconditionError,
     "degenerate coupling atom (Event(t=0.0, x=0.0), Event(t=0.0, x=0.0)): no time passes"),
    ("reparametrize compact", InputError,
     "reparametrize needs a full-line curve; canonicalize compact paths instead"),
    ("reparametrize not affine", InputError, "curve is not time-affine"),
    ("reparametrize invalid tf", InputError, "both time functions must be valid"),
    ("reparametrize source", InputError,
     "curve is not parametrized by the given source time function"),
    ("pushforward invalid tf", InputError, "both time functions must be valid"),
    ("slice off level", InputError,
     "atom Event(t=0.5, x=0.0) has time value 0.5, not on the level set 0.0"),
    ("evolution off level", InputError,
     "atom Event(t=0.5, x=0.0) of the slice at 0.0 has time value 0.5"),
])
def test_each_level_and_validity_refusal_keeps_its_class_and_message(mink, case, error,
                                                                      message):
    loose = Spacetime("minkowski-1+1", eps_caus=0.25)
    slope = TimeFunction(slope=0.5)
    calls = {
        "lift a = b": _lift_refusal(mink, [((0, 0.0), (1, 0.0), 1.0)], 1.0, 1.0),
        "lift invalid tf": _lift_refusal(mink, [((0, 0.0), (1, 0.0), 1.0)], 0.0, 1.0,
                                         tf=TimeFunction(slope=1.0)),
        "lift left off": _lift_refusal(mink, [((0, 0.0), (1, 0.0), 1.0)], 0.5, 1.0),
        "lift right off": _lift_refusal(mink, [((0, 0.0), (1, 0.0), 1.0)], 0.0, 2.0),
        # the first atom's right end is named before the second's left end
        "lift first atom first": _lift_refusal(
            mink, [((0.25, 0.5), (1, 0.0), 0.5), ((0.5, 0.5), (1.25, 0.5), 0.5)], 0.5, 1.5,
            tf=slope),
        "lift non-causal": _lift_refusal(mink, [((0, 0.0), (1, 1.2), 1.0)], 0.0, 1.0,
                                         st=loose),
        "lift degenerate": _lift_refusal(mink, [((0, 0.0), (0, 0.0), 1.0)], 0.0, 1e-10),
        "reparametrize compact": lambda: reparametrize(
            mink, _line_curve(mink, domain=Interval.compact(0.0, 1.0)), T0, slope),
        "reparametrize not affine": lambda: reparametrize(
            mink, _line_curve(mink, pace=None), T0, slope),
        "reparametrize invalid tf": lambda: reparametrize(
            mink, _line_curve(mink), T0, TimeFunction(slope=1.0)),
        "reparametrize source": lambda: reparametrize(mink, _line_curve(mink), slope, T0),
        "pushforward invalid tf": lambda: pushforward_reparametrize(
            CurveMeasure(mink, [(_line_curve(mink), 1.0)]), T0, TimeFunction(slope=-1.0)),
        "slice off level": lambda: SliceMeasure(mink, [(mink.event(0.5, 0.0), 1.0)], tau=0.0),
        "evolution off level": lambda: Evolution(mink, [(0.0, delta(mink, 0.5, 0.0))]),
    }
    with pytest.raises(error) as err:
        calls[case]()
    assert str(err.value) == message
