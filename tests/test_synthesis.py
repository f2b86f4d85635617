import pytest

from causalot import (Coupling, CurveMeasure, Evolution, InputError, Interval,
                      MeshSpec, NonCausalEvolutionError, PreconditionError,
                      SliceMeasure, Spacetime,
                      SynthesisPlan, TimeFunction, canonical_time,
                      canonicalize_noncompact, causal_geodesic, check_evolution,
                      dyadic_times, extract_coupling,
                      geometric_times, is_time_parametrized, lift_coupling,
                      marginal_at, observer_invariance_report,
                      pushforward_reparametrize, run_plan, slice_measures_equal,
                      synthesize_compact, synthesize_slabs, to_time_parametrized,
                      transport_distance, RawPath)
from genrand import (random_backend, random_causal_evolution,
                     random_time_function, rng_for)

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
        assert slice_measures_equal(got, mu, wtol=1e-12)
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
        assert slice_measures_equal(marginal_at(sigma, t), mu, wtol=1e-12)


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


def test_slabs_junctions_connect(mink):
    rng = rng_for(43)
    times = [float(k) for k in range(-3, 4)]
    evo, _, _ = random_causal_evolution(rng, mink, times, mesh=MeshSpec("integer"))
    sigma = synthesize_slabs(mink, T0, evo, 3, "both")
    for c, _ in sigma.atoms:
        for (s, p), (t, q) in zip(c.breakpoints, c.breakpoints[1:]):
            assert t > s and q.t > p.t
            assert mink.causally_precedes(p, q, 1e-9)


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


# -- general interval plans -----------------------------------------------------------------

def test_plan_right_open_geometric(mink):
    times = geometric_times(0.0, 1.0, 3)
    entries = [(t, delta(mink, t, 0.0)) for t in times]
    evo = Evolution(mink, entries, T0, MeshSpec("explicit"))
    plan = SynthesisPlan(Interval.compact(0.0, 1.0), evo, horizon=3, open_right=True)
    sigma = run_plan(mink, T0, plan)
    assert sigma.domain == Interval.compact(0.0, times[-1])
    for t, mu in entries:
        assert slice_measures_equal(marginal_at(sigma, t), mu)


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


def test_plan_left_open_geometric(mink):
    wanted = [1.0 - t for t in geometric_times(0.0, 1.0, 3)][::-1]
    entries = [(t, delta(mink, t, 0.0)) for t in wanted]
    evo = Evolution(mink, entries, T0, MeshSpec("explicit"))
    plan = SynthesisPlan(Interval.compact(0.0, 1.0), evo, horizon=3, open_left=True)
    sigma = run_plan(mink, T0, plan)
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
    plan = SynthesisPlan(Interval.compact(0.0, 1.0), evo, horizon=2,
                         open_left=True, open_right=True)
    sigma = run_plan(mink, T0, plan)
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
        assert slice_measures_equal(marginal_at(sigma, t), mu, wtol=1e-12)
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
                assert all(st.causally_precedes(p, q, st.causal_tol)
                           for (p, q), _ in omega.atoms)
        # and back: the marginal family of sigma is a causal evolution
        entries = [(t, marginal_at(sigma, t)) for t in times]
        evo2 = Evolution(st, entries, tf, MeshSpec("explicit"))
        assert check_evolution(st, evo2).causal
