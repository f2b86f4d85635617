"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance is pinned here; the randomized suites
use fixed seeds, so the run is reproducible.
"""

import math
import time

from causalot import (CurveMeasure, Evolution, MeshSpec, SliceMeasure, Spacetime,
                      TimeFunction, bilipschitz_report, canonical_time,
                      canonicalize_noncompact, causal_lipschitz_constant,
                      check_evolution, curves_close, dominates_on_upsets,
                      dyadic_times, extract_coupling, find_causal_coupling,
                      marginal_at, observer_invariance_report, reparametrize,
                      slice_measures_equal, synthesize_compact, synthesize_slabs,
                      transport_distance, Interval, NonCausalEvolutionError,
                      RawPath)
from causalot.measures import MASS_ATOL
from causalot.spacetime import GEOM_ATOL
from genrand import (identity_parametrized_bundle, inject_superluminal,
                     random_backend, random_causal_evolution,
                     random_full_line_curve, random_slice_measure,
                     random_time_function, rng_for)

T0 = canonical_time()

# The criteria compare positions and times at GEOM_ATOL and weights at
# MASS_ATOL (slice_measures_equal, curves_close); their bounds are pinned here.
assert GEOM_ATOL == 1e-9 and MASS_ATOL == 1e-12


def _verdict(num, title, ok):
    print(f"\n[criterion {num}] {title}: {'PASS' if ok else 'FAIL'}")
    return ok


def _random_synthesis(rng, st, max_atoms=4):
    """A randomized causal evolution and its synthesized curve measure."""
    if st.backend == Spacetime.MINKOWSKI and rng.random() < 0.5:
        depth = rng.randint(1, 3)
        times = dyadic_times(0.0, 1.0, depth)
        evo, _, _ = random_causal_evolution(
            rng, st, times, max_atoms=max_atoms,
            mesh=MeshSpec("dyadic", 0.0, 1.0, depth))
        return evo, synthesize_compact(st, T0, evo)
    horizon = rng.randint(1, 4)
    times = [float(k) for k in range(-horizon, horizon + 1)]
    evo, _, _ = random_causal_evolution(rng, st, times, max_atoms=max_atoms,
                                        mesh=MeshSpec("integer"))
    return evo, synthesize_slabs(st, T0, evo, horizon, "both")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = rng_for(10_001)
    start = time.monotonic()
    disagreements = 0
    runs = 0
    while runs < 1000:
        st = random_backend(rng, far=False)
        s = float(rng.randint(-2, 2))
        t = s + float(rng.randint(0, 3))
        max_atoms = 10 if st.backend == Spacetime.MINKOWSKI else 4
        mu = random_slice_measure(rng, st, s, max_atoms=max_atoms)
        nu = random_slice_measure(rng, st, t, max_atoms=max_atoms)
        flow = find_causal_coupling(st, mu, nu) is not None
        upset = dominates_on_upsets(st, mu, nu)
        if flow != upset:
            disagreements += 1
        runs += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 30.0
    assert _verdict(1, f"oracle equivalence on {runs} instances "
                       f"({elapsed:.1f}s, {disagreements} disagreements)", ok)


# -- criteria 2 and 3 ------------------------------------------------------------


def test_criterion_2_round_trip():
    rng = rng_for(10_002)
    start = time.monotonic()
    failures = []
    for trial in range(200):
        st = random_backend(rng)
        evo, sigma = _random_synthesis(rng, st)
        times = evo.times
        for t, mu in evo.entries:
            got = marginal_at(sigma, t)
            if not slice_measures_equal(got, mu):
                failures.append((trial, "weights", t))
            if transport_distance(st, got, mu) > 1e-12:
                failures.append((trial, "transport", t))
        for i in range(len(times)):
            for j in range(i, len(times)):
                omega = extract_coupling(sigma, times[i], times[j])  # validates
                if not (slice_measures_equal(omega.marginal(0), marginal_at(sigma, times[i]))
                        and slice_measures_equal(omega.marginal(1), marginal_at(sigma, times[j]))):
                    failures.append((trial, "extract-marginals", (times[i], times[j])))
    # converse direction: marginal families of random curve measures
    for trial in range(200):
        st = random_backend(rng, far=False)
        tf = random_time_function(rng, st)
        times = [float(k) for k in range(-2, 3)]
        curves, weights = identity_parametrized_bundle(rng, st, tf, times,
                                                       n_paths=rng.randint(1, 4))
        sigma = CurveMeasure(st, list(zip(curves, weights)))
        entries = [(t, marginal_at(sigma, t)) for t in times]
        evo = Evolution(st, entries, tf, MeshSpec("integer"))
        if not check_evolution(st, evo).causal:
            failures.append((trial, "converse", None))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    assert _verdict(2, f"round trip on 200+200 randomized evolutions "
                       f"({elapsed:.1f}s, {len(failures)} failures)", ok)


def test_criterion_3_negative_control():
    rng = rng_for(10_003)
    false_accepts = 0
    wrong_step = 0
    for trial in range(200):
        st = random_backend(rng)
        horizon = rng.randint(2, 4)
        times = [float(k) for k in range(-horizon, horizon + 1)]
        evo, step = inject_superluminal(rng, st, times, mesh=MeshSpec("integer"))
        rep = check_evolution(st, evo)
        if rep.causal:
            false_accepts += 1
            continue
        first = rep.first_failure
        if (first.s, first.t) != (times[step], times[step + 1]):
            wrong_step += 1
        try:
            synthesize_slabs(st, T0, evo, horizon, "both")
            false_accepts += 1
        except NonCausalEvolutionError as err:
            if err.step != (times[step], times[step + 1]) or err.witness is None:
                wrong_step += 1
    ok = false_accepts == 0 and wrong_step == 0
    assert _verdict(3, f"negative control on 200 injected evolutions "
                       f"({false_accepts} false accepts, {wrong_step} mislocated)", ok)


# -- criterion 4 -------------------------------------------------------------------


def test_criterion_4_reparametrization():
    rng = rng_for(10_004)
    bad = 0
    for trial in range(100):
        st = random_backend(rng, far=False)
        tf1 = random_time_function(rng, st)
        tf2 = random_time_function(rng, st)
        c = random_full_line_curve(rng, st, tf1)
        moved = reparametrize(st, c, tf1, tf2)
        if moved.raw_path() != c.raw_path():
            bad += 1
        if abs(moved.pace - c.pace) > 1e-9:
            bad += 1
        for s, e in moved.breakpoints:
            if abs(tf2.value(st, e) - tf1.value(st, c.at(s))) > 1e-9:
                bad += 1
        back = reparametrize(st, moved, tf2, tf1)
        if not curves_close(back, c):
            bad += 1
    # sequential-continuity witness on a scripted perturbation family
    mink = Spacetime("minkowski-1+1")
    tf2 = TimeFunction(slope=0.4)
    def curve_for(delta):
        events = [mink.event(t, 0.25 * t + delta * (1 - abs(t) / 4))
                  for t in range(-3, 4)]
        raw = RawPath(mink, events, extend_past=True, extend_future=True)
        return reparametrize(
            mink, canonicalize_noncompact(mink, T0, raw, Interval.line(), 1.0, 0.0),
            T0, tf2)
    base = curve_for(0.0)
    sups = []
    for delta in (1e-2, 1e-3, 1e-4):
        pert = curve_for(delta)
        sups.append(max(mink.riemannian_distance(pert.at(u), base.at(u))
                        for u in [(-2.0 + 4.0 * i / 40) for i in range(41)]))
    monotone = sups[0] > sups[1] > sups[2] > 0.0
    ok = bad == 0 and monotone
    assert _verdict(4, f"reparametrization invariants on 100 curves "
                       f"({bad} violations; continuity sups {sups})", ok)


# -- criterion 5 -------------------------------------------------------------------


def test_criterion_5_continuity_bound():
    rng = rng_for(10_005)
    bad = 0
    for trial in range(30):
        st = random_backend(rng)
        evo, sigma = _random_synthesis(rng, st)
        lo, hi = evo.times[0], evo.times[-1]
        bound_rate = causal_lipschitz_constant(st, lo, hi)
        for _ in range(10):
            s = lo + (hi - lo) * rng.random()
            t = lo + (hi - lo) * rng.random()
            if s > t:
                s, t = t, s
            if t - s < 1e-6:
                continue
            d = transport_distance(st, marginal_at(sigma, s), marginal_at(sigma, t))
            if d > (t - s) * bound_rate + 1e-9:
                bad += 1
    # saturating lightlike case
    mink = Spacetime("minkowski-1+1")
    entries = []
    for t in dyadic_times(0.0, 1.0, 2):
        atoms = ([(mink.event(0.0, 0.0), 1.0)] if t == 0.0 else
                 [(mink.event(t, -t), 0.5), (mink.event(t, t), 0.5)])
        entries.append((t, SliceMeasure(mink, atoms)))
    evo = Evolution(mink, entries, T0, MeshSpec("dyadic", 0.0, 1.0, 2))
    sigma = synthesize_compact(mink, T0, evo)
    s, t = 0.25, 0.75
    d = transport_distance(mink, marginal_at(sigma, s), marginal_at(sigma, t))
    saturation = d / ((t - s) * math.sqrt(2.0))
    ok = bad == 0 and saturation >= 0.99
    assert _verdict(5, f"continuity bound on 30 syntheses x 10 pairs "
                       f"({bad} violations; lightlike saturation {saturation:.6f})", ok)


# -- criterion 6 -------------------------------------------------------------------


def test_criterion_6_bilipschitz_envelopes():
    rng = rng_for(10_006)
    bad = 0
    for trial in range(30):
        st = random_backend(rng)
        evo, sigma = _random_synthesis(rng, st)
        lo, hi = evo.times[0], evo.times[-1]
        tf2 = random_time_function(rng, st)
        family = [c for c, _ in sigma.atoms]
        rep = bilipschitz_report(st, tf2, family, lo, hi)
        slack = 0.0 if st.backend == Spacetime.MINKOWSKI else 1e-9
        if not rep.within(slack):
            bad += 1
    # the lightlike family saturates the Riemannian upper envelope
    mink = Spacetime("minkowski-1+1")
    entries = []
    for t in dyadic_times(0.0, 1.0, 1):
        atoms = ([(mink.event(0.0, 0.0), 1.0)] if t == 0.0 else
                 [(mink.event(t, -t), 0.5), (mink.event(t, t), 0.5)])
        entries.append((t, SliceMeasure(mink, atoms)))
    evo = Evolution(mink, entries, T0, MeshSpec("dyadic", 0.0, 1.0, 1))
    sigma = synthesize_compact(mink, T0, evo)
    rep = bilipschitz_report(mink, T0, [c for c, _ in sigma.atoms], 0.0, 1.0)
    saturates = (rep.within(0.0)
                 and rep.dw_ratio_max >= rep.dw_upper * (1.0 - 1e-12))
    ok = bad == 0 and saturates
    assert _verdict(6, f"bi-Lipschitz envelopes on 30 synthesized families "
                       f"({bad} violations; lightlike ratio {rep.dw_ratio_max:.12f} "
                       f"vs envelope {rep.dw_upper:.12f})", ok)


# -- criterion 7 -------------------------------------------------------------------


def test_criterion_7_mesh_refinement():
    mink = Spacetime("minkowski-1+1")
    a, b = 0.0, 2.0
    x = lambda t: 0.5 * math.sin(t)
    probes = [0.1 + 0.2 * i for i in range(10)]
    worst = {}
    for depth in (2, 3, 4, 5):
        entries = [(t, SliceMeasure(mink, [(mink.event(t, x(t)), 1.0)]))
                   for t in dyadic_times(a, b, depth)]
        evo = Evolution(mink, entries, T0, MeshSpec("dyadic", a, b, depth))
        sigma = synthesize_compact(mink, T0, evo)
        errs = []
        for t in probes:
            target = SliceMeasure(mink, [(mink.event(t, x(t)), 1.0)])
            errs.append(transport_distance(mink, marginal_at(sigma, t), target))
        worst[depth] = max(errs)
    bound = {n: causal_lipschitz_constant(mink, a, b) * 2.0 ** (-n) * (b - a)
             for n in worst}
    within = all(worst[n] <= bound[n] for n in worst)
    decreasing = worst[2] > worst[3] > worst[4] > worst[5]
    ok = within and decreasing
    assert _verdict(7, f"mesh refinement errors {worst} within bounds {bound}", ok)


# -- criterion 8 -------------------------------------------------------------------


def test_criterion_8_observer_invariance():
    rng = rng_for(10_008)
    bad = 0
    for trial in range(50):
        st = random_backend(rng, far=False)
        tf1 = random_time_function(rng, st)
        tf2 = random_time_function(rng, st)
        times = [float(k) for k in range(-2, 3)]
        evo, _, _ = random_causal_evolution(rng, st, times, tf=tf1,
                                            mesh=MeshSpec("integer"))
        rep = observer_invariance_report(st, tf1, tf2, evo)
        if not (rep.ok and rep.slices_tagged and rep.evolution_causal
                and rep.rawpaths_equal):
            bad += 1
    ok = bad == 0
    assert _verdict(8, f"observer invariance on 50 randomized evolutions "
                       f"({bad} failures)", ok)


# -- criterion 9 -------------------------------------------------------------------


def test_criterion_9_kolmogorov_consistency():
    rng = rng_for(10_009)
    bad = 0
    for trial in range(10):
        st = random_backend(rng)
        times = [float(k) for k in range(-6, 7)]
        evo, _, _ = random_causal_evolution(rng, st, times, mesh=MeshSpec("integer"))
        results = {n: synthesize_slabs(st, T0, evo, n, "both") for n in range(1, 6)}
        deep = {n: synthesize_slabs(st, T0, evo, n + 1, "both") for n in range(1, 6)}
        for n in range(1, 6):
            lo, hi = -float(n), float(n)
            projected = CurveMeasure(st, [(c.restrict(lo, hi), w)
                                          for c, w in deep[n].atoms])
            reference = CurveMeasure(st, [(c.restrict(lo, hi), w)
                                          for c, w in results[n].atoms])
            if len(projected) != len(reference):
                bad += 1
                continue
            for (c1, w1), (c2, w2) in zip(projected.atoms, reference.atoms):
                if c1.breakpoints != c2.breakpoints or abs(w1 - w2) > 1e-12:
                    bad += 1
                    break
    ok = bad == 0
    assert _verdict(9, f"slab projection consistency for horizons up to 5+1 "
                       f"({bad} mismatches)", ok)
