"""From a causal evolution to a single measure on causal curves and back.

The forward construction works slab by slab: between consecutive slices
a witness causal coupling is computed, each coupling atom is lifted to
the deterministic causal geodesic between its endpoints (canonically
reparametrized onto the slab), and the per-slab curve measures are
folded together by measure concatenation.  The result reproduces every
input slice exactly as an evaluation marginal at its mesh time; between
mesh times the marginals are those of the synthesized curves, and mesh
refinement quantifies the difference (see the Lipschitz bound of
:func:`causalot.spacetime.causal_lipschitz_constant`).

Unbounded intervals are handled at a finite horizon of unit slabs with
the curves' static window extension; truncating a deeper horizon
projects exactly onto a shallower one, and this consistency is asserted
at every fold step.  Every route, compact, half-line, full-line or open,
runs through one fold path and asserts its mesh marginals before it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, PreconditionError, VerificationError
from .spacetime import GEOM_ATOL, GRID_ATOL
from .timefunc import validate as validate_tf
from .curves import Interval, _compact_curve, is_time_parametrized
from .measures import (Coupling, CurveMeasure, _Factors, _regroup, _rows, concat_measures,
                       curve_measures_equal, marginal_at,
                       pushforward_reparametrize, slice_measures_equal)
from .coupling import Evolution, MeshSpec, _decide, _times_match, check_evolution


class NonCausalEvolutionError(PreconditionError):
    """Raised when synthesis is asked to realize a non-causal evolution;
    carries the violating step and its min-cut witness."""

    def __init__(self, s, t, witness):
        self.step = (s, t)
        self.witness = witness
        super().__init__(
            f"evolution is not causal on the step [{s}, {t}]: the subset "
            f"{[e for e in witness.events]} has mass {witness.mu_mass} but its "
            f"causal future only carries {witness.nu_future_mass}")


def lift_coupling(st, tf, omega: Coupling, a, b) -> CurveMeasure:
    """Lift a causal coupling between the level sets at a and b to a
    measure on curves over [a, b].

    Every coupling atom (p, q, w) becomes the canonical parametrization of
    the deterministic causal geodesic from p to q, carrying the weight;
    the evaluation marginals of the result are the coupling's marginals.
    Each curve is built and validated once, straight from the refined
    chain of (p, q), and the time function is validated once per call.
    The result's factor view is one window, [a, b], whose lifted curves
    are the result's own atoms.
    """
    a, b = float(a), float(b)
    if a >= b:
        raise InputError(f"lift needs a < b, got [{a}, {b}]")
    if not validate_tf(st, tf):
        raise InputError("time function is not valid on this spacetime")
    atoms = []
    for (p, q), w in omega.atoms:
        vp = tf.value(st, p)
        vq = tf.value(st, q)
        if abs(vp - a) > GEOM_ATOL:
            raise PreconditionError(f"left atom {p} not on the level set {a} (value {vp})")
        if abs(vq - b) > GEOM_ATOL:
            raise PreconditionError(f"right atom {q} not on the level set {b} (value {vq})")
        if not st.causally_precedes(p, q, st.causal_tol):
            raise PreconditionError(f"non-causal coupling atom ({p}, {q})")
        if q.t <= p.t:  # a tilted time function can still increase here
            raise PreconditionError(f"degenerate coupling atom ({p}, {q}): no time passes")
        atoms.append((_compact_curve(st, tf, (p, q), a, b), w))
    sigma = CurveMeasure(st, atoms)
    sigma._fewest = len(sigma)
    sigma._build = lambda out: _Factors(((a, b),), ([c for c, _ in out.atoms],),
                                        (range(len(out)),))
    return sigma


def _project(sigma: CurveMeasure, a, b) -> CurveMeasure:
    """Pushforward under restriction of curves to [a, b] of the domain."""
    st = sigma.spacetime
    return CurveMeasure(st, [(c.restrict(a, b), w) for c, w in sigma.atoms])


def _fold_slabs(st, tf, entries):
    """Fold witness-coupling lifts over consecutive slices into one curve
    measure on the spanned compact interval, asserting at every step that
    projecting back onto the previous window reproduces the previous fold."""
    if len(entries) < 2:
        raise InputError("need at least two slices to span an interval")
    sigma = None
    start = entries[0][0]
    for (s, mu), (t, nu) in zip(entries, entries[1:]):
        atoms, cut = _decide(st, mu, nu)
        if cut is not None:
            raise NonCausalEvolutionError(s, t, cut)
        piece = lift_coupling(st, tf, Coupling(st, atoms), s, t)
        if sigma is None:
            sigma = piece
        else:
            grown = concat_measures(sigma, piece)
            if not curve_measures_equal(_project(grown, start, s), sigma):
                raise VerificationError(
                    f"projection onto [{start}, {s}] does not reproduce the previous fold")
            sigma = grown
    return sigma


def _rewrap(st, sigma, domain):
    """sigma's curves over another interval kind, keeping its factor view."""
    items = [(c.with_domain(domain), w) for c, w in sigma.atoms]
    out = CurveMeasure(st, items)
    out._fewest = sigma._fewest
    out._build = lambda out: sigma._factors and sigma._factors.pick(_rows(out, items))
    return out


def _synthesize(st, tf, entries, split=None, domains=(None, None)):
    """Fold the entries into one curve measure and assert its mesh marginals.

    With ``split``, the entries up to and from ``entries[split]`` are folded
    separately and the two folds are glued there.  Each fold is rewrapped
    onto its entry of ``domains`` unless that entry is None.
    """
    parts = [entries] if split is None else [entries[:split + 1], entries[split:]]
    folds = []
    for part, domain in zip(parts, domains):
        sigma = _fold_slabs(st, tf, part)
        if domain is not None:
            sigma = _rewrap(st, sigma, domain)
        folds.append(sigma)
    sigma = folds[0] if split is None else concat_measures(*folds)
    for t, mu in entries:
        if not slice_measures_equal(marginal_at(sigma, t), mu):
            raise VerificationError(
                f"synthesized marginal at {t} does not match the input slice")
    return sigma


def _grid_zero(times, what):
    """Index of the grid time 0."""
    for i, t in enumerate(times):
        if abs(t) <= GRID_ATOL:
            return i
    raise InputError(f"{what} needs the grid time 0")


def synthesize_compact(st, tf, evo: Evolution) -> CurveMeasure:
    """Realize a causal evolution on a dyadic mesh of [a, b] as a curve
    measure whose evaluation marginals at every mesh time equal the input
    slices exactly.

    Marginals between mesh times are those of the synthesized curves; a
    finer mesh pins them down within the Lipschitz bound times the mesh
    width (the refinement study in the test suite quantifies this).
    """
    if len(evo) < 2:
        raise InputError("need at least two slices")
    if evo.mesh.kind != MeshSpec.DYADIC:
        raise InputError(f"compact synthesis expects a dyadic mesh, got {evo.mesh.kind!r}")
    evo.validate_mesh()
    evo.validate_slices()
    return _synthesize(st, tf, evo.entries)


def synthesize_slabs(st, tf, evo: Evolution, horizon, direction="both") -> CurveMeasure:
    """Realize a causal evolution on a unit grid over a half-line or the
    full line, truncated at the given horizon of slabs.

    ``forward`` folds the first ``horizon`` slabs and returns curves on
    ``[t0, +inf)``; ``backward`` mirrors this; ``both`` folds ``horizon``
    slabs on each side of the grid time 0 and concatenates the two halves,
    returning full-line curves.  Beyond the folded window the curves
    continue statically; the projection consistency between horizons is
    asserted at every fold step.
    """
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    if direction not in ("forward", "backward", "both"):
        raise InputError(f"unknown direction {direction!r}")
    if evo.mesh.kind != MeshSpec.INTEGER:
        raise InputError(f"slab synthesis expects an integer grid, got {evo.mesh.kind!r}")
    evo.validate_mesh()
    evo.validate_slices()
    times = evo.times
    if direction == "both":
        center = _grid_zero(times, "two-sided synthesis")
        if center < horizon or len(times) - 1 - center < horizon:
            raise InputError(
                f"grid supports horizons up to {min(center, len(times) - 1 - center)}, "
                f"requested {horizon}")
        return _synthesize(st, tf, evo.entries[center - horizon:center + horizon + 1],
                           split=horizon, domains=(Interval.past(0.0), Interval.future(0.0)))
    if len(times) < horizon + 1:
        raise InputError(f"grid has {len(times)} times, need {horizon + 1}")
    if direction == "forward":
        entries = evo.entries[:horizon + 1]
        return _synthesize(st, tf, entries, domains=(Interval.future(entries[0][0]),))
    entries = evo.entries[-(horizon + 1):]
    return _synthesize(st, tf, entries, domains=(Interval.past(entries[-1][0]),))


def extract_coupling(sigma: CurveMeasure, s, t) -> Coupling:
    """Pushforward of a curve measure under evaluation at an ordered pair
    of parameters: the coupling of the two evaluation marginals carried by
    the curves themselves (causal because each atom pair lies on one
    causal curve).

    When both parameters lie in windows of the measure's factor view that
    lifted fewer curves than it has atoms, each lifted curve is evaluated
    once and the atoms are grouped by their pair of lifted curves, then by
    exactly equal event pair, as :func:`causalot.measures.marginal_at`
    does; the coupling is the plain pushforward's bit for bit, and its
    causality check still runs on every merged atom.
    """
    s, t = float(s), float(t)
    if s > t:
        raise InputError(f"need s <= t, got {s} > {t}")
    for tau in (s, t):
        if not sigma.domain.contains(tau, GEOM_ATOL):
            raise InputError(f"parameter {tau} outside domain {sigma.domain}")
    st_ = sigma.spacetime
    n = len(sigma.atoms)
    view = sigma._factors if sigma._fewest < n else None
    ks = kt = None
    if view is not None:
        ks, kt = view.window(s, n), view.window(t, n)
    if ks is None or kt is None:
        return Coupling(st_, [((c.at(s), c.at(t)), w) for c, w in sigma.atoms])
    left, right = view.columns[ks], view.columns[kt]
    width = len(view.lifted[kt])
    fibers = {}
    for atom, (i, j) in enumerate(zip(left, right)):
        fibers.setdefault(i * width + j, []).append(atom)
    ps = {i: st_.canonical_event(view.lifted[ks][i].at(s)) for i in dict.fromkeys(left)}
    qs = {j: st_.canonical_event(view.lifted[kt][j].at(t)) for j in dict.fromkeys(right)}
    groups = _regroup(fibers, lambda ij: (ps[ij // width], qs[ij % width]))
    return Coupling(st_, [((ps[i], qs[j]), w) for i, j, (_, w) in zip(left, right, sigma.atoms)],
                    _groups=groups)


def to_time_parametrized(st, tf, sigma: CurveMeasure) -> CurveMeasure:
    """Re-type a full-line curve measure as a measure on curves along
    which the time function reads its own parameter.

    Every atom must pass the membership check; a failing atom signals a
    slice-tagging bug upstream and aborts with that atom rather than
    returning a partial result.
    """
    if sigma.domain.kind != Interval.LINE:
        raise InputError("only full-line curve measures can be normalized")
    for c, _ in sigma.atoms:
        if not is_time_parametrized(st, tf, c):
            raise VerificationError(
                f"atom {c!r} is not parametrized by the time function "
                f"(value at 0 is {tf.value(st, c.at(0.0))}, at 1 is {tf.value(st, c.at(1.0))})")
    return CurveMeasure(st, sigma.atoms)


# -- observer invariance --------------------------------------------------------


@dataclass
class InvarianceReport:
    ok: bool
    horizon: int
    slices_tagged: bool
    evolution_causal: bool
    rawpaths_equal: bool
    marginals: tuple = ()

    def __bool__(self):
        return self.ok

    def to_dict(self):
        return {
            "ok": self.ok,
            "horizon": self.horizon,
            "slices_tagged": self.slices_tagged,
            "evolution_causal": self.evolution_causal,
            "rawpaths_equal": self.rawpaths_equal,
        }


def observer_invariance_report(st, tf1, tf2, evo: Evolution, horizon=None) -> InvarianceReport:
    """Synthesize an evolution under one foliation, reparametrize the
    worldline measure to a second foliation, and verify that the moved
    measure reads as a causal, correctly tagged evolution there while its
    unparametrized path multiset is untouched."""
    times = evo.times
    center = _grid_zero(times, "observer check")
    max_h = min(center, len(times) - 1 - center)
    horizon = max_h if horizon is None else int(horizon)
    sigma1 = synthesize_slabs(st, tf1, evo, horizon, "both")
    ups1 = to_time_parametrized(st, tf1, sigma1)
    moved = pushforward_reparametrize(ups1, tf1, tf2)

    taus = [float(k) for k in range(-horizon, horizon + 1)]
    slices_tagged = True
    entries = []
    for tau in taus:
        nu = marginal_at(moved, tau)
        if nu.tau is None or abs(nu.tau - tau) > GEOM_ATOL:
            slices_tagged = False
        for e, _ in nu.atoms:
            if abs(tf2.value(st, e) - tau) > GEOM_ATOL:
                slices_tagged = False
        entries.append((tau, nu))
    evo2 = Evolution(st, entries, time_function=tf2,
                     mesh=MeshSpec(MeshSpec.INTEGER))
    causal = bool(check_evolution(st, evo2, "consecutive")) if slices_tagged else False

    def path_multiset(sig):
        return sorted((tuple(st.event_key(e) for e in c.raw_path()), w)
                      for c, w in sig.atoms)

    rawpaths_equal = path_multiset(ups1) == path_multiset(moved)
    ok = slices_tagged and causal and rawpaths_equal
    return InvarianceReport(ok, horizon, slices_tagged, causal, rawpaths_equal,
                            marginals=tuple(entries))


# -- general interval requests ----------------------------------------------------


def geometric_times(a, b, n):
    """Times ``b + (a - b) / 2**i`` for i = 0..n: a geometric approach to b
    from inside [a, b)."""
    a, b = float(a), float(b)
    if a >= b:
        raise InputError(f"need a < b, got [{a}, {b}]")
    return [b + (a - b) / (1 << i) for i in range(n + 1)]


@dataclass
class SynthesisPlan:
    """A synthesis request: target interval (with optional open bounded
    ends), the mesh evolution, and the slab horizon for unbounded or open
    ends."""

    interval: Interval
    mesh: Evolution
    horizon: int = 1
    open_left: bool = False
    open_right: bool = False

    def __post_init__(self):
        if (self.open_left or self.open_right) and self.interval.kind != Interval.COMPACT:
            raise InputError("open endpoint flags apply to bounded intervals only")


def _match_times(actual, wanted, what):
    if not _times_match(actual, wanted):
        raise InputError(f"evolution times {list(actual)} do not match the {what} "
                         f"mesh {list(wanted)}")


def run_plan(st, tf, plan: SynthesisPlan) -> CurveMeasure:
    """Dispatch a synthesis plan to the matching engine.

    Bounded open ends are served by the compact engine over a geometric
    mesh accumulating at the open endpoint, truncated at the plan horizon;
    half-lines and the full line go through unit slabs at the horizon.
    """
    iv = plan.interval
    evo = plan.mesh
    if iv.kind == Interval.FUTURE:
        return synthesize_slabs(st, tf, evo, plan.horizon, "forward")
    if iv.kind == Interval.PAST:
        return synthesize_slabs(st, tf, evo, plan.horizon, "backward")
    if iv.kind == Interval.LINE:
        return synthesize_slabs(st, tf, evo, plan.horizon, "both")
    if not (plan.open_left or plan.open_right):
        return synthesize_compact(st, tf, evo)
    evo.validate_slices()
    a, b = iv.a, iv.b
    split = None
    if plan.open_right and not plan.open_left:
        wanted, what = geometric_times(a, b, plan.horizon), "right-open"
    elif plan.open_left and not plan.open_right:
        wanted = [a + b - t for t in geometric_times(a, b, plan.horizon)][::-1]
        what = "left-open"
    else:
        right = geometric_times((a + b) / 2, b, plan.horizon)
        left = [a + b - t for t in right][::-1]
        wanted, what, split = left[:-1] + right, "two-sided geometric", len(left) - 1
    _match_times(evo.times, wanted, what)
    return _synthesize(st, tf, evo.entries, split)
