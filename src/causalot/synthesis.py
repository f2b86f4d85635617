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

Three engines serve the interval requests: :func:`synthesize_compact`
a compact interval on a dyadic mesh, :func:`synthesize_slabs` a
half-line or the full line on unit slabs, and :func:`synthesize_open` a
bounded interval with open ends on a geometric mesh accumulating at
them.  Unbounded intervals are handled at a finite horizon of unit slabs,
the outer slab lifted onto its half-line, where curves extend statically;
a deeper horizon projects exactly onto a shallower one by construction
(:func:`causalot.measures.concat_measures`).  The three engines run
through one fold path and check its result before they return: every
curve is time-affine, and every mesh marginal equals its input slice.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import InputError, PreconditionError, VerificationError
from .spacetime import GEOM_ATOL, GRID_ATOL
from .timefunc import validate as validate_tf
from .curves import Interval, _compact_curve, is_time_parametrized
from .measures import (Coupling, CurveMeasure, _evaluators, _group_indices, _regroup,
                       concat_measures, marginal_at,
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
    Only a coupling on another spacetime is checked for causality again.
    The result has one slab window, [a, b], and each of its curves is its
    own one leaf there (see :func:`causalot.measures.marginal_at`).
    """
    return _lift(st, tf, omega, a, b)


def _lift(st, tf, omega, a, b, past=False, future=False):
    """The lift onto [a, b], (-inf, b] with ``past`` or [a, +inf) with ``future``."""
    a, b = float(a), float(b)
    if a >= b:
        raise InputError(f"lift needs a < b, got [{a}, {b}]")
    if not validate_tf(st, tf):
        raise InputError("time function is not valid on this spacetime")
    domain = (Interval.past(b) if past else Interval.future(a) if future
              else Interval.compact(a, b))
    atoms = []
    for (p, q), w in omega.atoms:
        vp = tf.value(st, p)
        vq = tf.value(st, q)
        if abs(vp - a) > GEOM_ATOL:
            raise PreconditionError(f"left atom {p} not on the level set {a} (value {vp})")
        if abs(vq - b) > GEOM_ATOL:
            raise PreconditionError(f"right atom {q} not on the level set {b} (value {vq})")
        if omega.spacetime is not st and not st.causally_precedes(p, q):
            raise PreconditionError(f"non-causal coupling atom ({p}, {q})")
        if q.t <= p.t:  # a tilted time function can still increase here
            raise PreconditionError(f"degenerate coupling atom ({p}, {q}): no time passes")
        atoms.append((_compact_curve(st, tf, (p, q), a, b, domain), w))
    sigma = CurveMeasure(st, atoms)
    sigma._windows = ((a, b),)
    return sigma


def _fold_slabs(st, tf, entries, past, future):
    """Fold witness-coupling lifts over consecutive slices into one curve
    measure, the first lift onto its past half-line with ``past``, the last
    onto its future one with ``future``; each glue restricts back to the
    previous fold by :func:`causalot.measures.concat_measures`."""
    sigma = None
    for k, ((s, mu), (t, nu)) in enumerate(zip(entries, entries[1:])):
        omega, cut = _decide(st, mu, nu)
        if cut is not None:
            raise NonCausalEvolutionError(s, t, cut)
        piece = _lift(st, tf, omega, s, t, past and k == 0,
                      future and k == len(entries) - 2)
        sigma = piece if sigma is None else concat_measures(sigma, piece)
    return sigma


def _synthesize(st, tf, entries, split=None, kind=Interval.COMPACT):
    """Fold the entries into one curve measure and check its paces and mesh marginals.

    With ``split``, the entries up to and from ``entries[split]`` are folded
    separately and the two folds are glued there; ``kind`` is the interval
    kind of the result, and each unbounded end's outer slab is lifted onto
    its half-line (see ``_fold_slabs``).
    """
    past = kind in (Interval.PAST, Interval.LINE)
    future = kind in (Interval.FUTURE, Interval.LINE)
    if split is None:
        sigma = _fold_slabs(st, tf, entries, past, future)
    else:
        sigma = concat_measures(_fold_slabs(st, tf, entries[:split + 1], past, False),
                                _fold_slabs(st, tf, entries[split:], False, future))
    if sigma._affine_in is None:
        raise VerificationError(
            "synthesized curves are not time-affine: a glued slab lift leaves the "
            "first lift's time-affine law by more than GEOM_ATOL")
    for t, mu in entries:
        if not slice_measures_equal(marginal_at(sigma, t), mu):
            raise VerificationError(
                f"synthesized marginal at {t} does not match the input slice")
    return sigma


def _check_horizon(horizon):
    if not isinstance(horizon, int) or isinstance(horizon, bool):  # as for a mesh depth
        raise InputError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")


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
    return _synthesize(st, tf, evo.entries)


def synthesize_slabs(st, tf, evo: Evolution, horizon, direction="both") -> CurveMeasure:
    """Realize a causal evolution on a unit grid over a half-line or the
    full line, truncated at the given horizon of slabs.

    ``forward`` folds the first ``horizon`` slabs and returns curves on
    ``[t0, +inf)``; ``backward`` mirrors this; ``both`` folds ``horizon``
    slabs on each side of the grid time 0 and concatenates the two halves,
    returning full-line curves.  Beyond the folded window the curves
    continue statically; a deeper horizon restricts exactly to a shallower
    one (:func:`causalot.measures.concat_measures`).
    """
    _check_horizon(horizon)
    if direction not in ("forward", "backward", "both"):
        raise InputError(f"unknown direction {direction!r}")
    if evo.mesh.kind != MeshSpec.INTEGER:
        raise InputError(f"slab synthesis expects an integer grid, got {evo.mesh.kind!r}")
    evo.validate_mesh()
    times = evo.times
    if direction == "both":
        center = _grid_zero(times, "two-sided synthesis")
        max_h = min(center, len(times) - 1 - center)
        if max_h < horizon:
            raise InputError(f"grid supports horizons up to {max_h}, requested {horizon}")
        return _synthesize(st, tf, evo.entries[center - horizon:center + horizon + 1],
                           split=horizon, kind=Interval.LINE)
    if len(times) < horizon + 1:
        raise InputError(f"grid has {len(times)} times, need {horizon + 1}")
    if direction == "forward":
        return _synthesize(st, tf, evo.entries[:horizon + 1], kind=Interval.FUTURE)
    return _synthesize(st, tf, evo.entries[-(horizon + 1):], kind=Interval.PAST)


def extract_coupling(sigma: CurveMeasure, s, t) -> Coupling:
    """Pushforward of a curve measure under evaluation at an ordered pair
    of parameters: the coupling of the two evaluation marginals carried by
    the curves themselves (causal because each atom pair lies on one
    causal curve).

    Each atom is evaluated at s and at t by the curves
    :func:`causalot.measures.marginal_at` would use, each such curve once,
    and the atoms are grouped by that pair of curves, then by exactly
    equal canonical event pair; the coupling is the one of every atom
    evaluating itself, bit for bit, and its causality check still runs on
    every merged atom.
    """
    s, t = float(s), float(t)
    if s > t:
        raise InputError(f"need s <= t, got {s} > {t}")
    for tau in (s, t):
        if not sigma.domain.contains(tau, GEOM_ATOL):
            raise InputError(f"parameter {tau} outside domain {sigma.domain}")
    st_ = sigma.spacetime
    left, right = _evaluators(sigma, s), _evaluators(sigma, t)
    ps = {c: st_.canonical_event(c.at(s)) for c in dict.fromkeys(left)}
    qs = {c: st_.canonical_event(c.at(t)) for c in dict.fromkeys(right)}
    groups = _regroup(_group_indices(zip(left, right)), lambda cd: (ps[cd[0]], qs[cd[1]]))
    return Coupling(st_, [((ps[c], qs[d]), w) for c, d, (_, w) in zip(left, right, sigma.atoms)],
                    _groups=groups)


def to_time_parametrized(st, tf, sigma: CurveMeasure) -> CurveMeasure:
    """Re-type a full-line curve measure as a measure on curves along
    which the time function reads its own parameter.

    Every atom must pass the membership check; a failing atom signals a
    slice-tagging bug upstream and aborts with that atom rather than
    returning a partial result.  The checked measure is returned as it is.
    """
    if sigma.domain.kind != Interval.LINE:
        raise InputError("only full-line curve measures can be normalized")
    for c, _ in sigma.atoms:
        if not is_time_parametrized(st, tf, c):
            raise VerificationError(
                f"atom {c!r} is not parametrized by the time function "
                f"(value at 0 is {tf.value(st, c.at(0.0))}, at 1 is {tf.value(st, c.at(1.0))})")
    return sigma


# -- observer invariance --------------------------------------------------------


@dataclass
class InvarianceReport:
    ok: bool
    horizon: int
    slices_tagged: bool
    evolution_causal: bool
    rawpaths_equal: bool

    def __bool__(self):
        return self.ok

    def to_dict(self):
        return asdict(self)


def observer_invariance_report(st, tf1, tf2, evo: Evolution, horizon=None) -> InvarianceReport:
    """Synthesize an evolution under one foliation, reparametrize the
    worldline measure to a second foliation, and verify that the moved
    measure reads as a causal, correctly tagged evolution there while its
    unparametrized path multiset is untouched."""
    times = evo.times
    center = _grid_zero(times, "observer check")
    max_h = min(center, len(times) - 1 - center)
    horizon = max_h if horizon is None else horizon
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
    causal = slices_tagged and bool(check_evolution(
        st, Evolution(st, entries, time_function=tf2, mesh=MeshSpec(MeshSpec.INTEGER))))

    def path_multiset(sig):
        return sorted((tuple(st.event_key(e) for e in c.raw_path()), w)
                      for c, w in sig.atoms)

    rawpaths_equal = path_multiset(ups1) == path_multiset(moved)
    ok = slices_tagged and causal and rawpaths_equal
    return InvarianceReport(ok, horizon, slices_tagged, causal, rawpaths_equal)


# -- open bounded intervals -------------------------------------------------------


def geometric_times(a, b, n):
    """Times ``b + (a - b) / 2**i`` for i = 0..n: a geometric approach to b
    from inside [a, b)."""
    a, b = float(a), float(b)
    if a >= b:
        raise InputError(f"need a < b, got [{a}, {b}]")
    return [b + (a - b) / (1 << i) for i in range(n + 1)]


def _match_times(actual, wanted, what):
    if not _times_match(actual, wanted):
        raise InputError(f"evolution times {list(actual)} do not match the {what} "
                         f"mesh {list(wanted)}")


def synthesize_open(st, tf, evo: Evolution, a, b, horizon, side) -> CurveMeasure:
    """Realize a causal evolution on a bounded interval with open ends,
    truncated at the given horizon: ``right`` serves [a, b), ``left``
    (a, b] and ``both`` (a, b).

    The evolution's times must be the geometric mesh accumulating at each
    open end, ``horizon`` halvings deep (:func:`geometric_times`; with
    ``both`` the two halves meet at the midpoint), and the compact fold
    runs over them, split at the midpoint with ``both``.
    """
    _check_horizon(horizon)
    if side not in ("right", "left", "both"):
        raise InputError(f"unknown side {side!r}")
    iv = Interval.compact(a, b)
    a, b = iv.a, iv.b
    split = None
    if side == "right":
        wanted, what = geometric_times(a, b, horizon), "right-open"
    elif side == "left":
        wanted = [a + b - t for t in geometric_times(a, b, horizon)][::-1]
        what = "left-open"
    else:
        right = geometric_times((a + b) / 2, b, horizon)
        left = [a + b - t for t in right][::-1]
        wanted, what, split = left[:-1] + right, "two-sided geometric", len(left) - 1
    _match_times(evo.times, wanted, what)
    return _synthesize(st, tf, evo.entries, split)
