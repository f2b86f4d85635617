"""Time-affine causal curves and their exact piecewise-linear algebra.

A stored curve is piecewise geodesic: a finite list of breakpoints
``(parameter, event)`` with constant-optical-speed motion and linear
coordinate time between consecutive breakpoints.  Constructors refine
every leg at vertex crossings, so on the graph backend each stored
segment stays on a single edge.  One leg refiner (crossing times over
the ``math.fsum`` of the segment lengths) serves every constructor, the
causal geodesic and the coupling lift, so a leg gets the same events on
every route.  As a consequence the composition of any
time function of the family with a stored curve is piecewise linear with
kinks only at breakpoints, and every reparametrization below is computed
by exact piecewise-linear inversion rather than iteration.

Curves over unbounded intervals store a finite breakpoint window and
extend beyond it statically: the spatial point freezes at the window
endpoint while coordinate time keeps growing at the rate that keeps the
parametrizing time function affine along the curve.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import InputError, PreconditionError
from .spacetime import Event, GEOM_ATOL, GRID_ATOL, Spacetime
from .timefunc import TimeFunction, canonical_time, validate as validate_tf


def _endpoint(v):
    v = float(v)
    if not math.isfinite(v):
        raise InputError(f"interval endpoints must be finite, got {v}")
    return v


@dataclass(frozen=True)
class Interval:
    """Parameter domain of a curve: compact, half-line, or the full line."""

    kind: str  # "compact" | "future" | "past" | "line"
    a: float | None = None
    b: float | None = None

    COMPACT = "compact"
    FUTURE = "future"   # [a, +inf)
    PAST = "past"       # (-inf, b]
    LINE = "line"

    @classmethod
    def compact(cls, a, b):
        a, b = float(a), float(b)
        # one chained comparison, which also fails on a NaN or infinite
        # endpoint; _endpoint then names it
        if not -math.inf < a <= b < math.inf:
            _endpoint(a)
            _endpoint(b)
            raise InputError(f"compact interval needs a <= b, got [{a}, {b}]")
        return cls(cls.COMPACT, a, b)

    @classmethod
    def future(cls, a):
        return cls(cls.FUTURE, _endpoint(a), None)

    @classmethod
    def past(cls, b):
        return cls(cls.PAST, None, _endpoint(b))

    @classmethod
    def line(cls):
        return cls(cls.LINE, None, None)

    def contains(self, tau, tol=0.0):
        if self.kind == self.COMPACT:
            return self.a - tol <= tau <= self.b + tol
        if self.kind == self.FUTURE:
            return tau >= self.a - tol
        if self.kind == self.PAST:
            return tau <= self.b + tol
        return True

    def __str__(self):
        return {
            self.COMPACT: f"[{self.a}, {self.b}]",
            self.FUTURE: f"[{self.a}, +inf)",
            self.PAST: f"(-inf, {self.b}]",
            self.LINE: "R",
        }[self.kind]


class RawPath:
    """An unparametrized causal path: events p0 < p1 < ... with geodesic
    interpolation, plus optional static-extension flags at either end."""

    def __init__(self, st: Spacetime, events, extend_past=False, extend_future=False):
        events = tuple(st.event(e.t, e.x) for e in events)
        if not events:
            raise InputError("a path needs at least one event")
        for p, q in zip(events, events[1:]):
            if q.t <= p.t:
                raise InputError(f"path events out of time order: {p} then {q}")
            if not st.causally_precedes(p, q):
                raise InputError(f"consecutive path events not causally related: {p}, {q}")
        self.spacetime = st
        self.events = events
        self.extend_past = bool(extend_past)
        self.extend_future = bool(extend_future)


def _refine_leg(st, e1, e2):
    """Interior events of the leg e1 -> e2 at vertex crossings.

    The leg runs along the deterministic shortest track at constant
    optical speed with linear coordinate time; returned events exclude
    both endpoints.
    """
    track = st.geodesic_track(e1.x, e2.x)
    if len(track) <= 2:
        return []
    lengths = [st.segment_length(track[i], track[i + 1]) for i in range(len(track) - 1)]
    total = math.fsum(lengths)
    out = []
    run = 0.0
    for i in range(1, len(track) - 1):
        run += lengths[i - 1]
        frac = run / total
        out.append(Event(e1.t + frac * (e2.t - e1.t), track[i]))
    return out


def _materialize(st, events):
    """Refined event chain of a path: inputs plus all vertex crossings."""
    chain = [events[0]]
    for e1, e2 in zip(events, events[1:]):
        chain.extend(_refine_leg(st, e1, e2))
        chain.append(e2)
    return chain


class CausalCurve:
    """Piecewise-geodesic causal curve over an interval.

    ``pace`` is the constant rate at which ``time_function`` increases
    along the curve; ``pace is None`` flags a curve that is not
    time-affine (such curves still support evaluation, restriction and
    causality checks, but not reparametrization).

    ``_leaves`` holds, for a curve that ``concat`` glued, the curves it was
    glued from, one per slab window (the pieces' own leaves, laid end to
    end): on its window each leaf has exactly this curve's breakpoints.
    An empty tuple stands for the curve itself, its own one leaf (a tuple
    holding the curve would be a reference cycle), and None for a glued
    curve whose pieces did not meet at one parameter and one event object.
    """

    def __init__(self, st, domain, breakpoints, pace=None, time_function=None,
                 _pieces=None):
        self.spacetime = st
        self.domain = domain
        self.pace = None if pace is None else float(pace)
        self.time_function = time_function
        if _pieces is None:
            self.breakpoints = tuple((float(tau), e) for tau, e in breakpoints)
            self._params = tuple(tau for tau, _ in self.breakpoints)
        else:  # concat's breakpoints, joined from the pieces' own
            self.breakpoints = breakpoints
            self._params = _pieces[0]._params + _pieces[1]._params[1:]
        self._key = None
        self._leaves = ()
        self._validate(_pieces)

    # -- construction and validation ----------------------------------------

    def _validate(self, pieces):
        """Check the breakpoints, the domain and the time-affinity.

        ``pieces`` is None, or the pair of curves that ``concat`` joins into
        this one.  The consecutive-breakpoint checks then run on the
        junction pair alone, because every other pair is a pair of one piece
        and passed them when that piece was built.  Affinity is checked from
        the junction on against this curve's own first breakpoint and pace,
        on the time values the pieces cached (``_values``, one per
        breakpoint, kept by every time-affine curve).
        """
        st = self.spacetime
        if not self.breakpoints:
            raise InputError("a curve needs at least one breakpoint")
        start = 0 if pieces is None else len(pieces[0].breakpoints) - 1
        tail = self.breakpoints[start:]
        pairs = tail if pieces is None else tail[:2]
        for (s, p), (t, q) in zip(pairs, pairs[1:]):
            if t <= s:
                raise InputError(f"breakpoint parameters must increase: {s} then {t}")
            if q.t <= p.t:
                raise InputError(f"coordinate time must increase: {p} then {q}")
            # ensures evaluation is well defined on the graph backend
            st.segment_length(p.x, q.x)
        lo, hi = self._params[0], self._params[-1]
        if self.domain.kind == Interval.COMPACT:
            if abs(lo - self.domain.a) > GRID_ATOL or abs(hi - self.domain.b) > GRID_ATOL:
                raise InputError(
                    f"compact curve breakpoints [{lo}, {hi}] must span the domain {self.domain}")
        elif self.domain.kind == Interval.FUTURE:
            if abs(lo - self.domain.a) > GRID_ATOL:
                raise InputError("half-line curve must start at the domain endpoint")
        elif self.domain.kind == Interval.PAST:
            if abs(hi - self.domain.b) > GRID_ATOL:
                raise InputError("half-line curve must end at the domain endpoint")
        if self.pace is not None:
            if not 0 < self.pace < math.inf:  # False for NaN
                raise InputError(f"pace must be positive and finite, got {self.pace}")
            tf = self.time_function or canonical_time()
            if pieces is None:
                values = tuple(tf.value(st, e) for _, e in self.breakpoints)
            else:
                c1, c2 = pieces
                right = c2._values if c2.time_function is c1.time_function else tuple(
                    tf.value(st, e) for _, e in c2.breakpoints)
                values = c1._values + right[1:]
            v0 = values[0]
            t0 = self._params[0]
            for (tau, e), v in zip(tail, values[start:]):
                expected = v0 + self.pace * (tau - t0)
                if abs(v - expected) > GEOM_ATOL:
                    if pieces is not None:
                        self.pace = self.time_function = None
                        return
                    raise InputError(
                        f"breakpoint {e} at parameter {tau} violates time-affinity "
                        f"(value {v}, expected {expected})")
            self._values = values

    @classmethod
    def from_breakpoints(cls, st, domain, breakpoints, time_function=None):
        """Build a curve from (parameter, event) pairs, refining every leg
        at vertex crossings.  When a time function is given, the pace is
        computed from the endpoints and affinity is verified; otherwise the
        curve is stored as non-affine."""
        pts = [(float(tau), st.event(e.t, e.x)) for tau, e in breakpoints]
        refined = [pts[0]]
        for (s, p), (t, q) in zip(pts, pts[1:]):
            for e in _refine_leg(st, p, q):
                frac = (e.t - p.t) / (q.t - p.t)
                refined.append((s + frac * (t - s), e))
            refined.append((t, q))
        pace = None
        if time_function is not None and len(refined) >= 2:
            v0 = time_function.value(st, refined[0][1])
            v1 = time_function.value(st, refined[-1][1])
            pace = (v1 - v0) / (refined[-1][0] - refined[0][0])
        elif time_function is not None:
            pace = 1.0
        return cls(st, domain, refined, pace=pace, time_function=time_function)

    # -- basic geometry -------------------------------------------------------

    @property
    def window(self):
        """Parameter span covered by stored breakpoints."""
        return self._params[0], self._params[-1]

    def _ext_slope(self, forward):
        if self.pace is not None:
            return self.pace
        if len(self.breakpoints) < 2:
            return 1.0
        if forward:
            (s, p), (t, q) = self.breakpoints[-2], self.breakpoints[-1]
        else:
            (s, p), (t, q) = self.breakpoints[0], self.breakpoints[1]
        return (q.t - p.t) / (t - s)

    def at(self, tau):
        """Event at parameter ``tau`` (domain-checked)."""
        tau = float(tau)
        params = self._params
        if params[0] < tau < params[-1]:  # inside the breakpoints, so inside the domain
            i = bisect_left(params, tau)
            if params[i] == tau:
                return self.breakpoints[i][1]
            (s, p), (t, q) = self.breakpoints[i - 1], self.breakpoints[i]
            frac = (tau - s) / (t - s)
            return Event(p.t + frac * (q.t - p.t),
                         self.spacetime.point_on_segment(p.x, q.x, frac))
        if not self.domain.contains(tau, GEOM_ATOL):
            raise InputError(f"parameter {tau} outside domain {self.domain}")
        if tau <= params[0]:
            t0, e0 = self.breakpoints[0]
            if tau == t0 or self.domain.kind == Interval.COMPACT:
                return e0
            return Event(e0.t + self._ext_slope(False) * (tau - t0), e0.x)
        t1, e1 = self.breakpoints[-1]
        if tau == t1 or self.domain.kind == Interval.COMPACT:
            return e1
        return Event(e1.t + self._ext_slope(True) * (tau - t1), e1.x)

    def raw_path(self):
        """Ordered breakpoint events (the parametrization forgotten)."""
        return tuple(e for _, e in self.breakpoints)

    def restrict(self, a, b):
        """Restriction to the compact interval [a, b] of the domain."""
        a, b = float(a), float(b)
        if a > b:
            raise InputError(f"restriction needs a <= b, got [{a}, {b}]")
        if not (self.domain.contains(a, GEOM_ATOL) and self.domain.contains(b, GEOM_ATOL)):
            raise InputError(f"[{a}, {b}] not contained in domain {self.domain}")
        if a == b:
            return CausalCurve(self.spacetime, Interval.compact(a, b),
                               ((a, self.at(a)),), pace=self.pace,
                               time_function=self.time_function)
        pts = [(a, self.at(a))]
        for tau, e in self.breakpoints:
            if a < tau < b:
                pts.append((tau, e))
        pts.append((b, self.at(b)))
        return CausalCurve(self.spacetime, Interval.compact(a, b), pts,
                           pace=self.pace, time_function=self.time_function)

    def sort_key(self):
        """The merge order of curves: domain kind, breakpoint count, then
        the breakpoints' (parameter, event key) tuples; computed once."""
        if self._key is None:
            st = self.spacetime
            self._key = (self.domain.kind, len(self.breakpoints),
                         tuple((tau,) + st.event_key(e) for tau, e in self.breakpoints))
        return self._key

    def __repr__(self):
        lo, hi = self.window
        return (f"CausalCurve({self.domain}, {len(self.breakpoints)} breakpoints "
                f"on [{lo}, {hi}], pace={self.pace})")


def curves_close(c1: CausalCurve, c2: CausalCurve):
    """Structural equality of two curves within ``GEOM_ATOL``."""
    if c1.domain.kind != c2.domain.kind:
        return False
    if len(c1.breakpoints) != len(c2.breakpoints):
        return False
    st = c1.spacetime
    for (s, p), (t, q) in zip(c1.breakpoints, c2.breakpoints):
        if abs(s - t) > GEOM_ATOL or (p is not q and not st.events_close(p, q)):
            return False
    if c1.pace is None or c2.pace is None:
        return c1.pace is c2.pace
    return abs(c1.pace - c2.pace) <= GEOM_ATOL


# -- canonical parametrization ----------------------------------------------


def _increasing_chain(st, tf, events):
    """The refined chain of a path and the values of ``tf`` along it,
    which must strictly increase."""
    chain = _materialize(st, events)
    values = [tf.value(st, e) for e in chain]
    for v, w in zip(values, values[1:]):
        if w <= v:
            raise PreconditionError(
                "time function does not strictly increase along the path")
    return chain, values


def _compact_curve(st, tf, events, a, b, domain):
    """The body of ``canonicalize_compact`` (``a < b``, ``tf`` valid) over
    ``domain``, [a, b] or a half-line beyond it: one refinement, one curve."""
    chain, values = _increasing_chain(st, tf, events)
    if len(chain) < 2:
        raise PreconditionError("degenerate path: a single event cannot span [a, b]")
    span = values[-1] - values[0]
    pace = span / (b - a)
    pts = [(a, chain[0])]
    for e, v in zip(chain[1:-1], values[1:-1]):
        pts.append((a + (b - a) * (v - values[0]) / span, e))
    pts.append((b, chain[-1]))
    return CausalCurve(st, domain, pts, pace=pace, time_function=tf)


def canonicalize_compact(st, tf: TimeFunction, path: RawPath, a, b) -> CausalCurve:
    """The unique parametrization of a compact path on [a, b] along which
    ``tf`` increases at a constant pace.

    The parameter t is mapped to the path point whose ``tf``-value equals
    ``tf(p0) + (t - a)/(b - a) * (tf(pk) - tf(p0))``; the construction is
    idempotent on already-affine curves.
    """
    a, b = float(a), float(b)
    if a >= b:
        raise InputError(f"target interval needs a < b, got [{a}, {b}]")
    if not validate_tf(st, tf):
        raise InputError("time function is not valid on this spacetime")
    return _compact_curve(st, tf, path.events, a, b, Interval.compact(a, b))


def canonicalize_noncompact(st, tf: TimeFunction, path: RawPath, request: Interval,
                            rate=1.0, shift=0.0) -> CausalCurve:
    """Parametrize a path with declared end behavior over a noncompact
    interval so that ``tf`` increases at constant pace.

    The admissible interval kind is dictated by whether the ``tf``-values
    along the path are bounded toward each end (static extensions make
    them unbounded).  Bounded/bounded paths go to compact intervals where
    the pace is forced; every unbounded case leaves an affine freedom,
    fixed here by ``rate`` (the pace) and, on the full line, ``shift``.
    """
    if not validate_tf(st, tf):
        raise InputError("time function is not valid on this spacetime")
    rate = float(rate)
    if rate <= 0:
        raise InputError(f"rate must be positive, got {rate}")
    lower_unbounded = path.extend_past
    upper_unbounded = path.extend_future
    expected = {
        (False, False): Interval.COMPACT,
        (False, True): Interval.FUTURE,
        (True, False): Interval.PAST,
        (True, True): Interval.LINE,
    }[(lower_unbounded, upper_unbounded)]
    if request.kind != expected:
        low = "-inf" if lower_unbounded else "finite"
        high = "+inf" if upper_unbounded else "finite"
        raise InputError(
            f"path with time-function range ({low}, {high}) parametrizes over a "
            f"{expected} interval, not {request}")
    if request.kind == Interval.COMPACT:
        return canonicalize_compact(st, tf, path, request.a, request.b)
    chain, values = _increasing_chain(st, tf, path.events)
    if request.kind == Interval.FUTURE:
        anchor_param, anchor_value = request.a, values[0]
    elif request.kind == Interval.PAST:
        anchor_param, anchor_value = request.b, values[-1]
    else:
        anchor_param, anchor_value = 0.0, float(shift)
    pts = [(anchor_param + (v - anchor_value) / rate, e) for e, v in zip(chain, values)]
    return CausalCurve(st, request, pts, pace=rate, time_function=tf)


# -- reparametrization by a second time function ------------------------------


def reparametrize(st, curve: CausalCurve, tf1: TimeFunction, tf2: TimeFunction) -> CausalCurve:
    """Reparametrize a full-line ``tf1``-affine curve so that it becomes
    ``tf2``-affine, without moving its path.

    The new parameter value of each breakpoint is the solution of
    ``tf1(curve(s)) = tf2(event)``, computed exactly on the piecewise
    linear representation.  The resulting curve traces the same events,
    has the same pace, and satisfies ``tf2(result(s)) = tf1(curve(s))``
    for every s; these postconditions are asserted before returning.
    """
    if curve.domain.kind != Interval.LINE:
        raise InputError(
            "reparametrize needs a full-line curve; canonicalize compact paths instead")
    if curve.pace is None:
        raise InputError("curve is not time-affine")
    if not validate_tf(st, tf1) or not validate_tf(st, tf2):
        raise InputError("both time functions must be valid")
    base_tf = curve.time_function or canonical_time()
    if not base_tf.same_as(tf1):
        raise InputError("curve is not parametrized by the given source time function")
    tau0, e0 = curve.breakpoints[0]
    w0 = tf1.value(st, e0)
    pace = curve.pace
    pts = [(tau0 + (tf2.value(st, e) - w0) / pace, e) for _, e in curve.breakpoints]
    # Constructing with the new time function asserts tf2-affinity at the
    # same pace, which is exactly the identity tf2(result(s)) = tf1(curve(s)).
    out = CausalCurve(st, Interval.line(), pts, pace=pace, time_function=tf2)
    assert out.raw_path() == curve.raw_path()
    return out


# -- concatenation -------------------------------------------------------------


def concat(c1: CausalCurve, c2: CausalCurve) -> CausalCurve:
    """Concatenate two curves meeting at the junction parameter.

    The result restricts exactly to the two inputs.  Its validation checks
    what the pieces' own did not: the junction pair, and, when both pieces
    are affine in one time function, affinity from the junction on against
    c1's first breakpoint and pace (see ``CausalCurve._validate``).  A glue
    that passes keeps c1's pace; any other is stored as non-affine.

    The result records its pieces' leaves, c1's then c2's, when both have
    leaves and the pieces meet at one parameter and at one event object.
    Inside c2's first window the glued curve then runs from c2's own first
    breakpoint, as that leaf does; pieces that meet at two event objects,
    equal or merged within tolerance, leave the junction from c1's event
    instead, and the result has no leaves (None).
    """
    st = c1.spacetime
    if c1.domain.kind not in (Interval.COMPACT, Interval.PAST):
        raise InputError(f"left curve must be bounded above, got {c1.domain}")
    if c2.domain.kind not in (Interval.COMPACT, Interval.FUTURE):
        raise InputError(f"right curve must be bounded below, got {c2.domain}")
    b1 = c1.domain.b
    b2 = c2.domain.a
    if abs(b1 - b2) > GEOM_ATOL:
        raise InputError(f"domains do not meet: {c1.domain} then {c2.domain}")
    e1 = c1.breakpoints[-1][1]
    e2 = c2.breakpoints[0][1]
    if not st.events_close(e1, e2):
        raise InputError(f"endpoint mismatch at junction: {e1} vs {e2}")
    pts = c1.breakpoints + c2.breakpoints[1:]
    left_open = c1.domain.kind == Interval.PAST
    right_open = c2.domain.kind == Interval.FUTURE
    if left_open and right_open:
        domain = Interval.line()
    elif left_open:
        domain = Interval.past(c2.domain.b)
    elif right_open:
        domain = Interval.future(c1.domain.a)
    else:
        domain = Interval.compact(c1.domain.a, c2.domain.b)
    pace = None
    tf = None
    if c1.pace is not None and c2.pace is not None:
        tf1 = c1.time_function or canonical_time()
        tf2 = c2.time_function or canonical_time()
        if tf1.same_as(tf2):
            pace = c1.pace
            tf = c1.time_function
    out = CausalCurve(st, domain, pts, pace=pace, time_function=tf, _pieces=(c1, c2))
    # the pieces' keys share their breakpoint tuples with the glued key
    out._key = (domain.kind, len(pts), c1.sort_key()[2] + c2.sort_key()[2][1:])
    if (c1._leaves is not None and c2._leaves is not None
            and c1._params[-1] == c2._params[0] and e1 is e2):
        out._leaves = (c1._leaves or (c1,)) + (c2._leaves or (c2,))
    else:
        out._leaves = None
    return out


# -- verification ---------------------------------------------------------------


@dataclass
class CausalityReport:
    ok: bool
    violations: tuple  # (s, t, event_s, event_t)

    def __bool__(self):
        return self.ok


def verify_causal(st, curve: CausalCurve, samples=8) -> CausalityReport:
    """Check that the curve is future-directed causal: every ordered pair
    among the breakpoints plus ``samples`` uniform parameters must be
    causally related.  For the piecewise-geodesic representation with
    subluminal segments this is sound and complete; sampling guards
    representation bugs."""
    if samples < 2:
        raise InputError("need at least 2 samples")
    lo, hi = curve.window
    params = set(curve._params)
    if hi > lo:
        params.update(lo + (hi - lo) * i / (samples - 1) for i in range(samples))
    ordered = sorted(params)
    events = [curve.at(tau) for tau in ordered]
    violations = []
    for i in range(len(ordered)):
        for j in range(i, len(ordered)):
            if not st.causally_precedes(events[i], events[j]):
                violations.append((ordered[i], ordered[j], events[i], events[j]))
    return CausalityReport(not violations, tuple(violations))


def is_time_parametrized(st, tf: TimeFunction, curve: CausalCurve):
    """True iff the time function reads its own parameter along the whole
    curve, checked through the values at parameters 0 and 1 (sufficient by
    affinity)."""
    if curve.domain.kind != Interval.LINE:
        raise InputError("membership is defined for full-line curves only")
    return all(abs(tf.value(st, curve.at(s)) - s) <= GEOM_ATOL for s in (0.0, 1.0))


# -- bi-Lipschitz envelopes ------------------------------------------------------


@dataclass
class BiLipschitzReport:
    """Empirical parameter-to-distance ratios for a curve family against
    their analytic envelopes."""

    pace_min: float
    pace_max: float
    dw_ratio_min: float
    dw_ratio_max: float
    t2_ratio_min: float
    t2_ratio_max: float
    dw_lower: float
    dw_upper: float
    t2_lower: float
    t2_upper: float
    pairs: int

    def within(self, tol=0.0):
        if not 0.0 <= tol < math.inf:
            raise InputError(f"slack must be finite and nonnegative, got {tol!r}")
        slack = lambda env: tol * max(1.0, abs(env)) + 1e-15 * max(1.0, abs(env))
        return (self.dw_ratio_min >= self.dw_lower - slack(self.dw_lower)
                and self.dw_ratio_max <= self.dw_upper + slack(self.dw_upper)
                and self.t2_ratio_min >= self.t2_lower - slack(self.t2_lower)
                and self.t2_ratio_max <= self.t2_upper + slack(self.t2_upper))

    def to_dict(self):
        return dict(self.__dict__)


def _direction_slopes(st, tf1, tf2):
    """Pairs (s1, s2) of spatial slopes of the two time functions along
    each oriented travel direction."""
    if st.backend == Spacetime.MINKOWSKI:
        k1 = tf1.slope or 0.0
        k2 = tf2.slope or 0.0
        return [(k1, k2), (-k1, -k2)]
    out = []
    for (a, b), length in sorted(st.edges.items()):
        s1 = (tf1.spatial_part(st, b) - tf1.spatial_part(st, a)) / length
        s2 = (tf2.spatial_part(st, b) - tf2.spatial_part(st, a)) / length
        out.append((s1, s2))
        out.append((-s1, -s2))
    return out


def bilipschitz_report(st, tf2: TimeFunction, curves, a, b, samples=7) -> BiLipschitzReport:
    """Empirical bi-Lipschitz constants of a time-affine curve family on
    [a, b], against the analytic envelopes.

    Two ratio families are measured over sampled parameter pairs: the
    Riemannian displacement per unit parameter, and the increment of a
    second time function per unit parameter.  The envelopes follow from
    the pace bounds of the family, the causal speed limit, and the slopes
    of the two foliations; the reported family must share one
    parametrizing time function.
    """
    if not curves:
        raise InputError("empty curve family")
    if samples < 2:
        raise InputError("need at least 2 samples")
    a, b = float(a), float(b)
    if a >= b:
        raise InputError(f"window needs a < b, got [{a}, {b}]")
    tf1 = curves[0].time_function or canonical_time()
    paces = []
    for c in curves:
        if c.pace is None:
            raise InputError("family must consist of time-affine curves")
        if not (c.time_function or canonical_time()).same_as(tf1):
            raise InputError("family must share one parametrizing time function")
        if not (c.domain.contains(a) and c.domain.contains(b)):
            raise InputError(f"curve domain {c.domain} does not contain [{a}, {b}]")
        paces.append(c.pace)
    pace_min, pace_max = min(paces), max(paces)
    ua = st.u * st.alpha
    lip1 = tf1.lipschitz(st)
    lip2 = tf2.lipschitz(st)
    # Along a tf1-affine causal curve the coordinate-time rate is at most
    # pace / (1 - lip1) (equality at light speed against the tilt), and the
    # Riemannian speed is at most sqrt(2 u alpha) times that rate; for the
    # canonical foliation the factor collapses to the classical constant.
    dw_lower = pace_min * math.sqrt(ua) / math.sqrt(1.0 + lip1 * lip1)
    dw_upper = pace_max * math.sqrt(2.0 * ua) / (1.0 - lip1)
    gain = min((1.0 - s2) / (1.0 - s1) for s1, s2 in _direction_slopes(st, tf1, tf2))
    t2_lower = pace_min * min(gain, 1.0)
    t2_upper = math.sqrt(1.0 + lip2 * lip2) / math.sqrt(ua) * dw_upper

    dw_lo, dw_hi = math.inf, -math.inf
    t2_lo, t2_hi = math.inf, -math.inf
    pairs = 0
    for c in curves:
        params = {tau for tau in c._params if a <= tau <= b}
        params.update(a + (b - a) * i / (samples - 1) for i in range(samples))
        ordered = sorted(params)
        events = [c.at(tau) for tau in ordered]
        t2values = [tf2.value(st, e) for e in events]
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                dt = ordered[j] - ordered[i]
                if dt <= 0:
                    continue
                r_dw = st.riemannian_distance(events[i], events[j]) / dt
                r_t2 = abs(t2values[j] - t2values[i]) / dt
                dw_lo, dw_hi = min(dw_lo, r_dw), max(dw_hi, r_dw)
                t2_lo, t2_hi = min(t2_lo, r_t2), max(t2_hi, r_t2)
                pairs += 1
    return BiLipschitzReport(pace_min, pace_max, dw_lo, dw_hi, t2_lo, t2_hi,
                             dw_lower, dw_upper, t2_lower, t2_upper, pairs)
