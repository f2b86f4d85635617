"""Finitely supported probability measures on events and on curves.

All measures are finite lists of (atom, weight) pairs with weights
summing to one.  One function, ``_merge``, decides both for every
measure: atom identity is structural equality at ``GEOM_ATOL`` (1e-9),
equal atoms are merged by weight addition (compensated summation
throughout), and the total must lie within ``MASS_ATOL`` (1e-12) of one
(``_weights``); each constructor calls it once.  The one exception is a
decision's witness coupling, built by ``Coupling._trusted`` from atoms
that the merge would leave as they are, which checks the weights alone.
Every comparison of atoms or weights
reads those two constants, with no per-call override.  Disintegration is
exact discrete conditioning, and the concatenation of two curve measures
over a shared junction marginal is the finite sum of fiberwise product
measures pushed through curve concatenation.  Conditioning, concatenation and the
composition of couplings (:func:`causalot.coupling.compose_couplings`)
read one fiber rule, the merge's own: a junction atom's fiber is the
inputs merged into it, which a slice measure keeps, so the fibers
partition the inputs.

Cost model, for N (atom, weight) pairs with D distinct atoms: a
constructor passes events with a float time and a canonical point (a
finite float, a known vertex id or an edge-interior triple) through
unchanged and normalizes the others
(:meth:`causalot.spacetime.Spacetime.canonical_event`), groups exactly
equal atoms in O(N), and sorts and merges only the D distinct ones, in
O(D log D); only the member lists of merged distinct atoms are sorted.
A curve measure built by a coupling lift, onto its slab or the half-line
beyond it, or by :func:`concat_measures` keeps its ordered slab windows
(``_windows``), and each glued curve keeps the lifted curves it was
glued from, one per window (``_leaves``, see
:func:`causalot.curves.concat`).  An evaluation pushforward at a time in
a window evaluates each atom by its leaf there, so with L distinct
leaves it costs O(N) dictionary steps plus L evaluations; at any other
time, on any other measure, or for a curve without leaves, an atom
evaluates itself.  Either way it computes a time value once per
distinct event, and its fibers cost no closeness test.  A glued curve
checks only what its pieces did not (:func:`causalot.curves.concat`):
the junction pair, and affinity from the junction on, against its own
anchor, on time values the pieces cached; its sort key joins the pieces'
keys.  So each fold step checks the new slab, not the whole grown curve
again.

The 1-Wasserstein distance between slice measures takes one of two exact
routes.  Between two Minkowski time slices the cost is a convex function
of the spatial displacement, so the monotone coupling is optimal
(McCann's condition) and W1 is a closed-form sum; everything else is an
exact primal-dual transport on the integer instance that also decides
causal precedence (``coupling._Instance``).
"""

from __future__ import annotations

import math
import struct
from itertools import accumulate

from .errors import InputError, PreconditionError
from .spacetime import GEOM_ATOL, _dyadic_ints
from .curves import concat, curves_close, reparametrize
from .timefunc import canonical_time

MASS_ATOL = 1e-12

# The most curves one concat_measures may build.  A glued curve holds its
# breakpoints, their time values and its sort key: 1.1 to 1.5 KB at 9 to 13
# breakpoints (tracemalloc, two-sided synthesis on the benchmark's
# generator), where 23,266 curves take about 1 s.  So the cap holds one
# glue near 150 MB and a few seconds.  The largest glue of the bundled
# scenarios, the tests and the benchmark builds 1,581 curves; that
# generator asks for 88,000 at a horizon of 7 slabs per side and 335,000
# at 8, which is refused.
MAX_GLUED_CURVES = 100_000


def _merge(items, key, close, groups=None):
    """Merge (atom, weight) pairs into a probability measure's atoms, sorted
    by key: the one rule for atom identity, with :func:`_weights` the one
    rule for unit mass.

    Exactly equal atoms are grouped first: events and event pairs by value,
    curves by identity.  ``groups``, when given, is that grouping already
    made (an evaluation pushforward's): each distinct atom, in the order of
    its first pair, mapped to the increasing indices of the pairs equal to
    it.  The sort and the merge of neighbours that ``close(a, b)`` accepts
    at ``GEOM_ATOL`` then run over the distinct atoms.  Returns
    ``(atoms, members)``: ``members[n]`` lists, in increasing order, the
    indices of the pairs merged into ``atoms[n]``.

    ``key`` is total (``point_key``, ``CausalCurve.sort_key``): unequal
    atoms get unequal keys, so the sorted order, and with it the atoms by
    value and their weights, does not depend on the order of ``items``.
    Which object stands for a group is the first listed: of events equal
    by value (x = 0.0 and -0.0), or of curves that differ only in their
    time function, which is not in the key.
    """
    items = list(items)
    if groups is None:
        groups = _group_indices([atom for atom, _ in items])
    atoms, members, joined = [], [], set()
    for atom, idx in sorted(groups.items(), key=lambda ai: key(ai[0])):
        if atoms and close(atoms[-1], atom):
            members[-1].extend(idx)
            joined.add(len(members) - 1)
        else:
            atoms.append(atom)
            members.append(idx)
    for n in joined:
        members[n].sort()
    return tuple(zip(atoms, _weights(items, key, members))), members


def _weights(items, key, members=None):
    """The weights of a measure's atoms from its (atom, weight) pairs, under
    the one unit-mass rule: a non-positive weight is refused first, then a
    total farther than ``MASS_ATOL`` from one.  Each atom weighs the
    ``math.fsum`` of its ``members``' weights, which does not depend on
    their order; without ``members`` each pair is its own atom.
    """
    # the error names the first non-positive or NaN weight by atom key, then
    # weight in IEEE total order, then atom text: the same in every order
    bad = [aw for aw in items if not aw[1] > 0]
    if bad:
        atom, w = min(bad, key=lambda aw: (key(aw[0]), _total_order(aw[1]), repr(aw[0])))
        raise InputError(f"weights must be positive, got {w} at {atom!r}")
    if members is None:
        weights = [w for _, w in items]
    else:
        # a single weight is its own fsum
        weights = [math.fsum([items[i][1] for i in idx]) if len(idx) > 1 else items[idx[0]][1]
                   for idx in members]
    total = math.fsum(weights)
    if abs(total - 1.0) > MASS_ATOL:
        raise InputError(f"weights must sum to 1 within {MASS_ATOL}, got {total!r}")
    return weights


def _total_order(w):
    """The IEEE 754 total order of floats as an integer key."""
    bits = struct.unpack("<q", struct.pack("<d", w))[0]
    return bits ^ 0x7FFFFFFFFFFFFFFF if bits < 0 else bits


def _refuse_least(st, events):
    """Raise the refusal of the event least by its text (``repr``, then the
    message) among those that ``st.canonical_event`` refuses, so that a
    measure names the same malformed point in every order of its atoms.
    Called once a refusal was met: valid atoms never pay for the search."""
    refusals = []
    for e in events:
        try:
            st.canonical_event(e)
        except InputError as err:
            refusals.append((repr(e), str(err)))
    raise InputError(min(refusals)[1]) from None


class SliceMeasure:
    """Probability measure on events, optionally tagged as living on a
    level set of a time function."""

    def __init__(self, st, atoms, time_function=None, tau=None, _groups=None):
        # ``_groups``, from an evaluation pushforward, groups atoms that are
        # canonical events already (see ``_merge``)
        self.spacetime = st
        if _groups is None:
            atoms = list(atoms)
            try:
                atoms = [(st.canonical_event(e), float(w)) for e, w in atoms]
            except InputError:
                _refuse_least(st, [e for e, _ in atoms])
        self.atoms, self._members = _merge(atoms, st.event_key, st.events_close, _groups)
        self.time_function = time_function
        self.tau = None if tau is None else float(tau)
        if self.tau is not None:
            if not math.isfinite(self.tau):
                raise InputError(f"level-set time tau={self.tau} is not finite")
            tf = time_function or canonical_time()
            for e, _ in self.atoms:
                v = tf.value(st, e)
                if not abs(v - self.tau) <= GEOM_ATOL:
                    raise InputError(
                        f"atom {e} has time value {v}, not on the level set {self.tau}")

    def weight_of(self, event):
        close = self.spacetime.events_close
        return next((w for e, w in self.atoms if close(e, event)), 0.0)

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return f"SliceMeasure({len(self.atoms)} atoms, tau={self.tau})"


def _evaluators(sigma, t):
    """Per atom, the curve that evaluates it at t: its leaf on the window of
    ``sigma._windows`` that holds t (at a junction, the left one), when it
    has leaves; otherwise the atom itself."""
    for k, (a, b) in enumerate(sigma._windows or ()):
        if a <= t <= b:
            return [c._leaves[k] if c._leaves else c for c, _ in sigma.atoms]
    return [c for c, _ in sigma.atoms]


def _group_indices(keys):
    """The indices of ``keys`` by key: ``{key: increasing indices}``, in
    first-seen order."""
    out = {}
    for n, key in enumerate(keys):
        out.setdefault(key, []).append(n)
    return out


def _regroup(fibers, value):
    """Join the index lists of ``fibers`` whose ``value(key)`` is exactly
    equal, in first-seen order, each joined list sorted: the grouping that
    ``_merge`` computes for pairs of those values."""
    groups, joined = {}, set()
    for key, idx in fibers.items():
        v = value(key)
        group = groups.setdefault(v, idx)
        if group is not idx:
            group.extend(idx)
            joined.add(v)
    for v in joined:
        groups[v].sort()
    return groups


class CurveMeasure:
    """Probability measure on curves sharing one parameter domain."""

    def __init__(self, st, atoms):
        atoms = tuple((c, float(w)) for c, w in atoms)
        if not atoms:
            raise InputError("a curve measure needs at least one atom")
        domain = atoms[0][0].domain
        for c, _ in atoms:
            if c.domain != domain:
                raise InputError(
                    f"atom domains differ: {c.domain} vs {domain}")
        self.spacetime = st
        self.domain = domain
        self.atoms = _merge(atoms, lambda c: c.sort_key(), curves_close)[0]
        # set by the builders of glued measures: the ordered slab windows
        # (a, b) of the atoms' leaves (see _evaluators)
        self._windows = None
        self._affine = False  # not computed yet (see _affine_in)

    @property
    def _affine_in(self):
        """The time function every atom is affine in, the first atom's
        (canonical time when it names none), or None when some atom is not;
        computed once."""
        if self._affine is False:
            tf = self.atoms[0][0].time_function or canonical_time()
            affine = all(c.pace is not None
                         and (c.time_function or canonical_time()).same_as(tf)
                         for c, _ in self.atoms)
            self._affine = tf if affine else None
        return self._affine

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return f"CurveMeasure({len(self.atoms)} atoms on {self.domain})"


def _pair_key(st):
    """The sort key of event pairs, ``event_key(p) + event_key(q)``: total,
    as event keys are, and decided on p's key unless p's keys are equal
    (see :meth:`causalot.spacetime.Spacetime.point_key`)."""
    event_key = st.event_key
    return lambda pq: event_key(pq[0]) + event_key(pq[1])


class Coupling:
    """Joint measure on event pairs, whose marginals are read off its
    atoms; every atom pair must be causally related.

    The constructor canonicalizes, merges (``_merge``) and checks the
    causality of every atom.  A decision's witness
    (:func:`causalot.coupling._decide`) is built instead by
    :meth:`_trusted`, which checks only the weights: what else the
    constructor checks holds by construction there.
    """

    def __init__(self, st, atoms, _groups=None):
        # ``_groups`` as in SliceMeasure: pairs of canonical events, grouped
        key = _pair_key(st)
        close = lambda a, b: st.events_close(a[0], b[0]) and st.events_close(a[1], b[1])
        self.spacetime = st
        if _groups is None:
            event = st.canonical_event
            atoms = list(atoms)
            try:
                atoms = [((event(p), event(q)), float(w)) for (p, q), w in atoms]
            except InputError:
                _refuse_least(st, [e for pq, _ in atoms for e in pq])
        self.atoms = _merge(atoms, key, close, _groups)[0]
        for (p, q), _ in self.atoms:
            if not st.causally_precedes(p, q):
                raise InputError(f"atom pair ({p}, {q}) is not causally related")

    @classmethod
    def _trusted(cls, st, atoms):
        """The coupling ``Coupling(st, atoms)`` builds, from atoms that its
        checks would pass unchanged; only the unit-mass rule (``_weights``)
        is checked.

        Precondition: each atom is ``((p, q), w)`` with ``p`` and ``q``
        canonical events (``st.canonical_event`` returns them as they are)
        and ``w`` a float; the pair keys (``_pair_key``, a total order)
        strictly increase; no two consecutive atoms are close
        (``events_close`` on both events); and ``st.causally_precedes(p,
        q)`` holds for every pair.  The merge then groups, sorts and joins
        nothing, so the atoms are the constructor's.
        """
        _weights(atoms, _pair_key(st))
        self = cls.__new__(cls)
        self.spacetime = st
        self.atoms = tuple(atoms)
        return self

    def marginal(self, side):
        st = self.spacetime
        return SliceMeasure(st, [(pq[side], w) for pq, w in self.atoms])

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return f"Coupling({len(self.atoms)} atoms)"


def slice_measures_equal(m1: SliceMeasure, m2: SliceMeasure):
    close = m1.spacetime.events_close
    return len(m1.atoms) == len(m2.atoms) and all(
        close(e1, e2) and abs(w1 - w2) <= MASS_ATOL
        for (e1, w1), (e2, w2) in zip(m1.atoms, m2.atoms))


def curve_measures_equal(s1: CurveMeasure, s2: CurveMeasure):
    return len(s1.atoms) == len(s2.atoms) and all(
        curves_close(c1, c2) and abs(w1 - w2) <= MASS_ATOL
        for (c1, w1), (c2, w2) in zip(s1.atoms, s2.atoms))


# -- pushforwards and conditioning --------------------------------------------


def marginal_at(sigma: CurveMeasure, t) -> SliceMeasure:
    """Pushforward of a curve measure under evaluation at parameter t.

    Each atom is evaluated by its leaf on the slab window that holds t, or
    by itself (see ``_evaluators``); each such curve is evaluated once, and
    the atoms are grouped by it, then by exactly equal canonical event,
    before the merge's sorted close-merge.  The result is the one of every
    atom evaluating itself, bit for bit: inside window k a glued curve's
    breakpoints are its leaf's own, so ``CausalCurve.at`` runs the same
    arithmetic on them, and at a junction ``bisect_left`` finds the left
    piece's last breakpoint, the left leaf's last event; the groups are
    the ones ``_merge`` forms, and each weight is the ``math.fsum`` of the
    same members.  Canonicalization, the mass check and the level-set
    check run on every distinct event, and ``tau`` is the time value of
    the first atom's event.
    """
    t = float(t)
    if not sigma.domain.contains(t, GEOM_ATOL):
        raise InputError(f"parameter {t} outside common domain {sigma.domain}")
    st = sigma.spacetime
    curves = _evaluators(sigma, t)
    fibers = _group_indices(curves)
    canon = {c: st.canonical_event(c.at(t)) for c in fibers}
    tf = sigma._affine_in
    tau = None
    if tf is not None:
        # one value per distinct event, in first-seen order
        values = [tf.value(st, e) for e in dict.fromkeys(canon.values())]
        if max(values) - min(values) <= GEOM_ATOL:
            tau = values[0]
    level = tf if tau is not None else None
    return SliceMeasure(st, [(canon[c], w) for c, (_, w) in zip(curves, sigma.atoms)],
                        time_function=level, tau=tau, _groups=_regroup(fibers, canon.get))


def _glued_pairs(left: SliceMeasure, right: SliceMeasure):
    """The pairs glued over two junction measures that agree atom by atom:
    ``(wx, wy, i, j)`` for each atom pair, of weights wx and wy, and each
    input i of the left one and j of the right one in its fibers (the
    merges' members)."""
    for (_, wx), (_, wy), fiber1, fiber2 in zip(left.atoms, right.atoms,
                                                left._members, right._members):
        for i in fiber1:
            for j in fiber2:
                yield wx, wy, i, j


def disintegrate(sigma: CurveMeasure, at):
    """Condition a curve measure on its value at one parameter.

    Returns ``(base, conditionals)`` where ``base`` is the evaluation
    marginal and ``conditionals`` lists, for each base atom x, the
    renormalized restriction of sigma to the curves whose values the
    marginal merged into x.  These fibers partition the curves, so the
    mixture of the conditionals against the base reproduces sigma exactly.
    """
    base = marginal_at(sigma, at)
    st = sigma.spacetime
    conditionals = []
    for (x, wx), fiber in zip(base.atoms, base._members):
        atoms = [(sigma.atoms[i][0], sigma.atoms[i][1] / wx) for i in fiber]
        conditionals.append((x, CurveMeasure(st, atoms)))
    return base, conditionals


def concat_measures(s1: CurveMeasure, s2: CurveMeasure) -> CurveMeasure:
    """Concatenate two curve measures over their shared junction marginal.

    Requires the evaluation marginals at the junction to agree; the result
    mixes, fiber by fiber, the product of the two conditional measures
    pushed through curve concatenation, each curve in the fiber its value
    was merged into.  Its evaluation marginal equals s1's strictly before
    the junction, the shared marginal at it, and s2's strictly after.

    Restricted to a compact s1's domain, the result is s1: a glued curve
    restricts to its left piece's breakpoints exactly, each fiber's
    weights sum back to the left piece's weight, and the pace is kept
    unless :func:`causalot.curves.concat` dropped it.

    The curve count, the sum over junction atoms of the products of their
    fiber sizes, is computed before any curve is built, and a count above
    ``MAX_GLUED_CURVES`` is refused.  When both inputs have slab windows,
    the result carries s1's then s2's; each glued curve keeps its own
    leaves, or none where its pieces do not meet at one parameter and one
    event (:func:`causalot.curves.concat`).
    """
    st = s1.spacetime
    if s1.domain.b == math.inf:
        raise InputError(f"left measure must live on curves bounded above, got {s1.domain}")
    if s2.domain.a == -math.inf:
        raise InputError(f"right measure must live on curves bounded below, got {s2.domain}")
    b, a = s1.domain.b, s2.domain.a
    if abs(b - a) > GEOM_ATOL:
        raise InputError(f"domains do not meet: {s1.domain} then {s2.domain}")
    nu1, nu2 = marginal_at(s1, b), marginal_at(s2, a)
    if not slice_measures_equal(nu1, nu2):
        detail = [(e, w) for e, w in nu1.atoms], [(e, w) for e, w in nu2.atoms]
        raise PreconditionError(
            f"junction marginals differ at {b}: {detail[0]} vs {detail[1]}")
    count = sum(len(f1) * len(f2) for f1, f2 in zip(nu1._members, nu2._members))
    if count > MAX_GLUED_CURVES:
        raise InputError(f"gluing at {b} would build {count} curves, more than the "
                         f"cap of {MAX_GLUED_CURVES}")
    atoms1, atoms2 = s1.atoms, s2.atoms
    sigma = CurveMeasure(st, [(concat(atoms1[i][0], atoms2[j][0]),
                               wx * (atoms1[i][1] / wx) * (atoms2[j][1] / wy))
                              for wx, wy, i, j in _glued_pairs(nu1, nu2)])
    if s1._windows and s2._windows:
        sigma._windows = s1._windows + s2._windows
    return sigma


def pushforward_reparametrize(sigma: CurveMeasure, tf1, tf2) -> CurveMeasure:
    """Reparametrize every atom of a full-line curve measure from the
    first time function's foliation to the second's, weights carried."""
    st = sigma.spacetime
    return CurveMeasure(st, [(reparametrize(st, c, tf1, tf2), w) for c, w in sigma.atoms])


# -- transport distance ---------------------------------------------------------


def transport_distance(st, mu: SliceMeasure, nu: SliceMeasure) -> float:
    """1-Wasserstein distance between two slice measures w.r.t. the
    Riemannian product distance.

    Two routes, chosen from the input alone.  On the Minkowski
    backend, when every atom of mu has one coordinate time and every atom
    of nu has one coordinate time (exact float equality on the atoms), the
    cost ``sqrt(u alpha) hypot(t_nu - t_mu, y - x)`` is a convex function
    of ``y - x``, so the monotone (quantile) coupling is optimal (McCann,
    "Exact solutions to the transportation problem on the line", 1999;
    Villani, *Topics in Optimal Transportation*, 2.2) and is computed in
    O(m + n), exactly up to the rounding of each term.  Everything else
    (graphs, tilted level sets, atoms off one common time) goes to the
    exact primal-dual transport on ``coupling._Instance``, rounded once,
    in phases of one max flow each.  It is faster than an LP solver up to
    about 16 atoms per side and 6 to 15 times slower at 80
    (``BENCH_transport_exact.json``, measured while each phase resumed the
    last one's flow, which saved 7 to 11% at 3 to 24 atoms per side); the
    bundled scenarios, the benchmark and the tests pass at most 12.
    The routes agree when the totals are equal; when they differ (by up to
    2e-12), the instance scales nu to mu's total and the closed form lets
    nu's last atom absorb the difference.  Equal atom lists give 0 without
    either route.
    """
    if mu.atoms == nu.atoms:
        return 0.0
    if st.backend == st.MINKOWSKI and _one_time(mu) and _one_time(nu):
        return _transport_monotone(st, mu, nu)
    from .coupling import _transport_exact
    return _transport_exact(st, mu, nu)


def _one_time(ms: SliceMeasure) -> bool:
    t = ms.atoms[0][0].t
    return all(e.t == t for e, _ in ms.atoms)


def _transport_monotone(st, mu: SliceMeasure, nu: SliceMeasure) -> float:
    """Cost of the monotone coupling of two measures on Minkowski time slices.

    The atoms of each side are sorted by x (``event_key`` on one time).  The
    walk runs over the merged breakpoints of the two cumulative-weight
    sequences, kept as exact integers over a common power-of-two
    denominator, so every piece's mass is one correctly rounded quotient.
    The last atom of nu takes whatever mass of mu is left, which absorbs
    the (at most 2e-12) difference of the two totals.  A piece's cost is
    :meth:`Spacetime.riemannian_distance`'s own expression, evaluated on
    the atoms' canonical events without checking them again.
    """
    ints, scale = _dyadic_ints([w for _, w in mu.atoms + nu.atoms])
    levels = list(accumulate(ints))
    m = len(mu.atoms)
    total = levels[m - 1]
    cum_mu = levels[:m]
    cum_nu = [level - total for level in levels[m:-1]] + [total]
    root = math.sqrt(st.u * st.alpha)
    pieces = []
    level = i = j = 0
    while i < m:
        nxt = min(cum_mu[i], cum_nu[j])
        if nxt > level:
            p, q = mu.atoms[i][0], nu.atoms[j][0]
            cost = root * math.hypot(q.t - p.t, abs(p.x - q.x))
            pieces.append((nxt - level) / scale * cost)
            level = nxt
        i += cum_mu[i] == nxt
        j += cum_nu[j] == nxt
    return math.fsum(pieces)
