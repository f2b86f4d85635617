"""Causal couplings between slice measures and causal evolutions.

Whether one measure causally precedes another is a transport
feasibility question: is there a coupling supported on the causal
relation?  It is decided here by maximum flow on the bipartite support
graph, carried out in exact integer arithmetic (every 64-bit float is a
dyadic rational, so the instance scales to integers without loss).  One
solve decides a pair: a saturating flow is the coupling, and otherwise
the left atoms reachable in the final residual graph are a min-cut
subset that outweighs its causal future.  Edmonds-Karp's first
augmenting paths are direct arcs taken in index order, so one greedy
pass over the rows pushes them all, and a BFS runs only after it; the
flow, the coupling and the cut are the ones the BFS alone would give
(``_max_flow`` states why).  The independent oracle is the finite
Strassen condition: feasibility holds iff no subset of the left support
outweighs the causal future of itself on the right.  Max-flow/min-cut
makes the two routes provably agree; the test suite checks that on
thousands of instances anyway.

The arcs of the support graph are the causal relation, computed in plain
Python by one of two routes chosen from the input: on a Minkowski pair
whose right atoms share one time, a left atom's arcs are one run of right
atoms, found by bisection; elsewhere every pair is compared.  The support
graph has one representation, ascending index rows: ``rows[i]`` lists the
right atoms that left atom i reaches, a ``range`` on the run route.  Max
flow, the cut witness, the Strassen check and W1's tight arcs all read
the rows as they are.

Cost: a decision takes time linear in its arcs plus its BFS rounds.  The
flow is kept as sparse as the rows, one ``{j: units}`` dict per left
atom, so nothing is allocated or summed per pair off the arcs, and the
witness coupling is built once from the flow, without checking again
what the decision guarantees (:func:`_witness_coupling`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass

from .errors import InputError
from .measures import (MASS_ATOL, Coupling, SliceMeasure, _glued_pairs, _one_time,
                       slice_measures_equal)
from .spacetime import GRID_ATOL, _dyadic_ints
from .timefunc import canonical_time

UPSET_SUPPORT_CAP = 20

_MASS_NUM, _MASS_DEN = MASS_ATOL.as_integer_ratio()


def _deficient(deficit, inst):
    """True when the integer flow deficit of ``inst`` is more than the
    rounding dust the unit-mass rule of every measure forgives, compared
    exactly in integers: more than ``MASS_ATOL`` of the mass, or enough to
    leave the witness coupling, weighted in mu's mass, a total below
    ``1 - MASS_ATOL``.  So the decision and its witness ``Coupling`` agree
    on a pair, up to the rounding of the witness's float weights.  The
    test is monotone in the deficit, so the Strassen check, calling it per
    subset, gives the max-flow verdict.
    """
    scale, unit_den = inst.scale, inst._unit_den
    return deficit > 0 and (deficit * _MASS_DEN > scale * _MASS_NUM or
                            (scale - deficit) * _MASS_DEN < unit_den * (_MASS_DEN - _MASS_NUM))


@dataclass
class MeshSpec:
    """How an evolution's time grid was generated."""

    kind: str  # "dyadic" | "integer" | "explicit"
    a: float | None = None
    b: float | None = None
    depth: int | None = None

    DYADIC = "dyadic"
    INTEGER = "integer"
    EXPLICIT = "explicit"

    def __post_init__(self):
        if self.kind not in (self.DYADIC, self.INTEGER, self.EXPLICIT):
            raise InputError(f"unknown mesh kind {self.kind!r}: "
                             "expected 'dyadic', 'integer' or 'explicit'")
        if self.kind == self.DYADIC:
            for name in ("a", "b", "depth"):
                if getattr(self, name) is None:
                    raise InputError(f"a dyadic mesh needs {name!r}")
            depth = self.depth
            if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
                raise InputError(
                    f"a dyadic mesh needs a non-negative integer depth, got {depth!r}")


def dyadic_times(a, b, depth):
    """The 2**depth + 1 dyadic subdivision times of [a, b]."""
    n = 1 << depth
    return [a + (b - a) * i / n for i in range(n + 1)]


def _times_match(actual, wanted):
    """True when two time lists have one length and agree entrywise within
    ``GRID_ATOL``; NaN times match nothing."""
    return len(actual) == len(wanted) and all(
        abs(s - t) <= GRID_ATOL for s, t in zip(actual, wanted))


class Evolution:
    """A time-indexed family of slice measures on the level sets of one
    time function, with strictly increasing times; the constructor checks
    that every atom lies on the level set at its slice's time."""

    def __init__(self, st, entries, time_function=None, mesh=None):
        entries = tuple((float(t), mu) for t, mu in entries)
        if not entries:
            raise InputError("an evolution needs at least one slice")
        for t, _ in entries:
            if not math.isfinite(t):
                raise InputError(f"slice time {t} is not finite")
        for (s, _), (t, _) in zip(entries, entries[1:]):
            if t <= s:
                raise InputError(f"slice times must strictly increase: {s} then {t}")
        self.time_function = tf = time_function or canonical_time()
        for t, mu in entries:
            off = tf.off_level(st, (e for e, _ in mu.atoms), t)
            if off:
                raise InputError(f"atom {off[0]} of the slice at {t} has time value {off[1]}")
        self.spacetime = st
        self.entries = entries
        self.mesh = mesh or MeshSpec(MeshSpec.EXPLICIT)

    @property
    def times(self):
        return tuple(t for t, _ in self.entries)

    def _check_frame(self, st, tf=None):
        """Refuse a reader on another spacetime, or along another ``tf``."""
        if st is not self.spacetime:
            raise InputError("the evolution was built on another spacetime")
        if tf is not None and not tf.same_as(self.time_function):
            raise InputError(f"the evolution's time function is {self.time_function!r}, "
                             f"not {tf!r}")

    def validate_mesh(self):
        mesh = self.mesh
        times = self.times
        if mesh.kind == MeshSpec.DYADIC:
            # the count first, 2**depth read off its bits: a deep declared
            # mesh is refused without building 2**depth or its times
            n = len(times) - 1
            if n.bit_length() != mesh.depth + 1 or n & (n - 1) or not _times_match(
                    times, dyadic_times(mesh.a, mesh.b, mesh.depth)):
                raise InputError(
                    f"times {list(times)} do not form the dyadic mesh of "
                    f"[{mesh.a}, {mesh.b}] at depth {mesh.depth}")
        elif mesh.kind == MeshSpec.INTEGER:
            for s, t in zip(times, times[1:]):
                if not abs((t - s) - 1.0) <= GRID_ATOL:
                    raise InputError(f"integer grid needs unit steps, got {s} then {t}")

    def __len__(self):
        return len(self.entries)


# -- exact bipartite instances ---------------------------------------------------


def _causal_adjacency(st, mu, nu):
    """Rows of the causal relation: ``rows[i]`` holds, in ascending order,
    the indices j of the right atoms that left atom i causally precedes,
    by the comparison of :meth:`Spacetime.causally_precedes`.

    When the right support of a Minkowski pair lies on one time, each row
    is one run of right atoms, returned as ``range(lo, hi)``.  Those atoms
    are sorted by x, and IEEE subtraction and ``abs`` are monotone, so
    ``abs(x - y)`` falls as y rises to x and grows after it: the
    comparison holds on one contiguous run.  A bisection on
    ``x -/+ (dt + tol)`` finds each end up to rounding, and the comparison
    itself settles it, walking outwards while it holds and inwards while
    it fails.  Other pairs (tilted or mixed-time Minkowski supports,
    graphs) compare every pair over the same IEEE operations and list the
    indices that pass; on a graph, the distance searches stop
    once no farther vertex can pass a row's comparison at the latest
    right time, and the entries beyond read inf
    (:meth:`Spacetime._graph_distances`).
    """
    tol = st.causal_tol
    n = len(nu.atoms)
    ys = [q.x for q, _ in nu.atoms]
    if st.backend == st.MINKOWSKI and _one_time(nu):
        t = nu.atoms[0][0].t
        rows = []
        for p, _ in mu.atoms:
            dt, x = t - p.t, p.x
            # left of mid the comparison goes False -> True, from mid True -> False;
            # on finite values `<` is its negation
            mid = bisect_left(ys, x)
            lo = bisect_left(ys, x - dt - tol, 0, mid)
            while lo > 0 and dt >= abs(x - ys[lo - 1]) - tol:
                lo -= 1
            while lo < mid and dt < abs(x - ys[lo]) - tol:
                lo += 1
            hi = bisect_right(ys, x + dt + tol, mid)
            while hi < n and dt >= abs(x - ys[hi]) - tol:
                hi += 1
            while hi > mid and dt < abs(x - ys[hi - 1]) - tol:
                hi -= 1
            rows.append(range(lo, hi))
        return rows
    xs = [p.x for p, _ in mu.atoms]
    tq = [q.t for q, _ in nu.atoms]
    if st.backend == st.MINKOWSKI:
        dist = [[abs(x - y) for y in ys] for x in xs]
    else:
        t_max = max(tq)
        dist = st._graph_distances(xs, ys, [t_max - p.t for p, _ in mu.atoms])
    return [[j for j, (t, d) in enumerate(zip(tq, row)) if t - p.t >= d - tol]
            for (p, _), row in zip(mu.atoms, dist)]


class _Instance:
    """Exactly mass-balanced integer transport instance between two
    supports, over the given adjacency: ascending index rows, ``rows[i]``
    the right atoms with an arc from left atom i.  They are the causal
    relation of :func:`_causal_adjacency` for a decision, the tight arcs
    of a phase for W1."""

    def __init__(self, mu, nu, adjacency):
        m = len(mu.atoms)
        ints, scale = _dyadic_ints([w for _, w in mu.atoms + nu.atoms])
        mu_total, nu_total = sum(ints[:m]), sum(ints[m:])
        # Cross-multiplying balances the two totals exactly in integers,
        # absorbing the (at most 1e-12) mass discrepancy between the sides.
        self.supply = [w * nu_total for w in ints[:m]]
        self.demand = [w * mu_total for w in ints[m:]]
        self.scale = mu_total * nu_total
        # One capacity unit carries this much mu-mass.
        self._unit_den = scale * nu_total
        self.adjacency = adjacency

    def weight_from_units(self, units):
        return units / self._unit_den  # int / int rounds once, correctly


def _max_flow(instance: _Instance):
    """Edmonds-Karp max flow on source -> left atoms -> right atoms -> sink
    with integer capacities; deterministic arc ordering by atom index.

    The arcs are the instance's index rows, scanned as they are.  Returns
    (value, flows, reachable) where flows[i] is a dict ``{j: units}`` of
    the non-zero flows on the admissible arcs i -> j, value is the total
    of the used supplies, and reachable is the set of left atoms reachable
    from the source in the final residual graph (a min-cut witness when
    the flow is not saturating).  The flow starts from zero, and nothing
    is allocated or summed per (i, j) pair off the arcs, so a solve costs
    time linear in the arcs plus its BFS rounds.

    The augmenting paths found first are direct arcs, and one greedy pass
    pushes them all before the first BFS.  Each BFS queues the left atoms
    with free supply in index order and pops all of them before any right
    atom, scanning each one's arcs in index order.  So while some free
    left atom has a free right neighbour, the path it returns is the arc
    from the lowest such left atom to that atom's lowest free neighbour
    (every right atom an earlier pop reached is full), and the bottleneck
    is the smaller of the two residuals.  Used supply and demand only
    grow, so no atom regains a free neighbour, and these augmentations are
    exactly the pass below: for i ascending, for j ascending over the arcs
    of row i, push ``min(free supply, free demand)``.  The result is the
    one the BFS alone would reach.  The BFS steps back from right atom j
    only over ``carriers[j]``, the rows that carry flow into j, kept in
    ascending order at every push, so it visits the rows in the order a
    scan of the whole column would.
    """
    supply, demand = instance.supply, instance.demand
    m = len(supply)
    n = len(demand)
    arcs = instance.adjacency
    carriers = [[] for _ in range(n)]
    flows = [{} for _ in range(m)]
    used_supply, used_demand = [0] * m, [0] * n
    for i in range(m):
        free = supply[i]
        if free <= 0:
            continue
        row = flows[i]
        for j in arcs[i]:
            push = demand[j] - used_demand[j]
            if push <= 0:
                continue
            if push > free:
                push = free
            carriers[j].append(i)  # rows ascend, so each list stays sorted
            row[j] = push
            used_demand[j] += push
            free -= push
            if not free:
                break
        used_supply[i] = supply[i] - free
    while True:
        # BFS over the residual graph; nodes: source=-1, left i, right m+j
        parent = {}
        queue = deque()
        for i in range(m):
            if supply[i] - used_supply[i] > 0:
                parent[i] = -1
                queue.append(i)
        found = None
        while queue and found is None:
            v = queue.popleft()
            if v < m:
                for j in arcs[v]:
                    if (m + j) not in parent:
                        parent[m + j] = v
                        if demand[j] - used_demand[j] > 0:
                            found = m + j
                            break
                        queue.append(m + j)
            else:
                for i in carriers[v - m]:
                    if i not in parent:
                        parent[i] = v
                        queue.append(i)
        if found is None:
            reachable = {v for v in parent if v < m}
            return sum(used_supply), flows, reachable
        # bottleneck along the augmenting path
        path = []
        v = found
        while v != -1:
            path.append(v)
            v = parent[v]
        path.reverse()
        bottleneck = supply[path[0]] - used_supply[path[0]]
        j_final = path[-1] - m
        bottleneck = min(bottleneck, demand[j_final] - used_demand[j_final])
        for k in range(1, len(path) - 1):
            if path[k] >= m and path[k + 1] < m:
                bottleneck = min(bottleneck, flows[path[k + 1]][path[k] - m])
        used_supply[path[0]] += bottleneck
        used_demand[j_final] += bottleneck
        for k in range(len(path) - 1):
            v, w = path[k], path[k + 1]
            if v < m <= w:
                row, j = flows[v], w - m
                if j not in row:
                    insort(carriers[j], v)
                    row[j] = bottleneck
                else:
                    row[j] += bottleneck
            elif w < m <= v:
                row, j = flows[w], v - m
                row[j] -= bottleneck
                if not row[j]:
                    del row[j]
                    carriers[j].remove(w)


def _transport_exact(st, mu: SliceMeasure, nu: SliceMeasure) -> float:
    """W1 by the primal-dual method (Ahuja, Magnanti and Orlin, *Network
    Flows*, ch. 9) in integers, with duals from the row then column minima.
    Each phase finds a max flow on the tight arcs from zero; while supply
    is unrouted, the duals of the min-cut side move by the least slack
    across the cut.  Only arcs from unreached atoms, which carry no flow,
    stop being tight, so no phase routes less than the one before.  Every
    max flow of a phase has the same value and the same set reachable from
    the source (the minimal min cut), so the duals move the same way
    whichever one the phase finds, and the cost of the final flow is the
    optimum, exact in integers."""
    inst = _Instance(mu, nu, None)  # each phase sets its tight arcs
    n = len(nu.atoms)
    ints, cost_scale = _dyadic_ints([st.riemannian_distance(p, q)
                                     for p, _ in mu.atoms for q, _ in nu.atoms])
    cost = [ints[k:k + n] for k in range(0, len(ints), n)]
    u = [min(row) for row in cost]
    v = [min(c[j] - ui for c, ui in zip(cost, u)) for j in range(n)]
    while True:
        inst.adjacency = [[j for j, (vj, cij) in enumerate(zip(v, c)) if ui + vj == cij]
                          for c, ui in zip(cost, u)]
        value, flows, reachable = _max_flow(inst)
        if value == inst.scale:
            break
        right = {j for i in reachable for j in inst.adjacency[i]}
        delta = min(cost[i][j] - u[i] - v[j]
                    for i in reachable for j in range(n) if j not in right)
        for i in reachable:
            u[i] += delta
        for j in right:
            v[j] -= delta
    total = sum(f * c[j] for row, c in zip(flows, cost) for j, f in row.items())
    return total / (inst._unit_den * cost_scale)


@dataclass
class CutWitness:
    """A subset of the left support whose mass exceeds the mass of its
    causal future on the right: the certificate of infeasibility."""

    events: tuple
    mu_mass: float
    nu_future_mass: float

    def to_dict(self):
        return {"events": [[e.t, e.x] for e in self.events],
                "mu_mass": self.mu_mass, "nu_future_mass": self.nu_future_mass}


def _decide(st, mu: SliceMeasure, nu: SliceMeasure):
    """Decide whether mu causally precedes nu with one max flow.

    Returns ``(coupling, None)``, a causal coupling of the pair, when it
    is feasible, and ``(None, CutWitness)`` when it is not: the left atoms
    still reachable from the source in the final residual graph outweigh
    their causal future.  The coupling's atoms are the flow's arcs, read
    in mu's order and, within a row, by right index; an arc whose flow
    rounds to a float weight of 0.0 is left out, since it carries less
    than the smallest float, which is rounding dust (see
    :func:`_witness_coupling`).
    """
    inst = _Instance(mu, nu, _causal_adjacency(st, mu, nu))
    value, flows, reachable = _max_flow(inst)
    if not _deficient(inst.scale - value, inst):
        return _witness_coupling(st, mu, nu, inst, flows), None
    left = sorted(reachable)
    future = sorted({j for i in left for j in inst.adjacency[i]})
    return None, CutWitness(tuple(mu.atoms[i][0] for i in left),
                            math.fsum(mu.atoms[i][1] for i in left),
                            math.fsum(nu.atoms[j][1] for j in future))


def _witness_coupling(st, mu, nu, inst, flows):
    """The coupling of a feasible decision's flow, built once.

    Its atoms meet the precondition of :meth:`Coupling._trusted` by
    construction: the events are mu's and nu's own canonical atoms; the
    pairs are exactly distinct, and they come in key order, since the keys
    of mu's atoms strictly increase (sort keys are total) and j ascends in
    a row; and each row lists the right atoms that pass
    :meth:`Spacetime.causally_precedes`'s comparison at ``causal_tol``, on
    the graph over the same exact distance, rounded once.  Neighbours in a
    merged measure are not close, so two consecutive atoms can be close
    only across a gap: in one row, right atoms j and j' > j + 1, or rows i
    and i' > i + 1 where the rows between carry no flow.  Closeness is not
    transitive, so such a pair can be close although the atoms between are
    not; the merge, which joins neighbours in key order, then joins it.  In
    that case the atoms go through ``Coupling(st, atoms)``, whose merge
    decides, as it always has.
    """
    atoms, last, trusted = [], None, True
    close = st.events_close
    for i, ((p, _), row) in enumerate(zip(mu.atoms, flows)):
        for j in sorted(row):
            w = inst.weight_from_units(row[j])
            if not w:
                continue  # below the smallest float: rounding dust
            q = nu.atoms[j][0]
            if last is not None and trusted:
                i0, j0 = last
                if i0 == i:
                    trusted = j == j0 + 1 or not close(nu.atoms[j0][0], q)
                else:
                    trusted = not (i > i0 + 1 and close(mu.atoms[i0][0], p)
                                   and close(nu.atoms[j0][0], q))
            last = i, j
            atoms.append(((p, q), w))
    return Coupling._trusted(st, atoms) if trusted else Coupling(st, atoms)


def find_causal_coupling(st, mu: SliceMeasure, nu: SliceMeasure):
    """Return a causal coupling of mu and nu, or None when none exists.

    Feasibility of a transport plan supported on the causal relation is
    decided by integer max flow (exact arithmetic, a deficit forgiven only
    as rounding dust, see :func:`_deficient`); the witness plan uses a
    fixed deterministic arc ordering so repeated runs reproduce it bit for bit.
    """
    return _decide(st, mu, nu)[0]


def cut_witness(st, mu: SliceMeasure, nu: SliceMeasure):
    """Min-cut certificate for an infeasible pair, or None if feasible."""
    return _decide(st, mu, nu)[1]


def dominates_on_upsets(st, mu: SliceMeasure, nu: SliceMeasure) -> bool:
    """Finite Strassen condition: for every subset A of the left support,
    the mass of A must not exceed the nu-mass of the causal future of A.
    Exhaustive over subsets; refuses supports larger than 20 atoms (use
    :func:`find_causal_coupling` there)."""
    m = len(mu.atoms)
    if m > UPSET_SUPPORT_CAP:
        raise InputError(
            f"support of size {m} exceeds the exhaustive cap {UPSET_SUPPORT_CAP}; "
            "use find_causal_coupling instead")
    inst = _Instance(mu, nu, _causal_adjacency(st, mu, nu))
    n = len(nu.atoms)
    future_masks = [0] * n
    for i, row in enumerate(inst.adjacency):
        for j in row:
            future_masks[j] |= 1 << i
    for mask in range(1, 1 << m):
        mu_mass = sum(inst.supply[i] for i in range(m) if mask & (1 << i))
        nu_mass = sum(inst.demand[j] for j in range(n) if future_masks[j] & mask)
        if _deficient(mu_mass - nu_mass, inst):
            return False
    return True


def compose_couplings(st, first: Coupling, second: Coupling) -> Coupling:
    """Glue two couplings through their shared middle marginal.

    The result transports mass from the left marginal of the first to the
    right marginal of the second by conditioning on the middle; causal
    atoms compose by transitivity of the causal relation.  Each atom lies
    in the fiber of the middle atom its middle event was merged into.
    """
    mid, mid2 = first.marginal(1), second.marginal(0)
    if not slice_measures_equal(mid, mid2):
        raise InputError("middle marginals of the two couplings do not match")
    atoms = []
    for wy, _, i, j in _glued_pairs(mid, mid2):
        (p, _), w1 = first.atoms[i]
        (_, r), w2 = second.atoms[j]
        atoms.append(((p, r), w1 * w2 / wy))
    return Coupling(st, atoms)


# -- evolutions -------------------------------------------------------------------


@dataclass
class StepResult:
    s: float
    t: float
    causal: bool
    witness: CutWitness | None = None


@dataclass
class EvolutionReport:
    causal: bool
    mode: str
    steps: tuple[StepResult, ...] = ()

    def __bool__(self):
        return self.causal

    @property
    def first_failure(self):
        for step in self.steps:
            if not step.causal:
                return step
        return None

    def to_dict(self):
        out = {"causal": self.causal, "mode": self.mode, "steps": []}
        for step in self.steps:
            entry = {"s": step.s, "t": step.t, "causal": step.causal}
            if step.witness is not None:
                entry["witness"] = step.witness.to_dict()
            out["steps"].append(entry)
        return out


def check_evolution(st, evo: Evolution, mode="consecutive") -> EvolutionReport:
    """Decide whether an evolution is causal.

    ``consecutive`` checks each neighbouring pair of slices, K - 1 steps for
    K slices; ``all-pairs`` checks every ordered pair and each slice against
    itself, K(K + 1)/2 steps.  The report carries a min-cut witness for the
    first failing pair.

    Consecutive pairs would suffice for the exact causal relation, which
    is transitive, since witness couplings compose through the shared
    marginal.  But pairs are compared at ``st.causal_tol``, and a relation
    with slack is not transitive.  At the tolerance edge, consecutive mode
    can accept an evolution that all-pairs mode refuses, whose glued
    curves then join a non-causal pair of slices; Dirac slices at
    ``(k, k * (1 + 0.9e-9))``, k = 0, 1, 2, with ``eps_caus = 0`` are one.
    """
    if mode not in ("consecutive", "all-pairs"):
        raise InputError(f"unknown mode {mode!r}")
    evo._check_frame(st)
    if mode == "consecutive":
        pairs = [(i, i + 1) for i in range(len(evo) - 1)]
    else:
        pairs = [(i, j) for i in range(len(evo)) for j in range(i, len(evo))]
    steps = []
    for i, j in pairs:
        s, mu = evo.entries[i]
        t, nu = evo.entries[j]
        _, witness = _decide(st, mu, nu)
        steps.append(StepResult(s, t, witness is None, witness))
    return EvolutionReport(all(step.causal for step in steps), mode, tuple(steps))
