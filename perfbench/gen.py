"""Seeded input generators of the benchmark.

Every number produced here is an exact dyadic rational: weights are
integer compositions of a power of two, positions and edge lengths are
integers over a power of two.  The generators use only ``random.Random``
seeded from the run's ``--seed``, so one seed always gives the same
inputs, and nothing here depends on the test suite's generators.
"""

from __future__ import annotations

import random

POS_DEN = 64  # positions are multiples of 1/64


def weights(rng, n, total_bits):
    """n positive integers summing to 2**total_bits, as dyadic weights."""
    den = 1 << total_bits
    if n > den:
        raise ValueError(f"cannot split {den} units over {n} atoms")
    cuts = sorted(rng.sample(range(1, den), n - 1))
    units = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return [u / den for u in units]


def distinct_positions(rng, n, lo, hi):
    """n distinct multiples of 1/POS_DEN in [lo, hi]."""
    ticks = rng.sample(range(round(lo * POS_DEN), round(hi * POS_DEN) + 1), n)
    return [k / POS_DEN for k in ticks]


# -- pairs: slice pairs one time unit apart on Minkowski 1+1 ------------------


def worldline_pairs(rng, n):
    """A feasible slice pair at t=0 and t=1 and its infeasible twin.

    The right slice is the cross-section of a bundle of n causal
    worldlines started at the left atoms, each moving at a dyadic speed of
    at most one, so the identity plan is causal.  The twin moves one right
    atom beyond unit distance from every left atom, outside every light
    cone.  Each pair is (left, right, moved index or None) with the sides
    as lists of (x, w).
    """
    xs = distinct_positions(rng, n, 0.0, n / 4)
    ws = weights(rng, n, 16)
    taken = set()
    ys = []
    for x in xs:
        while True:
            y = x + rng.randint(-POS_DEN, POS_DEN) / POS_DEN
            if y not in taken:
                taken.add(y)
                ys.append(y)
                break
    moved = rng.randrange(n)
    far = list(ys)
    far[moved] = max(xs) + 1 + rng.randint(1, POS_DEN) / POS_DEN
    left = list(zip(xs, ws))
    return (left, list(zip(ys, ws)), None), (left, list(zip(far, ws)), moved)


# -- slab-synthesis: diffusive integer-grid evolutions ------------------------


def diffusive_slices(rng, horizon, atoms=8, width=0.875):
    """Slices at the integer times -horizon..horizon, each with `atoms`
    independent sites in the window [0, width] (narrower than one time
    step, so every site pair of neighbouring slices is causal).

    Weights are given to the sites in spatial order from two seeded
    weight vectors whose partial sums strictly interleave, alternating
    between even and odd slices.  Every witness coupling then splits
    mass into 2 * atoms - 1 pieces, so the synthesized curve count, and
    with it the cost, depends on the horizon and not on the seed.
    """
    den = 64
    cuts = sorted(rng.sample(range(1, den), 2 * (atoms - 1)))
    vectors = []
    for part in (cuts[0::2], cuts[1::2]):
        bounds = [0] + part + [den]
        vectors.append([(hi - lo) / den for lo, hi in zip(bounds, bounds[1:])])
    out = []
    for k in range(-horizon, horizon + 1):
        xs = sorted(distinct_positions(rng, atoms, 0.0, width))
        out.append((float(k), list(zip(xs, vectors[k % 2]))))
    return out


# -- graph-scenarios: ring-plus-chord metric graphs ---------------------------


def vertex(i):
    return f"v{i:04d}"


def ring_with_chords(rng, n_vertices):
    """Ring of n_vertices with dyadic edge lengths in {1/4, 1/2, 3/4, 1}
    plus a chord from every fourth vertex a third of the way round, of
    dyadic length in [1, 4].  The shape is fixed by n_vertices and only
    the lengths are drawn, so graphs of one size cost about the same."""
    edges = []
    for i in range(n_vertices):
        edges.append([vertex(i), vertex((i + 1) % n_vertices),
                      rng.choice([0.25, 0.5, 0.75, 1.0])])
    for i in range(0, n_vertices, 4):
        edges.append([vertex(i), vertex((i + n_vertices // 3) % n_vertices),
                      rng.randint(4, 16) / 4])
    return [vertex(i) for i in range(n_vertices)], edges


def graph_walk(rng, vertices, edges, horizon, atoms=16):
    """Slices at the integer times -horizon..horizon of `atoms` walkers
    with fixed dyadic masses.  Each unit step a walker stays or crosses
    one edge of length at most one, so every step is causal; walkers
    never share a vertex, so each slice has exactly `atoms` atoms."""
    near = {v: [] for v in vertices}
    for a, b, length in edges:
        if length <= 1.0:
            near[a].append(b)
            near[b].append(a)
    pos = rng.sample(vertices, atoms)
    ws = weights(rng, atoms, 8)
    out = [(float(-horizon), list(zip(pos, ws)))]
    for k in range(-horizon + 1, horizon + 1):
        current = set(pos)
        taken = set()
        nxt = []
        for v in pos:
            options = [v] + sorted(near[v])
            rng.shuffle(options)
            w = next(w for w in options
                     if w == v or (w not in taken and w not in current))
            taken.add(w)
            nxt.append(w)
        pos = nxt
        out.append((float(k), list(zip(pos, ws))))
    return out


def graph_scenario(rng, n_vertices, horizon=2, atoms=16):
    """A static-graph scenario document with one integer-grid evolution
    and command defaults for `check-evolution` and `synthesize`."""
    vertices, edges = ring_with_chords(rng, n_vertices)
    slices = graph_walk(rng, vertices, edges, horizon, atoms)
    return {
        "schema_version": 1,
        "spacetime": {"backend": "static-graph", "vertices": vertices,
                      "edges": edges, "alpha": 1.0, "u": 1.0, "tolerance": 0.0},
        "evolutions": {"walk": {
            "time_function": "T0",
            "mesh": {"kind": "integer"},
            "slices": [{"tau": t, "atoms": [[v, w] for v, w in atoms_]}
                       for t, atoms_ in slices]}},
        "commands": {
            "check-evolution": {"evolution": "walk"},
            "synthesize": {"evolution": "walk", "interval": "line",
                           "horizon": horizon}},
    }


def rng_for(seed, name):
    """Independent stream per workload and seed."""
    return random.Random(f"{name}:{seed}")
