"""Seeded symmetric polygons whose fold answer is known from their construction.

Every generated polygon is a union of group orbits of rational points.
Points off every mirror ("generic" points, one per stratum of a chamber)
give the free orbits; points placed on mirror lines decide the fold shape:

  mirror  circle points for +-t; adding (1, 0) gives 1-2, adding (1, 0)
          and (-1, 0) gives 1-3, adding neither gives 1-1
  d2      circle points under (x, y) -> (+-x, +-y); axis points on one or
          both axes give 2-2 and 2-3
  d4      circle points under the 8 signed permutations; axis points give
          2-2, axis points plus the diagonal orbit of (7/10, 7/10) give 2-3
  d3, d6  points on the conic x^2 + xy + y^2 = 1 in hex-lattice coordinates
          under the rotation (x, y) -> (-y, x + y) and the swap (x, y) ->
          (y, x); the orbit of (1, 0) (half of it for d3) lies on mirrors,
          and for d6 the orbit of (4/7, 4/7) lies on the other mirror class

The expected case, n, group order and m follow from the orbit sizes and the
shape alone (m = 2n+2, 2n+1, 2n for 1-1, 1-2, 1-3 and 2l(n-1), l(2n-3),
2l(n-2) for 2-1, 2-2, 2-3), never from the library's fundamental_region.
Only the standard library is used; randomness comes from random.Random(seed).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

Point = tuple[Fraction, Fraction]

ELL = {"mirror": 1, "d2": 2, "d3": 3, "d4": 4, "d6": 6}


def smallest_k(family: str, shape: str) -> int:
    """Fewest generic orbits that leave no extra symmetry: a single d2 orbit
    is a rectangle, which a linear map turns into a square, and a mirror
    polygon needs two circle parameters to have four or more vertices."""
    return 2 if family == "mirror" or (family, shape) == ("d2", "2-1") else 1

F = Fraction
D4_DIAGONAL = F(7, 10)
D4_MAX_T = F(3, 10)        # keeps (7/10, 7/10) a convex vertex
D6_DIAGONAL = F(4, 7)      # (4/7, 4/7) has x^2 + xy + y^2 = 48/49


@dataclass(frozen=True)
class Instance:
    """A generated polygon with the answer its construction implies."""

    name: str
    family: str
    shape: str
    vertices: tuple[Point, ...]   # counterclockwise cycle
    free: tuple[int, ...]         # indices of vertices on no mirror

    @property
    def m(self) -> int:
        return len(self.vertices)

    @property
    def order(self) -> int:
        return 2 * ELL[self.family]

    @property
    def n(self) -> int:
        return expected_n(self.shape, self.m, ELL[self.family])

    def to_json(self) -> dict:
        return {"name": self.name,
                "vertices": [[fmt(x), fmt(y)] for x, y in self.vertices]}


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def expected_n(shape: str, m: int, ell: int) -> int:
    """Invert the edge-count formula of the fold shape."""
    if shape == "1-1":
        num, den, off = m - 2, 2, 0
    elif shape == "1-2":
        num, den, off = m - 1, 2, 0
    elif shape == "1-3":
        num, den, off = m, 2, 0
    elif shape == "2-1":
        num, den, off = m, 2 * ell, 1
    elif shape == "2-2":
        num, den, off = m + 3 * ell, 2 * ell, 0
    elif shape == "2-3":
        num, den, off = m, 2 * ell, 2
    else:
        raise ValueError(f"unknown shape {shape!r}")
    if num % den:
        raise ValueError(f"m={m} does not fit shape {shape} with ell={ell}")
    return num // den + off


def graded_dims(shape: str, n: int) -> list[int]:
    """(source deg2, invariant deg2, 1, 1): the region has m_region - 2
    degree-2 classes and the region's edge count follows from the shape."""
    region_m = {"1-1": n + 3, "1-2": n + 2, "1-3": n + 1,
                "2-1": n + 2, "2-2": n + 1, "2-3": n}[shape]
    return [region_m - 2, region_m - 2, 1, 1]


# -- rational curves -----------------------------------------------------------


def circle(t: Fraction) -> Point:
    """Unit-circle point at angle 2*atan(t)."""
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def conic(t: Fraction) -> Point:
    """Point of x^2 + xy + y^2 = 1 on the line through (1, 0) with
    parameter t; t = 1 gives (0, 1) and t -> 2 approaches (1, 0)."""
    den = t * t - t + 1
    return ((t * t - 1) / den, t * (2 - t) / den)


def _cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _angle_cmp(a: Point, b: Point) -> int:
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    if half(a) != half(b):
        return -1 if half(a) < half(b) else 1
    c = _cross(a, b)
    return -1 if c > 0 else (1 if c < 0 else 0)


def ccw_cycle(points) -> list[Point]:
    return sorted(set(points), key=functools.cmp_to_key(_angle_cmp))


def strictly_convex(cycle: list[Point]) -> bool:
    n = len(cycle)
    for i in range(n):
        a, b, c = cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]
        if _cross((b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])) <= 0:
            return False
    return True


# -- seeded parameters -------------------------------------------------------


def stratified(rng: random.Random, k: int, lo: float, hi: float,
               to_param=lambda u: u) -> list[Fraction]:
    """k rationals a/den, one drawn from the middle of each of k equal strata
    of (lo, hi), mapped through to_param. den is the smallest value (from a
    fixed start) that leaves every stratum at least three candidates, so it
    depends on k and the range only, never on the seed."""
    den = 4 * k
    while True:
        windows = []
        for i in range(k):
            u0 = lo + (hi - lo) * (i + 0.1) / k
            u1 = lo + (hi - lo) * (i + 0.9) / k
            a0 = math.ceil(to_param(u0) * den)
            a1 = math.floor(to_param(u1) * den)
            windows.append((a0, a1))
        if all(a1 - a0 >= 2 for a0, a1 in windows):
            break
        den += 1
    return [F(rng.randint(a0, a1), den) for a0, a1 in windows]


def _half_angle_tan(theta: float) -> float:
    return math.tan(theta / 2)


# -- group orbits --------------------------------------------------------------


def _orbit(point: Point, maps) -> list[Point]:
    seen = [point]
    frontier = [point]
    while frontier:
        nxt = []
        for q in frontier:
            for g in maps:
                w = g(q)
                if w not in seen:
                    seen.append(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _flip_y(p):
    return (p[0], -p[1])


def _flip_x(p):
    return (-p[0], p[1])


def _swap(p):
    return (p[1], p[0])


def _hex_rot(p):
    return (-p[1], p[0] + p[1])


def _hex_rot2(p):
    return _hex_rot(_hex_rot(p))


def _hex_mirror_a(p):
    # R o swap: fixes the line x = 0, which passes through (0, 1)
    return _hex_rot(_swap(p))


GENERATORS = {
    "mirror": (_flip_y,),
    "d2": (_flip_x, _flip_y),
    "d4": (_flip_y, _swap),
    "d3": (_hex_rot2, _hex_mirror_a),
    "d6": (_hex_rot, _swap),
}


def _generic_params(rng: random.Random, family: str, shape: str,
                    k: int) -> list[Point]:
    """One point per stratum of a chamber, strictly off every mirror."""
    pi = math.pi
    if family == "mirror":
        ts = stratified(rng, k, 0.0, pi, _half_angle_tan)
        return [circle(t) for t in ts]
    if family == "d2":
        return [circle(t) for t in stratified(rng, k, 0.0, pi / 2, _half_angle_tan)]
    if family == "d4":
        if shape == "2-3":
            ts = stratified(rng, k, 0.0, float(D4_MAX_T))
        else:
            ts = stratified(rng, k, 0.0, pi / 4, _half_angle_tan)
        return [circle(t) for t in ts]
    if family == "d3":
        return [conic(t) for t in stratified(rng, k, 1.0, 2.0)]
    if family == "d6":
        # chamber between (0, 1) at t = 1 and the line x = y at (1+sqrt3)/2;
        # 2-3 stays clear of the (4/7, 4/7) vertex
        top = 1.2 if shape == "2-3" else (1 + math.sqrt(3)) / 2
        return [conic(t) for t in stratified(rng, k, 1.0, top)]
    raise ValueError(f"unknown family {family!r}")


_ONE, _ZERO = F(1), F(0)
# seeds of the orbits placed on mirrors, which fix the fold shape
MIRROR_SEEDS = {
    ("mirror", "1-1"): [],
    ("mirror", "1-2"): [(_ONE, _ZERO)],
    ("mirror", "1-3"): [(_ONE, _ZERO), (-_ONE, _ZERO)],
    ("d2", "2-1"): [],
    ("d2", "2-2"): [(_ONE, _ZERO)],
    ("d2", "2-3"): [(_ONE, _ZERO), (_ZERO, _ONE)],
    ("d4", "2-1"): [],
    ("d4", "2-2"): [(_ONE, _ZERO)],
    ("d4", "2-3"): [(_ONE, _ZERO), (D4_DIAGONAL, D4_DIAGONAL)],
    # (0, 1) and (1, 0) lie on opposite ends of the d3 mirror lines
    ("d3", "2-1"): [],
    ("d3", "2-2"): [(_ZERO, _ONE)],
    ("d3", "2-3"): [(_ZERO, _ONE), (_ONE, _ZERO)],
    ("d6", "2-1"): [],
    ("d6", "2-2"): [(_ONE, _ZERO)],
    ("d6", "2-3"): [(_ONE, _ZERO), (D6_DIAGONAL, D6_DIAGONAL)],
}


def generate(family: str, shape: str, k: int, seed: int) -> Instance:
    """The seeded polygon of one family and shape with k generic orbits."""
    if (family, shape) not in MIRROR_SEEDS:
        raise ValueError(f"family {family} has no shape {shape}")
    rng = random.Random(f"{family}:{shape}:{k}:{seed}")
    maps = GENERATORS[family]
    generic = []
    for q in _generic_params(rng, family, shape, k):
        generic += _orbit(q, maps)
    special = []
    for q in MIRROR_SEEDS[family, shape]:
        special += _orbit(q, maps)
    cycle = ccw_cycle(generic + special)
    if len(cycle) != len(generic) + len(special) or not strictly_convex(cycle):
        raise RuntimeError(f"{family} {shape} k={k} seed={seed}: points "
                           "coincide or are not in convex position")
    free_set = set(generic)
    free = tuple(i for i, v in enumerate(cycle) if v in free_set)
    return Instance(f"{family}-{shape}-k{k}", family, shape, tuple(cycle),
                    free)


def perturbed(inst: Instance) -> tuple[Point, ...]:
    """Copy of the polygon with one vertex on no mirror pulled 1/1000 of the
    way towards the midpoint of its neighbours: still strictly convex, but
    no longer symmetric under any of the original mirrors."""
    vs = list(inst.vertices)
    m = len(vs)
    for i in inst.free:
        a, v, b = vs[i - 1], vs[i], vs[(i + 1) % m]
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        moved = (v[0] + (mid[0] - v[0]) / 1000, v[1] + (mid[1] - v[1]) / 1000)
        cand = vs[:i] + [moved] + vs[i + 1:]
        if strictly_convex(cand):
            return tuple(cand)
    raise RuntimeError(f"{inst.name}: no vertex can be pulled in")
