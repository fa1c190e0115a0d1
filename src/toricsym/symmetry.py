"""Linear symmetries of a rational polygon and their fundamental regions.

A reflection is stored with its matrix acting on the polygon's plane; the
induced action on edge normals is the inverse transpose. Only integer
matrices count: the group must act on the lattice to act on the toric
surface. A single mirror is the dihedral group of order 2, {id, sigma} with
words () and (1,): one region builder, one edge-permutation table, one
orbit decomposition and one coefficient table serve both kinds of group.

A lattice map is a Mat2: the integer entries (a, b, c, d) of the matrix
(a b; c d), row-major. Reflections, group elements and the Weyl group
generators of toricsym.rootsystems are all Mat2; no map is a Fraction
matrix. Vertices are read from RationalPolygon.triples, built once with the
polygon: (x, y) is the reduced triple (X, Y, D) with (x, y) = (X, Y)/D and
D the lcm of that vertex's own two denominators. A map in GL2(Z) keeps
gcd(X, Y), so it sends a reduced triple to the reduced triple (g(X, Y), D):
mapping a vertex costs four integer products, and a lattice mirror pairs
vertices of equal D only. A common denominator for the whole polygon would
be the lcm of all of them, thousands of bits for a generated polygon with m
in the thousands, and every product would pay for it. Group elements are
multiplied as Mat2, each word's matrix from its prefix's, and only the
generators map vertices: every other element's edge permutation is composed
from theirs along its word.

The fundamental region is the polygon clipped by each chosen mirror normal
eta in turn, to its side <x, eta> <= 0, with signs that make this a chamber:
s1 moves eta2 by a non-negative multiple of eta1, as simple roots pair
non-positively (the sign of one Cartan integer). A mirror's half-plane is
the wedge of angle pi between the two rays of its line, so every region has
exactly two rays: both ends of a mirror's chord, or the far end of each of
a wedge's two mirror edges. Each ray ends at a vertex of the polygon or
crosses one of its edges, and the other region edges form one arc from one
ray to the other. The shape is called k-x, where k is the number of etas
and x - 1 the number of rays ending at a vertex: 1-1, 1-2 and 1-3 for a
mirror, 2-1, 2-2 and 2-3 for a wedge. The arc is labeled in one of two
ways:

  mirror  an edge crossed by a ray leaves a half that keeps the parent's
          normal and offset; the halves are C1 and C2 and the rest are the
          slots E_1 .. E_n, numbered from a ray ending at a vertex, and
          ccw when both rays end alike,
  wedge   the slots run from the s1 ray to the s2 ray; a ray ending at a
          vertex stands for a slot of zero length, so E_1 is absent in 2-3
          and E_n in 2-2 and 2-3, and s1 is the generator whose ray
          crosses an edge when only one does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import (
    CaseMismatch, EllTooSmall, InconsistentGeometry,
    NotASymmetry, NotFiniteOrder, OrientationAmbiguous, PartitionFailure,
)
from .exactlin import Rat
from .geometry import (
    IntVec, RationalPolygon, _reduced, _region_polygon, clip_halfplane,
    cross, dot, format_point, format_rational, primitive,
)


Mat2 = tuple[int, int, int, int]  # (a, b, c, d) is the matrix (a b; c d)
IDENTITY: Mat2 = (1, 0, 0, 1)


def mul(g: Sequence[int], h: Sequence[int]) -> Mat2:
    """The product g h of two 2 x 2 integer matrices given row-major."""
    a, b, c, d = g
    e, f, k, l = h
    return (a * e + b * k, a * f + b * l, c * e + d * k, c * f + d * l)


@dataclass(frozen=True)
class Reflection:
    """An orientation-reversing involution preserving some polygon."""

    matrix: Mat2
    mirror_normal: IntVec  # primitive, sign-canonical; the fixed line is its kernel

    @staticmethod
    def from_matrix(entries: Sequence) -> "Reflection":
        """The reflection with the four row-major entries a, b, c, d, which
        may be given as any rationals."""
        if any(x != int(x) for x in entries):
            raise NotASymmetry("the matrix is not a lattice map: a "
                               "reflection must have integer entries")
        g = a, b, c, d = tuple(int(x) for x in entries)
        if a * d - b * c != -1:
            raise NotASymmetry("a reflection must have determinant -1")
        if mul(g, g) != IDENTITY:
            raise NotASymmetry("a reflection must be an involution")
        # (g - 1)(g + 1) = 0: a nonzero column of g + 1 spans the fixed line
        dvec = (a + 1, c) if (a + 1, c) != (0, 0) else (b, d + 1)
        eta = primitive((dvec[1], -dvec[0]))
        if eta[0] < 0 or (eta[0] == 0 and eta[1] < 0):
            eta = (-eta[0], -eta[1])
        return Reflection(g, eta)

    @property
    def elements(self) -> tuple["GroupElement", "GroupElement"]:
        """The order-2 group (id, sigma), with words () and (1,), so that a
        single mirror reads like a dihedral group wherever elements are
        enumerated."""
        return (GroupElement((), IDENTITY), GroupElement((1,), self.matrix))


def vertex_permutation(p: RationalPolygon, matrix: Mat2) -> tuple[int, ...]:
    """tau with matrix * vertices[i] == vertices[tau[i]]; NotASymmetry if the
    vertex set is not preserved."""
    a, b, c, d = matrix
    triples = p.triples
    index = {t: i for i, t in enumerate(triples)}
    if a * d - b * c in (1, -1):
        # a lattice map keeps each reduced triple reduced, with the same D
        images = [index.get((a * x + b * y, c * x + d * y, e))
                  for x, y, e in triples]
    else:
        # any other map may leave a common factor in the image triple
        images = [index.get(_reduced(a * x + b * y, c * x + d * y, e))
                  for x, y, e in triples]
    if None in images:
        v = p.vertices[images.index(None)]
        raise NotASymmetry(f"image of vertex {format_point(v)} is not a vertex")
    return tuple(images)


def edge_permutation(p: RationalPolygon, matrix: Mat2) -> tuple[int, ...]:
    """pi with matrix * (edge i) == edge pi[i] as point sets."""
    tau = vertex_permutation(p, matrix)
    m = p.m
    pi = []
    for i in range(m):
        a, b = tau[i], tau[(i + 1) % m]
        if (a + 1) % m == b:
            pi.append(a)
        elif (b + 1) % m == a:
            pi.append(b)
        else:
            raise NotASymmetry("vertex images do not map edges to edges")
    return tuple(pi)


def detect_reflections(p: RationalPolygon) -> tuple[Reflection, ...]:
    """All lattice reflections preserving p, in the order of their vertex
    pairings v_i -> v_{k-i} for k = 0..m-1. A pairing whose linear map is
    not an integer matrix does not act on the lattice, so it is skipped.

    A lattice reflection keeps every reduced triple's D, so v_k and v_{k-1}
    must share the D of v_0 and v_1. Then the map is T adj(B) / det(B), with
    B = (X_0 X_1; Y_0 Y_1) and T the same for v_k and v_{k-1}: it is integral
    iff det(B) divides T adj(B), and of determinant -1 iff det(T) = -det(B)."""
    tr = p.triples
    (x0, y0, d0), (x1, y1, d1) = tr[0], tr[1]
    det = x0 * y1 - x1 * y0  # vertices span the plane: no edge line hits 0
    found = []
    for k in range(p.m):
        (u0, w0, e0), (u1, w1, e1) = tr[k], tr[k - 1]
        if e0 != d0 or e1 != d1 or u0 * w1 - u1 * w0 != -det:
            continue
        # T adj(B) with adj(B) = (y1 -x1; -y0 x0)
        num = (u0 * y1 - u1 * y0, u1 * x0 - u0 * x1,
               w0 * y1 - w1 * y0, w1 * x0 - w0 * x1)
        if any(n % det for n in num):
            continue
        a, b, c, d = (n // det for n in num)
        if all((a * x + b * y, c * x + d * y, e) == tr[k - i]
               for i, (x, y, e) in enumerate(tr)):
            found.append(Reflection.from_matrix((a, b, c, d)))
    return tuple(found)


@dataclass(frozen=True)
class GroupElement:
    word: tuple[int, ...]  # letters 1 and 2; (a, b) acts as s_a after s_b
    matrix: Mat2

    @property
    def name(self) -> str:
        return "id" if not self.word else "".join(f"s{a}" for a in self.word)

    @property
    def length(self) -> int:
        return len(self.word)


def _alternating_word(length: int, last: int) -> tuple[int, ...]:
    letters = []
    cur = last
    for _ in range(length):
        letters.append(cur)
        cur = 3 - cur
    return tuple(reversed(letters))


@dataclass(frozen=True)
class DihedralGroup:
    """Group generated by two distinct reflections, of order 2*ell."""

    s1: Reflection
    s2: Reflection
    ell: int
    elements: tuple[GroupElement, ...]

    @property
    def order(self) -> int:
        return 2 * self.ell

    def coset_reps(self, i: int) -> tuple[GroupElement, ...]:
        """Elements whose reduced word does not end in s_i: one per length
        0..ell-1, ordered by length (the standard transversal of W/<s_i>)."""
        reps = [e for e in self.elements
                if e.length < self.ell and (not e.word or e.word[-1] != i)]
        assert len(reps) == self.ell
        return tuple(reps)

    def swapped(self) -> "DihedralGroup":
        """Same group with the generator names exchanged."""
        return _generated(self.s2, self.s1, self.ell)


def dihedral_group(r1: Reflection, r2: Reflection) -> DihedralGroup:
    """The group generated by r1 and r2, of order 2*ell where ell is the
    order of the rotation s1*s2."""
    return _generated(r1, r2, _ell(r1, r2))


def _ell(r1: Reflection, r2: Reflection) -> int:
    """The order of the rotation s1*s2. A finite-order element of GL2(Q)
    with determinant 1 has order 1, 2, 3, 4 or 6: order 2 means -I, and
    orders 3, 4 and 6 are exactly traces -1, 0 and 1."""
    if r1.matrix == r2.matrix:
        raise EllTooSmall("the two generators coincide")
    rot = mul(r1.matrix, r2.matrix)
    if rot == (-1, 0, 0, -1):
        return 2
    ell = {-1: 3, 0: 4, 1: 6}.get(rot[0] + rot[3])
    if ell is None:
        raise NotFiniteOrder("product of the two reflections has infinite order")
    return ell


def _generated(r1: Reflection, r2: Reflection, ell: int) -> DihedralGroup:
    """The group of order 2*ell with generators s1 = r1, s2 = r2, one
    element per reduced word; each word's matrix is its prefix's matrix
    times its last letter."""
    gens = {1: r1.matrix, 2: r2.matrix}
    words = [()]
    for k in range(1, ell):
        words.append(_alternating_word(k, last=1))
        words.append(_alternating_word(k, last=2))
    words.append(tuple(1 if j % 2 == 0 else 2 for j in range(ell)))
    mats = {(): IDENTITY}
    for w in words[1:]:
        mats[w] = mul(mats[w[:-1]], gens[w[-1]])
    if len(set(mats.values())) != 2 * ell:
        raise NotFiniteOrder("generators do not generate a dihedral group "
                             "of the computed order")
    elements = tuple(GroupElement(w, mats[w]) for w in words)
    return DihedralGroup(r1, r2, ell, elements)


def maximal_dihedral(refs: Sequence[Reflection],
                     ) -> tuple[Optional[DihedralGroup], tuple[tuple[int, int], ...]]:
    """The group of the first mirror pair whose dihedral group has the
    largest order, and every index pair i < j generating a group of that
    order, in scan order; (None, ()) with fewer than two mirrors."""
    best = 0
    pairs: list[tuple[int, int]] = []
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            ell = _ell(refs[i], refs[j])
            if ell > best:
                best, pairs = ell, []
            if ell == best:
                pairs.append((i, j))
    if not pairs:
        return None, ()
    i, j = pairs[0]
    return _generated(refs[i], refs[j], best), tuple(pairs)


@dataclass(frozen=True)
class FundamentalRegion:
    """The clipped region together with its edge labeling.

    kind is "k-x" with k = len(etas) and x - 1 the number of rays ending at
    a vertex (see the module docstring). exits holds, for both kinds of
    group, where the two rays end, as ("vertex", polygon vertex index) or
    ("edge", polygon edge index): a wedge's in generator order, a mirror's
    with the ray at E_1's end first. slot_edges maps the label number j of
    E_j to a region edge index; mirror_edges holds the region indices of the
    mirror edge(s) (one for a single reflection, two for a wedge, in
    generator order); cross_edges holds, for single-mirror cases, the region
    indices of the crossed halves in label order (E_{2n+1}, then E_{2n+2}
    when present): C1, the cw neighbour of the mirror edge, before C2, the
    ccw one. parent_of sends non-mirror region
    edges to the polygon edge they came from. edge_perms maps the word of
    every element of group (a single mirror counts as the order-2 group, see
    Reflection.elements) to its permutation pi of the polygon's edges, with
    u(edge i) == edge pi[i]; it is computed once here, and every orbit,
    coefficient and ring action downstream reads it.
    """

    polygon: RationalPolygon
    region: RationalPolygon
    group: "Reflection | DihedralGroup"
    etas: tuple[IntVec, ...]
    kind: str
    n: int
    mirror_edges: tuple[int, ...]
    slot_edges: dict[int, int]
    cross_edges: tuple[int, ...]
    parent_of: dict[int, int]
    edge_perms: dict[tuple[int, ...], tuple[int, ...]]
    exits: tuple[tuple[str, int], ...]
    warnings: tuple[str, ...] = ()

    @property
    def slots(self) -> tuple[int, ...]:
        return tuple(sorted(self.slot_edges))


def _match_parents(p: RationalPolygon, region: RationalPolygon,
                   etas: Sequence[IntVec]) -> tuple[dict[int, int], dict[int, int]]:
    """(mirror edge index -> which eta, non-mirror index -> parent index)."""
    by_halfspace = {(e.normal, e.offset): j for j, e in enumerate(p.edges)}
    mirrors: dict[int, int] = {}
    parents: dict[int, int] = {}
    for idx, e in enumerate(region.edges):
        if e.offset == 0 and e.normal in etas:
            mirrors[idx] = etas.index(e.normal)
            continue
        key = (e.normal, e.offset)
        if key not in by_halfspace:
            raise InconsistentGeometry(
                f"region edge {e.normal}, {format_rational(e.offset)} "
                "matches no polygon edge")
        parents[idx] = by_halfspace[key]
    return mirrors, parents


def _region(p: RationalPolygon, group: "Reflection | DihedralGroup",
            etas: tuple[IntVec, ...], perms: dict[Mat2, tuple[int, ...]],
            area: Rat, warnings: tuple[str, ...]) -> FundamentalRegion:
    """Clip p by each eta in turn and label the region's edges.

    The mirror edges meet the boundary of p at two rays' ends (both ends of
    a mirror's chord, the far end of each wedge edge), and the other region
    edges form one arc between them. A ray ends at a vertex of p or crosses
    the edge that the arc's end edge comes from. area is p.area(), and
    perms maps each element's matrix to its edge permutation: the swapped
    group names the same matrices by other words.
    """
    pts = p.triples
    for eta in etas:
        pts = clip_halfplane(pts, eta)
    region = _region_polygon(pts)
    order = len(group.elements)
    if region.area() * order != area:
        raise InconsistentGeometry("region area is not area(P)/|W|")
    mirrors, parents = _match_parents(p, region, etas)
    if sorted(mirrors.values()) != list(range(len(etas))):
        raise InconsistentGeometry("expected one mirror edge per generator")
    m = region.m
    last = next(i for i in mirrors if (i + 1) % m not in mirrors)
    arc = [(last + k) % m for k in range(1, len(parents) + 1)]
    if set(arc) != set(parents):
        raise InconsistentGeometry("slot edges do not form one arc")
    # the ray at the arc's start, then the one at its end
    ends = ((arc[0], region.triples[arc[0]]),
            (arc[-1], region.triples[(arc[-1] + 1) % m]))
    exits = [("vertex", p.triples.index(q)) if q in p.triples
             else ("edge", parents[idx]) for idx, q in ends]
    crossed = [idx for (idx, _), (feature, _) in zip(ends, exits)
               if feature == "edge"]
    vertex_ends = len(exits) - len(crossed)
    if len(etas) == 1:
        # C1 is the cw neighbour of the mirror edge; the slots are numbered
        # from a vertex end, ccw when both ends are alike
        cross_edges = tuple(reversed(crossed))
        if [f for f, _ in exits] == ["edge", "vertex"]:
            arc.reverse()
            exits.reverse()
        slots = [idx for idx in arc if idx not in crossed]
        first, n = 1, len(slots)
    else:
        # a wedge numbers its slots from s1, whose ray crosses an edge
        # whenever either ray does
        if mirrors[last] == 1:
            arc.reverse()
            exits.reverse()
        if [f for f, _ in exits] == ["vertex", "edge"]:
            # rename the generators: the same region, read from the other end
            group, etas = group.swapped(), etas[::-1]
            mirrors = {idx: 1 - k for idx, k in mirrors.items()}
            arc.reverse()
            exits.reverse()
            warnings += ("generators reordered so that the mirror "
                         "crossing an edge interior is s1",)
        cross_edges, slots = (), arc
        first = 2 if exits[0][0] == "vertex" else 1
        n = len(arc) + vertex_ends
    kind = f"{len(etas)}-{1 + vertex_ends}"
    # a parent's orbit has |W| edges, or |W|/2 when a ray crosses it
    expected_m = order * len(parents) - order // 2 * len(crossed)
    if p.m != expected_m:
        raise CaseMismatch(
            f"case {kind} with n={n}, ell={order // 2} needs m={expected_m}, "
            f"polygon has {p.m}")
    return FundamentalRegion(
        polygon=p, region=region, group=group, etas=etas, kind=kind, n=n,
        mirror_edges=tuple(sorted(mirrors, key=mirrors.get)),
        slot_edges={first + k: idx for k, idx in enumerate(slots)},
        cross_edges=cross_edges, parent_of=parents,
        edge_perms={e.word: perms[e.matrix] for e in group.elements},
        exits=tuple(exits), warnings=warnings)


def chambers(group: "Reflection | DihedralGroup") -> list[tuple[IntVec, ...]]:
    """The sign choices of the mirror normals whose region <x, eta> <= 0 is
    a chamber of the group, in product order (see fundamental_region)."""
    if isinstance(group, Reflection):
        x, y = group.mirror_normal
        return [((x, y),), ((-x, -y),)]
    a, b, c, d = group.s1.matrix
    signs = [(n, (-n[0], -n[1]))
             for n in (group.s1.mirror_normal, group.s2.mirror_normal)]
    # s1 acts on the normal (x, y) by its transpose (a c; b d)
    return [(eta1, (x, y)) for eta1, (x, y) in product(*signs)
            if dot(((a - 1) * x + c * y, b * x + (d - 1) * y), eta1) >= 0]


def fundamental_region(p: RationalPolygon,
                       group: "Reflection | DihedralGroup",
                       chamber_hint: Optional[Sequence] = None,
                       ) -> FundamentalRegion:
    """Clip p to a fundamental region of the group and label its edges.

    Only chambers are clipped: both half-planes of a mirror, and the sign
    choices of a wedge where s1 moves eta2 by a non-negative multiple of
    eta1, as simple roots pair non-positively (Humphreys, Reflection Groups
    and Coxeter Groups, 1.3). An involution acts on normals by its
    transpose, so the test is dot(s1^T eta2 - eta2, eta1) >= 0. The multiple
    is 0 exactly when ell = 2, so all four quadrants pass there, and two
    wedges when ell >= 3. chamber_hint, when given, must pair strictly
    negatively with the chosen normals, and OrientationAmbiguous is raised
    when it selects no chamber; otherwise the chamber whose region has the
    lexicographically smallest vertex tuple is taken.
    """
    # NotASymmetry here when a generator does not preserve p; every longer
    # word u = s_a rest composes as pi_u[i] = pi_a[pi_rest[i]]
    by_word: dict[tuple[int, ...], tuple[int, ...]] = {}
    for e in group.elements:
        if e.length <= 1:
            by_word[e.word] = edge_permutation(p, e.matrix)
        else:
            head, rest = by_word[e.word[:1]], by_word[e.word[1:]]
            by_word[e.word] = tuple(head[k] for k in rest)
    perms = {e.matrix: by_word[e.word] for e in group.elements}
    warnings: tuple[str, ...] = ()
    if isinstance(group, DihedralGroup) and group.ell == 2:
        warnings = ("dihedral group with ell=2 (perpendicular mirrors): "
                    "outside the usual ell>=3 setting, handled anyway",)
    candidates = chambers(group)
    if chamber_hint is not None:
        candidates = [etas for etas in candidates
                      if all(dot(chamber_hint, eta) < 0 for eta in etas)]
        if not candidates:
            raise OrientationAmbiguous(
                "chamber hint selects no chamber: it lies on a mirror line "
                "or in a wedge that is not a chamber of the group")
    area = p.area()
    return min((_region(p, group, etas, perms, area, warnings)
                for etas in candidates), key=lambda fr: fr.region.vertices)


# ---------------------------------------------------------------------------
# orbits and coefficients


def orbit_decomposition(fr: FundamentalRegion) -> dict[int, tuple[tuple[GroupElement, int], ...]]:
    """For each slot j, the pairs (u, u(E_j)'s polygon edge index) over the
    slot's summation set, read from fr.edge_perms, and a proof that these
    orbits partition the polygon's edges (crossed halves count through their
    parents, which every element must fix).

    Summation sets: for a dihedral group slot 1 uses the transversal avoiding
    s1, slot n the one avoiding s2, inner slots the whole group; for a single
    reflection every slot uses the whole group {id, sigma}.
    """
    group = fr.group
    out: dict[int, tuple[tuple[GroupElement, int], ...]] = {}
    used: list[int] = []
    for j, idx in fr.slot_edges.items():
        parent = fr.parent_of[idx]
        if len(fr.etas) == 2 and j in (1, fr.n):
            summation = group.coset_reps(1 if j == 1 else 2)
        else:
            summation = group.elements
        out[j] = tuple((u, fr.edge_perms[u.word][parent]) for u in summation)
        used += [k for _, k in out[j]]
    for idx in fr.cross_edges:
        parent = fr.parent_of[idx]
        if any(perm[parent] != parent for perm in fr.edge_perms.values()):
            raise InconsistentGeometry(
                "a mirror-crossed edge must map to itself")
        used.append(parent)
    if sorted(used) != list(range(fr.polygon.m)):
        raise PartitionFailure(
            "slot orbits do not cover every polygon edge exactly once")
    return out


@dataclass(frozen=True)
class DihedralCoefficients:
    """c and d keyed by (element word, slot): the expansion
    lambda(u(E_j)) - lambda(E_j) = c * eta_1 + d * eta_2, in ints (see
    coefficient_pair). A single mirror has one eta, so d is empty; its
    c[((1,), j)] is the slot's reflection coefficient and c[((), j)] is 0."""

    sets: dict[int, tuple[GroupElement, ...]]
    c: dict[tuple[tuple[int, ...], int], int]
    d: dict[tuple[tuple[int, ...], int], int]


def coefficient_pair(fr: FundamentalRegion, element: GroupElement,
                     slot: int) -> tuple[int, ...]:
    """The normal jump of one group element at one slot in the basis
    fr.etas: (c,) for a single mirror, (c, d) for a wedge, in ints. With
    u = s_a u', the jump u(lambda) - lambda is (s_a^T - 1) u'(lambda) +
    (u'(lambda) - lambda): along u's word it telescopes into integer vectors
    on the lines of the primitive eta_a, so into integer multiples of them.
    Exact division solves it, a mirror's in the basis (eta, eta turned by a
    right angle) with no second part; a remainder is InconsistentGeometry,
    as the edge permutation then contradicts the geometry."""
    p = fr.polygon
    parent = fr.parent_of[fr.slot_edges[slot]]
    lam = p.edges[parent].normal
    lam_img = p.edges[fr.edge_perms[element.word][parent]].normal
    diff = (lam_img[0] - lam[0], lam_img[1] - lam[1])
    single = len(fr.etas) == 1
    eta1, eta2 = ((fr.etas[0], (-fr.etas[0][1], fr.etas[0][0])) if single
                  else fr.etas)
    det = cross(eta1, eta2)
    (c, rc), (d, rd) = (divmod(cross(diff, eta2), det),
                        divmod(cross(eta1, diff), det))
    if rc or rd or (single and d):
        raise InconsistentGeometry(
            f"normal difference {format_point(diff)} is not " +
            (f"a multiple of eta={eta1}" if single else
             f"an integer combination of eta1={eta1} and eta2={eta2}"))
    return (c,) if single else (c, d)


def dihedral_coefficients(fr: FundamentalRegion) -> DihedralCoefficients:
    """The coefficient table of any fold region, over the summation sets of
    orbit_decomposition (which also proves that the orbits partition the
    polygon's edges and that every crossed edge is fixed)."""
    sets = {j: tuple(u for u, _ in entries)
            for j, entries in orbit_decomposition(fr).items()}
    c: dict[tuple[tuple[int, ...], int], int] = {}
    d: dict[tuple[tuple[int, ...], int], int] = {}
    for j, elems in sets.items():
        for u in elems:
            for table, x in zip((c, d), coefficient_pair(fr, u, j)):
                table[(u.word, j)] = x
    return DihedralCoefficients(sets, c, d)


# the single-mirror name of the table, kept for older callers
single_coefficients = dihedral_coefficients
