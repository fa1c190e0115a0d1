"""Linear symmetries of a rational polygon and their fundamental regions.

A reflection is stored with its matrix acting on the polygon's plane; the
induced action on edge normals is the inverse transpose. A single mirror is
treated as the dihedral group of order 2, {id, sigma} with words () and
(1,), everywhere past the region's clipping: one edge-permutation table, one
orbit decomposition and one coefficient table serve both kinds of group.
For a single reflection or a dihedral group the fundamental region is the
polygon clipped to the negative side of the chosen mirror normal(s); its
edges are labeled so downstream code can name the surviving pieces of the
original boundary:

  single mirror   E_1 .. E_n inherited edges inside the region, numbered away
                  from the mirror edge; the mirror may additionally cross one
                  or two polygon edges (their halves keep the parent's normal
                  and offset) or pass through one or two vertices,
  dihedral wedge  two mirror edges meeting at the origin, with slot edges
                  between them numbered from the s1 side.

The three single-mirror shapes are called cases 1-1 (two crossed edges),
1-2 (one edge, one vertex) and 1-3 (two vertices); the dihedral shapes are
2-1 (both wedge rays cross edges), 2-2 (s1 ray crosses an edge, s2 ray exits
a vertex) and 2-3 (both rays exit vertices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CaseMismatch, EllTooSmall, Inconsistent, InconsistentGeometry,
    NotASymmetry, NotFiniteOrder, OrientationAmbiguous, PartitionFailure,
)
from .exactlin import Rat, RatMatrix, kernel_basis, solve
from .geometry import (
    IntVec, Point, RationalPolygon, _region_polygon, clip_halfplane, dot,
    format_point, format_rational, primitive,
)


def inverse2(m: RatMatrix) -> RatMatrix:
    a, b, c, d = m.entries
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    return RatMatrix.from_rows([[d / det, -b / det], [-c / det, a / det]])


def dual_matrix(m: RatMatrix) -> RatMatrix:
    """Action induced on normal vectors by x -> m x (inverse transpose)."""
    return inverse2(m.transpose())


@dataclass(frozen=True)
class Reflection:
    """An orientation-reversing involution preserving some polygon."""

    matrix: RatMatrix
    mirror_normal: IntVec  # primitive, sign-canonical; the fixed line is its kernel

    @staticmethod
    def from_matrix(matrix: RatMatrix) -> "Reflection":
        a, b, c, d = matrix.entries
        if a * d - b * c != -1:
            raise NotASymmetry("a reflection must have determinant -1")
        if matrix @ matrix != RatMatrix.identity(2):
            raise NotASymmetry("a reflection must be an involution")
        fixed = kernel_basis(RatMatrix.from_rows([
            [a - 1, b], [c, d - 1]]))
        assert len(fixed) == 1
        dvec = fixed[0]
        eta = primitive((dvec[1], -dvec[0]))
        if eta[0] < 0 or (eta[0] == 0 and eta[1] < 0):
            eta = (-eta[0], -eta[1])
        return Reflection(matrix, eta)

    @property
    def elements(self) -> tuple["GroupElement", "GroupElement"]:
        """The order-2 group (id, sigma), with words () and (1,), so that a
        single mirror reads like a dihedral group wherever elements are
        enumerated."""
        return (GroupElement((), RatMatrix.identity(2)),
                GroupElement((1,), self.matrix))


def vertex_permutation(p: RationalPolygon, matrix: RatMatrix) -> tuple[int, ...]:
    """tau with matrix * vertices[i] == vertices[tau[i]]; NotASymmetry if the
    vertex set is not preserved."""
    index = {v: i for i, v in enumerate(p.vertices)}
    tau = []
    for v in p.vertices:
        w = matrix.mat_vec(v)
        if w not in index:
            raise NotASymmetry(
                f"image of vertex {format_point(v)} is not a vertex")
        tau.append(index[w])
    return tuple(tau)


def edge_permutation(p: RationalPolygon, matrix: RatMatrix) -> tuple[int, ...]:
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
    """All reflections preserving p, in the order of their vertex pairings
    v_i -> v_{k-i} for k = 0..m-1."""
    vs = p.vertices
    m = p.m
    basis = RatMatrix.from_rows([[vs[0][0], vs[1][0]], [vs[0][1], vs[1][1]]])
    binv = inverse2(basis)  # vertices span the plane: no edge line hits 0
    found = []
    for k in range(m):
        t0, t1 = vs[k % m], vs[(k - 1) % m]
        target = RatMatrix.from_rows([[t0[0], t1[0]], [t0[1], t1[1]]])
        cand = target @ binv
        if all(cand.mat_vec(vs[i]) == vs[(k - i) % m] for i in range(m)):
            found.append(Reflection.from_matrix(cand))
    return tuple(found)


@dataclass(frozen=True)
class GroupElement:
    word: tuple[int, ...]  # letters 1 and 2; (a, b) acts as s_a after s_b
    matrix: RatMatrix

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
    order of the rotation s1*s2. A finite-order element of GL2(Q) with
    determinant 1 has order 1, 2, 3, 4 or 6: order 2 means -I, and orders 3,
    4 and 6 are exactly traces -1, 0 and 1."""
    if r1.matrix == r2.matrix:
        raise EllTooSmall("the two generators coincide")
    rot = r1.matrix @ r2.matrix
    if rot == RatMatrix.from_rows([[-1, 0], [0, -1]]):
        ell = 2
    else:
        ell = {-1: 3, 0: 4, 1: 6}.get(rot[0, 0] + rot[1, 1])
        if ell is None:
            raise NotFiniteOrder(
                "product of the two reflections has infinite order")
    return _generated(r1, r2, ell)


def _generated(r1: Reflection, r2: Reflection, ell: int) -> DihedralGroup:
    """The group of order 2*ell with generators s1 = r1, s2 = r2, one
    element per reduced word."""
    gens = {1: r1.matrix, 2: r2.matrix}

    def matrix_of(word):
        m = RatMatrix.identity(2)
        for a in word:
            m = m @ gens[a]
        return m

    words = [()]
    for k in range(1, ell):
        words.append(_alternating_word(k, last=1))
        words.append(_alternating_word(k, last=2))
    longest = tuple(1 if j % 2 == 0 else 2 for j in range(ell))
    words.append(longest)
    elements = tuple(GroupElement(w, matrix_of(w)) for w in words)
    if len({e.matrix for e in elements}) != 2 * ell:
        raise NotFiniteOrder("generators do not generate a dihedral group "
                             "of the computed order")
    return DihedralGroup(r1, r2, ell, elements)


def maximal_dihedral(refs: Sequence[Reflection],
                     ) -> tuple[Optional[DihedralGroup], tuple[tuple[int, int], ...]]:
    """The group of the first mirror pair whose dihedral group has the
    largest order, and every index pair i < j generating a group of that
    order, in scan order; (None, ()) with fewer than two mirrors."""
    best: Optional[DihedralGroup] = None
    pairs: list[tuple[int, int]] = []
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            g = dihedral_group(refs[i], refs[j])
            if best is None or g.ell > best.ell:
                best, pairs = g, []
            if g.ell == best.ell:
                pairs.append((i, j))
    return best, tuple(pairs)


@dataclass(frozen=True)
class FundamentalRegion:
    """The clipped region together with its edge labeling.

    kind is one of "1-1", "1-2", "1-3", "2-1", "2-2", "2-3". slot_edges maps
    the label number j of E_j to a region edge index; mirror_edges holds the
    region indices of the mirror edge(s) (one for a single reflection, two
    for a wedge, in generator order); cross_edges holds, for single-mirror
    cases, the region indices of the crossed halves in label order
    (E_{2n+1}, then E_{2n+2} when present). parent_of sends non-mirror region
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
    exits: tuple[tuple[str, int], ...]  # per mirror ray: ("edge"|"vertex", idx)
    fixed_vertices: tuple[int, ...]
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


def _truncated(region: RationalPolygon, idx: int, p: RationalPolygon,
               parent: int) -> bool:
    e, pe = region.edges[idx], p.edges[parent]
    return (e.tail, e.head) != (pe.tail, pe.head)


def _walk_from(region: RationalPolygon, start: int, avoid: set[int]) -> list[int]:
    """Region edge indices starting next to `start`, walking the cyclic order
    away from it, skipping nothing, stopping before any index in avoid."""
    m = region.m
    for step in (1, -1):
        first = (start + step) % m
        if first not in avoid:
            out = []
            i = first
            while i not in avoid and i != start:
                out.append(i)
                i = (i + step) % m
            return out
    return []


def _single_region(p: RationalPolygon, r: Reflection, eta: IntVec,
                   perms: dict[RatMatrix, tuple[int, ...]],
                   warnings: tuple[str, ...]) -> FundamentalRegion:
    pts = clip_halfplane(p.vertices, eta)
    region = _region_polygon(pts)
    if region.area() * 2 != p.area():
        raise InconsistentGeometry("half region does not have half the area")
    mirrors, parents = _match_parents(p, region, [eta])
    if len(mirrors) != 1:
        raise InconsistentGeometry("expected exactly one mirror edge")
    mirror_idx = next(iter(mirrors))
    crossed = [i for i in parents if _truncated(region, i, p, parents[i])]
    fixed_vertices = tuple(
        i for i, v in enumerate(p.vertices) if dot(v, eta) == 0)
    n_inherited = len(parents) - len(crossed)
    if len(crossed) == 2:
        kind = "1-1"
    elif len(crossed) == 1 and len(fixed_vertices) == 1:
        kind = "1-2"
    elif len(fixed_vertices) == 2:
        kind = "1-3"
    else:
        raise CaseMismatch(
            f"mirror meets boundary in {len(crossed)} edges and "
            f"{len(fixed_vertices)} vertices")
    n = n_inherited
    if p.m != {"1-1": 2 * n + 2, "1-2": 2 * n + 1, "1-3": 2 * n}[kind]:
        raise CaseMismatch("edge count does not match the detected case")

    m = region.m
    after = (mirror_idx + 1) % m          # ccw neighbor of the mirror edge
    before = (mirror_idx - 1) % m
    slot_edges: dict[int, int] = {}
    cross_edges: tuple[int, ...] = ()
    if kind == "1-1":
        # ccw cyclic order is mirror, E_{2n+2}, E_1 .. E_n, E_{2n+1}
        cross_edges = (before, after)
        walk = _walk_from(region, after, {mirror_idx, before})
        for j, idx in enumerate(walk, start=1):
            slot_edges[j] = idx
    elif kind == "1-2":
        cross_idx = crossed[0]
        walk = _walk_from(region, mirror_idx, {mirror_idx, cross_idx})
        # E_1 sits at the fixed-vertex end of the mirror edge, E_n next to
        # the crossed half
        for j, idx in enumerate(walk, start=1):
            slot_edges[j] = idx
        cross_edges = (cross_idx,)
    else:
        walk = _walk_from(region, mirror_idx, {mirror_idx})
        for j, idx in enumerate(walk, start=1):
            slot_edges[j] = idx
    if sorted(slot_edges.values()) != sorted(
            set(parents) - set(cross_edges)):
        raise CaseMismatch("slot labeling does not cover the region edges")
    return FundamentalRegion(
        polygon=p, region=region, group=r, etas=(eta,), kind=kind, n=n,
        mirror_edges=(mirror_idx,), slot_edges=slot_edges,
        cross_edges=cross_edges, parent_of=parents,
        edge_perms={e.word: perms[e.matrix] for e in r.elements}, exits=(),
        fixed_vertices=fixed_vertices, warnings=warnings)


def _point_on_edge_interior(p: RationalPolygon, q: Point) -> Optional[int]:
    for j, e in enumerate(p.edges):
        if dot(q, e.normal) + e.offset == 0:
            lo, hi = e.tail, e.head
            seg = (hi[0] - lo[0], hi[1] - lo[1])
            t_num = dot((q[0] - lo[0], q[1] - lo[1]), seg)
            t_den = dot(seg, seg)
            if 0 < t_num < t_den:
                return j
    return None


def _dihedral_region(p: RationalPolygon, group: DihedralGroup,
                     etas: tuple[IntVec, IntVec],
                     perms: dict[RatMatrix, tuple[int, ...]],
                     warnings: tuple[str, ...]) -> FundamentalRegion:
    pts = clip_halfplane(p.vertices, etas[0])
    pts = clip_halfplane(pts, etas[1])
    region = _region_polygon(pts)
    if region.area() * group.order != p.area():
        raise InconsistentGeometry("wedge area is not area(P)/|W|")
    mirrors, parents = _match_parents(p, region, list(etas))
    if len(mirrors) != 2 or sorted(mirrors.values()) != [0, 1]:
        raise InconsistentGeometry("expected one mirror edge per generator")
    mirror_of = {which: idx for idx, which in mirrors.items()}
    s1_idx, s2_idx = mirror_of[0], mirror_of[1]

    origin = (Fraction(0), Fraction(0))

    def exit_feature(mirror_idx: int) -> tuple[str, int]:
        e = region.edges[mirror_idx]
        if origin not in (e.tail, e.head):
            raise InconsistentGeometry("mirror edge does not start at the origin")
        far = e.head if e.tail == origin else e.tail
        if far in p.vertices:
            return ("vertex", p.vertices.index(far))
        j = _point_on_edge_interior(p, far)
        if j is None:
            raise InconsistentGeometry(
                f"wedge ray endpoint {format_point(far)} is on neither an "
                "edge nor a vertex")
        return ("edge", j)

    exit1, exit2 = exit_feature(s1_idx), exit_feature(s2_idx)
    if exit1[0] == "vertex" and exit2[0] == "edge":
        # normalize so the edge-crossing generator is s1
        return _dihedral_region(
            p, group.swapped(), (etas[1], etas[0]), perms,
            warnings + ("generators reordered so that the mirror crossing "
                        "an edge interior is s1",))
    kind = {("edge", "edge"): "2-1", ("edge", "vertex"): "2-2",
            ("vertex", "vertex"): "2-3"}[(exit1[0], exit2[0])]
    count = len(parents)
    ell = group.ell
    if kind == "2-1":
        n = count
        expected_m = 2 * ell * (n - 1)
        first_slot = 1
    elif kind == "2-2":
        n = count + 1
        expected_m = ell * (2 * n - 3)
        first_slot = 1
    else:
        n = count + 2
        expected_m = 2 * ell * (n - 2)
        first_slot = 2
    if p.m != expected_m:
        raise CaseMismatch(
            f"case {kind} with n={n}, ell={ell} needs m={expected_m}, "
            f"polygon has {p.m}")
    walk = _walk_from(region, s1_idx, {s1_idx, s2_idx})
    if len(walk) != count:
        raise InconsistentGeometry("slot edges do not form one arc")
    slot_edges = {first_slot + k: idx for k, idx in enumerate(walk)}
    return FundamentalRegion(
        polygon=p, region=region, group=group, etas=etas, kind=kind, n=n,
        mirror_edges=(s1_idx, s2_idx), slot_edges=slot_edges,
        cross_edges=(), parent_of=parents,
        edge_perms={e.word: perms[e.matrix] for e in group.elements},
        exits=(exit1, exit2),
        fixed_vertices=(), warnings=warnings)


def fundamental_region(p: RationalPolygon,
                       group: "Reflection | DihedralGroup",
                       chamber_hint: Optional[Sequence] = None,
                       ) -> FundamentalRegion:
    """Clip p to a fundamental region of the group and label its edges.

    chamber_hint, when given, must pair strictly negatively with the chosen
    mirror normals and selects among the sign candidates; otherwise the
    candidate whose region has the lexicographically smallest vertex tuple
    is taken.
    """
    # NotASymmetry here when a generator does not preserve p
    perms = {e.matrix: edge_permutation(p, e.matrix) for e in group.elements}
    if isinstance(group, Reflection):
        base = group.mirror_normal
        sign_sets = [(base,), ((-base[0], -base[1]),)]
        builder = lambda etas, warns: _single_region(
            p, group, etas[0], perms, warns)
        warnings: tuple[str, ...] = ()
    else:
        b1, b2 = group.s1.mirror_normal, group.s2.mirror_normal
        sign_sets = [
            (b1, b2), (b1, (-b2[0], -b2[1])),
            ((-b1[0], -b1[1]), b2), ((-b1[0], -b1[1]), (-b2[0], -b2[1])),
        ]
        builder = lambda etas, warns: _dihedral_region(
            p, group, etas, perms, warns)
        warnings = ()
        if group.ell == 2:
            warnings = ("dihedral group with ell=2 (perpendicular mirrors): "
                        "outside the usual ell>=3 setting, handled anyway",)

    if chamber_hint is not None:
        hint = tuple(Fraction(x) for x in chamber_hint)
        chosen = [etas for etas in sign_sets
                  if all(dot(hint, eta) < 0 for eta in etas)]
        if len(chosen) != 1:
            raise OrientationAmbiguous(
                "chamber hint lies on a mirror line and selects no candidate")
        try:
            return builder(chosen[0], warnings)
        except InconsistentGeometry as exc:
            raise OrientationAmbiguous(
                f"chamber hint does not select a fundamental wedge: {exc}")
    candidates = []
    for etas in sign_sets:
        try:
            candidates.append(builder(etas, warnings))
        except InconsistentGeometry:
            continue
    if not candidates:
        raise OrientationAmbiguous("no sign choice yields a fundamental region")
    return min(candidates, key=lambda fr: fr.region.vertices)


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
        if isinstance(group, DihedralGroup) and j in (1, fr.n):
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
    lambda(u(E_j)) - lambda(E_j) = c * eta_1 + d * eta_2. A single mirror
    has one eta, so d is empty; its c[((1,), j)] is the slot's reflection
    coefficient and c[((), j)] is 0."""

    sets: dict[int, tuple[GroupElement, ...]]
    c: dict[tuple[tuple[int, ...], int], Rat]
    d: dict[tuple[tuple[int, ...], int], Rat]
    integral: bool


def coefficient_pair(fr: FundamentalRegion, element: GroupElement,
                     slot: int) -> tuple[Rat, ...]:
    """The normal jump of one group element at one slot in the basis
    fr.etas: (c,) for a single mirror, (c, d) for a wedge."""
    p = fr.polygon
    parent = fr.parent_of[fr.slot_edges[slot]]
    lam = p.edges[parent].normal
    lam_img = p.edges[fr.edge_perms[element.word][parent]].normal
    diff = (Fraction(lam_img[0] - lam[0]), Fraction(lam_img[1] - lam[1]))
    mat = RatMatrix.from_rows([[eta[r] for eta in fr.etas] for r in (0, 1)])
    try:
        return solve(mat, diff)
    except Inconsistent:
        raise InconsistentGeometry(
            f"normal difference {format_point(diff)} is not a multiple of "
            f"eta={fr.etas[0]}") from None


def dihedral_coefficients(fr: FundamentalRegion) -> DihedralCoefficients:
    """The coefficient table of any fold region, over the summation sets of
    orbit_decomposition (which also proves that the orbits partition the
    polygon's edges and that every crossed edge is fixed)."""
    sets = {j: tuple(u for u, _ in entries)
            for j, entries in orbit_decomposition(fr).items()}
    c: dict[tuple[tuple[int, ...], int], Rat] = {}
    d: dict[tuple[tuple[int, ...], int], Rat] = {}
    for j, elems in sets.items():
        for u in elems:
            for table, x in zip((c, d), coefficient_pair(fr, u, j)):
                table[(u.word, j)] = x
    integral = all(v.denominator == 1 for v in list(c.values()) + list(d.values()))
    return DihedralCoefficients(sets, c, d, integral)


# the single-mirror name of the table, kept for older callers
single_coefficients = dihedral_coefficients
