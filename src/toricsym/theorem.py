"""Ring maps from a quotient region's cohomology into the full polygon's,
and the mechanical certification that they are isomorphisms onto the
invariant subring.

One builder serves every group, a single mirror being the dihedral group of
order 2: each slot variable goes to its orbit sum, each crossed half passes
through, and each mirror variable goes to the orbit sum weighted by its
normal-jump coefficients (c for the first mirror, d for the second). For a
single mirror the slot orbit is {x_j, x_{sigma(j)}} and the mirror variable
becomes the c-weighted sum of the reflected slot variables.

Certification is exact and two-route: every ideal generator of the source
must reduce to zero in the target, every generator image must be a fixed
vector of the induced action, and bijectivity onto the invariants is
established both by direct rank computations and by the Poincare duality
shortcut (a graded map of duality algebras that is nonzero on the top degree
is injective). The two verdicts are compared, never merged.

Every image is a linear form, held as a sparse edge row {edge: Fraction}
(cohomology.Row), and every check reads those rows directly: degree-2
classes and ranks through CohomologyRing.deg2_class and deg2_rank, degree-4
values through the bilinear form CohomologyRing.deg4. The source's
Stanley-Reisner generators are read off its edge count
(geometry.nonadjacent_pairs), and each is evaluated once: multiplicativity
reuses the values of the nonadjacent basis pairs, so it evaluates deg4 only
on the basis squares and the pairs (a, a+1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .cohomology import (
    CohomologyRing, RingAction, Row, cohomology_ring, invariant_deg2, ring_action,
    row_str,
)
from .exactlin import Rat
from .geometry import format_rational, nonadjacent_pairs
from .symmetry import (
    DihedralCoefficients, FundamentalRegion, dihedral_coefficients,
    fundamental_region,
)


@dataclass(frozen=True)
class RingMap:
    """A variable substitution from the region's ring into the polygon's.

    images[i] is the linear form substituted for the i-th region variable,
    as a row of its nonzero coefficients on the target's edge variables.
    """

    source: CohomologyRing
    target: CohomologyRing
    images: tuple[Row, ...]


def variable_names(fr: FundamentalRegion) -> dict[int, str]:
    """Readable names for the region variables, used in check witnesses."""
    mirror_names = ("x_sigma",) if len(fr.etas) == 1 else ("x_s1", "x_s2")
    names = dict(zip(fr.mirror_edges, mirror_names))
    for j, idx in fr.slot_edges.items():
        names[idx] = f"x_E{j}"
    for a, idx in enumerate(fr.cross_edges, start=1):
        names[idx] = f"x_C{a}"
    return names


def build_dihedral_map(fr: FundamentalRegion,
                       coeffs: DihedralCoefficients | None = None) -> RingMap:
    """The map for any fold region: each slot variable becomes its orbit sum
    over coeffs.sets, each crossed half passes through, and mirror k becomes
    the orbit sum weighted by the k-th coefficient table (c, then d)."""
    if coeffs is None:
        coeffs = dihedral_coefficients(fr)
    one = Fraction(1)
    images: list[Row] = [{}] * fr.region.m
    weights: list[dict[int, Rat]] = [{} for _ in fr.mirror_edges]
    for j, idx in fr.slot_edges.items():
        parent = fr.parent_of[idx]
        orbit = [(u, fr.edge_perms[u.word][parent]) for u in coeffs.sets[j]]
        images[idx] = {k: one for _, k in orbit}
        for terms, table in zip(weights, (coeffs.c, coeffs.d)):
            for u, k in orbit:
                terms[k] = terms.get(k, Fraction(0)) + table[(u.word, j)]
    for idx in fr.cross_edges:
        images[idx] = {fr.parent_of[idx]: one}
    for idx, terms in zip(fr.mirror_edges, weights):
        images[idx] = {k: v for k, v in terms.items() if v}
    return RingMap(cohomology_ring(fr.region), cohomology_ring(fr.polygon),
                   tuple(images))


# the single-mirror name of the builder, kept for older callers
build_reflection_map = build_dihedral_map


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witnesses: tuple[str, ...]
    sr_nonzero: tuple[tuple[int, int], ...] = ()  # SR pairs with image != 0


@dataclass(frozen=True)
class InvarianceResult:
    ok: bool
    fixed_ok: bool   # every image is a fixed vector of every generator
    span_ok: bool    # degree-2 images span exactly the invariant subspace
    witnesses: tuple[str, ...]
    inv_rank: int | None = None  # rank of the invariant matrix, if recorded


def _nf_str(coords) -> str:
    if not any(coords):
        return "0"
    return "(" + ", ".join(format_rational(c) for c in coords) + ")"


def check_well_defined(rmap: RingMap,
                       names: dict[int, str] | None = None) -> CheckResult:
    """Push every source ideal generator through the map and record its
    class in the target; all must vanish. A quadratic x_i x_j goes to
    deg4(image_i, image_j), the triangle's cubic to degree 6, which is zero,
    and a linear relation sum_i c_i x_i to the degree-2 class of
    sum_i c_i image_i. The quadratics whose value is nonzero are kept in
    the result for check_isomorphism."""
    src, tgt, images = rmap.source, rmap.target, rmap.images
    label = [(names or {}).get(i, f"x{i}") for i in range(src.m)]
    wit, bad = [], []
    for i, j in nonadjacent_pairs(src.m):
        value = tgt.deg4(images[i], images[j])
        if value:
            bad.append((i, j))
        wit.append(f"sr {label[i]}*{label[j]} -> {_nf_str((value,))}")
    if src.m == 3:
        wit.append(f"sr {'*'.join(label)} -> 0")
    ok = not bad
    for row in src.linear_rows:
        pushed: Row = {}
        for i, c in row.items():
            for k, v in images[i].items():
                pushed[k] = pushed.get(k, 0) + c * v
        coords = tgt.deg2_class(pushed)
        ok = ok and not any(coords)
        wit.append(f"linear {row_str(row, names)} -> {_nf_str(coords)}")
    return CheckResult(ok, tuple(wit), tuple(bad))


def group_ring_actions(ring: CohomologyRing, fr: FundamentalRegion,
                       ) -> tuple[tuple[RingAction, ...], tuple[RingAction, ...]]:
    """(generator actions, full group actions) on the target ring. Only the
    generators, the length-1 words, go through ring_action's checks: a
    product of permutations that preserve both ideals preserves them, so
    every other element's action is read off its permutation."""
    elements = fr.group.elements
    full = tuple((ring_action if e.length == 1 else RingAction.of)(
        ring, fr.edge_perms[e.word]) for e in elements)
    gens = tuple(a for a, e in zip(full, elements) if e.length == 1)
    return gens, full


def check_image_invariant(rmap: RingMap, gen_actions, inv_rows,
                          names: dict[int, str] | None = None,
                          ) -> InvarianceResult:
    """(a) every generator image is fixed by every generator action: moving
    its coefficients by the action's permutation leaves the row, or else its
    degree-2 class, as it is; (b) the degree-2 images span exactly the
    invariant subspace spanned by inv_rows. The rank of inv_rows is kept in
    the result for the later checks."""
    tgt = rmap.target
    wit = []
    fixed_ok = True
    for idx, img in enumerate(rmap.images):
        coords = None
        label = (names or {}).get(idx, f"x{idx}")
        for k, act in enumerate(gen_actions, start=1):
            moved = {act.perm[i]: c for i, c in img.items()}
            good = moved == img
            if not good:  # e.g. a mirror image, fixed only modulo M_Q
                if coords is None:
                    coords = tgt.deg2_class(img)
                good = tgt.deg2_class(moved) == coords
            fixed_ok = fixed_ok and good
            wit.append(f"image of {label} {'fixed' if good else 'moved'} "
                       f"by generator {k}")
    images, inv_rows = list(rmap.images), list(inv_rows)
    image_rank, inv_rank = tgt.deg2_rank(images), tgt.deg2_rank(inv_rows)
    span_ok = image_rank == inv_rank == tgt.deg2_rank(images + inv_rows)
    wit.append(f"degree-2 image span rank {image_rank}, invariant "
               f"rank {inv_rank}, spans {'match' if span_ok else 'differ'}")
    return InvarianceResult(fixed_ok and span_ok, fixed_ok, span_ok,
                            tuple(wit), inv_rank)


@dataclass(frozen=True)
class IsomorphismChecks:
    injective_deg2: bool
    spans_invariants: bool
    deg4_scalar: Rat
    multiplicative: bool
    orientation_trivial: bool
    source_pd: bool
    dims: tuple[int, int, int, int]  # source deg2, invariant deg2, both deg4
    direct: bool
    shortcut: bool
    witnesses: tuple[str, ...]


def check_isomorphism(rmap: RingMap, gen_actions, all_actions,
                      inv_rows, well: CheckResult,
                      inv: InvarianceResult) -> IsomorphismChecks:
    """Two independent verdicts.

    Direct: the degree-2 basis images are independent in H^2 and span the
    invariant space; the degree-4 scalar is nonzero; products of basis
    classes are multiplied by that same scalar; the full group acts by +1 on
    degree 4. Shortcut: the source pairing is nondegenerate and the degree-4
    scalar is nonzero, so injectivity follows from duality, and fixed images
    plus equal dimensions give surjectivity onto the invariants.

    The rank of inv_rows is read from inv, the determinant of the source
    pairing from the source ring, and the products of nonadjacent basis pairs
    from well.sr_nonzero, where they were computed.
    """
    src, tgt = rmap.source, rmap.target
    src2 = len(src.deg2_basis)
    inv_rows = list(inv_rows)
    inv2 = tgt.deg2_rank(inv_rows) if inv.inv_rank is None else inv.inv_rank
    rows = [rmap.images[b] for b in src.deg2_basis]
    mat_rank = tgt.deg2_rank(rows)
    inj2 = mat_rank == src2
    spans = mat_rank == inv2 == tgt.deg2_rank(rows + inv_rows)

    # source products read off the table; region edges 0 and 1 are adjacent
    t, images = src.product_table, rmap.images
    scalar = tgt.deg4(images[0], images[1]) / t[0][1]
    inj4 = scalar != 0

    # T is tridiagonal and the basis 2..m-1 has no wrap-around pair, so only
    # squares and pairs (a, a+1) have a nonzero source product; every other
    # basis pair is a Stanley-Reisner generator that well evaluated
    mult = (all(tgt.deg4(images[a], images[b]) == scalar * t[a][b]
                for a in src.deg2_basis for b in (a, a + 1) if b < src.m)
            and all(i < 2 for i, _ in well.sr_nonzero))

    orient = all(a.deg4_scalar == 1 for a in all_actions)
    pd_ok = src.pairing_det != 0
    dims = (src2, inv2, 1, 1 if orient else 0)

    direct = (well.ok and inv.ok and inj2 and spans and inj4 and mult
              and orient and src2 == inv2)
    shortcut = (well.ok and inv.fixed_ok and pd_ok and inj4 and orient
                and src2 == inv2)
    wit = (
        f"degree-2 rank {mat_rank} of {src2}, invariant rank {inv2}",
        f"degree-4 scalar {format_rational(scalar)}",
        f"multiplicativity on basis pairs {'holds' if mult else 'fails'}",
        f"group acts on degree 4 by "
        f"{'+1 throughout' if orient else 'a nontrivial scalar'}",
        f"source pairing {'nondegenerate' if pd_ok else 'singular'}",
        f"direct verdict {direct}, duality shortcut verdict {shortcut}",
    )
    return IsomorphismChecks(inj2, spans, scalar, mult, orient, pd_ok,
                             dims, direct, shortcut, wit)


# ---------------------------------------------------------------------------
# consolidated report


@dataclass(frozen=True)
class VerificationReport:
    case: str
    n: int
    well_defined: CheckResult
    image_invariant: InvarianceResult
    graded_dims: tuple[int, int, int, int]
    isomorphism: bool
    pd_shortcut_agrees: bool
    coeff_c: dict[str, int]
    coeff_d: dict[str, int]
    warnings: tuple[str, ...]
    details: IsomorphismChecks

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "n": self.n,
            "well_defined": {"ok": self.well_defined.ok,
                             "witnesses": list(self.well_defined.witnesses)},
            "image_invariant": {
                "ok": self.image_invariant.ok,
                "witnesses": list(self.image_invariant.witnesses)},
            "graded_dims": list(self.graded_dims),
            "isomorphism": self.isomorphism,
            "pd_shortcut_agrees": self.pd_shortcut_agrees,
            "coefficients": {
                "c": {k: format_rational(v)
                      for k, v in sorted(self.coeff_c.items())},
                "d": {k: format_rational(v)
                      for k, v in sorted(self.coeff_d.items())},
            },
            "warnings": list(self.warnings),
        }


def verify_theorem(p, group, chamber_hint=None) -> VerificationReport:
    """Full pipeline: region, coefficients, rings, map, all checks.

    Construction failures (not a symmetry, bad geometry) propagate;
    check failures are recorded in the report, never raised.
    """
    fr = fundamental_region(p, group, chamber_hint)
    coeffs = dihedral_coefficients(fr)
    rmap = build_dihedral_map(fr, coeffs)
    single = len(fr.etas) == 1
    coeff_c: dict[str, int] = {}
    coeff_d: dict[str, int] = {}
    for j, elems in coeffs.sets.items():
        for u in elems:
            key = (u.word, j)
            if not single:
                name = f"{u.name}:{j}"
                coeff_c[name], coeff_d[name] = coeffs.c[key], coeffs.d[key]
            elif u.word:  # a mirror's identity row is 0 by definition
                coeff_c[str(j)] = coeffs.c[key]

    names = variable_names(fr)
    well = check_well_defined(rmap, names)
    gen_actions, all_actions = group_ring_actions(rmap.target, fr)
    inv_rows = invariant_deg2(rmap.target, gen_actions)
    inv = check_image_invariant(rmap, gen_actions, inv_rows, names)
    # 0 -> M_Q -> Q^E -> H^2 -> 0 is W-equivariant, so dim (H^2)^W is #orbits
    # less dim M_Q^W: 1 (the mirror line) for one mirror, 0 for a wedge
    if inv.inv_rank != len(inv_rows) - (1 if single else 0):
        inv = replace(
            inv, ok=False, span_ok=False,
            witnesses=inv.witnesses + ("invariant rank is not the number of "
                                       "edge orbits minus dim M^W",))
    checks = check_isomorphism(rmap, gen_actions, all_actions, inv_rows,
                               well, inv)
    return VerificationReport(
        case=fr.kind, n=fr.n, well_defined=well, image_invariant=inv,
        graded_dims=checks.dims, isomorphism=checks.direct,
        pd_shortcut_agrees=checks.direct == checks.shortcut,
        coeff_c=coeff_c, coeff_d=coeff_d, warnings=fr.warnings, details=checks)
