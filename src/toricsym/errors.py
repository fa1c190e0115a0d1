"""Error taxonomy shared by every module in the package.

Each class names one specific way an input or an internal invariant can fail,
so callers (and the CLI's exit-code logic) can match on type rather than parse
messages.
"""


class ToricSymError(Exception):
    """Base class for every error raised by this package."""


class ZeroVector(ToricSymError):
    """A direction or normal vector is (0, 0) where a nonzero one is required."""


class NotConvex(ToricSymError):
    """Vertex input fails strict convexity."""


class CollinearTriple(ToricSymError):
    """Three consecutive vertices lie on one line."""


class OriginNotInterior(ToricSymError):
    """The origin is not strictly inside the polygon."""


class Unbounded(ToricSymError):
    """A half-space intersection is not a bounded region."""


class RedundantHalfspace(ToricSymError):
    """A half-space contributes no edge (or duplicates another)."""


class DegenerateOffsets(ToricSymError):
    """Offsets make a root-system polytope degenerate (some wall loses its edge)."""


class NotASymmetry(ToricSymError):
    """A proposed linear map does not preserve the polygon."""


class NotFiniteOrder(ToricSymError):
    """A product of reflections fails to reach the identity (guard; cannot
    occur for genuine polygon symmetries)."""


class EllTooSmall(ToricSymError):
    """Two proposed dihedral generators coincide (rotation order below 2)."""


class OrientationAmbiguous(ToricSymError):
    """A chamber hint selects no chamber of the group: it lies on a mirror
    line, or in a wedge of the mirror normals whose sign choice fails the
    chamber rule (s1 moves eta2 by a non-negative multiple of eta1)."""


class InconsistentGeometry(ToricSymError):
    """Region data contradicts what the detected symmetry forces (e.g. a
    mirror-crossed edge whose normal is not orthogonal to the mirror)."""


class CaseMismatch(ToricSymError):
    """Region labels do not fit the requested symmetry case."""


class PartitionFailure(ToricSymError):
    """Group translates of the region's edges fail to partition the polygon's
    edge set exactly once each."""


class UnexpectedBettiNumber(ToricSymError):
    """A graded piece of the cohomology ring has the wrong dimension."""
