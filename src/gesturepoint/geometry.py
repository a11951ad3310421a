"""Pure geometric core: plane construction, pinhole (de)projection, ray-plane
intersection and workplane frame transforms.

Conventions
-----------
* All lengths are meters. Camera frame is the usual computer-vision one
  (x right, y down, z forward along the optical axis).
* A plane is stored as a unit normal ``n`` and signed offset ``d`` so that
  ``<n, p> + d == 0`` for every point ``p`` on the plane, together with its
  four corner points.
* The normal sign is fixed deterministically: it faces a viewpoint when one
  is given, otherwise the component order (z, y, x) decides (first non-zero
  component made positive starting from z).
* A workplane frame sits at a chosen corner; its x axis runs along the edge
  to an adjacent corner, its z axis is the plane normal, y = z x x. Points
  on the plane get (u, v, z_residual) coordinates with z_residual ~ 0.

Everything in this module is a pure function over immutable values. For the
sweeps, the ray-plane hit has an array form and the bounds test takes arrays.

Numbers are checked once, where they enter from outside; values built inside
the package are trusted, so ``Point3``, ``Vec3`` and ``PlanarPoint`` check
nothing. The checks that reject NaN and infinities: ``Plane``,
``CameraIntrinsics``, ``Quaternion`` and :func:`deproject` here;
``stream.parse_frame``, ``parse_triplet`` and ``GestureScenario``;
``snap.Target`` and ``Area``; ``evaluation.board_from_document``; the CLI's
``finite_float`` flag type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Default tolerances (meters unless noted).
PLANARITY_TOL = 0.005          # 4th-corner residual allowed off the plane
COLLINEARITY_TOL = 1e-6        # cross-product norm (m^2) below which corners degenerate
ARM_SEPARATION_MIN = 0.01      # shoulder and wrist must be at least this far apart
PARALLEL_TOL = 1e-6            # |<n, unit dir>| below which a ray counts as parallel
UNIT_TOL = 1e-9
DEFAULT_T_MIN = 1.0            # intersection must lie beyond the wrist


class GeometryError(ValueError):
    """Base class for geometric precondition violations."""


class NonFiniteValueError(GeometryError):
    pass


class CollinearCornersError(GeometryError):
    pass


class NonPlanarCornerError(GeometryError):
    pass


class NonSimpleQuadrilateralError(GeometryError):
    pass


class NonPositiveDepthError(GeometryError):
    pass


class PixelOutOfBoundsError(GeometryError):
    pass


class BehindCameraError(GeometryError):
    pass


class DegenerateArmError(GeometryError):
    pass


class InvalidCornerPairError(GeometryError):
    pass


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteValueError(f"{name} has non-finite component {v!r}")


@dataclass(frozen=True)
class Point3:
    """A 3D position in meters."""

    x: float
    y: float
    z: float

    def __sub__(self, other: "Point3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __add__(self, v: "Vec3") -> "Point3":
        return Point3(self.x + v.x, self.y + v.y, self.z + v.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Vec3:
    """A 3D direction or displacement."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise GeometryError("cannot normalize a zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class PlanarPoint:
    """A point expressed in a workplane frame: (u, v) in-plane, z_residual out of plane."""

    u: float
    v: float
    z_residual: float = 0.0


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        _require_finite("CameraIntrinsics", self.fx, self.fy, self.cx, self.cy)
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryError(
                f"principal point ({self.cx}, {self.cy}) outside {self.width}x{self.height} image"
            )


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion (w, x, y, z) mapping frame axes into parent axes."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        _require_finite("Quaternion", self.w, self.x, self.y, self.z)
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if abs(n - 1.0) > 1e-6:
            raise GeometryError(f"quaternion norm {n} too far from 1")

    def to_matrix(self) -> tuple[tuple[float, float, float], ...]:
        """Rows of the 3x3 rotation matrix R with parent = R @ frame."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return (
            (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
            (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
        )

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[float]]) -> "Quaternion":
        """Shepperd's method; ``rows`` is an orthonormal rotation matrix."""
        r00, r01, r02 = rows[0]
        r10, r11, r12 = rows[1]
        r20, r21, r22 = rows[2]
        tr = r00 + r11 + r22
        if tr > 0.0:
            s = math.sqrt(tr + 1.0) * 2.0
            w = 0.25 * s
            x = (r21 - r12) / s
            y = (r02 - r20) / s
            z = (r10 - r01) / s
        elif r00 >= r11 and r00 >= r22:
            s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
            w = (r21 - r12) / s
            x = 0.25 * s
            y = (r01 + r10) / s
            z = (r02 + r20) / s
        elif r11 >= r22:
            s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
            w = (r02 - r20) / s
            x = (r01 + r10) / s
            y = 0.25 * s
            z = (r12 + r21) / s
        else:
            s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
            w = (r10 - r01) / s
            x = (r02 + r20) / s
            y = (r12 + r21) / s
            z = 0.25 * s
        n = math.sqrt(w * w + x * x + y * y + z * z)
        # keep w >= 0 so the representation is unique
        sign = -1.0 if w < 0 else 1.0
        return cls(sign * w / n, sign * x / n, sign * y / n, sign * z / n)

    def rotate(self, v: Vec3) -> Vec3:
        r = self.to_matrix()
        return Vec3(
            r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
            r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
            r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
        )

    def rotate_back(self, v: Vec3) -> Vec3:
        """Inverse rotation (parent -> frame), i.e. R^T @ v."""
        r = self.to_matrix()
        return Vec3(
            r[0][0] * v.x + r[1][0] * v.y + r[2][0] * v.z,
            r[0][1] * v.x + r[1][1] * v.y + r[2][1] * v.z,
            r[0][2] * v.x + r[1][2] * v.y + r[2][2] * v.z,
        )


@dataclass(frozen=True)
class Plane:
    """An oriented plane <n, p> + d = 0 with its four corner points."""

    normal: Vec3
    d: float
    corners: tuple[Point3, Point3, Point3, Point3]

    def __post_init__(self) -> None:
        _require_finite("Plane", self.d, *self.normal.as_tuple(),
                        *(v for c in self.corners for v in c.as_tuple()))
        if abs(self.normal.norm() - 1.0) > UNIT_TOL:
            raise GeometryError(f"plane normal must be unit length, |n|={self.normal.norm()}")
        if len(self.corners) != 4:
            raise GeometryError(f"plane needs exactly 4 corners, got {len(self.corners)}")
        for i, c in enumerate(self.corners):
            res = self.signed_distance(c)
            if abs(res) > PLANARITY_TOL:
                raise NonPlanarCornerError(
                    f"corner {i + 1} lies {abs(res):.4f} m off the plane "
                    f"(tolerance {PLANARITY_TOL} m)"
                )
        if not _simple_quadrilateral(self._corners_2d()):
            raise NonSimpleQuadrilateralError("plane corners self-intersect in corner order")

    def signed_distance(self, p: Point3) -> float:
        return self.normal.x * p.x + self.normal.y * p.y + self.normal.z * p.z + self.d

    def _corners_2d(self) -> list[tuple[float, float]]:
        # project onto an arbitrary in-plane basis, enough for the simplicity check
        e1 = (self.corners[1] - self.corners[0]).normalized()
        e2 = self.normal.cross(e1)
        out = []
        for c in self.corners:
            w = c - self.corners[0]
            out.append((w.dot(e1), w.dot(e2)))
        return out


@dataclass(frozen=True)
class WorkplaneFrame:
    """Coordinate frame anchored at a plane corner, z axis along the normal."""

    origin: Point3
    orientation: Quaternion


@dataclass(frozen=True)
class RayHit:
    """Result of a successful ray-plane intersection."""

    point: Point3
    t: float


def _orient_normal(n: Vec3, reference: Point3, viewpoint: Point3 | None) -> Vec3:
    if viewpoint is not None:
        toward = viewpoint - reference
        s = n.dot(toward)
        if s != 0.0:
            return n if s > 0 else -n
    # deterministic fallback: first non-zero of (z, y, x) made positive
    for comp in (n.z, n.y, n.x):
        if abs(comp) > 1e-12:
            return n if comp > 0 else -n
    return n


def plane_from_corners(
    corners: Sequence[Point3],
    viewpoint: Point3 | None = None,
) -> Plane:
    """Build an oriented plane from 3 or 4 corner points.

    The normal comes from the cross product of the first two edges and the
    offset from the third corner. A 4th corner is validated against the plane
    (within ``PLANARITY_TOL``) and then snapped onto it; with only 3 corners
    the 4th is completed as ``P1 + (P3 - P2)``. ``viewpoint``, when given,
    decides the normal sign (normal faces the viewer).
    """
    if len(corners) not in (3, 4):
        raise GeometryError(f"expected 3 or 4 corners, got {len(corners)}")
    p1, p2, p3 = corners[0], corners[1], corners[2]
    cross = (p2 - p1).cross(p3 - p2)
    if cross.norm() <= COLLINEARITY_TOL:
        raise CollinearCornersError("corners 1-3 are collinear (degenerate cross product)")
    n = _orient_normal(cross.normalized(), p1, viewpoint)
    d = -(n.x * p3.x + n.y * p3.y + n.z * p3.z)
    if len(corners) == 4:
        p4 = corners[3]
        residual = n.x * p4.x + n.y * p4.y + n.z * p4.z + d
        if abs(residual) > PLANARITY_TOL:
            raise NonPlanarCornerError(
                f"corner 4 lies {abs(residual):.4f} m off the plane "
                f"(tolerance {PLANARITY_TOL} m)"
            )
        p4 = p4 + n * (-residual)  # snap onto the plane so stored corners are exact
    else:
        p4 = p1 + (p3 - p2)
    return Plane(normal=n, d=d, corners=(p1, p2, p3, p4))


def deproject(pixel: tuple[float, float], depth: float, intr: CameraIntrinsics) -> Point3:
    """Pinhole back-projection of an image pixel at a given depth."""
    px, py = pixel
    if not 0 < depth < math.inf:
        raise NonPositiveDepthError(f"depth must be positive and finite, got {depth!r}")
    if not (0 <= px < intr.width and 0 <= py < intr.height):  # NaN fails too
        raise PixelOutOfBoundsError(
            f"pixel ({px}, {py}) outside {intr.width}x{intr.height} image"
        )
    return Point3(
        (px - intr.cx) * depth / intr.fx,
        (py - intr.cy) * depth / intr.fy,
        depth,
    )


def project(point: Point3, intr: CameraIntrinsics) -> tuple[float, float]:
    """Pinhole projection; inverse of :func:`deproject` for z > 0."""
    if point.z <= 0:
        raise BehindCameraError(f"point z={point.z} is behind the camera")
    return (
        intr.fx * point.x / point.z + intr.cx,
        intr.fy * point.y / point.z + intr.cy,
    )


def intersect_ray_plane(shoulder: Point3, wrist: Point3, plane: Plane) -> RayHit | None:
    """Extend the shoulder->wrist ray onto the plane.

    The scaling factor is ``t = -(<n, shoulder> + d) / <n, wrist - shoulder>``
    and the hit point ``shoulder + t * (wrist - shoulder)``. Returns None when
    the ray is parallel to the plane (``PARALLEL_TOL``) or the hit would lie
    behind the wrist (t < ``DEFAULT_T_MIN``); raises DegenerateArmError when
    the two joints are closer than ``ARM_SEPARATION_MIN``.
    """
    direction = wrist - shoulder
    length = direction.norm()
    if length <= ARM_SEPARATION_MIN:
        raise DegenerateArmError(
            f"shoulder and wrist are {length:.4f} m apart (minimum {ARM_SEPARATION_MIN} m)"
        )
    n = plane.normal
    denom = n.dot(direction)
    if abs(denom / length) < PARALLEL_TOL:
        return None
    t = -(plane.signed_distance(shoulder)) / denom
    if t < DEFAULT_T_MIN:
        return None
    return RayHit(point=shoulder + direction * t, t=t)


def intersect_rays_plane(
    shoulders: np.ndarray, wrists: np.ndarray, plane: Plane
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`intersect_ray_plane` over (..., 3) joints: the
    hit points (NaN where a ray misses, for any of its reasons) and the mask
    of rays that hit."""
    n = np.array(plane.normal.as_tuple())
    dirs = wrists - shoulders
    lengths = np.linalg.norm(dirs, axis=-1)
    denom = dirs @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        unit_dot = np.abs(denom) / lengths
        t = -(shoulders @ n + plane.d) / denom
        hits = shoulders + t[..., None] * dirs
    valid = (lengths > ARM_SEPARATION_MIN) & (unit_dot >= PARALLEL_TOL) & (t >= DEFAULT_T_MIN)
    return np.where(valid[..., None], hits, np.nan), valid


def workplane_frame(plane: Plane, origin_corner: int = 0, x_corner: int = 1) -> WorkplaneFrame:
    """Frame at ``corners[origin_corner]`` with x along the edge to ``corners[x_corner]``.

    The two corners must be adjacent in the stored corner order. The basis is
    right-handed and orthonormal: z is the plane normal, x the (normalized,
    re-orthogonalized) edge direction, y = z x x.
    """
    if origin_corner == x_corner:
        raise InvalidCornerPairError("origin and x corners must differ")
    if not (0 <= origin_corner < 4 and 0 <= x_corner < 4):
        raise InvalidCornerPairError(f"corner indices out of range: {origin_corner}, {x_corner}")
    if abs(origin_corner - x_corner) % 4 not in (1, 3):
        raise InvalidCornerPairError(
            f"corners {origin_corner} and {x_corner} are not adjacent in corner order"
        )
    origin = plane.corners[origin_corner]
    edge = plane.corners[x_corner] - origin
    if edge.norm() <= COLLINEARITY_TOL:
        raise InvalidCornerPairError("chosen corners coincide")
    z = plane.normal
    x = edge - z * edge.dot(z)  # remove any planarity slack
    x = x.normalized()
    y = z.cross(x)
    rows = (
        (x.x, y.x, z.x),
        (x.y, y.y, z.y),
        (x.z, y.z, z.z),
    )
    return WorkplaneFrame(origin=origin, orientation=Quaternion.from_matrix(rows))


def to_workplane(point: Point3, frame: WorkplaneFrame) -> PlanarPoint:
    """Express a parent-frame point in workplane coordinates (u, v, z_residual)."""
    local = frame.orientation.rotate_back(point - frame.origin)
    return PlanarPoint(u=local.x, v=local.y, z_residual=local.z)


def from_workplane(p: PlanarPoint, frame: WorkplaneFrame) -> Point3:
    """Inverse of :func:`to_workplane`."""
    offset = frame.orientation.rotate(Vec3(p.u, p.v, p.z_residual))
    return frame.origin + offset


def corners_in_frame(plane: Plane, frame: WorkplaneFrame) -> tuple[tuple[float, float], ...]:
    """The plane corners as (u, v) pairs, i.e. the workspace bounds polygon."""
    out = []
    for c in plane.corners:
        p = to_workplane(c, frame)
        out.append((p.u, p.v))
    return tuple(out)


def planar_mean(points: Sequence[PlanarPoint]) -> PlanarPoint:
    """Componentwise mean of a non-empty point sequence, taken as the offset
    from the first point so identical points average exactly."""
    k = len(points)
    first = points[0]
    return PlanarPoint(
        u=first.u + sum(p.u - first.u for p in points) / k,
        v=first.v + sum(p.v - first.v for p in points) / k,
        z_residual=first.z_residual + sum(p.z_residual - first.z_residual for p in points) / k,
    )


def point_in_bounds(p: PlanarPoint, bounds: Sequence[tuple[float, float]]) -> bool:
    """Even-odd containment test of (u, v) in a simple polygon; boundary counts
    as inside."""
    return bool(points_in_bounds(p.u, p.v, bounds))


def points_in_bounds(
    u: float | np.ndarray, v: float | np.ndarray, bounds: Sequence[tuple[float, float]]
) -> bool | np.ndarray:
    """:func:`point_in_bounds` elementwise over float or array coordinates,
    with one arithmetic for both; NaN is outside."""
    on_edge = inside = False
    for (ax, ay), (bx, by) in zip(bounds, bounds[1:] + bounds[:1]):
        dx, dy, du, dv = bx - ax, by - ay, u - ax, v - ay
        dot = du * dx + dv * dy
        on_edge = on_edge | (
            (abs(dx * dv - dy * du) <= 1e-12 * max(abs(dx), abs(dy), 1.0))
            & (dot >= -1e-12)
            & (dot <= dx ** 2 + dy ** 2 + 1e-12)
        )
        if dy:
            inside = inside ^ (((ay > v) != (by > v)) & (u < ax + dv * dx / dy))
    return on_edge | inside


def _simple_quadrilateral(pts: Sequence[tuple[float, float]]) -> bool:
    """True when the quadrilateral's opposite edges do not properly intersect."""

    def seg_intersect(p, q, r, s) -> bool:
        def orient(a, b, c) -> float:
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        o1, o2 = orient(p, q, r), orient(p, q, s)
        o3, o4 = orient(r, s, p), orient(r, s, q)
        return (o1 * o2 < 0) and (o3 * o4 < 0)

    # non-adjacent edge pairs of a quadrilateral: (0-1, 2-3) and (1-2, 3-0)
    e = [(pts[i], pts[(i + 1) % 4]) for i in range(4)]
    return not (seg_intersect(*e[0], *e[2]) or seg_intersect(*e[1], *e[3]))
