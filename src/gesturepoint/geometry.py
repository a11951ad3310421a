"""Pure geometric core: plane construction, pinhole deprojection and
workplane frame transforms, on the standard library alone.

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

Everything in this module is a pure function over immutable values. The
ray-plane hit lives outside it, in one arithmetic written twice: the float
arithmetic of ``pipeline.GesturePipeline.process`` for live and replay, and
the same expressions elementwise over arrays in
``evaluation.intersect_rays_plane`` for the sweeps; the tests hold the two
equal bit for bit. The bounds test is ``stabilizer.points_in_bounds``, over
``stabilizer.edge_table``.

Each value from outside is checked once, by the reader that reads it: a
number by ``stream.json_number`` or ``finite_float`` (and their integer
twins), a range right after it (a joint's confidence, a header's intrinsics,
an area's half extents). So the value types built from it (``Point3``,
``PlanarPoint``, ``CameraIntrinsics``, ``Quaternion``) check nothing; only
:class:`Plane` and ``evaluation.ScenarioTemplate`` do, as two readers share
each one's checks. Joint and plane corner coordinates are bounded by
``MAX_JOINT_COORD``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property

# Default tolerances (meters unless noted).
PLANARITY_TOL = 0.005          # 4th-corner residual allowed off the plane
COLLINEARITY_TOL = 1e-6        # cross-product norm (m^2) below which corners degenerate
ARM_SEPARATION_MIN = 0.01      # shoulder and wrist must be at least this far apart
PARALLEL_TOL = 1e-6            # |<n, unit dir>| below which a ray counts as parallel
UNIT_TOL = 1e-9
DEFAULT_T_MIN = 1.0            # intersection must lie beyond the wrist
# bound on every joint and plane corner coordinate: far beyond any camera's
# range, yet small enough that no ray arithmetic on two joints and a plane
# (differences, norms, the plane hit, the bounds test) can overflow a float
MAX_JOINT_COORD = 1e6


class GeometryError(ValueError):
    """Base class for geometric precondition violations."""


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise GeometryError(f"{name} has non-finite component {v!r}")


class FrozenValue:
    """The base of the numpy-free value types. A subclass's fields are the
    parameters of its ``__init__``, in order, which fills them into the
    instance dict. Assigning or deleting an attribute raises AttributeError;
    ``==`` (between instances of one class), ``hash`` and ``repr`` run over
    the fields, with a frozen dataclass's repr text."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Point3(FrozenValue):
    """A 3D position in meters; a plane's unit normal is one too."""

    def __init__(self, x: float, y: float, z: float) -> None:
        d = self.__dict__
        d["x"], d["y"], d["z"] = x, y, z

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _cross(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float]:
    (ax, ay, az), (bx, by, bz) = a, b
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def _unit(x: float, y: float, z: float) -> tuple[float, float, float]:
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        raise GeometryError("cannot normalize a zero vector")
    return (x / n, y / n, z / n)


class PlanarPoint(FrozenValue):
    """A point expressed in a workplane frame: (u, v) in-plane, z_residual out of plane."""

    def __init__(self, u: float, v: float, z_residual: float = 0.0) -> None:
        d = self.__dict__
        d["u"], d["v"], d["z_residual"] = u, v, z_residual


class CameraIntrinsics(FrozenValue):
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    def __init__(self, fx: float, fy: float, cx: float, cy: float, width: int, height: int) -> None:
        d = self.__dict__
        d["fx"], d["fy"], d["cx"], d["cy"], d["width"], d["height"] = fx, fy, cx, cy, width, height


class Quaternion(FrozenValue):
    """Unit quaternion (w, x, y, z) mapping frame axes into parent axes."""

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        d = self.__dict__
        d["w"], d["x"], d["y"], d["z"] = w, x, y, z

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


class Plane(FrozenValue):
    """An oriented plane <n, p> + d = 0 with its four corner points, checked
    on construction."""

    def __init__(self, normal: Point3, d: float, corners: tuple[Point3, Point3, Point3, Point3]) -> None:
        attrs = self.__dict__
        attrs["normal"], attrs["d"], attrs["corners"] = normal, d, corners
        self._check()

    def _check(self) -> None:
        coords = [v for c in self.corners for v in (c.x, c.y, c.z)]
        _require_finite("Plane", self.d, *self.normal.as_tuple(), *coords)
        if max(map(abs, coords)) > MAX_JOINT_COORD:
            raise GeometryError(f"plane corner coordinates must lie within +-{MAX_JOINT_COORD:g} m")
        nx, ny, nz = self.normal.as_tuple()
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if abs(norm - 1.0) > UNIT_TOL:
            raise GeometryError(f"plane normal must be unit length, |n|={norm}")
        for i, c in enumerate(self.corners):
            res = self.signed_distance(c)
            if abs(res) > PLANARITY_TOL:
                raise GeometryError(
                    f"corner {i + 1} lies {abs(res):.4f} m off the plane "
                    f"(tolerance {PLANARITY_TOL} m)"
                )
        if not _simple_quadrilateral(self._corners_2d()):
            raise GeometryError("plane corners self-intersect in corner order")

    def signed_distance(self, p: Point3) -> float:
        return self.normal.x * p.x + self.normal.y * p.y + self.normal.z * p.z + self.d

    def _corners_2d(self) -> list[tuple[float, float]]:
        # project onto an arbitrary in-plane basis, enough for the simplicity check
        o, c1 = self.corners[0], self.corners[1]
        e1 = _unit(c1.x - o.x, c1.y - o.y, c1.z - o.z)
        (ax, ay, az), (bx, by, bz) = e1, _cross(self.normal.as_tuple(), e1)
        out = []
        for c in self.corners:
            wx, wy, wz = c.x - o.x, c.y - o.y, c.z - o.z
            out.append((wx * ax + wy * ay + wz * az, wx * bx + wy * by + wz * bz))
        return out


class WorkplaneFrame(FrozenValue):
    """Coordinate frame anchored at a plane corner, z axis along the normal."""

    def __init__(self, origin: Point3, orientation: Quaternion) -> None:
        d = self.__dict__
        d["origin"], d["orientation"] = origin, orientation

    @cached_property
    def rows(self) -> tuple[tuple[float, float, float], ...]:
        """The rotation matrix rows of ``orientation``, computed once."""
        return self.orientation.to_matrix()


def _orient_normal(n: Sequence[float], reference: Point3, viewpoint: Point3 | None) -> Point3:
    nx, ny, nz = n
    s = 0.0
    if viewpoint is not None:
        s = nx * (viewpoint.x - reference.x) + ny * (viewpoint.y - reference.y) + nz * (viewpoint.z - reference.z)
    if s == 0.0:  # deterministic fallback: first non-zero of (z, y, x) made positive
        s = next((comp for comp in (nz, ny, nx) if abs(comp) > 1e-12), 1.0)
    return Point3(nx, ny, nz) if s > 0 else Point3(-nx, -ny, -nz)


def plane_from_corners(
    corners: Sequence[Point3],
    viewpoint: Point3 | None = None,
) -> Plane:
    """Build an oriented plane from 3 or 4 corner points.

    The normal comes from the cross product of the first two edges and the
    offset from the third corner. A 4th corner is validated as given, by the
    one planarity test in :class:`Plane` (within ``PLANARITY_TOL``), and then
    snapped onto the plane; with only 3 corners the 4th is completed as
    ``P1 + (P3 - P2)``. ``viewpoint``, when given, decides the normal sign
    (normal faces the viewer).
    """
    if len(corners) not in (3, 4):
        raise GeometryError(f"expected 3 or 4 corners, got {len(corners)}")
    p1, p2, p3 = corners[0], corners[1], corners[2]
    cx, cy, cz = _cross((p2.x - p1.x, p2.y - p1.y, p2.z - p1.z), (p3.x - p2.x, p3.y - p2.y, p3.z - p2.z))
    if math.sqrt(cx * cx + cy * cy + cz * cz) <= COLLINEARITY_TOL:
        raise GeometryError("corners 1-3 are collinear (degenerate cross product)")
    n = _orient_normal(_unit(cx, cy, cz), p1, viewpoint)
    d = -(n.x * p3.x + n.y * p3.y + n.z * p3.z)
    if len(corners) == 3:
        p4 = Point3(p1.x + (p3.x - p2.x), p1.y + (p3.y - p2.y), p1.z + (p3.z - p2.z))
        return Plane(normal=n, d=d, corners=(p1, p2, p3, p4))
    p4 = corners[3]
    plane = Plane(normal=n, d=d, corners=(p1, p2, p3, p4))
    # the checks passed on the corner as given; store it snapped onto the plane
    # so the stored corners are exact, without running them a second time
    s = -plane.signed_distance(p4)
    object.__setattr__(plane, "corners", (p1, p2, p3, Point3(p4.x + n.x * s, p4.y + n.y * s, p4.z + n.z * s)))
    return plane


def deproject(pixel: tuple[float, float], depth: float, intr: CameraIntrinsics) -> Point3:
    """Pinhole back-projection of an image pixel at a given depth."""
    px, py = pixel
    if not 0 < depth < math.inf:
        raise GeometryError(f"depth must be positive and finite, got {depth!r}")
    if not (0 <= px < intr.width and 0 <= py < intr.height):  # NaN fails too
        raise GeometryError(
            f"pixel ({px}, {py}) outside {intr.width}x{intr.height} image"
        )
    return Point3(
        (px - intr.cx) * depth / intr.fx,
        (py - intr.cy) * depth / intr.fy,
        depth,
    )


def workplane_frame(plane: Plane, origin_corner: int = 0, x_corner: int = 1) -> WorkplaneFrame:
    """Frame at ``corners[origin_corner]`` with x along the edge to ``corners[x_corner]``.

    The two corners must be adjacent in the stored corner order. The basis is
    right-handed and orthonormal: z is the plane normal, x the (normalized,
    re-orthogonalized) edge direction, y = z x x.
    """
    if origin_corner == x_corner:
        raise GeometryError("origin and x corners must differ")
    if not (0 <= origin_corner < 4 and 0 <= x_corner < 4):
        raise GeometryError(f"corner indices out of range: {origin_corner}, {x_corner}")
    if abs(origin_corner - x_corner) % 4 not in (1, 3):
        raise GeometryError(
            f"corners {origin_corner} and {x_corner} are not adjacent in corner order"
        )
    x, y = edge_axes(plane, origin_corner, x_corner)
    rows = tuple(zip(x, y, plane.normal.as_tuple()))  # columns x, y, z
    return WorkplaneFrame(origin=plane.corners[origin_corner], orientation=Quaternion.from_matrix(rows))


def edge_axes(plane: Plane, origin_corner: int = 0,
              x_corner: int = 1) -> tuple[tuple[float, ...], ...]:
    """The in-plane unit axes (x, y) of :func:`workplane_frame`: x along the
    edge between the two corners, less its normal part, and y = normal x x."""
    origin, far = plane.corners[origin_corner], plane.corners[x_corner]
    ex, ey, ez = far.x - origin.x, far.y - origin.y, far.z - origin.z
    if math.sqrt(ex * ex + ey * ey + ez * ez) <= COLLINEARITY_TOL:
        raise GeometryError("chosen corners coincide")
    z = plane.normal
    s = ex * z.x + ey * z.y + ez * z.z
    x = _unit(ex - z.x * s, ey - z.y * s, ez - z.z * s)  # remove any planarity slack
    return x, _cross(z.as_tuple(), x)


def to_workplane(point: Point3, frame: WorkplaneFrame) -> PlanarPoint:
    """Express a parent-frame point in workplane coordinates (u, v, z_residual):
    R^T @ (point - origin)."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = frame.rows
    o = frame.origin
    x, y, z = point.x - o.x, point.y - o.y, point.z - o.z
    return PlanarPoint(
        u=r00 * x + r10 * y + r20 * z,
        v=r01 * x + r11 * y + r21 * z,
        z_residual=r02 * x + r12 * y + r22 * z,
    )


def from_workplane(p: PlanarPoint, frame: WorkplaneFrame) -> Point3:
    """Inverse of :func:`to_workplane`: origin + R @ (u, v, z_residual)."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = frame.rows
    o = frame.origin
    u, v, w = p.u, p.v, p.z_residual
    return Point3(
        o.x + (r00 * u + r01 * v + r02 * w),
        o.y + (r10 * u + r11 * v + r12 * w),
        o.z + (r20 * u + r21 * v + r22 * w),
    )


def corners_in_frame(plane: Plane, frame: WorkplaneFrame) -> tuple[tuple[float, float], ...]:
    """The plane corners as (u, v) pairs, i.e. the workspace bounds polygon."""
    out = []
    for c in plane.corners:
        p = to_workplane(c, frame)
        out.append((p.u, p.v))
    return tuple(out)


def planar_mean(points: Sequence[PlanarPoint]) -> PlanarPoint:
    """Componentwise mean of a non-empty point sequence, taken as the offset
    from the first point so identical points average exactly. The offsets
    are added one by one in order, not by ``sum()``, which compensates float
    sums from Python 3.12 on; so the mean is the same on every Python."""
    k = len(points)
    first = points[0]
    fu, fv, fz = first.u, first.v, first.z_residual
    su = sv = sz = 0.0
    for p in points:
        su += p.u - fu
        sv += p.v - fv
        sz += p.z_residual - fz
    return PlanarPoint(u=fu + su / k, v=fv + sv / k, z_residual=fz + sz / k)


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
