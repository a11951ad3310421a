"""An exact oracle for the sweep engine, taken from outside it.

With no joint noise (sigma = 0) and an aim bias b per in-plane axis, every
frame of a trial repeats the same joints, so every stabilized sample is the
biased aim: the gate always passes and the snap decides on the bias alone.
Success then has a closed form in the standard normal CDF Phi:

- pick: the aimed bolt of a square of side l wins where the aim stays in its
  Voronoi quadrant, u and v each off by less than l / 2 towards the centre:
  Phi(l / 2b) ** 2;
- place: the aim lands inside the aimed square of side l, within its half
  extent l / 2 on both axes: (2 Phi(l / 2b) - 1) ** 2.

Each board's success rate over its trials must lie within 4 Monte-Carlo
standard errors of its formula. The pick boards of one sweep share their
draws (one per trial key), so their deviations move together.

The calibration objective (``evaluation.mean_error_by_sigma``) has a
first-order closed form. With no aim bias, every trial aims the same ray r
(``arm_length`` long, from the shoulder s towards the target) and hits the
plane <n, x> + d = 0 at t = -(<n, s> + d) / <n, r>. Propagating independent
per-axis noise sigma on the shoulder and the wrist through
hit = s + t (w - s) (JCGM 100:2008, "GUM", 5.1) gives the Jacobians
(1 - t) P and t P, with P = I - r n^T / <n, r> the projection onto the plane
along r, so the error e = hit - target is Gaussian with covariance
sigma^2 C, C = ((1 - t)^2 + t^2) P P^T, of rank 2. Its norm is
Hoyt-distributed (Hoyt, 1947): with C's nonzero eigenvalues l1 >= l2,
E|e| = sigma sqrt(2 l1 / pi) E(1 - l2 / l1), E the complete elliptic
integral of the second kind, and E|e|^2 = sigma^2 tr C. The lever
E|e| / sigma reads 2.1452 at the desk centroid, so calibrating to 3.1 cm
gives sigma = 0.031 / 2.1452 = 0.01445 m, within the bisection's 2% stop.
Each objective value must lie within 4 standard errors,
sigma sqrt((tr C - lever^2) / N) for N samples, of lever * sigma; the
second-order term the model leaves out reads under 1 of them at
sigma = 1e-2 and N = 40,000.
"""

from __future__ import annotations

import math

import pytest

from gesturepoint.evaluation import (CALIBRATION_REL_TOL, DEFAULT_CALIBRATION_SAMPLES, ScenarioTemplate,
                                     calibrate_sigma, mean_error_by_sigma, run_boards, standard_boards)
from gesturepoint.geometry import (PlanarPoint, Point3, Quaternion, WorkplaneFrame, from_workplane,
                                   plane_from_corners, workplane_frame)

AIM_BIAS = 0.019
TRIALS = 1000  # per bolt or area
SEED = 7
MAX_Z = 4.0


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _rates(kind: str, lengths: tuple[float, ...]) -> dict[float, tuple[int, int]]:
    """(successes, trials) per board side of one sigma = 0 sweep."""
    template = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=AIM_BIAS)
    report = run_boards(template, standard_boards(kind, template, lengths), TRIALS, SEED)
    rates = {l: (0, 0) for l in lengths}
    for cell in report.cells:
        successes, trials = rates[cell.l]
        rates[cell.l] = successes + sum(t.success for t in cell.trials), trials + len(cell.trials)
    return rates


def _z(successes: int, trials: int, p: float) -> float:
    return (successes / trials - p) / math.sqrt(p * (1.0 - p) / trials)


@pytest.fixture(scope="module")
def pick_rates():
    return _rates("pick", (0.08, 0.04, 0.02))


@pytest.fixture(scope="module")
def place_rates():
    return _rates("place", (0.10, 0.05))


@pytest.mark.parametrize("l", [0.08, 0.04, 0.02])
def test_pick_success_at_zero_noise_is_the_voronoi_quadrant_probability(pick_rates, l):
    successes, trials = pick_rates[l]
    assert trials == 4 * TRIALS
    p = _phi(l / (2 * AIM_BIAS)) ** 2
    assert abs(_z(successes, trials, p)) <= MAX_Z, f"{successes}/{trials} at l={l}, expected {p:.4f}"


@pytest.mark.parametrize("l", [0.10, 0.05])
def test_place_success_at_zero_noise_is_the_half_extent_box_probability(place_rates, l):
    successes, trials = place_rates[l]
    assert trials == 3 * TRIALS
    p = (2 * _phi(l / (2 * AIM_BIAS)) - 1) ** 2
    assert abs(_z(successes, trials, p)) <= MAX_Z, f"{successes}/{trials} at l={l}, expected {p:.4f}"


# --- calibration's objective against the first-order model -------------------------

OBJECTIVE_SAMPLES = 40_000
OBJECTIVE_SEED = 5


def _ellipe(m: float) -> float:
    """E(m), the complete elliptic integral of the second kind, by the
    arithmetic-geometric mean. Six steps take it to double precision for
    m < 1 well clear of 1; a fixed count, since a loop waiting on a float
    tolerance need not end."""
    a, b, total, power = 1.0, math.sqrt(1.0 - m), m / 2, 0.5
    for _ in range(6):
        a, b, c = (a + b) / 2, math.sqrt(a * b), (a - b) / 2
        power *= 2
        total += power * c * c
    return math.pi / (2 * a) * (1 - total)


def _lever(template: ScenarioTemplate, target: Point3) -> tuple[float, float]:
    """(E|e| / sigma, E|e|^2 / sigma^2) of the raw hit aimed at ``target``, to
    first order, from the template's plane, shoulder and arm length alone."""
    n, s, c = template.plane.normal.as_tuple(), template.shoulder_base.as_tuple(), target.as_tuple()
    aim = [a - b for a, b in zip(c, s)]
    r = [template.arm_length * a / math.sqrt(sum(b * b for b in aim)) for a in aim]
    denom = sum(a * b for a, b in zip(n, r))
    t = -(sum(a * b for a, b in zip(n, s)) + template.plane.d) / denom
    p = [[(i == j) - r[i] * n[j] / denom for j in range(3)] for i in range(3)]
    g = (1 - t) ** 2 + t ** 2
    cov = [[g * sum(p[i][k] * p[j][k] for k in range(3)) for j in range(3)] for i in range(3)]
    trace = cov[0][0] + cov[1][1] + cov[2][2]
    # C has rank 2: l1 + l2 is its trace, l1 l2 the sum of its principal 2x2 minors
    minors = sum(cov[i][i] * cov[j][j] - cov[i][j] * cov[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    root = math.sqrt(max(trace * trace - 4 * minors, 0.0))
    l1, l2 = (trace + root) / 2, (trace - root) / 2
    return math.sqrt(2 * l1 / math.pi) * _ellipe(1 - l2 / l1), trace


def _tilted(sigma: float) -> ScenarioTemplate:
    """The desk scenario turned off every axis and moved off the origin."""
    q = (0.95, 0.2, -0.15, 0.18)
    norm = math.sqrt(sum(c * c for c in q))
    tilt = WorkplaneFrame(Point3(0.2, -0.3, 0.1), Quaternion(*(c / norm for c in q)))
    corners = [from_workplane(PlanarPoint(u, v), tilt) for u, v in ((0, 0), (0.6, 0), (0.6, 0.8), (0, 0.8))]
    return ScenarioTemplate(plane=plane_from_corners(corners), arm_length=0.55, sigma=sigma,
                            shoulder_base=from_workplane(PlanarPoint(0.30, -0.10, 0.60), tilt))


TEMPLATES = {"desk": ScenarioTemplate.desk_default, "tilted": _tilted}


@pytest.mark.parametrize("plane", sorted(TEMPLATES))
@pytest.mark.parametrize("u, v", [(0.1, 0.15), (0.5, 0.15), (0.3, 0.4), (0.1, 0.65), (0.5, 0.65)])
def test_calibration_objective_matches_the_first_order_model(plane, u, v):
    template = TEMPLATES[plane](0.0)
    target = from_workplane(PlanarPoint(u, v), workplane_frame(template.plane))
    lever, trace = _lever(template, target)
    objective = mean_error_by_sigma(template, target, samples=OBJECTIVE_SAMPLES, seed=OBJECTIVE_SEED)
    for sigma in (1e-4, 1e-3, 1e-2):
        standard_error = sigma * math.sqrt((trace - lever * lever) / OBJECTIVE_SAMPLES)
        got = objective(sigma)
        assert abs(got - lever * sigma) <= MAX_Z * standard_error, f"sigma={sigma}: {got} against {lever * sigma}"


def test_calibrated_sigma_is_the_target_over_the_lever():
    """``calibrate --target-error 0.031``: the bisection stops within
    CALIBRATION_REL_TOL of the target on its own draw, whose mean is off the
    model's by its Monte-Carlo error."""
    template = ScenarioTemplate.desk_default(0.0)
    cs = template.plane.corners
    centroid = Point3(*(sum(getattr(c, axis) for c in cs) / 4 for axis in "xyz"))
    lever, trace = _lever(template, centroid)
    assert round(lever, 4) == 2.1452
    relative_error = math.sqrt(trace / (lever * lever) - 1) / math.sqrt(DEFAULT_CALIBRATION_SAMPLES)
    sigma = calibrate_sigma(0.031, template)
    assert abs(sigma * lever / 0.031 - 1) <= CALIBRATION_REL_TOL + MAX_Z * relative_error
