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
"""

from __future__ import annotations

import math

import pytest

from gesturepoint.evaluation import ScenarioTemplate, run_boards, standard_boards

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
