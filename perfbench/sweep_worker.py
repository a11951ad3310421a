"""Child process of the sweep_envelope workload.

Set-up (import, envelope templates, every board) ends with a `{"ready": ...}`
line on stdout. The worker then reads one JSON job from stdin (an empty line
means quit), runs it and prints one JSON result line:

* calibrate phase: ``cal_repeats`` times the fixed set of calibrate_sigma
  calls (3.1 and 6.5 cm without aim bias, 3.1 cm with the 1.9 cm aim bias,
  each over ``cal_seeds``), timed per set;
* sweep phase: criterion-4 envelopes, cycling through ``sweep_seeds``, until
  ``sweep_seconds`` pass and the last cycle is complete. One envelope
  calibrates to 3.1 cm with the aim bias, runs every pick board and every
  place board with ``trials`` trials per target and emits the CSV and JSON
  reports; their sha256 is returned.

    python sweep_worker.py [TRACE_FILE]
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


AIM_BIAS = 0.019


def envelope_reports(biased, seed: int, trials: int) -> tuple[list[str], int]:
    """One criterion-4 envelope: calibrate to 3.1 cm, every pick and place
    board. Returns the pick CSV, pick JSON, place CSV and place JSON reports,
    and the trial count."""
    import dataclasses

    from gesturepoint.evaluation import calibrate_sigma, emit_report, run_pick_sweep, run_place_sweep

    sigma = calibrate_sigma(0.031, biased, seed=seed)
    template = dataclasses.replace(biased, sigma=sigma)
    pick = run_pick_sweep(template, trials_per_target=trials, base_seed=seed)
    place = run_place_sweep(template, trials_per_area=trials, base_seed=seed)
    texts = [emit_report(report, fmt) for report in (pick, place) for fmt in ("csv", "json")]
    return texts, sum(len(c.trials) for r in (pick, place) for c in r.cells)


def digest(texts: list) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def main() -> int:
    import json
    import resource
    import time

    trace_path = sys.argv[1] if len(sys.argv) > 1 else None
    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer(op_roots=("evaluation.run_trial", "evaluation.calibrate_sigma"))
        tracer.install()
    from gesturepoint.evaluation import (
        PICK_DISTANCES,
        PLACE_SIZES,
        ScenarioTemplate,
        calibrate_sigma,
        make_board,
    )

    plain = ScenarioTemplate.desk_default(0.0)
    biased = ScenarioTemplate.desk_default(0.0, aim_bias_sigma=AIM_BIAS)
    boards = ([make_board("pick_square", l) for l in PICK_DISTANCES]
              + [make_board("place_areas", l) for l in PLACE_SIZES])
    print(json.dumps({"ready": len(boards)}), flush=True)

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)

    cal_sets = []
    for _ in range(job["cal_repeats"]):
        t0 = time.perf_counter()
        for seed in job["cal_seeds"]:
            calibrate_sigma(0.031, plain, seed=seed)
            calibrate_sigma(0.065, plain, seed=seed)
            calibrate_sigma(0.031, biased, seed=seed)
        cal_sets.append(time.perf_counter() - t0)

    trials = job["trials"]
    envelopes = []
    cpu = 0.0
    start = time.perf_counter()
    k = 0
    cycle = len(job["sweep_seeds"])
    while (len(envelopes) < job.get("min_envelopes", 1) or len(envelopes) % cycle
           or time.perf_counter() - start < job["sweep_seconds"]):
        seed = job["sweep_seeds"][k % len(job["sweep_seeds"])]
        k += 1
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        texts, n_trials = envelope_reports(biased, seed, trials)
        envelopes.append([seed, time.perf_counter() - t0, n_trials, digest(texts)])
        cpu += time.process_time() - cpu0
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.write(trace_path)
    print(json.dumps({
        "cal_sets_s": cal_sets,
        "envelopes": envelopes,
        "sweep_wall_s": wall,
        "sweep_cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
