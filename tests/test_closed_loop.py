"""The benchmark's closed loop, pinned bit for bit.

``bench/workloads.py`` runs the receding-horizon loop: ``optimize_segment``
for each interval, ``control_input``, one ``simulate_zoh`` step of the true
MSD plant and ``error_update`` from the measurement. A change meant to keep
every fit and loop output must keep these eight intervals' gains, iteration
counts and squared tracking errors exactly. The module is imported as
``bench/test_bench.py`` imports it, and nothing under ``bench/`` is changed.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads as W  # noqa: E402

SEED = 11
# F = [K^p K^i K^d] (1 x 6) after each interval; only state coordinate 0 has gains
GAINS = [
    [1.5699466815657805, 0.0, 0.938776286059835, 0.0, 0.7888396193943784, 0.0],
    [1.5464595751761616, 0.0, 0.0, 0.0, 0.42029629476916, 0.0],
    [0.18371852761070812, 0.0, 0.0, 0.0, 0.6412236353194518, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.13898991408804956, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.7997660276813878, 0.0],
    [0.0, 0.0, 0.0, 0.0, 2.9454057915940592, 0.0],
    [0.0, 0.0, 0.0, 0.0, 2.038760420131716, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.18634405482398275, 0.0],
]
ITERATIONS = [200, 200, 200, 146, 200, 200, 200, 200]
SQ_ERRORS = [0.7510128531820277, 0.7815251380517136, 0.5338072840630468, 0.3644812502199598,
             0.1696353624147353, 0.1266632295574281, 0.14852275859457567, 0.6297848039719198]
TRACKING_ISE = 0.7010865360110814


def test_eight_intervals_reproduce_bit_for_bit():
    case = W.setup_loop(replace(W.LoopSpec(), intervals=8, scenarios=1), SEED)
    run = W.run_loop(case)
    assert (run.failed, run.errors) == (0, [])
    assert [f.tolist() for f in run.gains] == [[row] for row in GAINS]
    assert run.iterations == ITERATIONS
    assert run.sq_errors == SQ_ERRORS
    assert W.loop_quality(case, run)["tracking_ise"] == TRACKING_ISE
