"""Workload inputs, generated from the benchmark seed alone.

Pure Python (no numpy, no ccrlab), so the harness and its child
processes derive identical inputs from the same seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("report_all", "dense_reach", "exact_proofs")

# dense_reach sizes: Fock truncations for the Weyl and shift checks, and
# grid / interval sample counts for the eigensolver checks. The Fock
# truncations stop at d = 512 and the grids at m = 1024: one d = 1024
# Weyl or shift check runs 7-10 s, and the host's speed changes within
# that, unseen by the probes before and after it (calibrate.py); at
# d <= 512 every operation is short enough to be scaled, and a 30 s run
# holds several processes.
DENSE_DIMS = (128, 256, 512)
DENSE_GRID_M = (512, 1024)
SHIFT_POWER = 3
SPECTRUM_COUNT = 6

# exact_proofs sizes.
Q_POWER_HALF_MAX = 12  # normal_order("q^{2n}"), n = 1..12
COMMUTATOR_N_MAX = 16  # verify_identity("[p,q^n]", "-n*i*q^{n-1}"), n = 1..16
CONJUGATION_N_MAX = 4  # conjugation_series(n, CONJUGATION_ORDER), n = 1..4
CONJUGATION_ORDER = 10
FOCK_NORM_N_MAX = 14  # fock_norm_exact(n), n = 0..14
WORD_COUNT = 48
WORD_LENGTH = 8  # also the guard band of the matrix cross-check
WORD_DIM = 32
_WORD_LETTERS = ("a", "ad", "q", "p")
_WORD_COEFFS = ("1", "-1", "2", "i", "1/2", "sqrt2", "-i")


def make_inputs(workload: str, seed: int) -> dict:
    """JSON-able inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "report_all":
        return {"cli_seed": seed}
    if workload == "dense_reach":
        return {
            "t": rng.uniform(0.25, 1.0),
            "s": rng.uniform(0.25, 1.0),
            # test FockState with support <= 3, components in [-1, 1)^2
            "xi": [[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(4)],
            "grid_l": rng.uniform(8.0, 12.0),
            "interval_length": rng.uniform(1.0, 5.0),
        }
    if workload == "exact_proofs":
        words = []
        for _ in range(WORD_COUNT):
            letters = [rng.choice(_WORD_LETTERS) for _ in range(WORD_LENGTH)]
            words.append(f"({rng.choice(_WORD_COEFFS)}) * " + " * ".join(letters))
        return {"words": words}
    raise ValueError(f"unknown workload {workload!r}")
