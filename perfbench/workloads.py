"""Inputs of the four workloads, generated from the benchmark's seed.

Every pass of a run gets the same inputs, so passes are repeats of one
measurement.  Sizes are fixed per workload and only values vary with the
seed, so one seed costs about as much as another:

* ``series``: the five exact r_n routes up to order 24 and the series
  identities; the seed picks the rational (p, q) points every r_n is
  evaluated at.
* ``enumeration``: brute-force coloring sums; the seed picks the
  evaluation points, and the interval labels and lengths of mixed-moment
  signatures whose shapes are fixed.
* ``verify``: the ``verify`` subcommand with a seed for its random
  signatures.
* ``cli``: the other subcommands as processes with seeded arguments.
"""

from __future__ import annotations

import random
from fractions import Fraction

# (p, q) points every subcommand accepts: p + q stays at least 0.1 away from
# the critical ray p + q = 1, and both sides of it are represented (atoms
# exist exactly when p + q < 1).
POINTS = (
    ("1/2", "1/4"), ("1/3", "1/5"), ("2/7", "1/6"), ("1/4", "1/2"),
    ("3/8", "1/9"), ("1/5", "3/7"), ("1/7", "2/9"), ("2/5", "1/3"),
    ("3/4", "5/6"), ("5/7", "4/5"), ("6/5", "1/3"), ("2/3", "7/8"),
    ("4/9", "7/6"), ("9/8", "2/7"), ("7/5", "3/4"), ("5/4", "5/4"),
)

# (positions, intervals) of the enumeration workload's mixed moments.  The
# single-interval signatures dominate the cost, so the sizes are fixed.
SIGNATURE_SHAPES = ((12, 1), (10, 1), (8, 1), (12, 2), (12, 2), (10, 2), (12, 3), (12, 3), (10, 3), (8, 3))

IDENTITY_R_MAX = 3


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pattern(positions: int, intervals: int, slot: int) -> list:
    """A fixed assignment with an even count per interval, one per slot.

    Which positions share an interval sets the cost of a mixed moment, so
    it is fixed; the seed only relabels the intervals and draws lengths.
    """
    rng = random.Random(f"pattern:{positions}:{intervals}:{slot}")
    pairs = list(range(intervals)) + [rng.randrange(intervals) for _ in range(positions // 2 - intervals)]
    assignment = pairs + pairs
    rng.shuffle(assignment)
    return assignment


def _signature(rng: random.Random, positions: int, intervals: int, slot: int) -> dict:
    labels = list(range(intervals))
    rng.shuffle(labels)
    lengths = [str(Fraction(rng.randint(1, 5), rng.randint(1, 4))) for _ in range(intervals)]
    return {"lengths": lengths, "assignment": [labels[i] for i in _pattern(positions, intervals, slot)]}


def series(seed: int) -> dict:
    rng = _rng("series", seed)
    return {
        "order": 24,
        "identity_order": 14,
        "identity_expected": 1 + 2 * IDENTITY_R_MAX,
        "points": rng.sample(POINTS, 4),
    }


def enumeration(seed: int) -> dict:
    rng = _rng("enumeration", seed)
    return {
        "max_n": 7,
        "euler_n": 6,
        "covered_n": 6,
        "poisson_n": 8,
        "points": rng.sample(POINTS, 4),
        "signatures": [_signature(rng, n, k, slot) for slot, (n, k) in enumerate(SIGNATURE_SHAPES)],
    }


def verify(seed: int) -> list:
    rng = _rng("verify", seed)
    job_seed = rng.randrange(1, 10**6)
    return [{"command": "verify", "seed": job_seed, "argv": ["verify", "--seed", str(job_seed)]}]


def _pq_args(point) -> list:
    return ["--p", point[0], "--q", point[1]]


def cli(seed: int) -> list:
    rng = _rng("cli", seed)
    pts = rng.sample(POINTS, 4)
    N = rng.randint(10, 10_000)
    brown = _signature(rng, 10, 2, 0)
    names = ("f", "g")
    lo = Fraction(rng.randint(0, 3), 2)
    bounds, edge = [], lo
    for length in brown["lengths"]:
        bounds.append((edge, edge + Fraction(length)))
        edge += Fraction(length) + Fraction(rng.randint(0, 2), 2)
    intervals = ",".join(f"{nm}=[{a},{b}]" for nm, (a, b) in zip(names, bounds))
    signature = " ".join(names[i] for i in brown["assignment"])
    return [
        {"command": "enumerate", "n": 12, "argv": ["enumerate", "--n", "12"]},
        {"command": "moments", "n": 12, "point": pts[0], "argv": ["moments", "--n", "12"] + _pq_args(pts[0])},
        {"command": "poisson", "n": 8, "argv": ["poisson", "--n", "8"]},
        {"command": "clt", "N": N, "moment": 6, "point": pts[1],
         "argv": ["clt", "--N", str(N), "--moment", "6"] + _pq_args(pts[1])},
        {"command": "brownian", "lengths": brown["lengths"], "assignment": brown["assignment"],
         "argv": ["brownian", "--signature", signature, "--intervals", intervals]},
        {"command": "density", "grid": 401, "point": pts[2], "argv": ["density", "--grid", "401"] + _pq_args(pts[2])},
        {"command": "quadcheck", "nmax": 12, "point": pts[3], "argv": ["quadcheck", "--nmax", "12"] + _pq_args(pts[3])},
    ]


GENERATORS = {"series": series, "enumeration": enumeration, "verify": verify, "cli": cli}
NAMES = tuple(GENERATORS)
# Workloads whose operations are public calls made inside one client
# process; the others are command-line processes.
IN_PROCESS = ("series", "enumeration")


def inputs(name: str, seed: int):
    return GENERATORS[name](seed)
