"""The three benchmark workloads as lists of parageo job configs.

A job is a dict with a unique ``name``, the ``config`` keyword arguments of
``parageo.cli.ExperimentConfig``, and for ``jets`` jobs ``engine``: the grid
engine it is meant to run on, ``"kernel"`` for the integer ``_fastgrid``
kernel or ``"generic"`` for the Fraction path.  Seed 0 gives the inputs in
README.md; any other seed redraws the base direction of every ``jets`` job
(see ``draw_direction``) and marks the job ``drawn``.
"""

import random
from fractions import Fraction

ALGEBRAS = [
    "proj(1)",
    "proj(2)",
    "grass(1,2)",
    "grass(2,2)",
    "conf(1,1)",
    "conf(1,2)",
    "lagr3",
    "su21",
    "xxdot",
]

# Grade of each n-basis coordinate, in the order parse_direction reads them.
N_GRADES = {
    "proj(2)": (-1, -1),
    "proj(4)": (-1, -1, -1, -1),
    "proj(5)": (-1, -1, -1, -1, -1),
    "grass(1,2)": (-1, -1),
    "conf(1,2)": (-1, -1, -1),
    "lagr3": (-2, -1, -1),
    "su21": (-2, -1, -1),
    "xxdot": (-2, -2, -1, -1, -1),
}

# The rational searches of scripts/run_full_suite.py; its xxdot full_n
# search runs here at grid 3 instead of 2.
RATIONAL_JET_RUNS = [
    ("proj(2)", "full_n", 2),
    ("grass(1,2)", "full_n", 2),
    ("conf(1,2)", "full_n", 2),
    ("lagr3", "grade(-1)", 2),
    ("lagr3", "grade(-2)", 2),
    ("lagr3", "full_n", 2),
    ("xxdot", "grade(-1)", 2),
    ("xxdot", "grade(-2)", 2),
]

WORKLOADS = ("lemmas", "grid-kernel", "grid-fraction")


def _jets(algebra, type_spec, grid, engine, direction=None):
    config = dict(command="jets", algebra=algebra, type_spec=type_spec, grid=grid, orders=4)
    if direction is not None:
        config["direction"] = direction
    name = "jets %s %s grid %d" % (algebra, type_spec, grid)
    if direction is not None:
        name += " dir %s" % direction
    return dict(name=name, config=config, engine=engine)


def _base_jobs(workload):
    if workload == "lemmas":
        jobs = [
            dict(name="verify %s" % cid, config=dict(command="verify", algebra=cid, suite="all"))
            for cid in ALGEBRAS
        ]
        jobs.append(dict(name="reparam proj(1)", config=dict(command="reparam", algebra="proj(1)")))
        return jobs
    if workload == "grid-kernel":
        jobs = [_jets(cid, tspec, grid, "kernel") for cid, tspec, grid in RATIONAL_JET_RUNS]
        jobs.append(_jets("xxdot", "full_n", 3, "kernel"))
        jobs.append(_jets("proj(4)", "full_n", 1, "kernel"))
        jobs.append(_jets("proj(5)", "full_n", 1, "kernel"))
        return jobs
    if workload == "grid-fraction":
        return [
            _jets("su21", "grade(-2)", 2, "generic"),
            _jets("su21", "grade(-1)", 1, "generic"),
            _jets("su21", "full_n", 1, "generic"),
            _jets("xxdot", "grade(-1)", 2, "generic", "0,0,1/2,1,0"),
            _jets("lagr3", "full_n", 3, "generic", "1/2,1,1"),
            _jets("conf(1,2)", "full_n", 2, "generic", "1/2,1,1"),
            dict(
                name="family lagr3 grade(-1) grid 2",
                config=dict(command="family", algebra="lagr3", type_spec="grade(-1)", grid=2),
            ),
            dict(
                name="family xxdot grade(-2) grid 2",
                config=dict(command="family", algebra="xxdot", type_spec="grade(-2)", grid=2),
            ),
            dict(
                name="fiber conf(1,2) grid 2",
                config=dict(command="fiber", algebra="conf(1,2)", type_spec="full_n", grid=2),
            ),
        ]
    raise ValueError("unknown workload %r" % workload)


def seed0_direction(algebra, type_spec, direction=None):
    """The seed-0 direction as exact coordinates over the n basis.

    Without an explicit direction this is the CLI default: the first grid
    member with nonnegative coordinates, i.e. the last basis vector of the
    type's support (all of n for full_n, one grade for grade(-j)).
    """
    grades = N_GRADES[algebra]
    if direction is not None:
        return [Fraction(c) for c in direction.split(",")]
    if type_spec == "full_n":
        support = range(len(grades))
    else:
        grade = int(type_spec[len("grade(") : -1])
        support = [i for i, g in enumerate(grades) if g == grade]
    coords = [Fraction(0)] * len(grades)
    coords[max(support)] = Fraction(1)
    return coords


def draw_direction(rng, coords):
    """The seed-0 direction times a random nonzero integer factor.

    The factor is odd when a coordinate is fractional, so the direction
    keeps its type, its grid and its integer or fractional character.  The
    solved Y and every jet order scale with X, so the verdict fields equal
    seed 0's; the numbers the engines work on do not.
    """
    frac = any(c.denominator != 1 for c in coords)
    factor = rng.choice((-3, -1, 1, 3) if frac else (-3, -2, -1, 1, 2, 3))
    return ",".join(str(c * factor) for c in coords)


def jobs_for(workload, seed):
    """The job list of a workload; seed 0 is the fixed reference input."""
    jobs = _base_jobs(workload)
    if seed == 0:
        return jobs
    rng = random.Random("%s/%d" % (workload, seed))
    out = []
    for job in jobs:
        if job["config"]["command"] == "jets":
            config = dict(job["config"])
            base = seed0_direction(config["algebra"], config["type_spec"], config.get("direction"))
            config["direction"] = draw_direction(rng, base)
            job = dict(job, config=config)
        out.append(job)
    return out


def algebras_of(jobs):
    """The catalog ids a job list builds, in first-use order."""
    seen = []
    for job in jobs:
        cid = job["config"]["algebra"]
        if cid not in seen:
            seen.append(cid)
    return seen
