"""Seeded command plans for the CLI workloads.

A plan is one cycle of jobs; a job is a short list of CLI commands run in
order, each in its own process, where a later command reads what an
earlier one wrote.  The seed decides every input: ranks, nu, nmax within
each layout's range, grids, dilation factors, rules and the job order.
The benchmark repeats the same cycle while its time allows, so every cycle
of a run writes the same bytes.

The choices that set the cost are balanced inside a cycle (each layout gets
the same number of jobs, nmax values are a permutation of the layout's
range or come from a narrow window, and every pool of ranks contributes the
same number of draws), so cycles drawn from different seeds cost about the
same and the run-to-run spread of the timings stays small.
"""

from __future__ import annotations

import random

PRECISION = 200
SAMPLES = 64

# Ranks by the depth of the first isolated point of their set, which sets
# a build's cost: `_enumerate_angles` materializes per_level**depth points.
# Every cycle draws the same number from each pool.  DEFECT holds ranks hit
# by the known enumeration defect (README: first leaf deeper than three
# nested clusters, so `_enumerate_angles` reads an empty depth-3 prefix as
# an exhausted set); one row and one sector build per cycle come from it
# and count as failed.
SHALLOW = ("2", "3", "w+1", "w+2", "w*2+1", "w^2+1", "w^2+2")
DEEP = ("4", "w+3", "w*2+3")
DEFECT = ("5", "6", "w+4", "w*2+4")
ROW_NMAX = (10, 11, 12)
ROW_NU = (1, 2)
# Sector (nu = inf) and limit layouts at super-rows 5 and 6, as (nmax, t)
# of the sector rule per chain.  A sector probe's cost grows with the bit
# length of j_k, set by ring n(n-1)/2 + t at k = nmax (6,000 bits at nmax
# 6, t 3), so the slots are fixed and the seed assigns ranks to them.
SECTOR_SLOTS = {"shallow": (6, 1), "deep": (5, 2), "defect": (5, 1)}
LIMIT_RANKS = ("w", "w*2", "w^2", "w^w", "w^(w+1)")
LIMIT_SLOTS = [(5, 1), (5, 2), (6, 1)]

RATIOS = ("1/2", "1/3", "2/3", "3/10", "7/10", "1/4", "3/4", "2/5")
GM_LEVELS = ("1", "1/2", "2", "3/2")

# build-large: big limit layouts, sector layouts at 16 super-rows, and
# build-set/derive on ranks up to w^w.  A build's cost grows fast with nmax
# and differs by rank (w^2 at nmax 20 takes three times w^w at 16), so each
# limit rank draws nmax from its own narrow window inside 16-20, w^w always
# builds the largest schedule (which sets the peak RSS), and the sector
# layouts stay at 16.  Sector ranks whose first leaf is deeper than three
# clusters cost 18-26 s per build at nmax 16 (4 and w+3 build 27 MB
# schedules; the defective 5 and w+4 spend 18-21 s to place no zero), so
# this pool stops at depth three; the defect stays visible here through
# the limit layouts, whose enumerations reach 4, 5, ... and w+3.
LARGE_LIMITS = (("w^2", (16, 17)), ("w^(w+1)", (17, 18)), ("w^w", (20,)))
LARGE_SECTOR_RANKS = ("2", "3", "w+1", "w+2", "w*2+1", "w^2+1")
LARGE_SECTOR_NMAX = 16
ARC_CENTERS = ("1/8", "3/8", "5/8", "7/8", "1/16", "5/16")
ARC_WIDTHS = ("1/96", "1/72", "1/128", "1/200")
# (alpha, predecessor or None for a limit, a strictly smaller stage)
SET_RANKS = (
    ("w^w", None, "w^3*2"),
    ("w^3", None, "w^2*5+1"),
    ("w^2*2", None, "w^2+w"),
    ("w^3+w*2+1", "w^3+w*2", "w^3"),
    ("w^2+3", "w^2+2", "w^2"),
    ("w*2+1", "w*2", "w+7"),
    ("w+5", "w+4", "w+1"),
    ("7", "6", "3"),
)
SETS_PER_CYCLE = 3


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"rankzero-perfbench:{workload}:{seed}")


def _cmd(kind: str, args: list, out: str, inputs=(), **check) -> dict:
    return {"kind": kind, "argv": [kind, *args, "--out", out], "out": out,
            "inputs": list(inputs), "check": {"kind": kind, **check}}


def _eval_and_probe(rng: random.Random, tag: str, sched: str, rule: str) -> list:
    j = int(10 ** rng.uniform(0, 5))
    if rng.random() < 0.5:
        grid = f"ring:n={rng.randint(2, 8)},samples={SAMPLES}"
    else:
        grid = f"annulus:n={rng.randint(1, 6)},samples={SAMPLES}"
    return [
        _cmd("eval", ["--schedule", sched, "--j", str(j), "--grid", grid],
             f"{tag}-field.csv", [sched], j=j, samples=SAMPLES),
        _cmd("probe", ["--schedule", sched, "--rule", rule],
             f"{tag}-probe.json", [sched], rule=rule),
    ]


def _chain(rng, tag, layout, alpha, nmax, rule, nu=None) -> list:
    sched = f"{tag}-schedule.json"
    if layout == "rows":
        args = ["--alpha", alpha, "--nu", str(nu), "--nmax", str(nmax)]
    elif layout == "sectors":
        args = ["--alpha", alpha, "--nu", "inf", "--nmax", str(nmax)]
    else:
        args = ["--alpha", alpha, "--nmax", str(nmax)]
    build = _cmd("build-zeros", args, sched, layout=layout, alpha=alpha,
                 nu=nu, nmax=nmax)
    return [build, *_eval_and_probe(rng, tag, sched, rule)]


def cli_pipeline(seed: int) -> list:
    """Ten build-zeros -> eval -> probe chains: four row, three sector and
    three limit layouts."""
    rng = _rng("cli-pipeline", seed)
    jobs = []
    # rows: two shallow ranks, one deep, one defective
    row_alphas = rng.sample(SHALLOW, 2) + [rng.choice(DEEP), rng.choice(DEFECT)]
    row_nmax = rng.sample(ROW_NMAX, len(ROW_NMAX)) + [ROW_NMAX[1]]
    row_rules = ["ratio-plus", "ratio-plus", "geometric-mean"]
    rng.shuffle(row_rules)
    for i, (alpha, nmax) in enumerate(zip(row_alphas, row_nmax)):
        if i < 3 and row_rules[i] == "geometric-mean":
            rule = f"geometric-mean:L={rng.choice(GM_LEVELS)}"
        else:
            rule = f"ratio-plus:r={rng.choice(RATIOS)}"
        nu = rng.choice(ROW_NU) if i < 2 else 1
        jobs.append(("rows", alpha, nmax, rule, nu))
    sectors = {"shallow": rng.choice(SHALLOW), "deep": rng.choice(DEEP),
               "defect": rng.choice(DEFECT)}
    for kind, alpha in sectors.items():
        nmax, t = SECTOR_SLOTS[kind]
        jobs.append(("sectors", alpha, nmax, f"sector:r={rng.choice(RATIOS)},t={t}", None))
    lim_alphas = rng.sample(LIMIT_RANKS, len(LIMIT_SLOTS))
    for alpha, (nmax, t) in zip(lim_alphas, LIMIT_SLOTS):
        jobs.append(("limit", alpha, nmax, f"sector:r={rng.choice(RATIOS)},t={t}", None))
    rng.shuffle(jobs)
    return [_chain(rng, f"c{i:02d}", layout, alpha, nmax, rule, nu)
            for i, (layout, alpha, nmax, rule, nu) in enumerate(jobs)]


def build_large(seed: int) -> list:
    """Three large limit layouts, six sector layouts and three
    build-set -> derive pairs, each build its own job."""
    rng = _rng("build-large", seed)
    jobs = []
    for alpha, window in LARGE_LIMITS:
        nmax = rng.choice(window)
        jobs.append([_cmd("build-zeros", ["--alpha", alpha, "--nmax", str(nmax)],
                          "", layout="limit", alpha=alpha, nu=None, nmax=nmax)])
    nmax = LARGE_SECTOR_NMAX
    for alpha in LARGE_SECTOR_RANKS:
        jobs.append([_cmd("build-zeros",
                          ["--alpha", alpha, "--nu", "inf", "--nmax", str(nmax)],
                          "", layout="sectors", alpha=alpha, nu=None, nmax=nmax)])
    for alpha, pred, smaller in rng.sample(SET_RANKS, SETS_PER_CYCLE):
        nu = rng.randint(1, 4) if pred else 1
        stage = rng.choice(["pred", "self", "below"] if pred else ["self", "below"])
        if stage == "pred":
            beta, card = pred, str(nu)
        elif stage == "self":
            beta, card = alpha, ("0" if pred else "1")
        else:
            beta, card = smaller, "infinite"
        arc = ["--arc-center", rng.choice(ARC_CENTERS), "--arc-width", rng.choice(ARC_WIDTHS)]
        jobs.append([
            _cmd("build-set", ["--alpha", alpha, "--nu", str(nu), *arc], ""),
            _cmd("derive", ["--beta", beta], "", card=card, beta=beta),
        ])
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        tag = f"b{i:02d}"
        for cmd in job:
            cmd["out"] = f"{tag}-{cmd['kind']}.json"
            cmd["argv"][-1] = cmd["out"]
        if job[0]["kind"] == "build-set":
            derive = job[1]
            derive["argv"][1:1] = ["--set", job[0]["out"]]
            derive["inputs"] = [job[0]["out"]]
    return jobs


def verify_core(seed: int) -> list:
    """The acceptance suite; its inputs are fixed, so the seed is unused."""
    return [[_cmd("verify", ["--suite", "core"], "report.json")]]


PLANS = {"verify-core": verify_core, "cli-pipeline": cli_pipeline,
         "build-large": build_large}


def plan(workload: str, seed: int) -> list:
    return PLANS[workload](seed)
