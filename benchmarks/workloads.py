"""The benchmark workloads, their accuracy targets and their correctness checks.

Every workload is a fixed list of runs; ``--seed`` reaches only the
scattered-center leg of ``study_1d``.  A pass executes every run once and
returns raw results; ``check`` turns them into one Outcome per run, so the
time spent checking stays outside the timed pass.  A raised exception is
a failed run, never a crashed benchmark.

Accuracy targets are upper bounds on the nodal l1 error: ``ACCURACY_MARGIN``
times the value the seed commit produced (for the scattered leg: times the
largest value over workload seeds 0-199).  A more accurate program never
fails them.  See README.md for why each workload exists.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from rbfadvect import cli, runner
from rbfadvect.runner import RunConfig

ACCURACY_MARGIN = 2.0
N_VALUES = (10, 20, 40, 80)
# Criterion 7: the acoustic SAT runs stay bounded.
ACOUSTIC_STATE_MAX = 2.0
# Each 2D run samples its energy at t = 0, at every 500th step and at the
# end: 4 samples for the 1001-step SAT runs, 2 for the 101-step usual runs.
# The CLI default stride of 10 would take ~100 samples at ~1 s each, so one
# SAT run would last ~100 s and the energy hook would be all we measure.
ADVECT2D_RECORD_STRIDE = 500
SCATTER_SIGMA = 4.0


@dataclass
class Outcome:
    """Verdict on one run; ``l1`` enters err_l1_gmean when set."""

    run_id: str
    ok: bool
    l1: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class Leg:
    """One execute_run call with its seed-commit l1 error, if it has a target."""

    run_id: str
    config: RunConfig
    l1_reference: float | None = None
    acoustic: bool = False

    @property
    def l1_target(self) -> float | None:
        return None if self.l1_reference is None else ACCURACY_MARGIN * self.l1_reference


def _l1_outcome(run_id: str, l1: float, target: float, in_gmean: bool = True) -> Outcome:
    ok = math.isfinite(l1) and l1 <= target
    return Outcome(run_id, ok, l1 if in_gmean else None, f"l1={l1:.4e} target={target:.4e}")


class ExecuteRunWorkload:
    """Runs through ``runner.execute_run``, so hooks and error norms are included."""

    def __init__(self, legs: list[Leg], record_stride: dict[str, int]):
        self.legs = legs
        self.record_stride = record_stride

    def run_pass(self, workdir: Path) -> list:
        results = []
        for leg in self.legs:
            try:
                results.append(runner.execute_run(leg.config))
            except Exception as err:  # a failed run, counted by check()
                results.append(err)
        return results

    def check(self, results) -> list[Outcome]:
        outcomes = []
        for leg, rep in zip(self.legs, results):
            if isinstance(rep, Exception):
                outcomes.append(Outcome(leg.run_id, False, detail=f"{type(rep).__name__}: {rep}"))
            elif rep.blew_up:
                outcomes.append(Outcome(leg.run_id, False, detail=f"blow-up at t={rep.blowup_time}"))
            elif leg.acoustic:
                ok = rep.state_max <= ACOUSTIC_STATE_MAX
                outcomes.append(Outcome(leg.run_id, ok, detail=f"state_max={rep.state_max:.4f}"))
            else:
                outcomes.append(_l1_outcome(leg.run_id, rep.error_l1, leg.l1_target))
        return outcomes

    def setup_round(self):
        """Only the set-up of every run, to sample setup_s more often than passes."""
        for leg in self.legs:
            runner.build_run(leg.config)

    def targets(self) -> dict:
        return {leg.run_id: {"l1_max": leg.l1_target} if not leg.acoustic
                else {"state_max": ACOUSTIC_STATE_MAX, "blow_up": False} for leg in self.legs}


def long_time_1d() -> ExecuteRunWorkload:
    legs = [
        Leg("periodic_sin2-sat-quintic-N80", RunConfig(
            problem="periodic_sin2", method="sat", kernel="quintic", n=80, t_end=100.0,
            record_stride=20), l1_reference=2.507e-3),
    ]
    for kernel in ("cubic", "quintic"):
        legs.append(Leg(f"acoustic-sat-{kernel}-N40", RunConfig(
            problem="acoustic", method="sat", kernel=kernel, n=40, t_end=100.0,
            record_stride=100), acoustic=True))
    return ExecuteRunWorkload(legs, {"periodic_sin2": 20, "acoustic": 100})


ADVECT2D_L1 = {("cubic", "usual"): 2.951e-2, ("cubic", "sat"): 2.911e-2,
               ("quintic", "usual"): 2.286e-2, ("quintic", "sat"): 2.182e-2}


def advect2d() -> ExecuteRunWorkload:
    legs = [
        Leg(f"advect2d-{method}-{kernel}-N20", RunConfig(
            problem="advect2d", method=method, kernel=kernel, n=20,
            record_stride=ADVECT2D_RECORD_STRIDE), l1_reference=ref)
        for (kernel, method), ref in ADVECT2D_L1.items()
    ]
    return ExecuteRunWorkload(legs, {"advect2d": ADVECT2D_RECORD_STRIDE})


# Seed-commit l1 errors at N = 10, 20, 40, 80; None marks FR legs, which
# the paper shows pathological: they are checked for blow-ups only.
STUDY_L1 = {
    ("inflow_bump", "usual", "quintic"): (2.798e-1, 7.168e-2, 7.707e-3, 1.691e-3),
    ("inflow_bump", "fr", "cubic"): None,
    ("inflow_bump", "fr", "quintic"): None,
    ("inflow_bump", "sat", "cubic"): (1.967e-1, 1.204e-1, 1.286e-2, 1.793e-3),
    ("varcoeff", "sat", "quintic"): (1.607e-1, 1.785e-1, 1.162e-2, 3.775e-3),
}
# Largest l1 of the scattered sat/cubic leg over workload seeds 0-199.
SCATTERED_L1 = (2.447e-1, 1.280e-1, 2.146e-2, 3.801e-3)


@dataclass(frozen=True)
class CliLeg:
    leg_id: str
    argv: tuple
    l1_reference: tuple | None
    kind: str  # "study" or "conditioning"
    # Its inputs depend on the seed, so its errors stay out of err_l1_gmean.
    seeded: bool = False


class StudyWorkload:
    """The CLI ``study`` and ``conditioning`` commands, writing their CSVs."""

    record_stride = {"study": 10}

    def __init__(self, seed: int):
        self.seed = seed
        n_args = tuple(a for n in N_VALUES for a in ("--N", str(n)))
        self.legs = []
        for (problem, method, kernel), ref in STUDY_L1.items():
            argv = ("study", "--problem", problem, "--method", method, "--kernel", kernel) + n_args
            if problem == "inflow_bump":
                argv += ("--t-end", "0.5")
            self.legs.append(CliLeg(f"{problem}-{method}-{kernel}", argv, ref, "study"))
        self.legs.append(CliLeg(
            f"inflow_bump-sat-cubic-sigma{SCATTER_SIGMA:g}-seed{seed}",
            ("study", "--problem", "inflow_bump", "--method", "sat", "--kernel", "cubic")
            + n_args + ("--t-end", "0.5", "--sigma", str(SCATTER_SIGMA), "--seed", str(seed)),
            SCATTERED_L1, "study", seeded=True))
        for kernel in ("cubic", "quintic"):
            self.legs.append(CliLeg(f"conditioning-{kernel}",
                                    ("conditioning", "--kernel", kernel) + n_args, None,
                                    "conditioning"))

    def run_pass(self, workdir: Path) -> list:
        results = []
        for leg in self.legs:
            out = workdir / leg.leg_id
            try:
                results.append(cli.main(list(leg.argv) + ["--out-dir", str(out)]))
            except Exception as err:  # a failed leg, counted by check()
                results.append(err)
        return [(leg, workdir / leg.leg_id, res) for leg, res in zip(self.legs, results)]

    def check(self, results) -> list[Outcome]:
        outcomes = []
        for leg, out, res in results:
            ids = [f"{leg.leg_id}-N{n}" for n in N_VALUES]
            if res != 0:
                detail = f"{type(res).__name__}: {res}" if isinstance(res, Exception) else f"exit {res}"
                outcomes.extend(Outcome(i, False, detail=detail) for i in ids)
            elif leg.kind == "conditioning":
                outcomes.extend(_check_conditioning(ids, out / "corrections.csv"))
            else:
                outcomes.extend(_check_study(ids, out / "errors.csv", leg.l1_reference, leg.seeded))
        return outcomes

    setup_round = None

    def targets(self) -> dict:
        targets = {}
        for leg in self.legs:
            for i, n in enumerate(N_VALUES):
                run_id = f"{leg.leg_id}-N{n}"
                if leg.kind == "conditioning":
                    targets[run_id] = {"max_residual": "max(1e-6, 1e-13 * cond_A)"}
                elif leg.l1_reference is None:
                    targets[run_id] = {"blow_up": False}
                else:
                    targets[run_id] = {"l1_max": ACCURACY_MARGIN * leg.l1_reference[i]}
        return targets


def _rows_by_n(path: Path) -> dict:
    """CSV rows keyed by their N column; empty when the file is missing."""
    if not path.is_file():
        return {}
    with open(path, newline="") as fh:
        return {row["N"]: row for row in csv.DictReader(fh)}


def _number(text: str) -> float:
    # The CSV writers leave NaN fields empty.
    return float(text) if text else math.nan


def _check_study(ids, path: Path, reference, seeded: bool) -> list[Outcome]:
    rows = _rows_by_n(path)
    outcomes = []
    for i, (run_id, n) in enumerate(zip(ids, N_VALUES)):
        row = rows.get(str(n))
        if row is None:
            outcomes.append(Outcome(run_id, False, detail="row missing from errors.csv"))
            continue
        l1 = _number(row["l1"])
        if reference is None:
            # FR: a blown-up row reports infinite errors.
            outcomes.append(Outcome(run_id, math.isfinite(l1), detail=f"l1={l1:.4e}"))
        else:
            outcomes.append(_l1_outcome(run_id, l1, ACCURACY_MARGIN * reference[i],
                                        in_gmean=not seeded))
    return outcomes


def _check_conditioning(ids, path: Path) -> list[Outcome]:
    rows = _rows_by_n(path)
    outcomes = []
    for run_id, n in zip(ids, N_VALUES):
        row = rows.get(str(n))
        if row is None:
            outcomes.append(Outcome(run_id, False, detail="row missing from corrections.csv"))
            continue
        cond = _number(row["cond_A"])
        worst = max(_number(row["max_residual_cL"]), _number(row["max_residual_cR"]))
        tol = max(1e-6, 1e-13 * cond)
        outcomes.append(Outcome(run_id, math.isfinite(cond) and worst <= tol,
                                detail=f"residual={worst:.3e} tol={tol:.3e}"))
    return outcomes


def make(name: str, seed: int):
    if name == "long_time_1d":
        return long_time_1d()
    if name == "advect2d":
        return advect2d()
    if name == "study_1d":
        return StudyWorkload(seed)
    raise KeyError(name)

