"""Command-line front end.

Subcommands:

* ``run``: one simulation, writing errors.csv / energy.csv (and
  conservation.csv for FR runs) into the output directory.
* ``study``: a convergence study over several N, writing per-N error rows
  plus an average-order row.
* ``conditioning``: the FR correction-construction report across N,
  writing conditioning.csv and corrections.csv.

Configuration comes from an optional flat ``key=value`` file (``--config``)
with command-line flags taking precedence.  Exit codes: 0 success, 2
validation error, 3 blow-up (a blown-up single run still writes its
partial report), 4 numerical failure (a singular or degenerate basis
system or an unsolvable correction system; nothing is written).  Studies
tolerate blow-ups and numerical failures: the affected row reports
infinite errors and a JSON warning line.  Errors are emitted as one JSON
object per line on stderr.
"""

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from .correction import build_corrections, verify_corrections
from .diagnostics import (
    write_conditioning_csv,
    write_conservation_csv,
    write_corrections_csv,
    write_energy_csv,
    write_errors_csv,
)
from .errors import ConfigurationError, StabilityParameterError
from .interpolation import build_nodal_basis, equidistant_centers
from .kernels import kernel_from_name
from .quadrature import QuadratureRule
from .runner import NUMERICAL_ERRORS, RunConfig, execute_run, run_study, validate_config
from .timestep import BlowUpError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_NUMERICAL = 4


def _fail(kind: str, message: str, code: int, **extra) -> int:
    print(json.dumps({"error": kind, "message": message, **extra}), file=sys.stderr)
    return code


def read_config_file(path) -> dict:
    """Flat key=value lines; blank lines and #-comments ignored."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    return values

_INT_KEYS = {"N", "m", "seed", "quad_points", "record_stride"}
_FLOAT_KEYS = {"cfl", "t_end", "tau", "tau_r", "R0", "R1", "sigma", "alpha_skew", "tsvd_rtol"}


def _coerce(key: str, val: str):
    if key in _INT_KEYS:
        return int(val)
    if key in _FLOAT_KEYS:
        return float(val)
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rbfadvect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi_n: bool):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--problem")
        p.add_argument("--method", choices=["usual", "fr", "sat"])
        p.add_argument("--kernel")
        if multi_n:
            p.add_argument("--N", action="append", type=int, dest="n_values")
        else:
            p.add_argument("--N", type=int, dest="n")
        p.add_argument("--m", type=int)
        p.add_argument("--cfl", type=float)
        p.add_argument("--t-end", type=float, dest="t_end")
        p.add_argument("--tau", type=float, dest="tau_l")
        p.add_argument("--tau-r", type=float, dest="tau_r")
        p.add_argument("--R0", type=float, dest="r0")
        p.add_argument("--R1", type=float, dest="r1")
        p.add_argument("--alpha-skew", type=float, dest="alpha_skew")
        p.add_argument("--sigma", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--quad-points", type=int, dest="quad_points")
        p.add_argument("--record-stride", type=int, dest="record_stride")
        p.add_argument("--tsvd-rtol", type=float, dest="tsvd_rtol")
        p.add_argument("--out-dir", default="out", dest="out_dir")

    common(sub.add_parser("run", help="run one simulation"), multi_n=False)
    common(sub.add_parser("study", help="convergence study over several N"), multi_n=True)

    cond = sub.add_parser("conditioning", help="FR correction conditioning report")
    cond.add_argument("--kernel", default="cubic")
    cond.add_argument("--N", action="append", type=int, dest="n_values")
    cond.add_argument("--m", type=int)
    cond.add_argument("--quad-points", type=int, dest="quad_points", default=10)
    cond.add_argument("--out-dir", default="out", dest="out_dir")
    return parser


_CONFIG_ALIASES = {
    "problem": "problem", "method": "method", "kernel": "kernel",
    "N": "n", "m": "m", "cfl": "cfl", "t_end": "t_end", "tau": "tau_l",
    "tau_r": "tau_r", "R0": "r0", "R1": "r1", "alpha_skew": "alpha_skew",
    "sigma": "sigma", "seed": "seed", "quad_points": "quad_points",
    "record_stride": "record_stride",
    "tsvd_rtol": "tsvd_rtol",
}


def assemble_config(args) -> tuple[RunConfig, list | None]:
    """Merge config-file values and CLI flags into a RunConfig."""
    merged = {}
    n_values = None
    if getattr(args, "config", None):
        for key, raw in read_config_file(args.config).items():
            if key == "N" and "," in raw:
                n_values = [int(v) for v in raw.split(",") if v.strip()]
                continue
            if key not in _CONFIG_ALIASES:
                raise ConfigurationError(f"unknown config key {key!r}")
            merged[_CONFIG_ALIASES[key]] = _coerce(key, raw)
    field_names = {f.name for f in fields(RunConfig)}
    for name in field_names:
        val = getattr(args, name, None)
        if val is not None:
            merged[name] = val
    if getattr(args, "n_values", None):
        n_values = args.n_values
    if "problem" not in merged or "method" not in merged:
        raise ConfigurationError("a problem and a method are required")
    return RunConfig(**merged), n_values


def _report_rows(reports, orders=None):
    rows = []
    for r in reports:
        rows.append((r.problem, r.method, r.kernel, r.n,
                     r.error_l1, r.error_linf, r.error_l2, math.nan, math.nan))
    if orders is not None:
        first = reports[0]
        rows.append((first.problem, first.method, first.kernel, "avg_order",
                     math.nan, math.nan, math.nan,
                     orders.get("error_l1", math.nan), orders.get("error_linf", math.nan)))
    return rows


def _write_run_outputs(out_dir: Path, reports, orders=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_errors_csv(out_dir / "errors.csv", _report_rows(reports, orders))
    write_energy_csv(out_dir / "energy.csv", reports)
    if any(r.conservation for r in reports):
        write_conservation_csv(out_dir / "conservation.csv", reports)


def cmd_run(args) -> int:
    try:
        cfg, _ = assemble_config(args)
        validate_config(cfg)
    except (ConfigurationError, StabilityParameterError, ValueError) as err:
        return _fail(type(err).__name__, str(err), EXIT_VALIDATION)
    try:
        report = execute_run(cfg)
    except NUMERICAL_ERRORS as err:
        return _fail(type(err).__name__, str(err), EXIT_NUMERICAL)
    _write_run_outputs(Path(args.out_dir), [report])
    if report.blew_up:
        return _fail("BlowUpError", f"state blew up at t={report.blowup_time:.6g}", EXIT_BLOWUP,
                     step=report.blowup_step, stage=report.blowup_stage)
    return EXIT_OK


def cmd_study(args) -> int:
    try:
        cfg, n_values = assemble_config(args)
        if not n_values:
            n_values = [10, 20, 40, 80]
        for n in n_values:
            validate_config(replace(cfg, n=n))
    except (ConfigurationError, StabilityParameterError, ValueError) as err:
        return _fail(type(err).__name__, str(err), EXIT_VALIDATION)
    reports, orders = run_study(cfg, n_values)
    _write_run_outputs(Path(args.out_dir), reports, orders)
    for r in reports:
        if r.blew_up:
            print(json.dumps({"warning": "blow-up", "N": r.n, "t": r.blowup_time,
                              "step": r.blowup_step, "stage": r.blowup_stage}), file=sys.stderr)
        elif r.failure is not None:
            print(json.dumps({"warning": "numerical-failure", "N": r.n, "error": r.failure,
                              "message": r.failure_message}), file=sys.stderr)
    return EXIT_OK


def cmd_conditioning(args) -> int:
    try:
        kern = kernel_from_name(args.kernel)
        n_values = args.n_values or [10, 20, 40, 80]
        if args.m is not None and args.m < kern.cpd_order:
            raise ConfigurationError("m is below the kernel CPD order")
        if min(n_values) < 2:
            raise ConfigurationError("need at least N = 2")
        if not 1 <= args.quad_points <= 64:
            raise ConfigurationError("quad_points must lie in 1..64")
    except (ConfigurationError, ValueError) as err:
        return _fail(type(err).__name__, str(err), EXIT_VALIDATION)
    rule = QuadratureRule(points_per_panel=args.quad_points)
    cond_rows, corr_rows = [], []
    try:
        for n in n_values:
            nb = build_nodal_basis(equidistant_centers(n), kern, args.m)
            aux = build_nodal_basis(equidistant_centers(n + 2), kern, args.m)
            cf = build_corrections(nb, aux, rule)
            res = verify_corrections(cf, nb, rule)
            cond_rows.append((kern.name, n, cf.cond))
            corr_rows.append((kern.name, n, cf.cond, res.max_left, res.max_right))
    except NUMERICAL_ERRORS as err:
        return _fail(type(err).__name__, str(err), EXIT_NUMERICAL)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_conditioning_csv(out_dir / "conditioning.csv", cond_rows)
    write_corrections_csv(out_dir / "corrections.csv", corr_rows)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "study":
        return cmd_study(args)
    return cmd_conditioning(args)


if __name__ == "__main__":
    sys.exit(main())
