"""Command-line front end.

Subcommands:

* ``run``: one simulation, writing errors.csv / energy.csv (and
  conservation.csv for FR runs) into the output directory.
* ``study``: a convergence study over several N, writing per-N error rows
  plus an average-order row.
* ``conditioning``: the FR correction-construction report across N,
  writing conditioning.csv and corrections.csv.

Configuration comes from an optional flat ``key=value`` file (``--config``)
with command-line flags taking precedence.  Both are derived from the
``RunConfig`` fields: a field's key is its name unless ``KEY_ALIASES``
spells it otherwise, and its flag is ``--`` + key with ``_`` -> ``-``.
Exit codes: 0 success, 2 validation error (usage errors included), 3
blow-up (a blown-up single run still writes its partial report), 4
numerical failure (a singular or degenerate basis system or an
unsolvable correction system; nothing is written).  Studies tolerate
blow-ups and numerical failures: the affected row reports infinite
errors and a JSON warning line.  Errors are emitted as one JSON object
per line on stderr.
"""

import argparse
import json
import math
import sys
import typing
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
from .quadrature import QuadratureRule
from .runner import METHODS, NUMERICAL_ERRORS, RunConfig, execute_run, run_study, validate_config
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
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigurationError(f"cannot read config file {str(path)!r}: {err.strerror}") from err
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    return values


# Config keys spelled unlike the RunConfig field they set.
KEY_ALIASES = {"N": "n", "tau": "tau_l", "R0": "r0", "R1": "r1"}


def _scalar_type(annotation):
    """int, float or str: the type a field's text value converts to."""
    return next(t for t in (int, float, str) if t in (annotation, *typing.get_args(annotation)))


_FIELD_KEYS = {name: key for key, name in KEY_ALIASES.items()}
# Every config key, in RunConfig field order, with the field it sets and its type.
CONFIG_KEYS = {_FIELD_KEYS.get(f.name, f.name): (f.name, _scalar_type(f.type))
               for f in fields(RunConfig)}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the JSON line every failure prints, exit 2."""

    def error(self, message):
        sys.exit(_fail("ConfigurationError", message, EXIT_VALIDATION))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rbfadvect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    methods = list(dict.fromkeys(method for _, method in METHODS))

    def add_flags(p, keys, multi_n: bool):
        for key in keys:
            name, kind = CONFIG_KEYS[key]
            flag = "--" + key.replace("_", "-")
            if name == "n" and multi_n:
                p.add_argument(flag, action="append", type=int, dest="n_values")
            else:
                p.add_argument(flag, type=kind, dest=name,
                               choices=methods if name == "method" else None)
        p.add_argument("--out-dir", default="out", dest="out_dir")

    for command, help_text in (("run", "run one simulation"),
                               ("study", "convergence study over several N")):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        add_flags(p, CONFIG_KEYS, multi_n=command == "study")

    cond = sub.add_parser("conditioning", help="FR correction conditioning report")
    # The report is on the FR correction system of inflow_bump's basis.
    cond.set_defaults(problem="inflow_bump", method="fr")
    add_flags(cond, ("kernel", "N", "m", "quad_points"), multi_n=True)
    return parser


def assemble_config(args) -> tuple[RunConfig, list | None]:
    """Merge config-file values and CLI flags into a RunConfig."""
    merged = {}
    n_values = None
    if getattr(args, "config", None):
        for key, raw in read_config_file(args.config).items():
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"unknown config key {key!r}")
            name, kind = CONFIG_KEYS[key]
            if name == "n" and "," in raw:
                n_values = [int(v) for v in raw.split(",") if v.strip()]
            else:
                merged[name] = kind(raw)
    for name, _ in CONFIG_KEYS.values():
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
        cfg, n_values = assemble_config(args)
        if n_values is not None:
            raise ConfigurationError("run takes one N; a list of N values is for study")
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


def _study_config(args):
    """The config of a study or conditioning report, its N values and kernel; each N validated."""
    cfg, n_values = assemble_config(args)
    n_values = n_values or [10, 20, 40, 80]
    for n in n_values:
        _, kern = validate_config(replace(cfg, n=n))
    return cfg, n_values, kern


def cmd_study(args) -> int:
    try:
        cfg, n_values, _ = _study_config(args)
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
        cfg, n_values, kern = _study_config(args)
    except (ConfigurationError, ValueError) as err:
        return _fail(type(err).__name__, str(err), EXIT_VALIDATION)
    rule = QuadratureRule(points_per_panel=cfg.quad_points)
    cond_rows, corr_rows = [], []
    try:
        for n in n_values:
            nb = build_nodal_basis(equidistant_centers(n), kern, cfg.m)
            aux = build_nodal_basis(equidistant_centers(n + 2), kern, cfg.m)
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
