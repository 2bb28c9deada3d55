"""Batch command-line front end.

Subcommands:
  solve <config>        per-sector solves and the full report file set
  fit <csv> <config>    fit surface samples, write a solve-ready config
  table1 <dir>          run every config in a directory and compare the
                        computed observables against the packaged reference
  surfaces <config>     emit the analytic adiabatic surfaces as CSV

Exit codes: 0 success, 2 configuration problems, 3 solver or fit failures.
All outputs are deterministic for a fixed seed; the output directory can be
overridden with --out or the SPINVIB_OUT environment variable.  -v writes
the trace records of the "spinvibronic" logger (one per block solve,
calibration step and fit) to stderr and changes no report byte.  The BLAS
thread count is set through the environment (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS) before the interpreter starts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.resources
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import AnalysisError, CalibrationError, ConvergenceError
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .eigensolver import SolverError
from .hamiltonian import PRESETS
from .params import ParameterError, pes_to_couplings
from .pes import PesFitError, adiabatic_surfaces, fit_pes, read_pes_csv, write_pes_csv
from .reports import run_report, write_all, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# the pipeline stage each solver-side failure comes from
_FAILED_STAGE = {
    ConvergenceError: "cutoff convergence",
    SolverError: "eigensolve",
    AnalysisError: "state analysis",
    CalibrationError: "spin-orbit calibration",
    PesFitError: "surface fit",
}
_SOLVE_ERRORS = tuple(_FAILED_STAGE)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    solver = cfg.solver
    model = cfg.model
    output = cfg.output
    if args.cutoff is not None:
        solver = dataclasses.replace(solver, cutoff=args.cutoff, converge=False)
    if args.order is not None:
        model = dataclasses.replace(model, order=args.order)
    if args.preset is not None:
        model = dataclasses.replace(model, preset=args.preset)
    outdir = os.environ.get("SPINVIB_OUT", output.directory)
    if args.out is not None:
        outdir = args.out
    output = dataclasses.replace(output, directory=str(outdir))
    return dataclasses.replace(cfg, solver=solver, model=model, output=output)


def cmd_solve(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    report = run_report(cfg)
    written = write_all(report, cfg.output.directory)
    for p in written:
        print(p)
    print(
        f"{report.defect}: gamma1 = {report.gamma1:.4f} meV, gamma2 = {report.gamma2:.4f} meV, "
        f"p_u = {report.p_u:.4f}, p_g = {report.p_g:.4f}"
        + (
            f", lambda_eff = {report.soc.lambda_eff:.4f} meV"
            if report.soc is not None
            else " (spin-orbit off)"
        )
    )
    return EXIT_OK


def cmd_surfaces(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    c = pes_to_couplings(cfg.defect)
    grid = np.linspace(args.qmin, args.qmax, args.points)
    curve = adiabatic_surfaces(c, cfg.defect.lambda_corr, cfg.model.preset, grid)
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "surfaces.csv"
    write_pes_csv(curve, path)
    print(path)
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    samples = read_pes_csv(args.csv)
    result = fit_pes(samples, cfg.defect, preset=cfg.model.preset)
    fitted_cfg = dataclasses.replace(cfg, defect=result.params)
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "fitted.conf"
    path.write_text(serialize_config(fitted_cfg), encoding="utf-8")
    print(path)
    for i, rms in enumerate(result.rms_per_surface):
        tag = f"{rms:.6g} meV" if np.isfinite(rms) else "masked"
        print(f"surface {i + 1} rms residual: {tag}")
    return EXIT_OK


def _load_reference() -> dict[str, dict[str, float]]:
    ref: dict[str, dict[str, float]] = {}
    data = importlib.resources.files("spinvibronic.data").joinpath("reference_values.csv")
    with data.open("r", encoding="utf-8") as fh:
        for row in csv.DictReader(filter(lambda l: not l.startswith("#"), fh)):
            ref.setdefault(row["defect"], {})[row["quantity"]] = float(row["value"])
    return ref


# each table1 quantity and the report.json key of its 10-digit value, which
# no BLAS thread count moves; the spin-orbit keys are absent when it is off
TABLE1_KEYS = {"gamma1": "gamma1_mev", "gamma2": "gamma2_mev", "p_u": "p_u", "p_g": "p_g",
               "lambda_eff": "lambda_eff_mev", "zpl_shift_ev": "zpl_shift_ev"}


def cmd_table1(args) -> int:
    configs = sorted(Path(args.dir).glob("*.conf"))
    if not configs:
        print(f"no .conf files in {args.dir}", file=sys.stderr)
        return EXIT_CONFIG
    reference = _load_reference()
    rows = []
    failed = False
    for path in configs:
        cfg = _apply_overrides(parse_config(path), args)
        try:
            report = run_report(cfg)
        except _SOLVE_ERRORS as exc:
            stage = next(v for cls, v in _FAILED_STAGE.items() if isinstance(exc, cls))
            print(f"{path.name}: {cfg.defect.name} FAILED in {stage} ({exc})", file=sys.stderr)
            rows.append({"defect": cfg.defect.name, "status": "FAILED"})
            failed = True
            continue
        row = {"defect": report.defect, "status": "ok"}
        ref = reference.get(report.defect, {})
        written = report.to_dict()
        for q, key in TABLE1_KEYS.items():
            value = written.get(key)
            row[q] = value
            row[q + "_ref"] = ref.get(q)
            if value is not None and ref.get(q) not in (None, 0.0):
                row[q + "_dev"] = (value - ref[q]) / abs(ref[q])
            else:
                row[q + "_dev"] = None
        rows.append(row)

    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "table1.csv"
    columns = ["defect", "status"]
    for q in TABLE1_KEYS:
        columns += [q, q + "_ref", q + "_dev"]
    write_csv(out, rows, columns, digits=6)
    print(out)

    header = f"{'defect':8s} {'quantity':14s} {'computed':>12s} {'reference':>12s} {'rel dev':>9s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        if row.get("status") != "ok":
            print(f"{row['defect']:8s} {'(solve failed)':14s}")
            continue
        for q in TABLE1_KEYS:
            v, r, dev = row.get(q), row.get(q + "_ref"), row.get(q + "_dev")
            if v is None:
                continue
            print(
                f"{row['defect']:8s} {q:14s} {v:12.5g} "
                + (f"{r:12.5g}" if r is not None else f"{'-':>12s}")
                + (f" {dev * 100:8.2f}%" if dev is not None else f" {'-':>8s}")
            )
    return EXIT_SOLVER if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinvib",
        description="Vibronic and spin-orbit level structure of dual Jahn-Teller color centers",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="write the solver trace records to stderr"
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--preset", choices=PRESETS, default=None)
    output.add_argument("--out", default=None, help="output directory")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--cutoff", type=int, default=None, help="force a fixed oscillator cutoff")
    common.add_argument("--order", type=int, choices=(1, 2), default=None)

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", parents=[common], help="solve one defect and write reports")
    p.add_argument("config")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fit", parents=[common], help="fit surface samples to model parameters")
    p.add_argument("csv")
    p.add_argument("config")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("table1", parents=[common], help="compare a config directory to reference values")
    p.add_argument("dir")
    p.set_defaults(func=cmd_table1)

    # the surfaces are classical and always of the full quadratic model: no
    # cutoff, no order
    p = sub.add_parser("surfaces", parents=[output], help="emit analytic adiabatic surfaces")
    p.add_argument("config")
    p.add_argument("--qmin", type=float, default=-3.0)
    p.add_argument("--qmax", type=float, default=3.5)
    p.add_argument("--points", type=int, default=261)
    p.set_defaults(func=cmd_surfaces, cutoff=None, order=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    log = logging.getLogger("spinvibronic")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVE_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
