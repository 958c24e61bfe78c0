"""Command-line front end: solve, converge, coeffs.

Configurations are JSON files (or named bundled presets) resolving to the
library-level objects; unknown keys are rejected. Outputs are deterministic
CSV/JSON with 17-significant-digit floats and LF line endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import run_convergence
from .assembly import assemble, gauss_nodes
from .mesh import grading_for_case, make_mesh
from .order import (
    VariableOrder,
    make_constant_order,
    make_linear_order,
    make_sine_order,
)
from .solver import NewtonConfig, NewtonError, Problem, solve

EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


# --- builtin right-hand sides ------------------------------------------------

def _f_zero():
    return (lambda u, t: 0.0 * u, lambda u, t: 0.0 * u)


def _f_constant(c):
    return (lambda u, t: c + 0.0 * u, lambda u, t: 0.0 * u)


def _f_linear(lam):
    return (lambda u, t: lam * u, lambda u, t: lam + 0.0 * u)


def _f_sin4():
    return (
        lambda u, t: 0.5 * np.sin(u) ** 4,
        lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
    )


def _build_rhs(spec: dict):
    kind = spec.get("f")
    if kind == "zero":
        return _f_zero()
    if kind == "constant":
        return _f_constant(float(spec.get("c", 1.0)))
    if kind == "linear":
        return _f_linear(float(spec.get("lambda", -1.0)))
    if kind == "sin4":
        return _f_sin4()
    raise ConfigError(f"unknown builtin f: {kind!r} (use zero/constant/linear/sin4)")


_PROBLEM_KEYS = {"f", "c", "lambda", "u0", "T"}
_ORDER_KEYS = {"family", "a0", "a1", "value", "start", "end"}
_MESH_KEYS = {"N", "r", "case"}
_TOP_KEYS = {"problem", "order", "mesh", "quad_nodes", "newton", "convergence"}
_NEWTON_KEYS = {"tol", "max_iter", "damping"}
_CONV_KEYS = {"N_list", "ref_N"}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def build_order(spec: dict) -> VariableOrder:
    _reject_unknown(spec, _ORDER_KEYS, "order")
    family = spec.get("family")
    if family == "sine":
        return make_sine_order(float(spec["a0"]), float(spec["a1"]))
    if family == "constant":
        return make_constant_order(float(spec["value"]))
    if family == "linear":
        return make_linear_order(float(spec["start"]), float(spec["end"]))
    raise ConfigError(f"unknown order family: {family!r} (use sine/constant/linear)")


def build_run(config: dict):
    """Resolve a config dict to (problem, mesh, rule, newton_cfg, conv_spec)."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(config, _TOP_KEYS, "top-level")
    pspec = dict(config.get("problem", {}))
    _reject_unknown(pspec, _PROBLEM_KEYS, "problem")
    ospec = dict(config.get("order", {}))
    mspec = dict(config.get("mesh", {}))
    _reject_unknown(mspec, _MESH_KEYS, "mesh")

    order = build_order(ospec)
    f, df = _build_rhs(pspec)
    u0 = float(pspec.get("u0", 1.0))
    T = float(pspec.get("T", 1.0))
    if T != order.T:
        raise ConfigError(f"problem T = {T} does not match the order horizon {order.T}")
    problem = Problem(f=f, df_du=df, u0=u0, T=T, order=order)

    if "N" not in mspec:
        raise ConfigError("mesh.N is required")
    N = int(mspec["N"])
    case = mspec.get("case")
    if case is not None:
        r = grading_for_case(order, str(case))
    else:
        r = float(mspec.get("r", 1.0))
    try:
        mesh = make_mesh(T, N, r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    rule = gauss_nodes(int(config["quad_nodes"])) if "quad_nodes" in config else gauss_nodes()
    nspec = dict(config.get("newton", {}))
    _reject_unknown(nspec, _NEWTON_KEYS, "newton")
    try:
        cfg = NewtonConfig(
            tol=float(nspec.get("tol", 1e-10)),
            max_iter=int(nspec.get("max_iter", 50)),
            damping=bool(nspec.get("damping", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cspec = dict(config.get("convergence", {}))
    _reject_unknown(cspec, _CONV_KEYS, "convergence")
    conv = {
        "N_list": [int(n) for n in cspec.get("N_list", [48, 72, 96, 120])],
        "ref_N": int(cspec.get("ref_N", 1440)),
        "case": str(case) if case is not None else None,
    }
    return problem, mesh, rule, cfg, conv


# --- bundled presets ----------------------------------------------------------

def _table_preset(a0, a1, case):
    return {
        "problem": {"f": "sin4", "u0": 1.0, "T": 1.0},
        "order": {"family": "sine", "a0": a0, "a1": a1},
        "mesh": {"N": 120, "case": case},
        "convergence": {"N_list": [48, 72, 96, 120], "ref_N": 1440},
    }


def _fig1_preset(a0, a1):
    return {
        "problem": {"f": "constant", "c": 1.0, "u0": 1.0, "T": 1.0},
        "order": {"family": "sine", "a0": a0, "a1": a1},
        "mesh": {"N": 1440, "r": 1.0},
    }


PRESETS = {
    "table1_col1": _table_preset(1.0, 0.8, "I"),
    "table1_col2": _table_preset(0.6, 0.4, "III"),
    "table1_col3": _table_preset(0.4, 0.2, "III"),
    "table2_col1": _table_preset(0.6, 0.4, "II"),
    "table2_col2": _table_preset(0.4, 0.2, "II"),
    "fig1_casei": _fig1_preset(1.0, 0.1),
    "fig1_caseii": _fig1_preset(0.6, 0.1),
    "fig1_caseiii": _fig1_preset(0.3, 0.1),
}


def load_config(args) -> dict:
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}"
            )
        config = json.loads(json.dumps(PRESETS[args.preset]))  # deep copy
    elif args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {args.config}: {exc}") from exc
    else:
        raise ConfigError("one of --config or --preset is required")
    if args.quad_nodes is not None:
        config["quad_nodes"] = args.quad_nodes
    if args.newton_tol is not None:
        config.setdefault("newton", {})["tol"] = args.newton_tol
    return config


def cmd_solve(args) -> int:
    config = load_config(args)
    problem, mesh, rule, cfg, _ = build_run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        solution = solve(problem, mesh, rule, cfg, fast_path=args.fast_path)
    except NewtonError as exc:
        # where the march stopped, for callers that only read the outputs
        with open(out / "summary.json", "w") as fh:
            json.dump(exc.summary(), fh, indent=2)
            fh.write("\n")
        raise
    if args.format == "csv":
        solution.to_csv(out / "solution.csv")
    else:
        with open(out / "solution.json", "w") as fh:
            json.dump(
                {
                    "t": [f"{t:.17g}" for t in solution.mesh.nodes],
                    "U": [f"{u:.17g}" for u in solution.values],
                },
                fh,
            )
            fh.write("\n")
    solution.to_json(out / "summary.json")
    print(f"solved N={mesh.N}, r={mesh.r:g}; wrote {out}/solution.{args.format}")
    return 0


def cmd_converge(args) -> int:
    config = load_config(args)
    problem, mesh, rule, cfg, conv = build_run(config)
    case = conv["case"]
    if case is None:
        # infer the regime from the grading actually configured
        if mesh.r == 1.0:
            case = "I" if problem.order.alpha0 == 1.0 else "III"
        else:
            case = "II"
    report = run_convergence(
        problem,
        case,
        N_list=conv["N_list"],
        ref_N=conv["ref_N"],
        rule=rule,
        cfg=cfg,
        config_id=args.preset or args.config or "",
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "convergence.csv")
    print(report.format_table())
    return 0


def cmd_coeffs(args) -> int:
    config = load_config(args)
    problem, mesh, rule, _, _ = build_run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dense = assemble(problem.order, mesh, rule, fast_path=False)
    dense.dump_csv(out / "weights.csv")
    if args.fast_path:
        fast = assemble(problem.order, mesh, rule, fast_path=True)
        disc = max(
            float(np.max(np.abs(dense.history_row(n) - fast.history_row(n))))
            for n in range(1, mesh.N + 1)
        )
        np.savetxt(
            out / "generating_sequence.csv",
            np.column_stack([fast.gen_left, fast.gen_right]),
            fmt="%.17g",
            delimiter=",",
            header="gen_left,gen_right",
            comments="",
        )
        print(f"max |dense - fast| = {disc:.3e}")
    print(f"wrote {out}/weights.csv ({dense.history_storage_entries()} history entries)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vofie",
        description="Collocation solver for variable-order fractional Cauchy problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("converge", cmd_converge), ("coeffs", cmd_coeffs)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config")
        p.add_argument("--preset", help=f"bundled config, one of {sorted(PRESETS)}")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--quad-nodes", type=int, default=None)
        p.add_argument("--newton-tol", type=float, default=None)
        p.add_argument("--fast-path", action="store_true")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
