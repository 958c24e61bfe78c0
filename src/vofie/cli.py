"""Command-line front end: solve, converge, coeffs.

Configurations are JSON files (or named bundled presets) resolving to the
library-level objects; unknown keys are rejected. Outputs are deterministic
CSV/JSON with 17-significant-digit floats and LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import run_convergence
from .assembly import assemble, translation_invariant
from .mesh import count_fault, grading_for_case, make_mesh
from .order import make_constant_order, make_linear_order, make_sine_order
from .solver import NewtonError, Problem, solve

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


def _sine_order(a0, a1, T):
    if T != 1.0:
        raise ConfigError(f"the sine family is defined on [0, 1]: problem.T must be 1, got {T}")
    return make_sine_order(a0, a1)


# the families a config can name: problem.f and order.family each map a family
# to its constructor and the keys it takes, in the constructor's argument
# order, each with its default (None: the key is required)
_RHS = {
    "zero": (_f_zero, {}),
    "constant": (_f_constant, {"c": 1.0}),
    "linear": (_f_linear, {"lambda": -1.0}),
    "sin4": (_f_sin4, {}),
}
_ORDERS = {
    "sine": (_sine_order, {"a0": None, "a1": None}),
    "constant": (make_constant_order, {"value": None}),
    "linear": (make_linear_order, {"start": None, "end": None}),
}


# the kinds of config value, each as an error names what a value must be
_COUNT, _NUMBER, _STRING, _COUNTS = "an integer >= 1", "a finite number", "a string", "a list of integers"


def _keys(families: dict) -> dict:
    return {key: _NUMBER for _, keys in families.values() for key in keys}


# every config key once, in its section (a dict) or at the top level, with its
# kind; the keys of the families come from their tables
SCHEMA = {
    "problem": {"f": _STRING, **_keys(_RHS), "u0": _NUMBER, "T": _NUMBER},
    "order": {"family": _STRING, **_keys(_ORDERS)},
    "mesh": {"N": _COUNT, "r": _NUMBER, "case": _STRING},
    "convergence": {"N_list": _COUNTS, "ref_N": _COUNT},
}


def _read(spec, schema: dict, where: str = "") -> dict:
    """The config object `spec` read against `schema`, section by section,
    each value as its kind: an int for a count, a finite float for a
    number. A key the schema does not list, or a value not of its kind (a
    bool, NaN, Infinity, a fraction or 0 for a count, an integer too large
    for a float), raises ConfigError naming it as section.key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object")
    unknown = set(spec) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {where or 'top-level'} keys: {sorted(unknown)}")
    read = {}
    for key, value in spec.items():
        name, kind = f"{where}.{key}" if where else key, schema[key]
        read[key] = _read(value, kind, name) if isinstance(kind, dict) else _value(value, kind, name)
    return read


def _value(value, kind: str, name: str):
    if kind == _STRING and isinstance(value, str):
        return value
    if kind == _COUNTS and isinstance(value, list):
        return [_value(n, _COUNT, f"{name} entry N = {n!r}") for n in value]
    if kind in (_COUNT, _NUMBER) and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            finite = False
        if finite and kind == _NUMBER:
            return float(value)
        # an integral JSON number such as 120.0 is a count too
        if finite and value == int(value) and not count_fault(int(value)):
            return int(value)
    raise ConfigError(f"{name} must be {kind}, got {value!r}")


def _build(spec: dict, section: str, name: str, families: dict, what: str, *args):
    """The family that spec[name] names, built from its keys in `spec` (a
    section read by `_read`) and then `args`. An unknown family, a missing
    required key, or a key of another family raises ConfigError."""
    family = spec.get(name)
    if family not in families:
        raise ConfigError(f"unknown {what}: {family!r} (use {'/'.join(families)})")
    make, keys = families[family]
    stray = sorted((_keys(families).keys() - keys.keys()) & spec.keys())
    if stray:
        raise ConfigError(f"{section}.{stray[0]} is not a key of {what} {family!r}")
    missing = [key for key, default in keys.items() if default is None and key not in spec]
    if missing:
        raise ConfigError(f"{what} {family!r} needs keys {missing}")
    return make(*(spec.get(key, default) for key, default in keys.items()), *args)


def build_run(config: dict):
    """Resolve a config dict to (problem, mesh, conv_spec).

    mesh is None without mesh.N, which only solve and coeffs require.
    conv_spec holds the run_convergence arguments the config sets: the
    grading as `case`, mesh.case or mesh.r as given (r = 1 without either),
    and the convergence keys. Keys a config leaves out take the defaults of
    the library function that reads them. Nothing else is configurable: a
    solve reads only the problem and the mesh."""
    config = _read(config, SCHEMA)
    pspec, mspec = config.get("problem", {}), config.get("mesh", {})
    T = pspec.get("T", 1.0)
    f, df = _build(pspec, "problem", "f", _RHS, "builtin f")
    order = _build(config.get("order", {}), "order", "family", _ORDERS, "order family", T)
    problem = Problem(f=f, df_du=df, u0=pspec.get("u0", 1.0), T=T, order=order)

    if "case" in mspec and "r" in mspec:
        raise ConfigError("mesh takes case or r, not both: case sets the grading")
    grading = mspec.get("case", mspec.get("r", 1.0))
    try:
        r = grading_for_case(order, grading)
    except ValueError as exc:  # a finite mesh.r can only be below 1
        why = f"mesh.case: {exc}" if "case" in mspec else f"mesh.r must be >= 1, got {grading:g}"
        raise ConfigError(why) from exc
    mesh = make_mesh(T, mspec["N"], r) if "N" in mspec else None
    conv = {"case": grading, **config.get("convergence", {})}
    return problem, mesh, conv


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
            raise ConfigError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        return PRESETS[args.preset]
    if not args.config:
        raise ConfigError("one of --config or --preset is required")
    try:
        return json.loads(Path(args.config).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {args.config}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {args.config}: {exc}") from exc


def cmd_solve(args) -> int:
    config = load_config(args)
    problem, mesh, _ = build_run(config)
    if mesh is None:
        raise ConfigError("mesh.N is required")
    if args.fast_path:
        # a check only: solve takes the fast path whenever the inputs qualify
        translation_invariant(problem.order, mesh)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        solution = solve(problem, mesh)
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
    problem, _, conv = build_run(load_config(args))
    try:
        report = run_convergence(problem, config_id=args.preset or args.config or "", **conv)
    except ValueError as exc:
        # run_convergence names an argument it refuses first, and the
        # convergence keys are its arguments
        if str(exc).split(maxsplit=1)[0] in SCHEMA["convergence"]:
            raise ConfigError(f"convergence.{exc}") from exc
        raise
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "convergence.csv")
    print(report.format_table())
    return 0


def cmd_coeffs(args) -> int:
    config = load_config(args)
    problem, mesh, _ = build_run(config)
    if mesh is None:
        raise ConfigError("mesh.N is required")
    # the fast table first, so that an input it refuses writes nothing
    fast = assemble(problem.order, mesh, fast_path=True) if args.fast_path else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dense = assemble(problem.order, mesh, fast_path=False)
    dense.dump_csv(out / "weights.csv")
    if fast is not None:
        disc = max(
            float(np.max(np.abs(dense.history_row(n) - fast.history_row(n))))
            for n in range(1, mesh.N + 1)
        )
        print(f"max |dense - fast| = {disc:.3e}")
    print(f"wrote {out}/weights.csv ({dense.history_storage_entries()} history entries)")
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with EXIT_CONFIG, not 2, which
    is the code of solver failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="vofie",
        description="Collocation solver for variable-order fractional Cauchy problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("converge", cmd_converge), ("coeffs", cmd_coeffs)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config")
        p.add_argument("--preset", help=f"bundled config, one of {sorted(PRESETS)}")
        p.add_argument("--out", default="out", help="output directory")
        if name == "solve":
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name in ("solve", "coeffs"):
            p.add_argument("--fast-path", action="store_true")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
