"""Command-line entry point.

Subcommands map onto the experiment operations; every run is driven by a JSON
config file, optionally patched with --set key=value overrides, and prints a
JSON summary to stdout.  An error is printed as `error: <config path>:
<message>`.  Exit codes: 0 success, 2 config/parse failure, 3 truncation
failure, 4 integration failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments
from .errors import ConfigError, IntegrationError, SimulationError, TruncationError
from .experiments import ScenarioConfig, load_config
from .observables import save_wigner_csv, save_wigner_text

OUTPUT_ROOT_ENV = "COHABS_OUTPUT_ROOT"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario JSON document")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (dotted path)")
    parser.add_argument("--output", default=None,
                        help="output directory (default: $COHABS_OUTPUT_ROOT/<name>)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker cap")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the config and print the resolved parameters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohabs",
        description="Coherence generation by combined linear and nonlinear absorption")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("evolve", "continuous evolution of one scenario"),
        ("switch", "piecewise interaction switching"),
        ("sweep", "scenario run, or a sweep over the config's sweep axes"),
        ("wigner", "Wigner grid of the configured state"),
        ("robustness", "input-state and environment variants"),
        ("completed", "sweep: pumped three-mode completion versus the two-body model"),
        ("landscape", "sweep: coherence over initial occupation and coupling ratio"),
    ):
        _add_common(sub.add_parser(name, help=doc))
    return parser


def _resolve_output(config: ScenarioConfig, args) -> str | None:
    if args.output:
        return args.output
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return os.path.join(root, config.name)
    return None


def _print_summary(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_scenario(config: ScenarioConfig, args) -> dict:
    run = experiments.run_scenario(config, output_dir=_resolve_output(config, args))
    summary = run.summary()
    summary["t_at_max"] = run.tau_at_max / config.model.tau_scale()
    return summary


def _cmd_sweep(config: ScenarioConfig, args) -> dict:
    if not config.sweep:
        return _cmd_scenario(config, args)
    return experiments.sweep(config, jobs=args.jobs,
                             output_dir=_resolve_output(config, args)).summary()


def _cmd_robustness(config: ScenarioConfig, args) -> dict:
    return experiments.robustness_suite(config, jobs=args.jobs,
                                        output_dir=_resolve_output(config, args))


def _cmd_wigner(config: ScenarioConfig, args) -> dict:
    tau = float(config.schedule.taus()[-1])
    rho, = experiments.oscillator_states(config, [tau])
    _, grid, negativity = experiments.wigner_snapshot(rho, config.diagnostics.wigner_points)
    out = _resolve_output(config, args)
    payload = {
        "name": config.name,
        "tau": tau,
        "center_value": float(grid.values[grid.values.shape[0] // 2,
                                          grid.values.shape[1] // 2]),
        "normalization_integral": grid.normalization_integral,
        "negativity_volume": negativity,
    }
    if out:
        os.makedirs(out, exist_ok=True)
        save_wigner_text(grid, os.path.join(out, "wigner.txt"))
        save_wigner_csv(grid, os.path.join(out, "wigner.csv"))
        payload["files"] = ["wigner.txt", "wigner.csv"]
    return payload


_COMMANDS = {
    "evolve": _cmd_scenario,
    "switch": _cmd_scenario,
    "sweep": _cmd_sweep,
    "wigner": _cmd_wigner,
    "robustness": _cmd_robustness,
    "completed": _cmd_sweep,
    "landscape": _cmd_sweep,
}


_EXIT_CODES = ((ConfigError, 2), (TruncationError, 3), (IntegrationError, 4),
               (SimulationError, 1))


def dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        config = load_config(args.config).apply_overrides(args.overrides)
        if args.command == "switch" and config.schedule.type != "switch":
            raise ConfigError("the switch subcommand needs a switch schedule")
        if args.dry_run:
            _print_summary({"resolved_config": config.to_dict(),
                            "config_hash": config.hash(),
                            "tau_scale": config.model.tau_scale(),
                            "cutoff": config.ladder()[-1]})
            return 0
        _print_summary(_COMMANDS[args.command](config, args))
        return 0
    except SimulationError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
