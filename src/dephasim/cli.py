"""Command-line front end.

Subcommands:
  dephasim run      --config cfg.json --out sweep.csv
  dephasim preset   --name fig2d --out sweep.csv
  dephasim converge --config cfg.json

Exit codes: 0 on success, 1 on configuration/validation errors, 2 on
numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import config_from_dict, parse_config
from .errors import ConfigError, DephasimError
from .presets import PRESET_NAMES, preset_config
from .sweep import convergence_report, emit_csv, run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephasim",
        description=(
            "Entanglement and decoherence sweeps for piecewise-constant "
            "pure-dephasing models"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON configuration")
    p_run.add_argument("--out", required=True, help="path of the CSV output")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a built-in preset sweep")
    p_preset.add_argument(
        "--name", required=True, help=f"one of: {', '.join(PRESET_NAMES)}"
    )
    p_preset.add_argument("--out", required=True, help="path of the CSV output")
    p_preset.set_defaults(func=_cmd_preset)

    p_conv = sub.add_parser(
        "converge", help="report cutoff-doubling stability for a config"
    )
    p_conv.add_argument("--config", required=True, help="path to the JSON configuration")
    p_conv.set_defaults(func=_cmd_converge)
    return parser


def _load_config(path: str):
    cfg_path = Path(path)
    try:
        text = cfg_path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=cfg_path.parent)


def _write_sweep(cfg, out: str) -> int:
    rows = run_sweep(cfg)
    written = emit_csv(rows, out)
    print(f"wrote {len(rows)} rows ({written} bytes) to {out}")
    return 0


def _cmd_run(args) -> int:
    return _write_sweep(_load_config(args.config), args.out)


def _cmd_preset(args) -> int:
    try:
        cfg_dict = preset_config(args.name)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from exc
    return _write_sweep(config_from_dict(cfg_dict), args.out)


def _cmd_converge(args) -> int:
    print(convergence_report(_load_config(args.config)).render())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DephasimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
