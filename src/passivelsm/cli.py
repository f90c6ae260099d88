"""Command line interface: run experiments, validate, inspect presets."""

from __future__ import annotations

import argparse
import json
import logging
import sys


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO level")
    parser = argparse.ArgumentParser(
        prog="passivelsm",
        description="Sound-soft obstacle reconstruction from passive "
        "cross-correlation measurements by the linear sampling method.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common],
                           help="run an experiment and write outputs")
    p_run.add_argument("--preset", help="preset name, e.g. kite-C or setup2(800)")
    p_run.add_argument("--config", help="INI config file (overrides the preset)")
    p_run.add_argument("--seed", type=int, help="master seed override")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a config entry (repeatable)")

    p_val = sub.add_parser("validate", parents=[common],
                           help="run a verification suite")
    p_val.add_argument("--suite", default="all",
                       help="suite name (default: all)")
    p_val.add_argument("--out", help="write the JSON report here")

    p_info = sub.add_parser("info", parents=[common],
                            help="print a resolved preset config")
    p_info.add_argument("--preset", required=True)
    return parser


def _preset(name):
    from . import pipeline

    try:
        return pipeline.preset(name)
    except (ValueError, ArithmeticError) as exc:   # e.g. wavenumber(0), setup2(inf)
        raise pipeline.PipelineError("config", str(exc)) from exc


def _load_config(args):
    from . import pipeline

    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise pipeline.PipelineError("config", f"cannot read {args.config}: {exc}") from exc
    elif args.preset:
        text = _preset(args.preset).to_ini()
    else:
        raise SystemExit("run requires --preset or --config")
    overrides = []
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise SystemExit(f"malformed --set {item!r}; expected SECTION.KEY=VALUE")
        overrides.append((key.strip(), value.strip()))
    if args.seed is not None:
        overrides.append(("run.seed", str(args.seed)))
    return pipeline.ExperimentConfig.from_ini(text, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.command == "validate":
        from . import validate

        try:
            report = validate.run_suite(args.suite)
        except ValueError as exc:
            if args.suite in validate.SUITES:   # raised inside a criterion
                raise
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for entry in report["results"]:
            print(validate.CheckResult(**entry).line())
        text = json.dumps(report, indent=2, default=str)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0 if report["passed"] else 1

    from . import pipeline

    try:
        if args.command == "run":
            manifest = pipeline.run(_load_config(args), args.out)
            print(f"wrote {args.out} (delta={manifest.delta:.6e})")
        else:
            print(_preset(args.preset).to_ini(), end="")
    except pipeline.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
