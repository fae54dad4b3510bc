"""Command-line interface.

    decolab run <config> [--verify] [--out DIR] [--format FMT]
    decolab compare-regimes <config>
    decolab selftest

Exit status is zero only when every file was written and every enabled
verification check passed.
"""

import argparse
import sys

from .config import load_config
from .core import ConfigError, ConvergenceError
from .output import FORMATS
from .runner import compare_regimes, recorded_warnings, run
from .selftest import run_selftest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="Closed-form decoherence models with built-in numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a config and write its outputs")
    p_run.add_argument("config", help="path to a run configuration file")
    p_run.add_argument("--verify", action="store_true", default=None,
                       help="enable the oracle cross-checks for this run")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="override the configured output directory")
    p_run.add_argument("--format", default=None, choices=FORMATS, dest="fmt",
                       help="override the configured data-file format")

    p_cmp = sub.add_parser("compare-regimes",
                           help="tabulate entangled vs decoupled high-T decay side by side")
    p_cmp.add_argument("config", help="path to a free-cat configuration file")

    sub.add_parser("selftest", help="run the numerical oracle battery")
    return parser


def _print_checks(prefix: str, checks) -> None:
    # one line per check; the benchmark parses this format
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{prefix} {check.name}: {status} "
              f"(deviation {check.deviation:.3e}, tolerance {check.tolerance:.3e})")


def _print_warnings(texts) -> None:
    for text in texts:
        print(f"warning: {text}", file=sys.stderr)


def _cmd_run(args) -> int:
    config = load_config(args.config).with_overrides(
        verify=args.verify, output_dir=args.out, fmt=args.fmt
    )
    report = run(config)
    print(f"wrote {len(report.files)} file(s) + report.txt to {report.output_dir}")
    _print_warnings(report.warnings)
    if report.verification is not None:
        _print_checks("verify", report.verification)
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    config = load_config(args.config)
    with recorded_warnings() as texts:
        path = compare_regimes(config)
    _print_warnings(texts)
    print(f"wrote {path}")
    return 0


def _cmd_selftest() -> int:
    results = run_selftest()
    _print_checks("selftest", results)
    passed = sum(check.passed for check in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare-regimes":
            return _cmd_compare(args)
        return _cmd_selftest()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ConvergenceError) as exc:  # RegimeBreakdownError among them
        # the warnings a run or comparison raised before it failed
        _print_warnings(getattr(exc, "warnings", ()))
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())
