"""Command-line entry point.

Subcommands: grid (print a schedule), sample (run a sampler, emit its
points), sweep (run a JSON experiment config), verify (run the acceptance
suite), gradcheck (CT/CD gradient-gap table).  grid, sample, sweep and
gradcheck all run through the harness's read_config and run_experiment;
for every one but sweep the subcommand names the experiment kind.  Exit
codes: 0 success, 1 usage or validation error, 2 acceptance failure.
"""

from __future__ import annotations

import argparse
import sys

from .acceptance import DEFAULT_SEED, run_all
from .harness import (ConfigError, check_seed, emit, read_config, render_csv,
                      render_json, run_experiment)


def _add_common(p: argparse.ArgumentParser) -> None:
    # other text is kept for check_seed to reject, so that it exits 1
    p.add_argument("--seed", type=lambda s: int(s) if s.isdecimal() else s,
                   default=None, metavar="U64")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="json")


def _emit_or_print(report: dict, args, stem: str) -> None:
    if args.out:
        path = emit(report, args.out, args.format, stem=stem)
        print(path)
    else:
        text = render_json(report) if args.format == "json" \
            else render_csv(report)
        sys.stdout.write(text)


def cmd_run(args) -> int:
    """grid, sample, sweep and gradcheck: read the config, run it through
    the dispatcher and emit the report."""
    kind = None if args.command == "sweep" else args.command
    if kind is None and not args.config:
        raise ConfigError("sweep requires --config PATH")
    raw = read_config(args.config) if args.config else {}
    report = run_experiment(raw, kind, seed=args.seed)
    if kind != "gradcheck":
        _emit_or_print(report, args, args.command)
        return 0
    res = report["result"]
    for r in res["rows"]:
        print(f"dt={r['dt']:<8g} gap={r['gap']:.6e} "
              f"std_err={r['std_err']:.2e}")
    print(f"fitted slope: {res['fit']['slope']:.4f} "
          f"(r^2 = {res['fit']['r_squared']:.4f})")
    if args.out:
        emit(report, args.out, args.format, stem="gradcheck")
    return 0


def cmd_verify(args) -> int:
    report = run_all(DEFAULT_SEED if args.seed is None
                     else check_seed(args.seed))
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"criterion {c['number']:2d} [{status}] {c['name']}")
    if args.out:
        path = emit(report, args.out, args.format, stem="verify")
        print(path)
    return 0 if report["all_passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmlab",
        description="Consistency-model numerical laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("grid", "sample", "sweep", "verify", "gradcheck"):
        p = sub.add_parser(name)
        _add_common(p)
        if name != "verify":        # verify runs its own pinned configs
            p.add_argument("--config", metavar="PATH",
                           help="JSON config file")
        p.set_defaults(fn=cmd_verify if name == "verify" else cmd_run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse exits 0 after -h, 2 on misuse
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
