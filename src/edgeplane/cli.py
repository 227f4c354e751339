"""Command line front end.

Subcommands:
  validate      check a scenario file and report every problem found
  place         compute a deployment plan and write it as a document
  routes        export per-domain mesh routing config for a plan
  simulate      run the scenario's event loop and write the report
  serve-policy  serve the policy data/decision HTTP API

Files are read and parsed by the ``scenario`` module alone; ``validate``
prints one ``section: Type: message`` line per failing section.

Exit codes: 0 success, 1 semantic violation, 2 parse error (an unreadable
input or unwritable output included), 3 infeasible placement, 4 internal
error (a defect in edgeplane, reported as one ``internal error:`` line).  Set
EDGEPLANE_LOG=debug (or any logging level name; any other name means info)
for diagnostics on stderr; output documents are byte-deterministic.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .controlplane import place_application, validate_plan
from .documents import dump_doc, dump_docs, plan_from_doc, plan_to_doc, report_to_doc, routes_docs
from .errors import EdgeplaneError, InfeasiblePlacement, ScenarioParseError
from .meshsim import run_scenario
from .scenario import check_scenario, load_scenario, read_yaml

log = logging.getLogger("edgeplane")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _configure_logging():
    level_name = os.environ.get("EDGEPLANE_LOG", "").upper()
    if level_name:
        level = logging.getLevelName(level_name)  # an int only for a level's name
        if not isinstance(level, int):
            level = logging.INFO
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@contextmanager
def _writing(path):
    """Report a failed write under ``path`` as ``<path>: cannot write: <reason>``."""
    try:
        yield
    except OSError as exc:
        reason = exc.strerror or exc
        raise ScenarioParseError(f"{path}: cannot write: {reason}") from exc


def _write_output(text: str, out: str | Path | None):
    if out:
        with _writing(out):
            Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    _, problems = check_scenario(read_yaml(args.scenario))
    if not problems:
        if not args.quiet:
            print(f"{args.scenario}: ok")
        return EXIT_OK
    for section, exc in problems:
        print(f"{section}: {type(exc).__name__}: {exc}", file=sys.stderr)
    parse_failure = any(isinstance(exc, ScenarioParseError) for _, exc in problems)
    return EXIT_PARSE if parse_failure else EXIT_VIOLATION


def cmd_place(args) -> int:
    scenario = load_scenario(args.scenario)
    plan = place_application(scenario.graph, scenario.app, scenario.request, scenario.policies)
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    doc = plan_to_doc(plan, compliance=report)
    _write_output(dump_doc(doc, args.format), args.out)
    if not args.quiet:
        placed = sum(plan.mapping.total_instances(ms) for ms in plan.mapping.per_ms)
        print(
            f"placed {len(plan.mapping.per_ms)} microservices "
            f"({placed} instances), revision {plan.revision}",
            file=sys.stderr,
        )
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_routes(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.plan:
        plan = plan_from_doc(read_yaml(args.plan))
    else:
        plan = place_application(scenario.graph, scenario.app, scenario.request, scenario.policies)
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    if not report.ok:
        for violation in report.violations:
            print(f"{violation.kind}: {violation.subject}: {violation.detail}", file=sys.stderr)
        return EXIT_VIOLATION
    docs = routes_docs(scenario.graph, plan)
    ext = "json" if args.format == "json" else "yaml"
    if args.out:
        out_dir = Path(args.out)
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
        for doc in docs:
            _write_output(dump_doc(doc, args.format), out_dir / f"routes-{doc['domain']}.{ext}")
        if not args.quiet:
            print(f"wrote {len(docs)} route documents to {out_dir}", file=sys.stderr)
    else:
        sys.stdout.write(dump_docs(docs, args.format))
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    plan, report = run_scenario(
        scenario.graph,
        scenario.app,
        scenario.policies,
        scenario.request,
        scenario.events,
        overload_threshold=scenario.settings.overload_threshold,
    )
    doc = report_to_doc(report)
    _write_output(dump_doc(doc, args.format), args.out)
    if not args.quiet:
        print(
            f"simulated {report.ticks} tick(s), {len(report.alerts)} alert(s), "
            f"{len(report.violations)} violation(s), final revision {report.final_revision}",
            file=sys.stderr,
        )
    if report.halted is not None:
        print(f"halted at tick {report.halted['tick']}: {report.halted['reason']}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_VIOLATION if report.violations else EXIT_OK


def cmd_serve_policy(args) -> int:
    from .policyserver import serve  # only this command needs http.server

    scenario = load_scenario(args.scenario)

    def announce():
        if not args.quiet:
            print(f"serving policy API on {args.bind}", file=sys.stderr)

    try:
        serve(scenario.policies, scenario.graph, args.bind, announce)
    except KeyboardInterrupt:
        pass
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeplane",
        description="Policy-driven placement, routing and simulation for edge-cloud meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_help: str | None = None):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        if out_help is not None:
            p.add_argument("--out", default=None, help=out_help)
            p.add_argument("--format", choices=("yaml", "json"), default="yaml",
                           help="output document format (default: yaml)")
        p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")

    p = sub.add_parser("validate", help="check a scenario file")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("place", help="compute a deployment plan")
    common(p, out_help="write the plan document here instead of stdout")
    p.set_defaults(fn=cmd_place)

    p = sub.add_parser("routes", help="export per-domain routing config")
    common(p, out_help="directory for per-domain route files (stdout if omitted)")
    p.add_argument("--plan", default=None,
                   help="plan document to export; computed fresh when omitted")
    p.set_defaults(fn=cmd_routes)

    p = sub.add_parser("simulate", help="run the scenario event loop")
    common(p, out_help="write the report document here instead of stdout")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("serve-policy", help="serve the policy HTTP API")
    common(p)
    p.add_argument("--bind", default="127.0.0.1:8181", help="host:port (default 127.0.0.1:8181)")
    p.set_defaults(fn=cmd_serve_policy)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasiblePlacement as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EdgeplaneError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except Exception as exc:  # a defect, not an input problem: one line, traceback under debug
        log.debug("internal error", exc_info=True)
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
