"""Layered benchmark for edgeplane.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it needs ``src/edgeplane`` and nothing
installed but PyYAML.  Workloads (see BENCHMARK.json for why each exists):

  ladder-place      place + routes over a seeded R x D x N scenario ladder
  replan-churn      simulate: a long seeded event list with replans
  policy-api        serve-policy answering a sidecar's seeded request mix
  search-hard       the placement search on named cases with known verdicts
  all               every workload above, each in its own process

Inputs come from ``--seed`` only.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the per-layer self times, counts and
the tracing overhead.  The run keeps to one CPU, and CPU-bound times are
scaled to a reference host speed (see ``hostspeed``).  Every output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
Generated inputs, span files and a result record with the run environment
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

from common import OUT, ROOT, SRC, Context
from hostspeed import pin_to_one_cpu

WORKLOADS = ("ladder-place", "replan-churn", "policy-api", "search-hard")

#: name -> unit of every metric; the keys are exactly BENCHMARK.json's.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "run_s": "s",
    "decided_share": "1",
}
PER_LAYER = {
    "cli.import_s": "s",
    "scenario.yaml_parse_s": "s",
    "scenario.build_s": "s",
    "controlplane.place_s": "s",
    "controlplane.generate_routes_s": "s",
    "controlplane.validate_plan_s": "s",
    "controlplane.replan.demand_change_s": "s",
    "controlplane.replan.node_drain_s": "s",
    "controlplane.replan.overload_s": "s",
    "meshsim.route_flows_s": "s",
    "meshsim.check_compliance_s": "s",
    "meshsim.loop_self_s": "s",
    "documents.to_doc_s": "s",
    "documents.dump_s": "s",
    "policy.decide_us": "us",
    "policyserver.wire_overhead_us": "us",
    "policyserver.fresh_ms_p50": "ms",
    "policyserver.fresh_ms_p90": "ms",
    "trace.overhead_pct": "%",
    "controlplane.anchors": "count",
    "controlplane.instances": "count",
    "controlplane.rules": "count",
    "controlplane.replans.demand_change": "count",
    "controlplane.replans.node_drain": "count",
    "controlplane.replans.overload": "count",
    "meshsim.flow_rows": "count",
    "meshsim.ticks": "count",
    "documents.bytes": "count",
    "policyserver.responses.200": "count",
    "policyserver.responses.400": "count",
    "policyserver.responses.404": "count",
}


def environment(seed: int) -> dict:
    import yaml

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_workload(name: str, ctx: Context):
    if name == "ladder-place":
        import ladder

        return ladder.run(ctx)
    if name == "replan-churn":
        import churn

        return churn.run(ctx)
    if name == "policy-api":
        import policy_api

        return policy_api.run(ctx)
    import search_hard

    return search_hard.run(ctx)


def main() -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for edgeplane.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check size: every path runs, briefly")
    args = parser.parse_args()

    if not (SRC / "edgeplane" / "__init__.py").is_file():
        print(f"error: no edgeplane sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Terminated runs unwind like interrupted ones, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    from common import cli_import_s

    pin_to_one_cpu()

    env = environment(args.seed)
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  work=OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}",
                  tiny=args.tiny)
    ctx.work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = run_workload(args.workload, ctx)
    if ctx.trace:
        result.per_layer["cli.import_s"] = cli_import_s()
    no_answer = result.failed + result.undecided
    result.end_to_end["decided_share"] = 1 - no_answer / max(result.attempted, 1)

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{time.perf_counter() - started:.1f} s  env {json.dumps(env)}")
    print(f"# attempted {result.attempted}  failed {result.failed}  undecided {result.undecided}  "
          f"failed_share {no_answer / max(result.attempted, 1):.4f}  "
          f"digest sha256:{result.digest.hexdigest()} over {result.digest.documents} documents")
    for key, value in result.extra.items():
        if key == "cases":
            for name, expect, verdict, outcome, seconds, limit, today in value:
                print(f"#   case {name:20s} expect {expect:10s} got {verdict:14s} {outcome:9s} "
                      f"{seconds:8.3f} s (limit {limit} s)  today: {today}")
        elif key == "named":
            for name, (number, unit) in value.items():
                print(f"#   {name:28s} {number:14.6f} {unit}")
        else:
            print(f"#   {key}: {value}")
    for failure in result.failures:
        print(f"# FAILED {failure}")
    for name, number in result.end_to_end.items():
        print(f"{name:36s} {number:16.6f} {END_TO_END[name]}")
    for name in PER_LAYER:
        if name in result.per_layer:
            print(f"{name:36s} {result.per_layer[name]:16.6f} {PER_LAYER[name]}")

    units = PER_LAYER if ctx.trace else END_TO_END
    source = result.per_layer if ctx.trace else result.end_to_end
    metrics = {name: {"value": float(source.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "env": env, "attempted": result.attempted,
              "failed": result.failed, "undecided": result.undecided, "failures": result.failures,
              "digest": result.digest.hexdigest(), "end_to_end": result.end_to_end,
              "per_layer": result.per_layer,
              "extra": {k: v for k, v in result.extra.items() if k != "named"}}
    (ctx.work / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps({"correct": result.failed == 0 and result.attempted > 0,
                      "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    summary = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        out = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"error: {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
