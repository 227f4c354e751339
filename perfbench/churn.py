"""replan-churn: ``edgeplane simulate`` on a mid-size scenario with a long event list.

One unit loads the scenario, runs ``run_scenario`` and dumps the report, as
the ``simulate`` command does; units repeat until the run's time is up.
The op is one replan: a ``ControlPlane`` subclass passed through
``run_scenario``'s ``control`` argument times each ``handle_alert`` call.
Times are scaled to the reference host speed (``hostspeed``): the unit is
timed in laps that end at each replan's start and end.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from collections import Counter

import yaml

from edgeplane import controlplane, documents, meshsim, scenario

import gen
from common import Context, Result, peak_rss_mb, setup_s, windowed_p90
from hostspeed import Clock
from spans import Tracer

MIN_OPS = 100


class TimedControlPlane(controlplane.ControlPlane):
    """Records the scaled time of every ``handle_alert`` call, and adds the
    scaled time of the simulation between calls to ``laps``."""

    def __init__(self, graph, app, policies, clock: Clock, samples: list, laps: list):
        super().__init__(graph, app, policies)
        self.clock, self.samples, self.laps = clock, samples, laps

    def handle_alert(self, plan, alert):
        self.laps.append(self.clock.lap())
        try:
            return super().handle_alert(plan, alert)
        finally:
            self.samples.append(self.clock.lap())
            self.laps.append(self.samples[-1])


def simulate(path, clock: Clock, samples: list):
    """The unit: what ``edgeplane simulate`` does, with replans timed.

    Returns the plan, the report, its YAML and the unit's scaled time.
    """
    laps: list[float] = []
    clock.start()
    loaded = scenario.load_scenario(path)
    control = TimedControlPlane(loaded.graph, loaded.app, loaded.policies, clock, samples, laps)
    plan, report = meshsim.run_scenario(
        loaded.graph, loaded.app, loaded.policies, loaded.request, loaded.events, control,
        overload_threshold=loaded.settings.overload_threshold,
    )
    text = documents.dump_doc(documents.report_to_doc(report))
    laps.append(clock.lap())
    return plan, report, text, sum(laps)


def run(ctx: Context) -> Result:
    result = Result()
    rng = random.Random(ctx.seed)
    doc = gen.churn_scenario(rng, ticks=24 if ctx.tiny else None)
    path = ctx.work / "churn.yaml"
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    path.write_text(yaml.dump(doc, Dumper=dumper, sort_keys=False), encoding="utf-8")
    result.end_to_end["setup_s"] = setup_s(path)
    tracer = Tracer()
    replans: list[float] = []
    unit_times = {False: [], True: []}
    first_text = None
    counts: dict[str, float] = {}
    clock = Clock()
    started = time.perf_counter()
    unit = 0
    min_ops = 0 if ctx.tiny else MIN_OPS
    min_units = 2 if ctx.trace else 1
    while unit < min_units or len(replans) < min_ops or time.perf_counter() - started < ctx.seconds:
        traced = ctx.trace and unit % 2 == 1
        if traced:
            tracer.install()
        tracer.op = unit
        before = len(replans)
        try:
            plan, report, text, unit_s = simulate(path, clock, replans)
        except Exception as exc:  # a crash is a failed unit, not a dead run
            result.attempted += max(1, len(replans) - before)
            result.fail(f"simulate: {type(exc).__name__}: {exc}")
            break
        finally:
            if traced:
                tracer.uninstall()
        unit_times[traced].append(unit_s)
        result.attempted += len(replans) - before
        unit += 1
        if report.halted is not None:
            result.fail(f"halted at tick {report.halted['tick']}: {report.halted['reason']}")
        elif report.violations:
            tick, violation = report.violations[0]
            result.fail(f"tick {tick}: {violation.kind} {violation.subject}: {violation.detail}")
        elif first_text is None:
            first_text = text
            result.digest.add(text)
            kinds = Counter(alert.kind for alert in report.alerts)
            counts = {
                "controlplane.anchors": sum(len(a) for a in plan.mapping.per_ms.values()),
                "controlplane.instances": sum(plan.mapping.total_instances(ms)
                                              for ms in plan.mapping.per_ms),
                "controlplane.rules": len(plan.routes.rules),
                "meshsim.flow_rows": len(report.flows.rows),
                "meshsim.ticks": report.ticks,
                "documents.bytes": len(text),
                **{f"controlplane.replans.{kind}": kinds[kind]
                   for kind in ("demand_change", "node_drain", "overload")},
            }
        elif text != first_text:
            result.fail("report differs between identical runs")
    if replans:
        result.end_to_end["op_ms_p50"] = 1000 * statistics.median(replans)
        result.end_to_end["op_ms_p90"] = 1000 * windowed_p90(replans)
    result.end_to_end["peak_rss_mb"] = peak_rss_mb(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if unit_times[False]:
        result.end_to_end["run_s"] = statistics.median(unit_times[False])
    result.extra.update(ops=len(replans), units=unit, host_slowdown=round(clock.slowdown(), 3))
    result.extra["named"] = {
        "simulate_s": (result.end_to_end.get("run_s", 0.0), "s"),
        "replan_s_p50": (result.end_to_end.get("op_ms_p50", 0) / 1000, "s"),
        "replan_s_p90": (result.end_to_end.get("op_ms_p90", 0) / 1000, "s"),
    }
    if ctx.trace and unit_times[True]:
        result.per_layer.update(tracer.per_unit(unit_times))
        result.per_layer.update(counts)
        tracer.write(ctx.work / "spans.jsonl")
    return result
