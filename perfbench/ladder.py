"""ladder-place: what ``edgeplane place`` and ``routes`` do, over the seeded ladder.

One op loads a scenario file, places it, audits the plan with
``validate_plan`` and dumps the plan document plus one route document per
domain.  A pass runs every ladder scenario (``gen.LADDER``) and both bundled
scenarios once; after an untimed warm-up on the bundled scenarios, passes
repeat until the run's time is up and at least 100 ops have run.  Every
pass runs the same mix, so the op quantiles sit at the same place in it
however many passes fit (see ``gen.LADDER``).  ``run_s`` is the whole ladder
once: the sum of each input's median op time.  Set-up is timed on the
largest rung.  Op times are scaled to the reference host speed
(``hostspeed``).
"""

from __future__ import annotations

import random
import resource
import statistics
import time

import yaml

from edgeplane import controlplane, documents, scenario

import gen
from common import GOLDEN, SCENARIOS, Context, Result, peak_rss_mb, quantile, setup_s
from hostspeed import Clock
from spans import Tracer

MIN_OPS = 100
BUNDLED = [SCENARIOS / "uav_canonical.yaml", SCENARIOS / "uav_demand_surge.yaml"]


def write_inputs(ctx: Context) -> list:
    """A pass's inputs: the seeded ladder scenarios, then the bundled ones."""
    rng = random.Random(ctx.seed)
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    paths = []
    for *shape, variants in gen.LADDER[:3] if ctx.tiny else gen.LADDER:
        for variant in range(variants):
            path = ctx.work / ("ladder-%dx%dx%d-m%d-%d.yaml" % (*shape, variant))
            doc = gen.ladder_scenario(rng, *shape)
            path.write_text(yaml.dump(doc, Dumper=dumper, sort_keys=False), encoding="utf-8")
            paths.append(path)
    return paths + BUNDLED


def place_and_export(path):
    """The op: load, place, audit, and render plan and route documents."""
    loaded = scenario.load_scenario(path)
    control = controlplane.ControlPlane(loaded.graph, loaded.app, loaded.policies)
    plan = control.place(loaded.request)
    report = controlplane.validate_plan(loaded.graph, loaded.app, loaded.policies, plan)
    plan_text = documents.dump_doc(documents.plan_to_doc(plan, compliance=report))
    route_texts = {doc["domain"]: documents.dump_doc(doc)
                   for doc in documents.routes_docs(loaded.graph, plan)}
    return plan, report, plan_text, route_texts


def golden_mismatch(plan_text: str, route_texts: dict) -> str | None:
    if plan_text != (GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"):
        return "plan differs from tests/golden/plan_canonical.yaml"
    for domain, text in route_texts.items():
        if text != (GOLDEN / f"routes-{domain}.yaml").read_text(encoding="utf-8"):
            return f"routes-{domain} differs from its golden file"
    return None


def run(ctx: Context) -> Result:
    result = Result()
    inputs = write_inputs(ctx)
    result.end_to_end["setup_s"] = setup_s(max(inputs, key=lambda p: p.stat().st_size))
    for path in BUNDLED:  # warm-up: first-use costs are not the op's
        place_and_export(path)
    tracer = Tracer()
    first_outputs: dict = {}
    op_times, unit_times = [], {False: [], True: []}
    per_input: dict = {}
    counts = {"controlplane.anchors": 0, "controlplane.instances": 0,
              "controlplane.rules": 0, "documents.bytes": 0}
    clock = Clock()
    started = time.perf_counter()
    unit = 0
    min_ops = 0 if ctx.tiny else MIN_OPS
    min_units = 2 if ctx.trace else 1  # the overhead needs a traced and an untraced pass
    while unit < min_units or len(op_times) < min_ops or time.perf_counter() - started < ctx.seconds:
        traced = ctx.trace and unit % 2 == 1
        if traced:
            tracer.install()
        unit_s = 0.0
        for path in inputs:
            result.attempted += 1
            tracer.op += 1
            clock.start()
            try:
                plan, report, plan_text, route_texts = place_and_export(path)
            except Exception as exc:  # any crash is a failed op, not a dead run
                result.fail(f"{path.name}: {type(exc).__name__}: {exc}")
                continue
            op_times.append(clock.lap())
            unit_s += op_times[-1]
            if not traced:
                per_input.setdefault(path, []).append(op_times[-1])
            outputs = (plan_text, tuple(sorted(route_texts.items())))
            if not report.ok:
                result.fail(f"{path.name}: {report.violations[0].detail}")
            elif path not in first_outputs:
                first_outputs[path] = outputs
                if path.name == "uav_canonical.yaml":
                    mismatch = golden_mismatch(plan_text, route_texts)
                    if mismatch:
                        result.fail(mismatch)
                result.digest.add(plan_text)
                for _, text in outputs[1]:
                    result.digest.add(text)
                counts["controlplane.anchors"] += sum(
                    len(anchors) for anchors in plan.mapping.per_ms.values())
                counts["controlplane.instances"] += sum(
                    plan.mapping.total_instances(ms) for ms in plan.mapping.per_ms)
                counts["controlplane.rules"] += len(plan.routes.rules)
                counts["documents.bytes"] += len(plan_text) + sum(
                    len(text) for _, text in outputs[1])
            elif first_outputs[path] != outputs:
                result.fail(f"{path.name}: output differs between passes")
        unit_times[traced].append(unit_s)
        if traced:
            tracer.uninstall()
        unit += 1
    result.end_to_end["peak_rss_mb"] = peak_rss_mb(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    result.end_to_end["op_ms_p50"] = 1000 * statistics.median(op_times)
    result.end_to_end["op_ms_p90"] = 1000 * quantile(op_times, 90)
    result.end_to_end["run_s"] = sum(statistics.median(t) for t in per_input.values())
    result.extra.update(ops=len(op_times), units=unit, host_slowdown=round(clock.slowdown(), 3),
                        inputs=[p.name for p in inputs])
    result.extra["named"] = {
        "place_s_p50": (result.end_to_end["op_ms_p50"] / 1000, "s"),
        "place_s_p90": (result.end_to_end["op_ms_p90"] / 1000, "s"),
    }
    if ctx.trace:
        result.per_layer.update(tracer.per_unit(unit_times))
        result.per_layer.update(counts)
        tracer.write(ctx.work / "spans.jsonl")
    return result

