"""In-memory spans around edgeplane's public functions.

The tracer swaps wrappers in at the module attributes that edgeplane's own
code calls through (``controlplane.generate_routes`` is called from inside
``place_application`` and ``handle_alert``, ``meshsim.route_flows`` from
``run_scenario``), so nested layers show up as child spans without any
change to the program.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from edgeplane import controlplane, documents, meshsim, scenario

#: (module, attribute) -> span name; replans are named by alert kind.
WRAPPED = (
    (scenario, "load_scenario", "scenario.yaml_parse"),
    (scenario, "scenario_from_doc", "scenario.build"),
    (controlplane, "place_application", "controlplane.place"),
    (controlplane, "generate_routes", "controlplane.generate_routes"),
    (controlplane, "validate_plan", "controlplane.validate_plan"),
    (controlplane, "handle_alert", None),
    (meshsim, "run_scenario", "meshsim.loop_self"),
    (meshsim, "route_flows", "meshsim.route_flows"),
    (meshsim, "check_compliance", "meshsim.check_compliance"),
    (documents, "plan_to_doc", "documents.to_doc"),
    (documents, "routes_docs", "documents.to_doc"),
    (documents, "report_to_doc", "documents.to_doc"),
    (documents, "dump_doc", "documents.dump"),
    (documents, "dump_docs", "documents.dump"),
)


class Tracer:
    """Records (name, start, end, parent, op) spans while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            label = name or f"controlplane.replan.{args[-1].kind}"
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((label, time.perf_counter(), 0.0, parent, self.op))
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                label, start, _, parent, op = self.spans[index]
                self.spans[index] = (label, start, time.perf_counter(), parent, op)

        return traced

    def install(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (label, start, end, _, _), inner in zip(self.spans, child_time):
            totals[label] += end - start - inner
        return dict(totals)

    def per_unit(self, unit_times: dict) -> dict[str, float]:
        """Self seconds per traced unit (``<span>_s``), and the tracing overhead.

        ``unit_times`` maps traced (True) and untraced (False) to unit times.
        """
        traced_units = len(unit_times[True])
        layers = {f"{name}_s": seconds / traced_units
                  for name, seconds in self.self_times().items()}
        layers["trace.overhead_pct"] = 100 * (
            statistics.median(unit_times[True]) / statistics.median(unit_times[False]) - 1)
        return layers

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for label, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": label, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
