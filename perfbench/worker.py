"""One workload in one fresh process: set up, run operations, check them.

Run by ``run.py`` with the directory that holds the generated inputs::

    PYTHONPATH=src python3 perfbench/worker.py --workload join \\
        --work .perfbench_runs/join --seconds 20 --trace 0 --result out.json

Set-up (``import wiring`` plus the workload's load phase) is timed first.
After one warm-up cycle, operations run in a closed loop with one client,
one at a time, in whole cycles until their summed time, scaled as below,
reaches ``--seconds``.  Each output is
checked against the generated answer outside the timed interval; an
operation that raises, exits non-zero or answers wrongly counts as failed
and is not retried.  With ``--trace 1`` the loop runs for half the time
untraced and then for half the time under :class:`spans.Tracer`.

The host's speed drifts, so every timing is also reported scaled to a host
of fixed speed: :func:`reference`, a fixed loop that does not use
``wiring``, is timed before every operation and around set-up, and each
time is multiplied by ``REFERENCE_S`` over the median reference time
measured next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import spans
from gen import factorial_inputs, parse_token

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
REFERENCE_S = 2e-3  # scaled times are for a host that runs reference() in 2 ms
REFERENCE_WINDOW = 4  # an operation is scaled by the references of 2*4+1 operations
SETUP_REFERENCES = 9  # reference() runs before and again after set-up
WALL_LIMIT = 1.3  # a loop ends after this many times its budget in wall time


# ---------------------------------------------------------------------------
# host speed


def reference() -> int:
    """A fixed pure-Python loop over dicts, lists, tuples and a set: the kind
    of work ``wiring`` does, without ``wiring``."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for i in range(4000):
        groups.setdefault(i % 97, []).append((i, i * 7 % 13))
    seen = set()
    for key, pairs in groups.items():
        for a, b in pairs:
            seen.add((key, a % 31, b))
    return len(seen)


def time_reference() -> float:
    """Seconds one reference() takes now.  The collector is off meanwhile, so
    the size of the program's heap does not change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    reference()
    dt = time.perf_counter() - start
    if enabled:
        gc.enable()
    return dt


def scale(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by the median reference time of the operations
    within REFERENCE_WINDOW of it."""
    return [
        t * REFERENCE_S / statistics.median(
            refs[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1])
        for i, t in enumerate(times)
    ]


# ---------------------------------------------------------------------------
# workloads: setup() is timed as set-up, run() per operation, check() untimed


class Workload:
    def __init__(self, spec, work):
        self.spec, self.work = spec, work

    def setup(self, wiring):
        """The load phase; the base class has none."""
        self.wiring = wiring

    def prepare(self):
        """Untimed preparation of inputs and expected answers."""


class Join(Workload):
    def setup(self, wiring):
        super().setup(wiring)
        with open(os.path.join(self.work, self.spec["script"]), encoding="utf-8") as handle:
            script = wiring.dsl.parse_script(handle.read())
        self.rels = {
            name: wiring.csvio.load_csv_relation(os.path.join(self.work, decl.path), decl.star)
            for name, decl in script.relations.items()
        }
        self.compiled = {
            name: wiring.query.compile_query(q, script) for name, q in script.queries.items()
        }

    def prepare(self):
        self.expected = {op["name"]: frozenset(map(tuple, op["expected"])) for op in self.spec["ops"]}

    def run(self, op):
        return self.wiring.query.evaluate_query(self.compiled[op["name"]], self.rels)

    def check(self, op, out):
        return out.tuples == self.expected[op["name"]]


class Fixpoint(Workload):
    def setup(self, wiring):
        super().setup(wiring)
        self.scripts = {}
        for op in self.spec["ops"]:
            with open(os.path.join(self.work, op["script"]), encoding="utf-8") as handle:
                self.scripts[op["script"]] = wiring.dsl.parse_script(handle.read())

    def prepare(self):
        self.inputs = {op["script"]: factorial_inputs(op["limit"]) for op in self.spec["ops"]}

    def run(self, op):
        recursion = self.wiring.recursion
        script = self.scripts[op["script"]]
        decl = script.setups["fact"]
        rels = [
            self.wiring.relations.Relation(script.relations[name].star, tuples)
            for name, tuples in zip(decl.rel_names, self.inputs[op["script"]])
        ]
        setup = recursion.build_setup(decl.z, script.diagrams[decl.diagram_name].typed, rels)
        return recursion.fixed_point(setup, "greatest"), recursion.fixed_point(setup, "least")

    def check(self, op, out):
        greatest, least = out
        expected = frozenset(map(tuple, op["expected"]))
        return greatest.relation.aligned_tuples(("A", "B")) == expected and least.relation.is_empty


class Scripts(Workload):
    """Every command reads its own script, so set-up is the import alone."""

    def prepare(self):
        self.parsed = {}
        for op in self.spec["ops"]:
            path = op["expect"].get("script")
            if path and path not in self.parsed:
                with open(path, encoding="utf-8") as handle:
                    self.parsed[path] = self.wiring.dsl.parse_script(handle.read())

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.wiring.cli.run_cli(list(op["argv"]))
        return status, out.getvalue()

    def check(self, op, out):
        status, stdout = out
        expect = op["expect"]
        kind = expect["kind"]
        if status != 0:
            return False
        if kind == "check":
            return " ok (" in stdout and all(c in stdout for c in expect["counts"])
        if kind == "dot":
            lines = stdout.splitlines()
            edges = sum(1 for line in lines if " -- " in line)
            return lines[0] == f"graph {expect['name']} {{" and edges == expect["edges"]
        if kind == "query":
            return _csv_rows(stdout) == frozenset(map(tuple, expect["rows"]))
        # eval and fixpoint: read the written file back with the program's loader
        path = op["argv"][op["argv"].index("--out") + 1]
        script = self.parsed[expect["script"]]
        if kind == "eval":
            query = self.wiring.query.compile_query(script.queries[expect["name"]], script)
            star = query.diagram.outer
        else:
            star = script.setups[expect["setup"]].z
        relation = self.wiring.csvio.load_csv_relation(path, star)
        os.remove(path)
        return relation.tuples == frozenset(map(tuple, expect["rows"]))


def _csv_rows(text: str) -> frozenset:
    lines = [line for line in text.splitlines() if line.strip()]
    return frozenset(tuple(parse_token(c) for c in line.split(",")) for line in lines[1:])


class Laws(Workload):
    """The suites generate their own cases, so set-up is the import alone."""

    def run(self, op):
        laws = self.wiring.laws
        if op["suite"] == "check_prop_witnesses":
            domain = self.wiring.ValueDomain(f"A{op['arg']}", tuple(range(op["arg"])))
            return [laws.check_prop_witnesses(domain, seed=op["seed"])]
        cfg = laws.GeneratorConfig(seed=op["seed"], cases=op["cases"])
        if op["suite"] == "check_algebra_naturality":
            return [laws.check_algebra_naturality(cfg, op["arg"])]
        result = getattr(laws, op["suite"])(cfg)
        return result if isinstance(result, list) else [result]

    def check(self, op, out):
        return all(r.ok for r in out) and sum(r.cases for r in out) > 0


WORKLOADS = {"join": Join, "fixpoint": Fixpoint, "scripts": Scripts, "laws": Laws}


# ---------------------------------------------------------------------------
# the loop


class Loop:
    """Runs whole cycles of operations and keeps the failure count."""

    def __init__(self, workload, orders):
        self.workload, self.orders = workload, orders
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.cycle = 0

    def run(self, budget_s: float, tracer=None) -> tuple[list[float], list[float], int]:
        """Run whole cycles until their operations took ``budget_s`` scaled
        to the reference speed, so that a run does the same work however
        fast the host is, or until WALL_LIMIT times ``budget_s`` has passed.
        Return the operation times, the reference time taken before each
        operation and the number of cycles."""
        ops = self.workload.spec["ops"]
        times: list[float] = []
        refs: list[float] = []
        labels: list[str] = []
        busy, cycles, deadline = 0.0, 0, time.monotonic() + WALL_LIMIT * budget_s
        while cycles == 0 or (busy < budget_s and time.monotonic() < deadline):
            for index in self.orders[self.cycle % len(self.orders)]:
                refs.append(time_reference())
                dt, ok = self._one(ops[index], tracer)
                times.append(dt)
                labels.append(ops[index]["label"])
                busy += dt * REFERENCE_S / statistics.median(refs[-REFERENCE_WINDOW - 1:])
                self.attempted += 1
                self.failed += not ok
            self.cycle += 1
            cycles += 1
        self.labels = labels
        return times, refs, cycles

    def _one(self, op, tracer):
        root = tracer.begin("ops") if tracer else None
        error = None
        start = time.perf_counter()
        try:
            out = self.workload.run(op)
        except Exception as exc:  # a failed operation is counted, never retried
            error = exc
        dt = time.perf_counter() - start
        if tracer:
            tracer.end(root)
        if error is None:
            try:
                if self.workload.check(op, out):
                    return dt, True
                error = f"wrong result: {json.dumps(op)[:200]}"
            except Exception as exc:
                error = exc
        self._error(error)
        return dt, False

    def _error(self, error) -> None:
        if len(self.errors) < 5:
            if isinstance(error, Exception):
                error = "".join(traceback.format_exception(error, limit=3))
            self.errors.append(error)


def latency_summary(times: list[float]) -> dict:
    """Median and the highest percentile that has TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail, pct = ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_percentile": pct,
        "samples": n,
        "busy_s": sum(ordered),
    }


def per_layer(tracer, scales: tuple[float, float], setup_s: float, traced_busy: float,
              cycles: int) -> tuple[dict, dict]:
    """Per-layer values of one set-up plus one average cycle of operations.
    Self times are scaled by ``scales``, the factors of set-up and of the
    traced operations; ``setup_s`` and ``traced_busy`` are scaled already."""
    setup_self, ops_self = tracer.self_times("setup"), tracer.self_times("ops")
    setup_scale, ops_scale = scales
    values = {
        f"{name}.self_s": setup_self.get(name, 0.0) * setup_scale
        + ops_self.get(name, 0.0) * ops_scale / cycles
        for name in spans.SPAN_NAMES
    }
    for name in spans.COUNT_NAMES:
        values[name] = tracer.counts["setup"].get(name, 0) + tracer.counts["ops"].get(name, 0) / cycles
    inputs = values["relations.in_tuples"]
    values["relations.out_per_in"] = values["relations.out_tuples"] / inputs if inputs else 0.0
    check = {
        "self_sum_s": sum(values[f"{name}.self_s"] for name in spans.SPAN_NAMES),
        "traced_s": setup_s + traced_busy / cycles,
    }
    check["self_within_traced"] = check["self_sum_s"] <= check["traced_s"]
    return values, check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, help="directory with spec.json")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True, help="write the result JSON here")
    args = parser.parse_args(argv)

    with open(os.path.join(args.work, "spec.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = WORKLOADS[args.workload](spec, args.work)
    tracer = spans.Tracer() if args.trace else None

    refs = [time_reference() for _ in range(SETUP_REFERENCES)]
    start = time.perf_counter()
    import wiring
    import wiring.cli
    import wiring.csvio
    import wiring.dot
    import wiring.dsl
    import wiring.query

    if tracer:
        tracer.install()
        root = tracer.begin("setup")
    workload.setup(wiring)
    setup_raw = time.perf_counter() - start
    if tracer:
        tracer.end(root)
        tracer.uninstall()
    refs += [time_reference() for _ in range(SETUP_REFERENCES)]
    setup_scale = REFERENCE_S / statistics.median(refs)
    result = {
        "setup_s": setup_raw * setup_scale,
        "raw": {"setup_s": setup_raw, "setup_reference_ms": statistics.median(refs) * 1e3},
    }

    if not args.setup_only:
        workload.prepare()
        loop = Loop(workload, spec["orders"])
        loop.run(0)  # one warm-up cycle: checked, counted, not timed
        budget = args.seconds / 2 if tracer else args.seconds
        times, refs, cycles = loop.run(budget)
        scaled = scale(times, refs)
        by_op: dict[str, list[float]] = {}
        for label, t in zip(loop.labels, scaled):
            by_op.setdefault(label, []).append(t)
        raw = latency_summary(times)
        result["raw"].update(
            latency_p50_ms=raw["latency_p50_ms"], latency_tail_ms=raw["latency_tail_ms"],
            busy_s=raw["busy_s"], reference_ms=statistics.median(refs) * 1e3,
        )
        result.update(latency_summary(scaled), cycles=cycles, op_median_ms={
            label: statistics.median(ts) * 1e3 for label, ts in by_op.items()
        }, times_ms=[t * 1e3 for t in times], reference_times_ms=[r * 1e3 for r in refs])
        if tracer:
            tracer.install()
            traced, traced_refs, traced_cycles = loop.run(budget, tracer)
            tracer.uninstall()
            traced_busy = sum(scale(traced, traced_refs))
            scales = (setup_scale, traced_busy / sum(traced))
            layers, check = per_layer(tracer, scales, result["setup_s"], traced_busy,
                                      traced_cycles)
            layers["trace.overhead_ratio"] = (traced_busy / traced_cycles) / (
                result["busy_s"] / cycles
            )
            tracer.write(os.path.join(args.work, "spans.csv"))
            result.update(layers=layers, trace_check=check, traced_cycles=traced_cycles,
                          spans=len(tracer.spans))
        result.update(
            attempted=loop.attempted,
            failed=loop.failed,
            errors=loop.errors,
            ops_per_cycle=len(spec["orders"][0]),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
