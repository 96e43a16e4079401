"""Benchmark for cimp, run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's commands go through `cimp.cli.main` in
rounds until S seconds have passed, each command timed from outside.
The last line printed is one JSON object with the end-to-end metrics.
With --trace 1 every workload's commands are replayed through cimp's
public functions under spans (S/4 seconds each), the spans are written
to bench/out/, and the per-layer metrics are printed instead.  Either
way every output is checked against the oracles in oracles.py.
See bench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from cimp_calls import Cimp, argv
from oracles import Failed, Wrong, check, from_cli
from spans import Tracer
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# per-layer metrics: self time of a span, whole duration of a span, a
# count, or a ratio of a count to one of the times
SELF_TIME = {
    "frontend.lex_s": "frontend.lex",
    "frontend.parse_s": "frontend.parse",
    "frontend.pretty_s": "frontend.pretty",
    "typecheck.check_s": "typecheck.check",
    "typecheck.fixed_exec_s": "typecheck.fixed_exec",
    "optimizer.optimize_s": "optimizer.optimize",
    "stack_machine.compile_s": "stack_machine.compile",
    "stack_machine.vm_s": "stack_machine.vm",
    "regalloc.alloc_s": "regalloc.alloc",
    "mips.codegen_naive_s": "mips.codegen_naive",
    "mips.codegen_su_s": "mips.codegen_su",
    "mips.asm_emit_s": "mips.asm_emit",
    "mips.asm_parse_s": "mips.asm_parse",
    "mips.sim_s": "mips.sim",
    "semantics.bigstep_s": "semantics.bigstep",
    "semantics.smallstep_s": "semantics.smallstep",
    "hoare.vcgen_s": "hoare.vcgen",
    "hoare.bounded_check_s": "hoare.bounded_check",
    "hoare.smt_emit_s": "hoare.smt_emit",
    "generator.gen_s": "generator.gen",
    "difftest.self_s": "difftest.run_diff",
}
WHOLE_TIME = {"difftest.engine_s": "difftest.engine", "difftest.run_diff_s": "difftest.run_diff"}
COUNTS = (
    "frontend.tokens", "optimizer.nodes_in", "optimizer.nodes_out",
    "stack_machine.code_instrs", "stack_machine.vm_instrs", "regalloc.spills",
    "mips.text_instrs_naive", "mips.text_instrs_su", "semantics.loop_unfoldings",
    "hoare.vc_nodes", "hoare.stores_checked", "hoare.smt_bytes", "generator.ast_nodes",
    "difftest.cases",
)
RATES = {
    "frontend.tokens_per_s": ("frontend.tokens", "frontend.lex_s"),
    "stack_machine.vm_instrs_per_s": ("stack_machine.vm_instrs", "stack_machine.vm_s"),
    "semantics.bigstep_unfoldings_per_s": ("semantics.loop_unfoldings", "semantics.bigstep_s"),
    "hoare.stores_per_s": ("hoare.stores_checked", "hoare.bounded_check_s"),
    "difftest.cases_per_s": ("difftest.cases", "difftest.run_diff_s"),
}


def judge(cmd, result) -> tuple[str, str] | None:
    """None when result passes the oracle, else ("failed" | "wrong", why)."""
    try:
        check(cmd, result)
    except Failed as err:
        return "failed", str(err)
    except Wrong as err:
        return "wrong", str(err)
    except Exception as err:  # an output the oracle cannot even read
        return "wrong", f"{type(err).__name__}: {err}"
    return None


def attempt(fn):
    """(result, None) or (None, (kind, why)) when fn itself gives up."""
    try:
        return fn(), None
    except Wrong as err:
        return None, ("wrong", str(err))
    except Exception as err:  # Failed, or cimp stopped with an error
        return None, ("failed", f"{type(err).__name__}: {err}")


def setup(name: str, seed: int, work: Path):
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    api = Cimp()
    cmds = build(name, seed, work)
    return time.perf_counter() - start, api, cmds


def timed_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    setup_times = []

    def fresh():
        taken, api, cmds = setup(name, seed, work)
        setup_times.append(taken)
        gc.collect()  # drop the previous import, so peak_rss_mb counts one
        return api, cmds

    api, cmds = fresh()
    args = [argv(cmd) for cmd in cmds]
    seen: list[dict] = [{} for _ in cmds]  # distinct (code, out, err) -> times seen
    latencies: list[list[float]] = [[] for _ in cmds]
    start, rounds = time.perf_counter(), 0
    while not rounds or time.perf_counter() - start < seconds:
        if rounds:
            # set up again before every round, so that setup_s samples the
            # machine across the whole run, as the commands do
            api, _ = fresh()
        for i, a in enumerate(args):
            code, out, err, dt = api.cli(a)
            seen[i][code, out, err] = seen[i].get((code, out, err), 0) + 1
            latencies[i].append(dt)
        rounds += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed, problems = 0, []
    for cmd, outputs in zip(cmds, seen):
        for (code, out, err), times in outputs.items():
            result, verdict = attempt(lambda: from_cli(cmd, code, out, err))
            verdict = verdict or judge(cmd, result)
            if verdict:
                problems.append((verdict, " ".join(argv(cmd))))
                failed += times if verdict[0] == "failed" else 0
    metrics = {
        "wall_s": (sum(statistics.median(lat) for lat in latencies), "s"),
        "cmd_p50_ms": (statistics.median(t for lat in latencies for t in lat) * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return _result(rounds * len(cmds), failed, problems, metrics)


def traced_run(seed: int, seconds: float, work: Path) -> dict:
    tracer = Tracer()
    attempted = failed = 0
    problems, summary = [], {}
    for name in WORKLOADS:
        _, api, cmds = setup(name, seed, work / name)
        verdicts: dict = {}
        start, r = time.perf_counter(), 0
        with api.traced(tracer):
            while r == 0 or time.perf_counter() - start < seconds / len(WORKLOADS):
                tracer.tag = (name, r)
                outcomes = [attempt(lambda: api.replay(cmd)) for cmd in cmds]
                for i, (cmd, (result, verdict)) in enumerate(zip(cmds, outcomes)):
                    key = (i, repr(result))
                    if key not in verdicts:
                        verdicts[key] = verdict or judge(cmd, result)
                    if verdicts[key]:
                        problems.append((verdicts[key], cmd.kind + " " + cmd.file))
                        failed += verdicts[key][0] == "failed"
                attempted += len(cmds)
                r += 1
        summary[name] = {"rounds": r}
    metrics = layer_metrics(tracer, summary)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{seed}.json", summary)
    return _result(attempted, failed, problems, metrics)


def layer_metrics(tracer, summary: dict) -> dict:
    """Per workload, the median over its rounds; then summed over workloads."""
    self_s, whole_s = tracer.totals()
    per_w: dict = {}
    for name in summary:
        tags = [t for t in {tag for tag, _ in self_s} if t[0] == name]
        rounds: dict = {m: [] for m in [*SELF_TIME, *WHOLE_TIME, *COUNTS]}
        for tag in tags:
            for m, span in SELF_TIME.items():
                rounds[m].append(self_s.get((tag, span), 0.0))
            for m, span in WHOLE_TIME.items():
                rounds[m].append(whole_s.get((tag, span), 0.0))
            for m in COUNTS:
                rounds[m].append(tracer.counts.get((tag, m), 0))
        per_w[name] = {m: statistics.median(v) for m, v in rounds.items()}
        commands = [sum(t for (tg, span), t in whole_s.items()
                        if tg == tag and span.startswith("command.")) for tag in tags]
        summary[name]["traced_round_s"] = statistics.median(commands)
    metrics = {}
    for m in SELF_TIME:
        metrics[m] = (sum(w[m] for w in per_w.values()), "s")
    metrics["difftest.engine_s"] = (sum(w["difftest.engine_s"] for w in per_w.values()), "s")
    for m in COUNTS:
        metrics[m] = (sum(w[m] for w in per_w.values()), "count")
    for m, (num, den) in RATES.items():
        # a ratio only over the workloads where its count is taken
        n = sum(w[num] for w in per_w.values() if w[num])
        d = sum(w[den] for w in per_w.values() if w[num])
        metrics[m] = (n / d if d else 0.0, "1/s")
    return metrics


def _result(attempted: int, failed: int, problems: list, metrics: dict) -> dict:
    for (kind, why), what in problems[:10]:
        print(f"{kind}: {what}: {why}", file=sys.stderr)
    return {
        "correct": not any(kind == "wrong" for (kind, _), _ in problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "cimp" / "cli.py").is_file():
        print(f"error: no cimp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(args.seed, args.seconds, work)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
