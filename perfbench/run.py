"""tqual benchmark: seeded workloads through the CLI and the library API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload curate --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``curate``,
``long_tests`` and ``train``.  One client runs a closed loop: each command
starts after the previous one ends, one process, one thread.  A pass runs
the workload's commands through ``tqual.cli.main`` and then, three times,
times one ``tqual.analyze()`` call per test; passes repeat until
``--seconds`` is spent, with set-up repeated between them, and each timing
is scaled to a reference host speed and is a median over its repeats (see
``end_to_end`` and ``calibrate``).

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and the last line
holds the per-layer metrics plus the tracing overhead.  Every
pass is checked against the oracle in ``gen``; known defects run once per
run as single-record probes, outside the timed passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import calibrate
import checks
import gen

SETUP_REPS = 8
MIN_PASSES = 3
LATENCY_LOOPS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "analyze_us_p50": "us",
    "analyze_us_tail": "us", "peak_rss_mb": "MB",
}


class Worker:
    """One worker process (worker.py) and its request/answer pipe."""

    def __init__(self, root: Path, work: Path, plan: gen.Plan, seed: int):
        env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(root),
             str(work), plan.workload, str(seed), str(plan.samples)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.work = work
        ready = self.proc.stdout.readline()
        if not ready:
            self.close()
            raise RuntimeError("worker failed to start (see its stderr above)")

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


def digest_files(work: Path, paths: list[str]) -> dict[str, str]:
    """sha256 of each output file, or of ``<missing>`` when it is absent."""
    return {rel: hashlib.sha256((work / rel).read_bytes() if (work / rel).exists()
                                else b"<missing>").hexdigest() for rel in paths}


class Speed:
    """Host-speed measurements (calibrate.py) taken between operations; the
    one taken after an operation also serves as the one before the next."""

    def __init__(self) -> None:
        self.last = calibrate.measure()

    def scaled(self, run, *args):
        """Run ``run(*args)``; returns its result and the factor that scales
        its times to the reference speed."""
        before = self.last
        result = run(*args)
        self.last = calibrate.measure()
        return result, calibrate.REFERENCE_S * 2 / (before + self.last)


def run_pass(worker: Worker, plan: gen.Plan, speed: Speed, trace: bool,
             spans_dir: Path | None) -> dict:
    commands = []
    for cmd in plan.commands:
        tag = cmd.name.replace("-", "_")
        spans = str(spans_dir / f"spans-{tag}.jsonl") if spans_dir else None
        answer, scale = speed.scaled(worker.ask, {
            "op": "run", "tag": tag, "argv": cmd.argv, "trace": int(trace), "spans": spans})
        answer.update(tag=tag, scale=scale)
        answer["digests"] = digest_files(worker.work, cmd.outputs)
        commands.append(answer)
    # Each latency loop runs in its own fork, so repeating it cannot hit a
    # cache left by the previous one; repeats sample more of the host's time.
    latency = []
    for _ in range(0 if trace else LATENCY_LOOPS):
        answer, scale = speed.scaled(
            worker.ask, {"op": "latency", "tag": "latency", "file": plan.latency})
        latency.append(dict(answer, scale=scale))
    return {"commands": commands, "latency": latency,
            "scaled_s": sum(c.get("wall_ns", 0) * c["scale"] for c in commands) / 1e9}


def check_pass(work: Path, plan: gen.Plan, result: dict, reference: dict | None,
               problems: list[str]) -> int:
    """Check one pass; returns the number of failed operations.  The first
    pass is checked against the oracle, later ones against the first."""
    failed = 0
    for i, (cmd, answer) in enumerate(zip(plan.commands, result["commands"])):
        issues = []
        if answer.get("exception") or answer.get("exit_status"):
            issues.append(f"crashed: {answer.get('exception', answer.get('exit_status'))}")
        elif answer.get("rc") != checks.expected_rc(plan, cmd.name):
            issues.append(f"exit code {answer.get('rc')}")
        elif reference is None:
            check, rel = checks.CHECKS[(plan.workload, cmd.name)]
            issues += check(work, plan, rel)
        if reference is not None:
            if answer["digests"] != reference["commands"][i]["digests"]:
                issues.append("output differs from the first pass")
        if issues:
            failed += 1
            problems += [f"{cmd.name}: {issue}" for issue in issues]
    for latency in result["latency"]:
        issue = None
        if latency.get("exit_status") or "samples_ns" not in latency:
            issue = "latency loop crashed"
        elif plan.workload != "train" and latency["digest"] != hashlib.sha256(
                (work / "out/reports.jsonl").read_bytes()).hexdigest():
            issue = "library reports differ from the analyze command's"
        elif reference is not None \
                and latency["digest"] != reference["latency"][0]["digest"]:
            issue = "library reports differ from the first pass"
        if issue:
            failed += 1
            problems.append(f"analyze(): {issue}")
    return failed


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


def command_walls(plan: gen.Plan, passes: list[dict]) -> list[float]:
    """Each command's median scaled wall time over the passes, in seconds."""
    return [median(p["commands"][i]["wall_ns"] * p["commands"][i]["scale"] for p in passes)
            / 1e9 for i in range(len(plan.commands))]


def call_times_us(passes: list[dict]) -> list[float]:
    """Each ``analyze()`` call's median scaled time over the latency loops
    of all passes, in microseconds, sorted."""
    loops = [[t * loop["scale"] / 1e3 for t in loop["samples_ns"]]
             for p in passes for loop in p["latency"]]
    return sorted(median(times) for times in zip(*loops))


def end_to_end(plan: gen.Plan, passes: list[dict], setup: list[float]) -> dict:
    """Every time is scaled to the reference host speed (see calibrate.py)
    and is a median over its repeats: set-up's, each command's over the
    passes, and each ``analyze()`` call's over the latency loops, before
    the percentiles over the calls are taken."""
    wall = sum(command_walls(plan, passes))
    items = sum(cmd.records for cmd in plan.commands)
    calls = call_times_us(passes)
    return {
        "setup_s": median(setup),
        "wall_s": wall,
        "items_per_s": items / wall,
        "analyze_us_p50": percentile(calls, 50),
        "analyze_us_tail": percentile(calls, gen.TAIL_PERCENTILE[plan.workload]),
        "peak_rss_mb": median([max(c["peak_rss_kb"] for c in p["commands"]) / 1024
                               for p in passes]),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes: counts from the first
    traced pass, times scaled like the end-to-end ones and averaged over
    traced passes.  A distinct fraction counts distinct inputs within each
    command's process, summed over the commands.  Returns the contract
    metrics as name -> (value, unit), and the self times, in seconds, of
    layers only some workloads reach, which are printed alongside."""
    def totals(p: dict) -> dict:
        out = {"calls": {}, "self_ns": {}, "counters": {}, "distinct": {}}
        for answer in p["commands"]:
            for key, table in answer.get("trace", {}).items():
                for name, value in table.items():
                    if key == "self_ns":
                        value *= answer["scale"]
                    out[key][name] = out[key].get(name, 0) + value
        return out

    tables = [totals(p) for p in traced]
    first = tables[0]
    calls, counters, distinct = first["calls"], first["counters"], first["distinct"]

    def n(name: str) -> int:
        return calls.get(name, 0)

    def self_s(*names: str) -> float:
        return mean(sum(t["self_ns"].get(x, 0) for x in names) / 1e9 for t in tables)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (value, unit)

    lex_s = self_s("lexer.tokenize")
    put("lexer.calls", n("lexer.tokenize"), "count")
    put("lexer.calls_per_analyze",
        ratio(counters.get("lexer.calls_in_analyze", 0), n("analyzer.analyze")), "ratio")
    put("lexer.chars", counters.get("lexer.chars", 0), "count")
    put("lexer.tokens", counters.get("lexer.tokens", 0), "count")
    put("lexer.self_s", lex_s, "s")
    put("lexer.mchars_per_s", ratio(counters.get("lexer.chars", 0), lex_s) / 1e6, "Mchar/s")
    put("parser.test.calls", n("parser.parse_test_method"), "count")
    put("parser.test.self_s", self_s("parser.parse_test_method"), "s")
    put("parser.focal.calls", n("parser.parse_focal_file"), "count")
    put("parser.statements", counters.get("parser.statements", 0), "count")
    put("parser.fatal_frac",
        ratio(counters.get("parser.fatal", 0), n("parser.parse_test_method")), "ratio")
    put("analyzer.calls", n("analyzer.analyze"), "count")
    put("analyzer.self_s", self_s("analyzer.analyze", "analyzer.score_corpus"), "s")
    put("analyzer.distinct_input_frac",
        ratio(distinct.get("analyzer.inputs", 0), n("analyzer.analyze")), "ratio")
    put("rewards.calls", n("rewards.reward_for") + n("rewards.resample_balanced"), "count")
    put("rewards.self_s", self_s("rewards.reward_for", "rewards.resample_balanced"), "s")
    curation = ("curation.is_golden", "curation.dedupe", "curation.split_by_repository",
                "curation.split_manifest")
    put("curation.calls", sum(n(x) for x in curation), "count")
    put("curation.golden_kept_frac",
        ratio(counters.get("curation.golden_kept", 0), n("curation.is_golden")), "ratio")
    put("prompting.calls", n("prompting.build_prompt"), "count")
    put("prompting.renders_per_prompt",
        ratio(n("prompting.render_level"), n("prompting.build_prompt")), "ratio")
    put("completion.calls", n("completion.truncate_completion"), "count")
    put("completion.cut_frac",
        ratio(counters.get("completion.cut", 0), n("completion.truncate_completion")),
        "ratio")
    put("corpus.calls", n("corpus.read") + n("corpus.write"), "count")
    put("corpus.read_s", self_s("corpus.read"), "s")
    put("corpus.write_s", self_s("corpus.write"), "s")
    cli_names = sorted(k for k in calls if k.startswith("cli."))
    put("cli.calls", sum(n(x) for x in cli_names), "count")
    put("cli.self_s", self_s(*cli_names), "s")
    put("policy.sample.calls", n("policy.sample"), "count")
    put("policy.tokens_sampled", counters.get("policy.tokens_sampled", 0), "count")
    put("policy.kl.calls", n("policy.kl"), "count")
    put("policy.log_probs.calls", n("policy.log_probs"), "count")
    put("math.surrogate_grad.calls", n("math.surrogate_grad"), "count")
    episodes = counters.get("trainer.episodes", 0)
    put("trainer.analyze_per_episode",
        ratio(counters.get("trainer.analyze_calls", 0), episodes), "ratio")
    put("trainer.distinct_text_frac",
        ratio(distinct.get("trainer.texts", 0), counters.get("trainer.analyze_calls", 0)),
        "ratio")
    put("tracing.overhead_frac",
        mean(t["scaled_s"] for t in traced) / mean(u["scaled_s"] for u in untraced) - 1,
        "ratio")

    # Self times of layers that only some workloads reach: printed, but not
    # part of the per-layer contract, whose every time must be measured on
    # every workload.
    extra = {
        "parser.focal.self_s": self_s("parser.parse_focal_file"),
        "curation.self_s": self_s(*curation),
        "prompting.self_s": self_s("prompting.build_prompt", "prompting.render_level"),
        "completion.self_s": self_s("completion.truncate_completion"),
        "policy.sample.self_s": self_s("policy.sample"),
        "policy.kl.self_s": self_s("policy.kl"),
        "policy.log_probs.self_s": self_s("policy.log_probs"),
        "trainer.reward.self_s": self_s("trainer.reward"),
        "trainer.eval.self_s": self_s("trainer.eval"),
        "trainer.update.self_s": self_s("trainer.train"),
    }
    for name in cli_names:
        extra[f"{name}.self_s"] = self_s(name)
    return m, {k: v for k, v in extra.items() if v}


def machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"machine": platform.machine(), "processor": platform.processor(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def set_up(root: Path, work: Path, workload: str, seed: int
           ) -> tuple[gen.Plan, Worker, float]:
    """Generate the inputs in ``work`` and start a warmed-up worker there;
    also returns the seconds this took."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = gen.build(workload, seed, root, work)
    worker = Worker(root, work, plan, seed)
    return plan, worker, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/tqual/cli.py", "tests/labeled_corpus.py", "tests/toy_setup.py"):
        if not (root / needed).is_file():
            print(f"perfbench: {needed} not found; run from the root of a tqual checkout",
                  file=sys.stderr)
            return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_dir = root / ".perfbench_out" / args.workload
    worker = None
    try:
        speed = Speed()
        (plan, worker, seconds), scale = speed.scaled(set_up, root, work, args.workload,
                                                      args.seed)
        setup = [seconds * scale]

        # Traced runs alternate untraced and traced passes, so a change in
        # the host's speed during the run does not pass for tracing overhead.
        # Set-up repeats between passes, in a directory of its own.
        untraced, traced, problems = [], [], []
        failed = attempted = 0
        start = time.perf_counter()
        while True:
            result = run_pass(worker, plan, speed, False, None)
            failed += check_pass(work, plan, result, untraced[0] if untraced else None,
                                 problems)
            attempted += len(plan.commands) + LATENCY_LOOPS
            untraced.append(result)
            if args.trace:
                spans_dir.mkdir(parents=True, exist_ok=True)
                result = run_pass(worker, plan, speed, True, None if traced else spans_dir)
                failed += check_pass(work, plan, result, untraced[0], problems)
                attempted += len(plan.commands)
                traced.append(result)
            if len(setup) < SETUP_REPS:
                spare = work.with_name(work.name + "-setup")
                try:
                    (_, other, seconds), scale = speed.scaled(
                        set_up, root, spare, args.workload, args.seed)
                    other.close()
                    setup.append(seconds * scale)
                finally:
                    shutil.rmtree(spare, ignore_errors=True)
            elapsed = time.perf_counter() - start
            passes = len(untraced)
            if passes >= MIN_PASSES and elapsed * (1 + 1 / passes) > args.seconds:
                break

        probe_failures = []
        for probe in plan.probes:
            answer = worker.ask({"op": "run", "tag": "probe", "argv": probe.argv,
                                 "trace": 0, "spans": None})
            reason = checks.check_probe(work, probe, answer)
            if reason:
                probe_failures.append(f"{probe.name}: {reason}")
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    report(args, plan, untraced, traced, setup, problems, probe_failures, attempted, failed)
    return 0


def report(args, plan, untraced, traced, setup, problems, probe_failures,
           attempted, failed) -> None:
    first = untraced[0]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced  {machine()}")
    for cmd, wall in zip(plan.commands, command_walls(plan, untraced)):
        print(f"  cli.{cmd.name}.wall_s {wall:.4f} s  ({cmd.records} records)")
    e2e = end_to_end(plan, untraced, setup)
    rate = "episodes_per_s" if args.workload == "train" else "records_per_s"
    print(f"  {rate} {e2e['items_per_s']:.3f} 1/s")
    calls = len(first["latency"][0]["samples_ns"])
    tail = gen.TAIL_PERCENTILE[args.workload]
    loops = LATENCY_LOOPS * len(untraced)
    print(f"  analyze() calls: {calls} a loop ({first['latency'][0]['distinct']} distinct),"
          f" {loops} loops, each call's median over the loops kept; analyze_us_tail is"
          f" analyze_us_p{tail}, {calls * (100 - tail) // 100} calls beyond it")
    scales = [c["scale"] for p in untraced for c in p["commands"]]
    print(f"  times scaled to the reference host speed: {len(setup)} set-ups, median"
          f" scale {median(scales):.3f} (range {min(scales):.3f}-{max(scales):.3f})")
    for name, value in e2e.items():
        print(f"  {name} {value:.6g} {END_TO_END_UNITS[name]}")
    probes = len(plan.probes)
    print(f"  failed_frac {(failed + len(probe_failures)) / (attempted + probes):.4f}"
          f"  ({failed} of {attempted} timed operations, {len(probe_failures)} of"
          f" {probes} known-defect probes)")
    for item in probe_failures:
        print(f"  known defect: {item}")
    for item in problems[:20]:
        print(f"  CHECK FAILED: {item}")
    digests = {rel: d for c in first["commands"] for rel, d in c["digests"].items()}
    everything = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    print(f"  outputs sha256 {everything}")
    for rel, schema in (("out/reports.jsonl", "report.v1"),
                        ("out/metrics.jsonl", "metrics.v1")):
        if rel in digests:
            print(f"  {schema} sha256 {digests[rel]}")
    print(f"  analyze() reports sha256 {first['latency'][0]['digest']}")

    if args.trace:
        metrics, extra = per_layer(traced, untraced)
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
        # Printed, but left out of the result line: see per_layer.
        for name, value in extra.items():
            print(f"  {name} {value:.6g} s")
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
