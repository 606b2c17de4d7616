"""The benchmark's client process: imports the package once, then runs each
operation in a fresh fork of itself.

Usage (started by run.py, not by hand)::

    python3 perfbench/worker.py ROOT WORKDIR WORKLOAD SEED SAMPLES

It imports ``tqual`` from ``ROOT/src``, prepares the workload's library
inputs (for ``train``, SAMPLES rendered completions), warms up, and prints
one ``ready`` line.  Then it reads one JSON request per line on stdin and
answers with one JSON line on stdout.  Each request's ``tag`` names the
files under ``out/`` that take the operation's stdout, stderr and result:

* ``{"op": "run", "argv": [...], "trace": 0|1, "spans": path|null}`` runs
  ``tqual.cli.main(argv)`` and times it;
* ``{"op": "latency", "file": path}`` times one ``tqual.analyze()`` call per
  line of ``file``;
* ``{"op": "quit"}`` ends the process.

Each operation runs in a forked child so that no state, cache or crash
carries over from one command to the next, as with separate CLI runs, while
the import and warm-up are paid once.  The child's peak RSS comes from
``wait4``.  The working directory is WORKDIR, so every path in the commands
and their outputs is relative and the outputs are the same in any checkout.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

CHILD_TIMEOUT_S = 120


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import tqual
    import tqual.cli
    if Path(tqual.__file__).resolve().parent != (src / "tqual").resolve():
        raise ImportError(f"tqual imported from {tqual.__file__}, not from {src}")
    return tqual


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _prepare_train(root: Path, seed: int, samples: int) -> None:
    """Write the assertion-run vocabulary and seed corpus, and the rendered
    texts of ``samples`` completions from the seed policy."""
    from tqual.rlcore.trainer import (TrainConfig, bigram_policy_from_corpus,
                                      generate_completions, render_toy_test)
    toy = _load_module(root / "tests" / "toy_setup.py", "perfbench_toy_setup")
    Path("vocab.txt").write_text("\n".join(toy.VOCAB_ASSERT) + "\n", encoding="utf-8")
    with open("seed_corpus.jsonl", "w", encoding="utf-8") as handle:
        for tokens in toy.SEED_CORPUS_ASSERT:
            handle.write(json.dumps({"tokens": tokens}) + "\n")
    policy = bigram_policy_from_corpus(toy.SEED_CORPUS_ASSERT, toy.VOCAB_ASSERT)
    cfg = TrainConfig(max_tokens=16)
    with open("episodes.jsonl", "w", encoding="utf-8") as handle:
        for completion in generate_completions(policy, cfg, seed=seed, count=samples):
            text = render_toy_test(completion.tokens, toy.TOY_FOCAL)
            handle.write(json.dumps({"test": text, "focal_method": toy.TOY_FOCAL}) + "\n")


def _warm_up(tqual) -> None:
    source = ("[TestMethod]\npublic void TestWarmUpPath()\n{\n    // warm\n"
              "    var r = sut.Warm(1);\n    Assert.AreEqual(1, r);\n}")
    for _ in range(20):
        tqual.analyze(source, "Warm")
    tqual.cli.build_parser()


def _op_run(request: dict, result: dict) -> None:
    import tqual.cli
    tracer = None
    if request.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    argv = request["argv"]
    name = "cli." + argv[0]
    frame = tracer.begin(name) if tracer else None
    start = time.perf_counter_ns()
    try:
        result["rc"] = tqual.cli.main(argv)
    except BaseException as exc:  # a crash is a measured outcome, not our failure
        result["rc"] = None
        result["exception"] = type(exc).__name__
        result["message"] = str(exc)[:200]
    result["wall_ns"] = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.end(frame, name)
        result["trace"] = tracer.summary()
        if request.get("spans"):
            tracer.write_spans(request["spans"])


def _op_latency(request: dict, result: dict) -> None:
    import tqual
    from tqual.corpus import dump_line
    cases = []
    with open(request["file"], encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            cases.append((row["test"], row["focal_method"]))
    analyze = tqual.analyze
    clock = time.perf_counter_ns
    samples, reports = [], []
    for test, focal in cases:
        start = clock()
        report = analyze(test, focal)
        samples.append(clock() - start)
        reports.append(report)
    digest = hashlib.sha256()
    for report in reports:
        digest.update((dump_line(report.to_dict()) + "\n").encode("utf-8"))
    result.update(samples_ns=samples, distinct=len(set(cases)), digest=digest.hexdigest())


def _in_child(request: dict, result_path: str) -> None:
    """Body of one forked operation; never returns."""
    status = 0
    signal.alarm(CHILD_TIMEOUT_S)  # a hung command dies and counts as failed
    try:
        tag = request["tag"]
        out = os.open(f"out/{tag}.stdout", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        err = os.open(f"out/{tag}.stderr", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(out, 1)
        os.dup2(err, 2)
        result: dict = {}
        if request["op"] == "run":
            _op_run(request, result)
        else:
            _op_latency(request, result)
        sys.stdout.flush()
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    except BaseException:
        traceback.print_exc()
        status = 3
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _fork(request: dict) -> dict:
    result_path = f"out/{request['tag']}.result.json"
    if os.path.exists(result_path):
        os.unlink(result_path)
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        _in_child(request, result_path)
    _, status, usage = os.wait4(pid, 0)
    answer: dict = {"exit_status": status, "peak_rss_kb": usage.ru_maxrss}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            answer.update(json.load(handle))
    return answer


def main() -> int:
    root, workdir, workload, seed = (Path(sys.argv[1]), Path(sys.argv[2]),
                                     sys.argv[3], int(sys.argv[4]))
    samples = int(sys.argv[5])
    os.chdir(workdir)
    tqual = _import_package(root)
    if workload == "train":
        _prepare_train(root, seed, samples)
    _warm_up(tqual)
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "quit":
            break
        print(json.dumps(_fork(request)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
