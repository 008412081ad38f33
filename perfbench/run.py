"""Paper-scale benchmark of the lesionbench command-line pipeline.

    python3 perfbench/run.py --workload paper_meta --seed 1 --seconds 60 --trace 0

Run it from the repository root; it needs nothing but ``src/`` and numpy.
A run builds a 58,457-image synthetic cohort from ``--seed`` with the
library's public writers, in a fresh interpreter, and drives the workload's
steps (see ``workloads.py``) through the real CLI entry point, one process
per command and one command after another: a closed loop with a single
client. It sets the inputs up ``SETUPS`` times, then runs the steps in
rounds until ``--seconds`` are spent, at least ``MIN_ROUNDS`` of them;
each round after the first repeats every step but ``train``, and its
outputs must match round 0's. Every output is checked, every metric is
printed with its unit, and the last line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 1`` runs round 0 twice in this process through ``cli.main``,
plain and with span wrappers at the library's layer boundaries, step by
step in turn, and reports the per-layer metrics and the tracing overhead;
its length is set by those two passes, not by ``--seconds``. ``--trace 0``
reports the end-to-end metrics.

Each run writes ``.perfbench/results/<workload>-seed<seed>-trace<t>.json``
(environment, every check, the sha256 of every input and artifact) in the
current directory, and keeps the artifact digests under ``.perfbench/state``
so that a later run with the same seed and code must reproduce them.
Scratch files live in ``.perfbench/work`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Every process of a run, this one included, gets one BLAS thread. paper_wide's
# two fold threads then fill the two cores without oversubscribing them, and
# paper_meta's 64-row products never wait for a second BLAS thread that the
# host has descheduled: over five runs each, the quartile spread of its
# train_s was 0.21 of the median with two BLAS threads and 0.09 with one.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import layers  # noqa: E402
from checks import (Labels, aligned_scores, artifact_digests, check_cv_output, check_ensemble,  # noqa: E402
                    check_folds, check_stability, compare_digests, read_folds)
from spans import Tracer  # noqa: E402
from workloads import END_TO_END, N_BOOT, N_FOLDS, PER_LAYER, WORKLOADS, steps  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
COMMAND_TIMEOUT_S = 170.0
MIN_ROUNDS = 2  # so that every run checks a repetition against round 0
SETUPS = 3


@dataclass
class StepResult:
    metric: str | None
    argv: tuple[str, ...] | None  # None: the in-process bootstrap
    returncode: int
    seconds: float
    stdout: str = ""
    stderr: str = ""
    rss_mb: float = 0.0
    bootstrap: object = None


@dataclass
class Round:
    rep: int  # the round ran in ``chain<rep>``
    steps: list[StepResult]
    seconds: float  # wall time of the whole step sequence

    def seconds_of(self, metric: str) -> float:
        return sum(s.seconds for s in self.steps if s.metric == metric)

    def commands(self) -> list[StepResult]:
        return [s for s in self.steps if s.argv is not None]


class Checks:
    """Attempted operations and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.results: list[tuple[str, str | None]] = []

    def record(self, what: str, failure: str | None) -> None:
        self.results.append((what, failure))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[str]:
        return [f"{what}: {why}" for what, why in self.results if why is not None]


def command_env(threads: str | None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LESIONBENCH_THREADS", None)
    if threads is not None:
        env["LESIONBENCH_THREADS"] = threads
    return env


def run_process(cmd: list[str], cwd: Path, env: dict[str, str], log: Path) -> tuple[int, float, float, str, str]:
    """Run one child to completion: (exit code, wall s, peak RSS MB, stdout, stderr)."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, seconds, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def setup_inputs(workload, seed: int, scale: float, dest: Path, logs: Path) -> float:
    """Write the workload's inputs in a fresh interpreter; return its wall time."""
    cmd = [sys.executable, str(BENCH / "cohort.py"), "--workload", workload.name,
           "--seed", str(seed), "--scale", repr(scale), "--out", str(dest)]
    rc, seconds, _, _, err = run_process(cmd, ROOT, command_env(None), logs / f"setup-{dest.name}")
    if rc != 0:
        raise RuntimeError(f"input generation failed (exit {rc}): {err.strip()[-500:]}")
    return seconds


def bootstrap(chain: Path, labels, seed: int, tracer=None):
    """In-process bootstrap of the ensemble's AUC on the 2020 rows."""
    from lesionbench import LabeledScores, bootstrap_auc_std, parse_predictions_csv

    preds = parse_predictions_csv((chain / "ensemble.csv").read_text(encoding="utf-8"))
    by_name = preds.score_map()
    names = [n for n, keep in zip(labels.names, labels.is_2020) if keep]
    scored = LabeledScores(np.array([by_name[n] for n in names]), labels.label[labels.is_2020])
    if tracer is None:
        return bootstrap_auc_std(scored, N_BOOT, seed)
    return tracer.call("metrics.bootstrap_auc_std", "metrics", bootstrap_auc_std, scored, N_BOOT, seed)


def run_in_process(argv: tuple[str, ...], cwd: Path, tracer=None) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this interpreter: (exit code, stdout, stderr)."""
    import lesionbench.cli as cli

    out, err = io.StringIO(), io.StringIO()
    saved = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                rc = tracer.call(f"cli.{argv[0]}", "cli", cli.main, list(argv))
                tracer.run_id += 1
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, not a dead benchmark
        err.write(traceback.format_exc())
        rc = 1
    finally:
        os.chdir(saved)
    return rc, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def threads_env(threads: str | None):
    """LESIONBENCH_THREADS for commands run in this process, as ``command_env`` sets it for children."""
    saved = os.environ.pop("LESIONBENCH_THREADS", None)
    if threads is not None:
        os.environ["LESIONBENCH_THREADS"] = threads
    try:
        yield
    finally:
        os.environ.pop("LESIONBENCH_THREADS", None)
        if saved is not None:
            os.environ["LESIONBENCH_THREADS"] = saved


def run_step(step, chain: Path, labels, seed: int, *, env: dict[str, str] | None = None,
             log: Path | None = None, tracer=None) -> StepResult:
    """Run one step in ``chain``: a child process of the real CLI entry point
    when ``env`` is given, else ``cli.main`` in this process (with
    ``tracer``'s wrappers, if given)."""
    t0 = time.perf_counter()
    if step.argv is None:
        try:
            boot, rc, err = bootstrap(chain, labels, seed, tracer), 0, ""
        except Exception:  # recorded as a failed step, like a crashing command
            boot, rc, err = None, 1, traceback.format_exc()
        return StepResult(step.metric, None, rc, time.perf_counter() - t0, stderr=err, bootstrap=boot)
    if env is None:
        rc, out, err = run_in_process(step.argv, chain, tracer)
        return StepResult(step.metric, step.argv, rc, time.perf_counter() - t0, out, err)
    cmd = [sys.executable, "-m", "lesionbench.cli", *step.argv]
    rc, seconds, rss, out, err = run_process(cmd, chain, env, log)
    return StepResult(step.metric, step.argv, rc, seconds, out, err, rss)


def run_round(workload, seed: int, work: Path, labels, rep: int) -> Round:
    """Run every step of round ``rep`` in ``chain<rep>``, one child process after another."""
    chain = work / f"chain{rep}"
    chain.mkdir()
    env = command_env(workload.threads)
    start = time.perf_counter()
    done = [run_step(step, chain, labels, seed, env=env, log=work / "logs" / f"round{rep}-step{i:02d}")
            for i, step in enumerate(steps(workload, seed, rep))]
    return Round(rep, done, time.perf_counter() - start)


def check_round(rnd: Round, work: Path, labels, checks: Checks, tag: str,
                read: dict[Path, np.ndarray]) -> dict[str, str]:
    """Record every output check of one round; return its artifact digests.

    ``read`` caches prediction files already parsed, by resolved path.
    """
    def check(what: str, fn, *args) -> None:
        try:
            checks.record(f"{tag} {what}", fn(*args))
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            checks.record(f"{tag} {what}", f"{type(exc).__name__}: {exc}")

    def scores(path: Path) -> np.ndarray:
        path = path.resolve()
        if path not in read:
            read[path] = aligned_scores(path, labels)
        return read[path]

    chain = work / f"chain{rnd.rep}"
    fold = np.zeros(len(labels.names), dtype=np.int64)
    try:
        fold_of = read_folds(chain / "folds.csv")
        fold = np.array([fold_of[n] for n in labels.names])
        checks.record(f"{tag} folds cover images, patients whole", check_folds(fold_of, labels, N_FOLDS))
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        checks.record(f"{tag} folds.csv readable", f"{type(exc).__name__}: {exc}")

    for s in rnd.steps:
        if s.argv is None:
            boot = s.bootstrap
            ok = boot is not None and boot.n_used + boot.n_skipped == N_BOOT and 0.0 <= boot.std <= 0.5
            checks.record(f"{tag} bootstrap used {N_BOOT} resamples",
                          None if ok else f"got {boot} {s.stderr.strip()[-300:]}")
            continue
        checks.record(f"{tag} {s.argv[0]} exits 0", None if s.returncode == 0 else
                      f"exit {s.returncode}: {s.stderr.strip()[-300:]}")
        if s.argv[0] == "train":
            check("train cv equals pair counting on oof.csv",
                  lambda out: check_cv_output(out, scores(chain / "run" / "oof.csv"), labels, fold), s.stdout)
        elif s.argv[0] == "evaluate":
            preds = chain / s.argv[s.argv.index("--preds") + 1]
            check(f"evaluate {preds.name} equals pair counting",
                  lambda out: check_cv_output(out, scores(preds), labels, fold), s.stdout)
        elif s.argv[0] == "ensemble":
            members = [chain / m for m in s.argv[s.argv.index("--preds") + 1].split(",")]
            check("ensemble equals the rank mean",
                  lambda: check_ensemble(aligned_scores(chain / "ensemble.csv", labels),
                                         [scores(m) for m in members]))
        elif s.argv[0] == "stability":
            check("stability stds", check_stability, s.stdout, SRC / "lesionbench" / "data" / "model_scores.csv")
    return artifact_digests(chain)


def environment(workload) -> dict[str, object]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "LESIONBENCH_THREADS": workload.threads,
        "src_lines": src_lines,
        "platform": platform.platform(),
    }


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def code_digest() -> str:
    """Digest of the program and the benchmark; either can change the artifacts."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*"), *BENCH.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_rerun(state_dir: Path, key: str, digests: dict[str, str], checks: Checks) -> None:
    """Artifacts must match an earlier run of the same code, workload and seed."""
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"{key}.json"
    if path.exists():
        checks.record("artifacts identical to an earlier run with this seed",
                      compare_digests(json.loads(path.read_text()), digests, "rerun"))
    else:
        path.write_text(json.dumps(digests, indent=1, sort_keys=True))


def end_to_end(workload, seed: int, seconds: float, scale: float, work: Path, checks: Checks) -> tuple[dict, dict]:
    start = time.perf_counter()
    setup = [setup_inputs(workload, seed, scale, work / "inputs", work / "logs")]
    input_digests = artifact_digests(work / "inputs")
    for i in range(1, SETUPS):
        dest = work / f"inputs_{i}"
        setup.append(setup_inputs(workload, seed, scale, dest, work / "logs"))
        checks.record(f"set-up {i} inputs identical to set-up 0",
                      compare_digests(input_digests, artifact_digests(dest), "set-up"))
        shutil.rmtree(dest)
    labels = Labels(work / "inputs" / "meta.csv")
    rounds: list[Round] = []
    read: dict[Path, np.ndarray] = {}
    while True:
        rep = len(rounds)
        t0 = time.perf_counter()
        rnd = run_round(workload, seed, work, labels, rep)
        rounds.append(rnd)
        digests = check_round(rnd, work, labels, checks, f"round {rep}", read)
        if rep == 0:
            first = digests
        else:
            shared = {k: v for k, v in first.items() if not k.startswith("run/")}
            checks.record(f"round {rep} artifacts identical to round 0", compare_digests(shared, digests, "round"))
            shutil.rmtree(work / f"chain{rep}")
        # Start another round while it would end, on average, within
        # ``seconds``; the run then lasts ``seconds`` give or take half a round.
        next_round_s = time.perf_counter() - t0 - rnd.seconds_of("train_s")
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + next_round_s / 2 > seconds:
            break
    check_rerun(work.parent.parent / "state",
                f"{workload.name}-seed{seed}-scale{scale}-{code_digest()}", first, checks)

    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": rounds[0].seconds,
        **{m: statistics.median(r.seconds_of(m) for r in rounds)
           for m in ("split_s", "features_s", "evaluate_s", "ensemble_s", "bootstrap_s")},
        "train_s": rounds[0].seconds_of("train_s"),
        "peak_rss_mb": max(s.rss_mb for r in rounds for s in r.commands()),
    }
    record = {
        "setup_s_each": setup,
        "rounds": [{"seconds": r.seconds,
                    "steps": [{"argv": s.argv, "seconds": s.seconds, "rss_mb": s.rss_mb,
                               "returncode": s.returncode} for s in r.steps]} for r in rounds],
        "input_sha256": input_digests,
        "artifact_sha256": first,
    }
    return metrics, record


def traced(workload, seed: int, scale: float, work: Path, checks: Checks) -> tuple[dict, dict]:
    setup_inputs(workload, seed, scale, work / "plain" / "inputs", work / "logs")
    shutil.copytree(work / "plain" / "inputs", work / "traced" / "inputs")
    labels = Labels(work / "plain" / "inputs" / "meta.csv")

    # The step micro-timings run first and also warm BLAS and the fusion
    # code. Round 0 then runs twice in this process, plain and traced, each
    # in its own directory. The two advance step by step and take turns
    # going first, so that neither side alone pays a cold start or a slow
    # stretch of the host, and the tracing overhead is the ratio of their sums.
    micro_ms = layers.step_micro_ms(workload, seed)
    tracer = Tracer()
    done: dict[str, list[StepResult]] = {"plain": [], "traced": []}
    with threads_env(workload.threads):
        for i, step in enumerate(steps(workload, seed, 0)):
            for kind in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
                chain = work / kind / "chain0"
                chain.mkdir(exist_ok=True)
                if kind == "plain":
                    done[kind].append(run_step(step, chain, labels, seed))
                    continue
                layers.install(tracer)
                try:
                    done[kind].append(run_step(step, chain, labels, seed, tracer=tracer))
                finally:
                    tracer.close()
    rounds = {kind: Round(0, ran, sum(s.seconds for s in ran)) for kind, ran in done.items()}
    digests = {kind: check_round(r, work / kind, labels, checks, kind, {}) for kind, r in rounds.items()}
    checks.record("traced artifacts identical to plain ones",
                  compare_digests(digests["plain"], digests["traced"], "traced"))

    metrics = layers.metrics(
        tracer,
        micro_ms=micro_ms,
        rows=len(labels.names),
        input_bytes=layers.distinct_input_bytes(rounds["traced"].commands(), work / "traced" / "chain0"),
        import_s=layers.import_seconds(command_env(None)),
        overhead_frac=rounds["traced"].seconds / rounds["plain"].seconds - 1.0,
    )
    spans_path = work.parent.parent / "results" / f"{workload.name}-seed{seed}-spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"spans": [s.as_dict() for s in tracer.spans], "counts": tracer.counts}))
    record = {
        "plain_steps_s": [s.seconds for s in rounds["plain"].steps],
        "traced_steps_s": [s.seconds for s in rounds["traced"].steps],
        "spans_file": spans_path.name,
        "artifact_sha256": digests["plain"],
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the cohort (tests only; counts are asserted at 1.0)")
    args = parser.parse_args(argv)

    if not (SRC / "lesionbench" / "cli.py").is_file():
        print(f"error: no lesionbench sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import lesionbench.cli  # noqa: F401  (so no in-process timing includes the first import)

    base = Path.cwd() / ".perfbench"
    work = base / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    checks = Checks()
    try:
        if args.trace:
            values, record = traced(workload, args.seed, args.scale, work, checks)
            wanted = PER_LAYER
        else:
            values, record = end_to_end(workload, args.seed, args.seconds, args.scale, work, checks)
            wanted = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checks.failures)
    metrics = {name: {"value": values[name], "unit": wanted[name][0]} for name in wanted}
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": metrics}
    full = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "scale": args.scale,
        "environment": environment(workload),
        "checks": [{"check": what, "failure": why} for what, why in checks.results],
        "failed_frac": failed / checks.attempted,
        "layer_targets": {k: v[2] for k, v in PER_LAYER.items()},
        **record,
        "result": result,
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))

    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"environment {json.dumps(full['environment'], sort_keys=True)}")
    print(f"failed_frac {failed / checks.attempted:.6g} ({failed}/{checks.attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
