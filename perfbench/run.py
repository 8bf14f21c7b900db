#!/usr/bin/env python3
"""Benchmark of the lungrisk CLI: three closed-loop workloads on phantom cohorts.

    python3 perfbench/run.py --workload {train,score,cohort} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``. Each
workload sets up its inputs from ``--seed``, then runs whole rounds of its
timed ``lungrisk`` commands, one child process at a time, until ``--seconds``
have passed. Every output is checked against computations made apart from
the program (``oracles.py``), and reruns must be byte-identical. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics. With ``--trace 1`` the set-up is the same, then two rounds run
in-process, untraced and then traced by ``layertrace.py``, and the per-layer
metrics are reported instead. See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
from oracles import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"
PANCAN_WEIGHTS = SRC / "lungrisk" / "data" / "pancan_placeholder_weights.txt"

# criterion-6 training settings
FOLDS, BATCH, DROPOUT, LR = 5, 8, 0.25, 1e-3
NODULE_COUNTS = (1, 2, 3, 4)      # the generator's default nodules-per-scan range


class SetupFailed(Exception):
    """The benchmark could not prepare its inputs."""


# ---------------------------------------------------------------------------
# running commands


class Commands:
    """Runs lungrisk commands as child processes or in-process, and counts them."""

    def __init__(self, work: Path):
        self.work = work
        self.log = open(work / "commands.log", "w")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("LUNGRISK_THREADS", None)     # --threads stays at its default of 1
        self.attempted = 0
        self.failed = 0

    def close(self):
        self.log.close()

    def _spawn(self, args) -> tuple[float, float, int]:
        self.log.write(f"$ {' '.join(args)}\n")
        self.log.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                stdout=self.log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def startup(self) -> float:
        """Wall time of a fresh-process `import lungrisk.cli`."""
        wall, _, code = self._spawn(["-c", "import lungrisk.cli"])
        if code != 0:
            raise SetupFailed(f"`import lungrisk.cli` exits {code}; see {self.log.name}")
        return wall

    def setup(self, argv):
        _, _, code = self._spawn(["-m", "lungrisk.cli", *map(str, argv)])
        if code != 0:
            raise SetupFailed(f"set-up command `lungrisk {argv[0]}` exits {code}")

    def child(self, argv) -> dict:
        """A timed command, run as a user runs it."""
        wall, rss, code = self._spawn(["-m", "lungrisk.cli", *map(str, argv)])
        return self._count({"argv": argv, "wall_s": wall, "rss_mb": rss, "code": code})

    def inproc(self, argv, tracer=None) -> dict:
        """The same command through `lungrisk.cli.main` in this process."""
        from lungrisk import cli

        argv = [str(a) for a in argv]
        self.log.write(f"$ (in-process) lungrisk {' '.join(argv)}\n")
        lo = len(tracer.spans) if tracer else 0
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:                       # a crash is a failed operation
            self.log.write(traceback.format_exc())
            code = 1
        wall = time.perf_counter() - t0
        self.log.write(out.getvalue())
        hi = len(tracer.spans) if tracer else 0
        return self._count({"argv": argv, "wall_s": wall, "rss_mb": 0.0, "code": code,
                            "spans": (lo, hi)})

    def _count(self, result: dict) -> dict:
        self.attempted += 1
        self.failed += result["code"] != 0
        return result


# ---------------------------------------------------------------------------
# input selection


def nodule_counts(candidates_csv) -> dict[str, int]:
    return {sid: len(c) for sid, c in oracles.read_candidates(candidates_csv).items()}


def pick_per_count(ids: list[str], counts: dict[str, int], per_count: int) -> list[str]:
    """The first `per_count` scans, in id order, with each nodule count.

    Fixing how many scans carry 1, 2, 3 and 4 nodules fixes the patches the
    network sees, so the work of a run does not change with the seed.
    """
    chosen = []
    for n in NODULE_COUNTS:
        with_n = [s for s in ids if counts[s] == n][:per_count]
        if len(with_n) < per_count:
            raise SetupFailed(f"the phantom pool has only {len(with_n)} scans with {n} "
                              f"nodules; {per_count} are needed")
        chosen += with_n
    return sorted(chosen)


def simulate_pool(cmds: Commands, pool: Path, n: int, prevalence: float, seed: int):
    """Simulate the phantom pool; returns its scan ids and their nodule counts."""
    cmds.setup(["simulate", "--n", n, "--prevalence", prevalence, "--seed", seed,
                "--out", pool])
    counts = nodule_counts(pool / "candidates.csv")
    return sorted(counts), counts


def write_list(path: Path, ids: list[str]) -> Path:
    path.write_text("\n".join(ids) + "\n")
    return path


# ---------------------------------------------------------------------------
# workloads
#
# Each workload has `setup(cmds)`, `run_round(execute, i)` returning the
# round's command results, its unit of work and the digests of its outputs,
# and `check(i)` on the outputs of round i.


class TrainWorkload:
    """`lungrisk train` with the criterion-6 settings on a nodule-balanced slice."""

    POOL, PER_COUNT, EPOCHS, PREVALENCE = 224, 16, 12, 0.3
    unit = "scan-epochs"

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.pool = work / "pool"

    def setup(self, cmds: Commands):
        ids, counts = simulate_pool(cmds, self.pool, self.POOL, self.PREVALENCE, self.seed)
        self.train_ids = pick_per_count(ids, counts, self.PER_COUNT)
        chosen = set(self.train_ids)
        self.heldout_ids = [s for s in ids if s not in chosen]
        self.scan_list = write_list(self.work / "train_scans.txt", self.train_ids)

    def scan_epochs(self) -> int:
        # every scan sits in the training split of all folds but its own
        return (FOLDS - 1) * len(self.train_ids) * self.EPOCHS

    def run_round(self, execute, i):
        model = self.work / f"model{i}"
        r = execute(["train", "--data", self.pool, "--scans", self.scan_list,
                     "--folds", FOLDS, "--batch-size", BATCH, "--dropout", DROPOUT,
                     "--lr", LR, "--epochs", self.EPOCHS, "--seed", self.seed, "--out", model])
        digests = {f.name: oracles.sha256_tree(f) for f in sorted(model.glob("fold*.lrnn"))}
        return [r], self.scan_epochs(), r, digests

    def cleanup_round(self, i):
        shutil.rmtree(self.work / f"model{i}", ignore_errors=True)

    def check(self, i) -> list[str]:
        from lungrisk import nnet

        model = self.work / f"model{i}"
        folds = sorted(model.glob("fold*.lrnn"))
        oracles.require(len(folds) == FOLDS, f"{len(folds)} fold files, expected {FOLDS}")
        members = [oracles.read_weights(f) for f in folds]
        ensemble = nnet.load_ensemble(model)          # verifies each CRC itself
        oracles.require(len(ensemble.members) == FOLDS, "load_ensemble lost a fold")
        oracles.check_training_loss(model / "training_loss.csv", FOLDS, self.EPOCHS)
        nn = reference_scores(members, self.pool, self.heldout_ids)
        return heldout_auc_check(nn, self.pool)


class ScoreWorkload:
    """`lungrisk score` of a nodule-balanced cohort with a 5-member ensemble."""

    POOL, PER_COUNT, TRAIN_SCANS, EPOCHS, PREVALENCE = 208, 24, 64, 6, 0.3
    REFERENCE_SAMPLE = 16
    unit = "scans"

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.pool = work / "pool"
        self.model = work / "model"

    def setup(self, cmds: Commands):
        ids, counts = simulate_pool(cmds, self.pool, self.POOL, self.PREVALENCE, self.seed)
        self.score_ids = pick_per_count(ids, counts, self.PER_COUNT)
        chosen = set(self.score_ids)
        train_ids = [s for s in ids if s not in chosen][:self.TRAIN_SCANS]
        self.score_list = write_list(self.work / "score_scans.txt", self.score_ids)
        train_list = write_list(self.work / "train_scans.txt", train_ids)
        cmds.setup(["train", "--data", self.pool, "--scans", train_list,
                    "--folds", FOLDS, "--batch-size", BATCH, "--dropout", DROPOUT,
                    "--lr", LR, "--epochs", self.EPOCHS, "--seed", self.seed,
                    "--out", self.model])

    def run_round(self, execute, i):
        out = self.work / f"scores{i}.csv"
        r = execute(["score", "--model", self.model, "--data", self.pool,
                     "--scans", self.score_list, "--out", out])
        r["scans"] = len(self.score_ids)
        return [r], len(self.score_ids), r, {"scores": oracles.sha256_tree(out)}

    def cleanup_round(self, i):
        (self.work / f"scores{i}.csv").unlink(missing_ok=True)

    def check(self, i) -> list[str]:
        scores = oracles.check_score_file(self.work / f"scores{i}.csv", self.score_ids)
        members = [oracles.read_weights(f) for f in sorted(self.model.glob("fold*.lrnn"))]
        step = len(self.score_ids) // self.REFERENCE_SAMPLE
        sample = self.score_ids[::step][:self.REFERENCE_SAMPLE]
        ref = reference_scores(members, self.pool, sample)
        worst = oracles.check_scores_match({s: scores[s] for s in sample}, ref, 1e-10,
                                           "reference forward pass")
        notes = [f"reference forward pass: {len(sample)} scans, largest difference {worst:.2e}"]
        return notes + heldout_auc_check(scores, self.pool)


class CohortWorkload:
    """`lungrisk simulate`, then `pancan`, `eval` and `compare` on that cohort."""

    SCANS, PREVALENCE, PERMS = 100, 0.2, 10_000
    unit = "scans"

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self, cmds: Commands):
        pass      # the import probe that starts every set-up is all it needs

    def run_round(self, execute, i):
        d = self.work / f"round{i}"
        d.mkdir()
        data = d / "cohort"
        sim = execute(["simulate", "--n", self.SCANS, "--prevalence", self.PREVALENCE,
                       "--seed", self.seed, "--out", data])
        # the generator's own risk, as a score file `compare` can read
        rows = oracles.read_rows(data / "ground_truth.csv") if sim["code"] == 0 else []
        with open(d / "risk.csv", "w") as fh:
            fh.write("scan_id,score\n")
            fh.writelines(f"{r['scan_id']},{r['risk']}\n" for r in rows)
        pan = execute(["pancan", "--weights", PANCAN_WEIGHTS,
                       "--features", data / "pancan_features.csv", "--out", d / "pancan.csv"])
        ev = execute(["eval", "--scores", d / "pancan.csv", "--labels", data / "labels.csv",
                      "--group-by", "lungrads", "--candidates", data / "candidates.csv",
                      "--out", d / "report"])
        cmp = execute(["compare", "--a", d / "pancan.csv", "--b", d / "risk.csv",
                       "--labels", data / "labels.csv", "--perms", self.PERMS,
                       "--seed", self.seed, "--out", d / "compare.csv"])
        digests = {"simulate": oracles.sha256_tree(data)}
        for name in ("pancan.csv", "report_report.csv", "report_roc.csv", "compare.csv"):
            if (d / name).exists():
                digests[name] = oracles.sha256_tree(d / name)
        return [sim, pan, ev, cmp], self.SCANS, sim, digests

    def cleanup_round(self, i):
        shutil.rmtree(self.work / f"round{i}", ignore_errors=True)

    def check(self, i) -> list[str]:
        d = self.work / f"round{i}"
        data = d / "cohort"
        labels = oracles.read_labels(data / "labels.csv")
        oracles.require(len(labels) == self.SCANS, f"{len(labels)} labels for {self.SCANS} scans")
        oracles.check_prevalence(labels, self.PREVALENCE)
        oracles.check_labels_follow_nodules(labels, data / "nodule_truth.csv")
        volumes = sorted((data / "volumes").glob("*.lrvol"))
        oracles.require(sorted(v.stem for v in volumes) == sorted(labels),
                        "volume files and labels list different scans")
        for v in volumes:
            oracles.check_volume_file(v)
        written = oracles.read_rows(d / "pancan.csv")
        pancan = {r["scan_id"]: float(r["score"]) for r in written}
        expected = oracles.pancan_reference(PANCAN_WEIGHTS, data / "pancan_features.csv")
        oracles.check_scores_match(pancan, expected, 1e-12, "PanCan scores")
        auc = oracles.check_eval_report(d / "report_report.csv", d / "report_roc.csv",
                                        pancan, labels)
        cmp = {r["metric"]: float(r["value"]) for r in oracles.read_rows(d / "compare.csv")}
        oracles.check_p_value(cmp["p_value"], self.PERMS)
        risk = {r["scan_id"]: float(r["score"]) for r in oracles.read_rows(d / "risk.csv")}
        ids = sorted(labels)
        y = [labels[s] for s in ids]
        oracles.require(abs(cmp["auc_a"] - auc) <= 1e-12, "compare's AUC A differs from eval's")
        oracles.require(abs(cmp["auc_b"] - oracles.pairwise_auc([risk[s] for s in ids], y))
                        <= 1e-12, "compare's AUC B differs from the pairwise count")
        return [f"PanCan AUC {auc:.4f}, generator risk AUC {cmp['auc_b']:.4f}, "
                f"p = {cmp['p_value']:.4f}"]


WORKLOADS = {"train": TrainWorkload, "score": ScoreWorkload, "cohort": CohortWorkload}


def reference_scores(members: list[dict], pool: Path, ids: list[str]) -> dict[str, float]:
    candidates = oracles.read_candidates(pool / "candidates.csv")
    return oracles.reference_scan_scores(members, {
        s: (pool / "volumes" / f"{s}.lrvol", candidates[s]) for s in ids})


def heldout_auc_check(nn: dict[str, float], pool: Path) -> list[str]:
    labels = oracles.read_labels(pool / "labels.csv")
    pancan = oracles.pancan_reference(PANCAN_WEIGHTS, pool / "pancan_features.csv")
    a_nn, a_pc = oracles.check_auc_against_pancan(nn, pancan, labels)
    return [f"held-out AUC {a_nn:.4f} on {len(nn)} scans, PanCan {a_pc:.4f}"]


# ---------------------------------------------------------------------------
# one run


def measure(workload, cmds: Commands, seconds: float):
    """Whole rounds of child processes until `seconds` have passed."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        i = len(rounds)
        results, work, main, digests = workload.run_round(cmds.child, i)
        rounds.append({"results": results, "work": work, "main": main, "digests": digests})
        if i > 0:
            workload.cleanup_round(i - 1)
        if time.perf_counter() - t0 >= seconds:
            return rounds


def end_to_end(rounds, setup_s: float):
    """The end-to-end metrics, and a line per round."""
    rates = [r["work"] / r["main"]["wall_s"] for r in rounds]
    walls = [sum(c["wall_s"] for c in r["results"]) for r in rounds]
    notes = [f"round {i}: " + ", ".join(f"{c['argv'][0]} {c['wall_s']:.3f} s" for c in r["results"])
             + f"; rate {rate:.4g}/s" for i, (r, rate) in enumerate(zip(rounds, rates))]
    metrics = {
        "setup_s": (setup_s, "s"),
        "rate_per_s": (statistics.median(rates), "1/s"),
        "round_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for r in rounds for c in r["results"]), "MB"),
    }
    return metrics, notes


def traced(workload, cmds: Commands, work: Path):
    """Per-layer metrics from one traced in-process round.

    An untraced in-process round runs first; the tracing overhead is the
    traced round's wall time less the untraced one's. The untraced round
    also pays the process's warm-up (first BLAS calls, first-touch memory),
    so the overhead reads low: it is a lower bound.
    """
    import layertrace

    startup = statistics.median(cmds.startup() for _ in range(3))
    plain, _, _, plain_digests = workload.run_round(cmds.inproc, 0)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        results, _, _, digests = workload.run_round(lambda argv: cmds.inproc(argv, tracer), 1)
    finally:
        tracer.uninstall()
    workload.cleanup_round(0)
    tracer.write(RUNS / f"{work.name}.trace.jsonl")
    plain_wall = sum(c["wall_s"] for c in plain)
    traced_wall = sum(c["wall_s"] for c in results)
    overhead = traced_wall - plain_wall
    metrics, tails = layertrace.layer_metrics(tracer.spans, results)
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = [f"in-process rounds: untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s; "
             f"tracing overhead {overhead:+.3f} s ({100 * overhead / plain_wall:+.1f}%), "
             f"{len(tracer.spans)} spans"]
    return metrics, [{"digests": plain_digests}, {"digests": digests}], notes + tails


def run(args) -> int:
    if not (SRC / "lungrisk" / "cli.py").is_file():
        print(f"error: no lungrisk sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    cmds = Commands(work)
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        t0 = time.perf_counter()
        cmds.startup()       # compiles bytecode and fills the file cache before timing
        workload.setup(cmds)
        setup_s = time.perf_counter() - t0
        if args.trace:
            metrics, rounds, notes = traced(workload, cmds, work)
        else:
            rounds = measure(workload, cmds, args.seconds)
            metrics, notes = end_to_end(rounds, setup_s)
        problems = []
        digests = rounds[0]["digests"]
        if cmds.failed:
            # checks speak of the operations that succeeded; a failed command
            # leaves outputs that cannot be checked, and counts in `failed`
            notes.append(f"{cmds.failed} of {cmds.attempted} commands failed; outputs not "
                         f"checked (see {RUNS / work.name}.log)")
        else:
            if any(r["digests"] != digests for r in rounds):
                problems.append("rerunning a command with the same arguments changed its outputs")
            try:
                notes += workload.check(len(rounds) - 1)
            except CheckFailed as exc:
                problems.append(str(exc))
            except (KeyError, ValueError, OSError) as exc:   # an output missing or malformed
                problems.append(f"{type(exc).__name__}: {exc}")
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        cmds.close()

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "rounds": len(rounds), "digests": digests,
              "problems": problems, "notes": notes,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (RUNS / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.move(work / "commands.log", RUNS / f"{work.name}.log")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} round(s), "
          f"set-up {setup_s:.2f} s, work unit: {workload.unit}")
    for note in notes:
        print(f"  {note}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    for name, digest in digests.items():
        print(f"  sha256 {name} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": cmds.attempted,
        "failed": cmds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    # a terminated run stops the command it is waiting for (see Commands._spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
