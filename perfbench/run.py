"""survmix benchmark entry point.

    python3 perfbench/run.py --workload desk|cohort|rescore|all \
        [--seed 11] [--seconds 15] [--trace 0|1]

Run it from anywhere; it works on the checkout it lives in.  One client, a
closed loop: this process starts one child process at a time, first for
set-up (repeated SETUP_REPEATS times inside that child, the median is
`setup_s`), then one per timed operation until the operations have taken
`--seconds` in total; each metric is the median over those operations.
Every child runs on one CPU (see child.py).  With `--trace 1` each
iteration times one untraced and one traced operation and the per-layer
metrics are reported instead of the end-to-end ones.  The last line of
standard output is one JSON object; the lines before it print every metric
with its unit, quartiles and sample count.  The exit status is 0 only if
every correctness check held.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 170         # no operation starts that could end past this

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class ChildFailed(Exception):
    pass


def _run_child(args, cwd: Path) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", dir=WORK, delete=False) as fh:
        result_path = Path(fh.name)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args,
                               str(result_path)], cwd=cwd, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise ChildFailed(f"{args[0]} child exited with status {proc.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[0]} child timed out after {CHILD_TIMEOUT_S} s")
    finally:
        result_path.unlink(missing_ok=True)


def _tree_hash() -> str:
    """Hash of the program and benchmark sources, keying stored digests."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


class DigestStore:
    """Artifact digests and traced counts of earlier runs of this checkout.

    Keyed by workload, seed and source tree hash, so every run of the same
    code and seed is compared with the first one, across invocations too.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, what: str, value) -> "str | None":
        """None if `value` agrees with earlier runs of `key`, else an error."""
        earlier = self.known.setdefault(key, {}).setdefault(what, value)
        if earlier != value:
            return f"{what} {value} differs from earlier runs: {earlier}"
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        return None


def _summary(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    workload = workloads.WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    repeats = 1 if trace else SETUP_REPEATS
    setup = _run_child(["setup", name, str(seed), str(repeats)], work)

    store = DigestStore(WORK / "digests.json")
    key = f"{name}:{seed}:{_tree_hash()}"
    runs = {False: [], True: []}
    failures = []
    measured = longest = 0.0
    while True:
        for traced in ((False, True) if trace else (False,)):
            shutil.rmtree(work / "out", ignore_errors=True)
            t0 = time.monotonic()
            try:
                result = _run_child(["op", name, str(seed), str(int(traced))],
                                    work)
            except ChildFailed as exc:
                result = {"errors": [str(exc)]}
            elapsed = time.monotonic() - t0
            longest = max(longest, elapsed)
            measured += result.get("wall_s", elapsed)
            if not result["errors"]:
                checks = [("artifact digest", result["digest"])]
                if traced:
                    checks.append(("traced counts", {c: result["layers"][c] for c
                                                     in workloads.EXACT_COUNTS}))
                result["errors"] += filter(None, (store.check(key, what, value)
                                                  for what, value in checks))
            if result["errors"]:
                failures.append(result["errors"])
            else:
                runs[traced].append(result)
        if (measured >= seconds
                or time.monotonic() - started + longest * (1 + trace) > RUN_BUDGET_S):
            break
    shutil.rmtree(work / "out", ignore_errors=True)

    attempted = sum(len(v) for v in runs.values()) + len(failures)
    return {"workload": workload, "seed": seed, "setup": setup,
            "untraced": runs[False], "traced": runs[True], "failures": failures,
            "attempted": attempted,
            "digests": sorted({r["digest"] for v in runs.values() for r in v})}


def end_to_end(outcome: dict) -> dict:
    runs = outcome["untraced"]
    rows = outcome["workload"].rows_consumed
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "rows_per_s": [rows / r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "setup_s": outcome["setup"]["setup_s"],
        "mix_auc": [r["mix_auc"] for r in runs],
    }
    return {name: _summary(values) for name, values in samples.items() if values}


def per_layer(outcome: dict) -> dict:
    traced = outcome["traced"]
    if not traced:
        return {}
    out = {name: _summary([r["layers"][name] for r in traced])
           for name in traced[0]["layers"]}
    if outcome["untraced"]:
        untraced_wall = statistics.median(r["wall_s"] for r in outcome["untraced"])
        out["trace.overhead_s"] = _summary(
            [r["layers"]["trace.wall_s"] - untraced_wall for r in traced])
    return out


def _print_table(title: str, summaries: dict, units: dict) -> None:
    print(title)
    for name in units:
        if name not in summaries:
            continue
        s = summaries[name]
        print(f"  {name:<40} {s['median']:>14.6g} {units[name]:<6} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")


def report(outcome: dict, trace: bool, prefix: str = "") -> dict:
    name = outcome["workload"].name
    failed = len(outcome["failures"])
    attempted = outcome["attempted"]
    summaries = per_layer(outcome) if trace else end_to_end(outcome)
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    _print_table(f"workload {name} (seed {outcome['seed']}, "
                 f"{'traced' if trace else 'untraced'})", summaries, units)
    print(f"  {'ops_failed_frac':<40} {failed / max(attempted, 1):>14.6g} "
          f"{'ratio':<6} {failed}/{attempted} operations failed a check  "
          f"n={attempted}")
    for digest in outcome["digests"]:
        print(f"  artifact digest {digest}")
    for errors in outcome["failures"]:
        for error in errors:
            print(f"  FAILED: {error}")
    return {f"{prefix}{m}": {"value": s["median"], "unit": units[m]}
            for m, s in summaries.items()}


def _declared_metrics(trace: bool) -> list:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "survmix" / "__init__.py").is_file():
        print(f"error: no survmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    metrics, attempted, failed = {}, 0, 0
    machine = None
    for name in names:
        try:
            outcome = run_workload(name, args.seed, args.seconds, trace)
        except ChildFailed as exc:
            print(f"error: {name} set-up failed: {exc}", file=sys.stderr)
            return 1
        machine = outcome["setup"]["machine"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(report(outcome, trace, prefix))
        attempted += outcome["attempted"]
        failed += len(outcome["failures"])
    machine["src_lines"] = src_line_count()
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    correct = failed == 0
    if len(names) == 1 and correct:
        missing = [m for m in _declared_metrics(trace) if m not in metrics]
        if missing:
            print(f"FAILED: declared metrics not measured: {missing}")
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
