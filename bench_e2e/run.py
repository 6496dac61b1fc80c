#!/usr/bin/env python3
"""End-to-end DataCell benchmark runner.

Builds the engine and the workload program (Release) under .bench_build/e2e,
runs each workload in its own process, checks its outputs against the
program's reference and prints every metric by name with its unit. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.

  python3 bench_e2e/run.py                       every workload, untraced and traced
  python3 bench_e2e/run.py --workload text_drain --seed 3 --seconds 10 --trace 0
  python3 bench_e2e/run.py smoke                 short runs + fault injection + seed digest
  python3 bench_e2e/run.py collect --runs 10 --out parent.json
  python3 bench_e2e/run.py compare parent.json change.json [--claim WORKLOAD:METRIC]

Run it from anywhere; paths resolve from this file's location.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "datacell_e2e"
RUN_TIMEOUT_S = 170
WORKLOADS = ["text_drain", "columnar_drain", "sharded4_drain", "text_threaded"]
DIGEST_TUPLES = 1 << 19  # kDigestTuples in src/load.h


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def check_sources():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(
            f"DataCell sources not found next to {HERE.name}/ (expected "
            f"{ROOT}/CMakeLists.txt and {ROOT}/src)")


def build():
    """Configures once, then brings the Release build up to date."""
    check_sources()
    env = dict(os.environ)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporary files inside the checkout
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-pipe"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "datacell_e2e",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            raise BenchError("build failed: " + " ".join(cmd))
    if not BINARY.is_file():
        raise BenchError(f"build produced no {BINARY}")


def source_digest():
    """sha256 over the engine sources: identifies the build when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


_PROVENANCE = {}


def provenance():
    if not _PROVENANCE:
        _PROVENANCE.update(git_commit=git_commit(),
                           source_digest=source_digest(),
                           nproc=os.cpu_count())
    return dict(_PROVENANCE)


def run_once(workload, seed, seconds, trace, extra=()):
    """Runs the workload program in its own process; returns its RESULT object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"{workload} exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{workload} printed no RESULT line")
    result = json.loads(lines[-1][len("RESULT "):])
    result["provenance"].update(provenance())
    return result


def check_metric_set(result, spec, trace):
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong_unit = sorted(k for k in want if k in got and got[k] != want[k])
    if missing or extra or wrong_unit:
        raise BenchError(f"metric set differs from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, unit {wrong_unit}")


def save_result(result):
    out = BUILD / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = (f"{result['workload']}-seed{result['seed']}-"
            f"trace{result['trace']}.json")
    with open(out / name, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)


def contract_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def print_result(result):
    counts = result["counts"]
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.6g} "
          f"input_digest={result['input_digest']}")
    for name, m in sorted(result["metrics"].items()):
        print(f"{result['workload']:15s} {name:45s} {m['value']:16.6g} "
              f"{m['unit']}")
    if "latency_samples" in counts:
        print(f"# latency over {counts['latency_samples']:.0f} rows: "
              f"p99 {counts['latency_p99_us']:.6g} us, "
              f"p99.9 {counts['latency_p999_us']:.6g} us")
    for msg in result["mismatches"]:
        print(f"# mismatch: {msg}")


def cmd_single(args, spec):
    build()
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    check_metric_set(result, spec, args.trace)
    save_result(result)
    print_result(result)
    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in result["metrics"].items()}
    print(contract_line(result["correct"], result["attempted"],
                        result["failed"], metrics))
    return 0


def ledger_gap_check(results):
    """Does the ledger explain the text-vs-columnar gap? Channel push plus
    receptor time per tuple (traced text_drain) against
    1/throughput(text_drain) - 1/throughput(columnar_drain) (untraced)."""
    layer = {k: v["value"] for k, v in results[("text_drain", True)]["metrics"].items()}
    tps = {w: results[(w, False)]["metrics"]["throughput_tps"]["value"]
           for w in ("text_drain", "columnar_drain")}
    gap = 1e9 / tps["text_drain"] - 1e9 / tps["columnar_drain"]
    parts = layer["bench.ledger_ns_per_tuple"] * (
        layer["adapters.channel.share"] + layer["core.receptor.share"])
    print(f"# ledger: channel+receptor {parts:.1f} ns/tuple, text-columnar gap "
          f"{gap:.1f} ns/tuple ({parts / gap - 1:+.1%})")


def cmd_all(args, spec):
    build()
    correct, attempted, failed, metrics = True, 0, 0, {}
    results = {}
    for trace in (False, True):
        for w in WORKLOADS:
            result = run_once(w, args.seed, args.seconds, trace)
            check_metric_set(result, spec, trace)
            save_result(result)
            print_result(result)
            results[(w, trace)] = result
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for k, v in result["metrics"].items():
                metrics[f"{w}.{k}"] = {"value": v["value"], "unit": v["unit"]}
    ledger_gap_check(results)
    print(contract_line(correct, attempted, failed, metrics))
    return 0


# --- smoke ---------------------------------------------------------------

def cmd_smoke(args, spec):
    """Half a second of measurement per workload, traced and untraced, with
    the reference checks; a fault-injection run whose failure count must be
    exactly 1 in 1,000; and the seed-determinism check on the input digest."""
    build()
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    digests, digest_tuples = {}, []
    for w in WORKLOADS:
        for trace in (False, True):
            r = run_once(w, 1, 0.5, trace)
            tag = f"{w} trace={int(trace)}"
            expect(r["correct"] and r["failed"] == 0,
                   f"{tag}: matches reference, failed={r['failed']} "
                   f"{r['mismatches'][:3]}")
            try:
                check_metric_set(r, spec, trace)
                expect(True, f"{tag}: metric set matches BENCHMARK.json")
            except BenchError as e:
                expect(False, f"{tag}: {e}")
            if not trace:
                expect(all(v["value"] > 0 for v in r["metrics"].values()),
                       f"{tag}: every end-to-end metric is positive")
            else:
                trace_file = BUILD / "traces" / f"{w}-seed1.json"
                ok = trace_file.is_file()
                if ok:
                    with open(trace_file) as f:
                        ok = len(json.load(f)["traceEvents"]) > 0
                expect(ok, f"{tag}: wrote spans to {trace_file.name}")
            digests[(w, trace)] = r["input_digest"]
            digest_tuples.append(r["input_digest_tuples"])

    # Fault injection: 125 rounds of 4,096 lines, every 1,000th corrupt.
    r = run_once("text_drain", 1, 0.5, False,
                 ["--fault-every", "1000", "--rounds", "125"])
    frac = r["failed"] / r["attempted"]
    expect(r["attempted"] == 512000 and r["failed"] == 512 and frac == 0.001,
           f"fault injection: failed_frac={frac} (want 0.001 exactly), "
           f"malformed={r['counts'].get('malformed')}")
    expect(r["correct"], f"fault injection: valid tuples match reference "
                         f"{r['mismatches'][:3]}")

    # Seed determinism.
    same = run_once("columnar_drain", 1, 0.3, False)["input_digest"]
    other = run_once("columnar_drain", 2, 0.3, False)["input_digest"]
    expect(len(set(digests.values()) | {same}) == 1,
           f"same seed gives one input digest ({same})")
    expect(all(n == DIGEST_TUPLES for n in digest_tuples),
           f"every digest covers the first {DIGEST_TUPLES} tuples")
    expect(other != same, f"another seed gives another digest ({other})")

    print(f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


# --- collect / compare -----------------------------------------------------

def spread(values):
    """(median, q1, q3, (q3 - q1) / median) per statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_values(runs, metric):
    return [r["metrics"][metric] for r in runs]


def compared_metrics(spec, *sides):
    """(name, BENCHMARK.json entry) for every end-to-end metric, plus the
    unscaled value `raw_<metric>` of each speed-normalised one that every
    run of every side recorded, held to the same bound: a change that the
    calibration unit happened to absorb still shows in the raw numbers."""
    out = []
    for meta in spec["end_to_end"]:
        out.append((meta["name"], meta))
        raw = "raw_" + meta["name"]
        if all(raw in r["metrics"] for runs in sides for r in runs):
            out.append((raw, meta))
    return out


def print_spreads(data, spec):
    """Median and IQR/median per workload x end-to-end metric, flagged
    against BENCHMARK.json's bound (the benchmark aims for a third of it)."""
    print(f"{'workload':15s} {'metric':20s} {'median':>12s} {'IQR/med':>8s} "
          f"{'bound':>6s}")
    for w, runs in data["runs"].items():
        for m, meta in compared_metrics(spec, runs):
            med, _, _, s = spread(run_values(runs, m))
            b = meta["bound"]
            flag = "" if s <= b / 3 else (" > bound/3" if s <= b else " > bound")
            print(f"{w:15s} {m:20s} {med:12.6g} {s:8.4f} {b:6.2f}{flag}")


def cmd_collect(args, spec):
    """Untraced runs of every workload for seeds first-seed, first-seed+1,
    ...; with --append the runs are added to an existing file, so runs of
    two commits can be made in alternation."""
    build()
    out = Path(args.out)
    if args.append and out.is_file():
        with open(out) as f:
            data = json.load(f)
        if data["provenance"]["source_digest"] != provenance()["source_digest"]:
            raise BenchError(f"{out} holds runs of other engine sources")
        if data["seconds"] != args.seconds:
            raise BenchError(f"{out} holds {data['seconds']} s runs")
    else:
        data = {"provenance": provenance(), "seconds": args.seconds,
                "runs": {}}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in WORKLOADS:
            r = run_once(w, seed, args.seconds, False)
            check_metric_set(r, spec, False)
            if not r["correct"] or r["failed"] != 0:
                raise BenchError(f"{w} seed {seed}: correct={r['correct']} "
                                 f"failed={r['failed']} {r['mismatches'][:3]}")
            data["provenance"].update(r["provenance"])
            values = {k: v["value"] for k, v in r["metrics"].items()}
            values.update((k, v) for k, v in r["counts"].items()
                          if k.startswith("raw_"))
            data["runs"].setdefault(w, []).append({
                "seed": seed, "attempted": r["attempted"],
                "failed": r["failed"], "metrics": values})
            log(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(r["metrics"].items())))
    with open(out, "w") as f:
        json.dump(data, f, indent=1)
    print_spreads(data, spec)
    return 0


def pair_runs(parent_runs, change_runs):
    """Parent/change pairs with the same seed (in order when no seed of one
    side repeats on the other)."""
    by_seed = {r["seed"]: r for r in change_runs}
    pairs = [(p, by_seed[p["seed"]]) for p in parent_runs if p["seed"] in by_seed]
    return pairs or list(zip(parent_runs, change_runs))


def cmd_compare(args, spec):
    """The choosing-metrics rules (sections 6-8), per workload x end-to-end
    metric: medians and quartiles of each side, the bound check, unresolved
    when a side's spread exceeds the bound, and for a named claim the
    9-in-10 pair-win rule. The raw values of the speed-normalised metrics
    are held to the same bounds."""
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    if parent["seconds"] != change["seconds"]:
        raise BenchError("the two files hold runs of different lengths")
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    regressions, claim_ok = 0, None
    print(f"{'workload':15s} {'metric':20s} {'parent med [q1,q3]':>34s} "
          f"{'change med [q1,q3]':>34s} {'delta':>8s} {'bound':>6s}  verdict")
    for w, parent_runs in parent["runs"].items():
        change_runs = change["runs"].get(w)
        if not change_runs:
            print(f"{w:15s} missing from {args.change}")
            continue
        failed_p = sum(r["failed"] for r in parent_runs)
        failed_c = sum(r["failed"] for r in change_runs)
        for m, meta in compared_metrics(spec, parent_runs, change_runs):
            pv, cv = run_values(parent_runs, m), run_values(change_runs, m)
            pm, p1, p3, ps = spread(pv)
            cm, c1, c3, cs = spread(cv)
            lower = meta["better"] == "lower"
            delta = (cm - pm) / pm if lower else (pm - cm) / pm  # > 0: worse
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            bound = meta["bound"]
            if all(better(c, p) for c in cv for p in pv):
                verdict = "better in every run"
            elif max(ps, cs) > bound:
                verdict = "unresolved (spread > bound)"
            elif delta > bound:
                verdict = "REGRESSED"
                regressions += 1
            else:
                verdict = "within bound"
            if claim == (w, m):
                pairs = pair_runs(parent_runs, change_runs)
                wins = sum(1 for p, c in pairs
                           if better(c["metrics"][m], p["metrics"][m]))
                gap = abs(cm - pm)
                claim_ok = (wins >= 0.9 * len(pairs) and gap > p3 - p1
                            and delta < 0 and failed_c <= failed_p)
                verdict += (f"; claim {'MET' if claim_ok else 'NOT MET'} "
                            f"({wins}/{len(pairs)} pairs won, |median gap| "
                            f"{gap:.4g} vs parent IQR {p3 - p1:.4g}, failed "
                            f"{failed_p} -> {failed_c})")
            print(f"{w:15s} {m:20s} {pm:12.5g} [{p1:.5g},{p3:.5g}] "
                  f"{cm:12.5g} [{c1:.5g},{c3:.5g}] {delta:+8.3%} "
                  f"{bound:6.2f}  {verdict}")
    if claim is not None and claim_ok is None:
        print(f"claim {args.claim}: no such workload/metric in both files")
        claim_ok = False
    return 1 if regressions or claim_ok is False else 0


def main(argv):
    spec = load_spec()
    default_seconds = spec["run_seconds"]
    if argv and argv[0] in ("smoke", "collect", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "collect":
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--first-seed", type=int, default=1)
            p.add_argument("--seconds", type=float, default=default_seconds)
            p.add_argument("--out", required=True)
            p.add_argument("--append", action="store_true")
        elif argv[0] == "compare":
            p.add_argument("parent")
            p.add_argument("change")
            p.add_argument("--claim", default="",
                           help="WORKLOAD:METRIC the change claims to improve")
        args = p.parse_args(argv[1:])
        handler = {"smoke": cmd_smoke, "collect": cmd_collect,
                   "compare": cmd_compare}[argv[0]]
        return handler(args, spec)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=default_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    args.trace = bool(args.trace)
    return cmd_single(args, spec) if args.workload else cmd_all(args, spec)


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    except BenchError as e:
        log(f"run.py: {e}")
        code = 1
    sys.exit(code)
