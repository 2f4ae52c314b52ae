"""hetnetsim benchmark: load sweeps timed end to end, or traced per layer.

    python3 perfbench/run.py --workload light_load --seed 20250814 --seconds 30 --trace 0

One process, one thread, no pool.  The program is driven only through its
public entry points (run_sweep, or ``hetnetsim.cli.main(["simulate", ...])``
for full_sweep) with a generated ScenarioConfig.  A run repeats blocks, one
sweep each on a config seed derived from --seed and the block index (block
0 is shared by all seeds), until --seconds have passed and at least
MIN_TRIALS trials were timed.  Gated times are restated at a reference
speed of the host, measured by the kernel in calibrate.py.  It prints
each metric by name and unit; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  See README.md.
"""

from __future__ import annotations

import os

# one thread for numpy's BLAS backends; this must precede the numpy import
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from calibrate import REFERENCE_KERNEL_MS, kernel_ms  # noqa: E402
from checks import REL_TOL, SCENARIOS, check_rows, compare_with_previous, fingerprint_diff  # noqa: E402
from spans import Tracer, TrialTimer, layer_metrics, patched  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / ".runs"
REFERENCE_DIR = BENCH_DIR / "reference"

# the default config's seed; reference rows and counts are stored for it
DEFAULT_SEED = 20250814
# held out from tuning: a perf claim must also hold on this seed
HELD_OUT_SEED = 4242
# p90 needs at least ten samples beyond it
MIN_TRIALS = 100
# measuring stops here whatever the minimums, so that a run ends within 180 s
MAX_MEASURE_S = 140.0
# cold set-ups whose median is reported; they are spread evenly over the
# measured time, so that they sample the host's speed over the whole run
SETUP_REPS = 9
# config seed of the set-up warm-up trial; block seeds are 32-bit hashes of
# (--seed, block), so no block shares it in practice
WARMUP_SEED = 1


@dataclasses.dataclass(frozen=True)
class Workload:
    sweep: tuple[int, ...] | None  # None: the default load ladder
    trials: int  # trials per load in one block
    via_cli: bool
    reference_blocks: int  # leading blocks with stored reference rows
    fingerprint_blocks: int  # traced blocks the count fingerprint covers


# Why each workload (README.md has the layer shares behind these choices):
# light_load  n=50 only, below the capacity knee: bid search and links do
#             most of the work, expansion_rebid and the pool pass do none.
# heavy_load  n=500 only: rate-conceding rebids and the pool pass dominate
#             PT_EXPANSION; bid search is a minority share.
# full_sweep  the default ladder 50..500 through `hetnetsim simulate`: the
#             only workload that runs the CLI, run_point aggregation and
#             emit; trial costs vary about 15x across its loads.
WORKLOADS = {
    "light_load": Workload((50,), 20, False, 40, 10),
    "heavy_load": Workload((500,), 5, False, 24, 8),
    "full_sweep": Workload(None, 1, True, 16, 6),
}


def import_program() -> SimpleNamespace:
    """Import numpy and hetnetsim from this checkout's src/ (and nowhere else)."""
    sys.path.insert(0, str(SRC))
    prog = SimpleNamespace(np=importlib.import_module("numpy"))
    for name in ("harness", "equilibrium", "cli", "model"):
        setattr(prog, name, importlib.import_module(f"hetnetsim.{name}"))
    origin = Path(prog.harness.__file__).resolve().parent
    if origin != (SRC / "hetnetsim").resolve():
        raise ImportError(f"hetnetsim imported from {origin}, not from {SRC}")
    return prog


def block_seed(prog, seed: int, block: int) -> int:
    """Config seed of a block.  Block 0 is the same for every --seed, so
    that each run checks at least one block against the reference rows."""
    entropy = [DEFAULT_SEED if block == 0 else seed, block]
    return int(prog.np.random.SeedSequence(entropy).generate_state(1)[0])


def make_config(prog, workload: Workload, seed: int):
    default = prog.harness.DEFAULT_CONFIG
    return dataclasses.replace(
        default,
        seed=seed,
        sweep=workload.sweep or default.sweep,
        trials=workload.trials,
    )


def run_block(prog, workload: Workload, cfg) -> tuple[float, list[dict] | None]:
    """Wall seconds of one sweep and its rows (None if it failed)."""
    if not workload.via_cli:
        start = time.perf_counter()
        try:
            rows = prog.harness.run_sweep(cfg)
        except Exception:
            traceback.print_exc()
            return time.perf_counter() - start, None
        return time.perf_counter() - start, [dataclasses.asdict(r) for r in rows]

    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "rows.csv"
        config.write_text(json.dumps(cfg.to_dict()))
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = prog.cli.main(["simulate", "--config", str(config), "--out", str(out)])
        wall = time.perf_counter() - start
        if code != 0:
            return wall, None
        return wall, [dataclasses.asdict(r) for r in prog.harness.load_rows(out)]


def setup(workload: Workload) -> tuple[SimpleNamespace, float]:
    """Import the program, build a config and run one warm-up trial at the
    workload's smallest load, on a seed that no block uses.  Returns the
    program and the seconds this took."""
    start = time.perf_counter()
    prog = import_program()
    cfg = make_config(prog, workload, WARMUP_SEED)
    prog.harness.run_trial(cfg, min(cfg.sweep), 0)
    return prog, time.perf_counter() - start


def cold_setup_time(name: str) -> tuple[float, float]:
    """setup() timed in a fresh interpreter, so that it pays import and
    first-call costs in full: seconds as measured and restated at the
    reference speed."""
    cmd = [sys.executable, __file__, "--workload", name, "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    seconds, speed = map(float, out.stdout.split()[-2:])
    return seconds, seconds * speed


def setup_only(workload: Workload) -> None:
    """Print setup()'s seconds and the host's speed right after it, as
    reference kernel time / kernel time (the first kernel call warms up)."""
    seconds = setup(workload)[1]
    kernel_ms()
    print(seconds, REFERENCE_KERNEL_MS / statistics.median(kernel_ms() for _ in range(3)))


def fingerprint(counts: Counter) -> dict:
    """Every nonzero traced count; repeats exactly for a fixed seed unless
    the program's work changes."""
    return {k: v for k, v in sorted(counts.items()) if v}


def measure(prog, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run blocks until the time and sample minimums are met, or until a
    block raises.  Without trace, the SETUP_REPS cold set-ups run between
    blocks, evenly over the measured time, which leaves them out.

    With trace, every block runs twice, untraced and traced in alternating
    order, and the second run must reproduce the first one's rows.  The
    count fingerprint is taken after the workload's fingerprint blocks.
    """
    workload = WORKLOADS[name]
    reference = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    at_reference_seed = reference["seed"] == seed
    ref_blocks = reference["blocks"] if at_reference_seed else reference["blocks"][:1]
    timer, tracer = TrialTimer(), Tracer(prog.model.Bid)
    overheads = []  # traced / untraced games per second of each block
    attempted = failed = block = 0
    fp_counts = None
    setup_times, setup_spent = [], 0.0
    start = time.perf_counter()
    while True:
        cfg = make_config(prog, workload, block_seed(prog, seed, block))
        expected = ref_blocks[block] if block < len(ref_blocks) else None
        walls, raised = {}, False
        for traced in ((True, False) if block % 2 else (False, True)) if trace else (False,):
            # a traced run's untraced blocks run bare, so that the tracing
            # overhead is measured against the program alone
            if traced:
                targets = tracer.targets(prog.harness, prog.equilibrium, prog.cli)
            else:
                targets = [] if trace else timer.targets(prog.harness)
            with patched(targets):
                walls[traced], rows = run_block(prog, workload, cfg)
            a, f = check_rows(rows, cfg.sweep, cfg.trials, expected)
            attempted, failed = attempted + a, failed + f
            expected = expected or rows
            raised = raised or rows is None
        if trace:
            overheads.append(walls[False] / walls[True])
        block += 1
        if raised:
            break
        if trace and block == workload.fingerprint_blocks:
            fp_counts = Counter(tracer.counts)
        elapsed = time.perf_counter() - start - setup_spent
        if not trace and len(setup_times) < SETUP_REPS and elapsed >= len(setup_times) * seconds / SETUP_REPS:
            began = time.perf_counter()
            setup_times.append(cold_setup_time(name))
            setup_spent += time.perf_counter() - began
        enough = fp_counts is not None if trace else timer.count() >= MIN_TRIALS
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and enough):
            break
    while not trace and len(setup_times) < SETUP_REPS:
        setup_times.append(cold_setup_time(name))

    return {
        "blocks": block,
        "attempted": attempted,
        "failed": failed,
        "reference_blocks": min(block, len(ref_blocks)),
        "trace_ratio": statistics.median(overheads) if trace else None,
        "trial_ms": timer.samples_ms,
        "raw_ms": timer.raw_ms,
        "setup_times": setup_times,
        "tracer": tracer,
        "fp_counts": fp_counts,
        "reference_fingerprint": reference["fingerprint"] if at_reference_seed else None,
    }


def environment(load_at_start: tuple[float, float, float], prog) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": prog.np.__version__,
        "loadavg_at_start": list(load_at_start),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    """Gated timings are restated at the reference speed (calibrate.py)."""
    loads = sorted(result["trial_ms"])
    raw_setup = [raw for raw, _ in result["setup_times"]]
    setup_s = [scaled for _, scaled in result["setup_times"]]

    def per_load(samples: dict[int, list[float]]) -> tuple[float, float, float]:
        """Games per second over every trial, and the mean over loads of
        each load's p50 and p90 in ms."""
        games = sum(n * len(SCENARIOS) * len(samples[n]) for n in loads)
        seconds = sum(map(sum, samples.values())) / 1e3
        p50 = statistics.fmean(statistics.median(samples[n]) for n in loads)
        return games / seconds, p50, statistics.fmean(p90(samples[n]) for n in loads)

    games_per_s, mean_p50, mean_p90 = per_load(result["trial_ms"])
    raw_games_per_s, raw_p50, raw_p90 = per_load(result["raw_ms"])
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "user_games_per_s": metric(games_per_s, "1/s"),
        "trial_ms_p50": metric(mean_p50, "ms"),
        "trial_ms_p90": metric(mean_p90, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_load = result["trial_ms"]
    load_p90 = {n: p90(by_load[n]) for n in loads}
    notes = [
        "setup_s: median of " + " ".join(f"{t:.4f}" for t in setup_s) + " s",
        f"timings over {sum(map(len, by_load.values()))} trials in {len(loads)} load(s); "
        "p50 and p90 are means over the loads of each load's quantile",
        *(
            f"n={n}: {len(by_load[n])} trials, p50 {statistics.median(by_load[n]):.6g} ms, "
            f"p90 {load_p90[n]:.6g} ms ({sum(ms > load_p90[n] for ms in by_load[n])} beyond)"
            for n in loads
        ),
        f"as measured, not gated: setup_s {statistics.median(raw_setup):.6g} s, "
        f"user_games_per_s {raw_games_per_s:.6g} 1/s, "
        f"trial_ms_p50 {raw_p50:.6g} ms, trial_ms_p90 {raw_p90:.6g} ms",
    ]
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str], bool]:
    """Per-layer metrics of a traced run, notes, and whether the count
    fingerprint matched the previous run and the reference."""
    tracer, counts = result["tracer"], result["fp_counts"]
    notes = []
    ok = True
    if counts is None:
        counts = tracer.counts
        notes.append("fingerprint: not taken, the run stopped before its blocks")
    else:
        fp = fingerprint(counts)
        notes.append("fingerprint: " + json.dumps(fp))
        diffs = {
            "previous run": compare_with_previous(
                fp, RUNS_DIR / "fingerprints" / f"{result['name']}-{result['seed']}.json"
            ),
            "reference": (
                fingerprint_diff(fp, result["reference_fingerprint"])
                if result["reference_fingerprint"] is not None
                else None
            ),
        }
        for against, diff in diffs.items():
            if diff is not None:
                notes.append(f"fingerprint vs {against}: " + (f"CHANGED in {diff}" if diff else "same"))
                ok = ok and not diff
    metrics = layer_metrics(tracer, counts, tracer.counts["trial"], counts["trial"])
    metrics["trace.games_per_s_ratio"] = metric(result["trace_ratio"], "ratio")
    notes.append(
        f"times over {tracer.counts['trial']} traced trials, counts over {counts['trial']}; "
        f"trial time outside every layer's self time: {tracer.unaccounted_ns()} ns"
    )
    return metrics, notes, ok


def write_reference(prog, name: str, seed: int) -> int:
    """Store the rows of the leading blocks and the count fingerprint."""
    workload = WORKLOADS[name]
    blocks = []
    tracer = Tracer(prog.model.Bid)
    for block in range(max(workload.reference_blocks, workload.fingerprint_blocks)):
        cfg = make_config(prog, workload, block_seed(prog, seed, block))
        if block < workload.fingerprint_blocks:
            with patched(tracer.targets(prog.harness, prog.equilibrium, prog.cli)):
                _, rows = run_block(prog, workload, cfg)
        else:
            _, rows = run_block(prog, workload, cfg)
        if check_rows(rows, cfg.sweep, cfg.trials)[1]:
            print(f"block {block} failed its structure check", file=sys.stderr)
            return 1
        if block < workload.reference_blocks:
            blocks.append(rows)
    reference = {"seed": seed, "rel_tol": REL_TOL, "fingerprint": fingerprint(tracer.counts), "blocks": blocks}
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(reference) + "\n")
    print(f"wrote {len(blocks)} blocks of reference rows and the count fingerprint to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed; {DEFAULT_SEED} has reference rows, {HELD_OUT_SEED} is held out for perf claims",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up in this process, print the seconds and exit",
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this seed's rows and count fingerprint under reference/ and exit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup_only(workload)
        return 0
    prog, _ = setup(workload)
    if args.write_reference:
        return write_reference(prog, args.workload, args.seed)
    env = environment(load_at_start, prog)
    result = measure(prog, args.workload, args.seed, args.seconds, bool(args.trace))
    result.update(name=args.workload, seed=args.seed)
    if not (result["tracer"].counts["trial"] if args.trace else result["trial_ms"]):
        print("no trial completed; nothing to report", file=sys.stderr)
        return 1

    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "env: " + json.dumps(env),
        f"blocks={result['blocks']} rows checked={result['attempted']} failed={result['failed']} "
        f"(against reference rows in {result['reference_blocks']} blocks, structure only in the rest)",
    ]
    if args.trace:
        metrics, notes, fingerprint_ok = per_layer(result)
    else:
        (metrics, notes), fingerprint_ok = end_to_end(result), True
    width = max(len(k) for k in metrics)
    lines += notes + [f"{k:<{width}}  {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    summary = {
        "correct": result["failed"] == 0 and fingerprint_ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    RUNS_DIR.mkdir(exist_ok=True)
    with open(RUNS_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"args": vars(args), "env": env, "notes": lines, **summary}) + "\n")
    for line in lines:
        print("# " + line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
