"""lincert benchmark driver: one client, closed loop, single thread.

    python3 perfbench/run.py --workload difftest --seed 42 --seconds 35 --trace 0

Each item starts only after the previous one has finished and passed the
independent output check.  With --trace 0 the run reports the end-to-end
metrics named in BENCHMARK.json, its times scaled to a reference host
speed (see speed.py); with --trace 1 it times a fixed slice of the inputs
untraced, then again with spans around lincert's public functions, and
reports the per-layer metrics.  Every line before the last
is for people; the last line is one JSON object.  Per-item records (and, when
traced, the spans) go to perfbench/out/.  The exit code is 1 when any item
fails its check, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("core", "fourier", "gauss", "pipeline", "cone", "dual", "implicit", "sysfile", "harness")
SETUP_REPEATS = 5

from spans import SpanRecorder  # noqa: E402
from speed import REFERENCE_MS, SpeedGauge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_lincert():
    """Import lincert from this checkout's src/, dropping any earlier import,
    so each set-up pays the full import cost."""
    for name in [n for n in sys.modules if n == "lincert" or n.startswith("lincert.")]:
        del sys.modules[name]
    lc = argparse.Namespace(**{m: importlib.import_module(f"lincert.{m}") for m in MODULES})
    if Path(lc.core.__file__).resolve().parent != SRC / "lincert":
        raise ImportError(f"lincert was imported from {lc.core.__file__}, not from {SRC}")
    return lc


def set_up(name, seed, recorder=None):
    """Import, make the inputs, run one warm-up item.  Returns
    (workload, rounds, seconds taken)."""
    start = time.perf_counter()
    lc = import_lincert()
    workload = WORKLOADS[name]()
    if recorder is not None:
        recorder.install()
    try:
        rounds = workload.setup(lc, seed, ROOT)
    finally:
        if recorder is not None:
            recorder.uninstall()
    warm = rounds[0][0]
    workload.check(warm, workload.run(warm))
    return workload, rounds, time.perf_counter() - start


class Pass:
    """Item latencies, failures and per-item records of one timed pass."""

    def __init__(self, label):
        self.label = label
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.records: list[dict] = []
        self.elapsed = 0.0

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.elapsed

    def scale(self, gauge) -> None:
        """Scale each latency to the gauge's reference speed (``scaled``)."""
        factors = [gauge.factor(t0, t1) for t0, t1 in self.spans]
        self.scaled = [lat * f for lat, f in zip(self.latencies, factors)]
        self.factor_range = (min(factors), max(factors))
        for rec, f in zip(self.records, factors):
            rec["scaled_ms"] = rec["latency_ms"] * f

    @property
    def scaled_throughput(self) -> float:
        return len(self.scaled) / sum(self.scaled)


def timed_pass(workload, rounds, seconds, label, recorder=None, gauge=None) -> Pass:
    """Run whole rounds: all of them once when ``seconds`` is None, else
    cycling until ``seconds`` have passed.  A gauge, if given, samples the
    host speed between items."""
    result = Pass(label)
    clock = time.perf_counter
    start = clock()
    for number, batch in enumerate(itertools.cycle(rounds) if seconds is not None else rounds):
        for item in batch:
            if gauge is not None:
                gauge.tick()
            if recorder is not None:
                recorder.item = f"{number}:{item[0]}"
            t0 = clock()
            try:
                out = workload.run(item)
            except Exception as exc:  # a raising item is a failed item, not a crash
                t1 = clock()
                ok, digest = False, f"raised {type(exc).__name__}: {exc}"
            else:
                t1 = clock()
                try:
                    ok, digest = workload.check(item, out)
                except Exception as exc:
                    ok, digest = False, f"check raised {type(exc).__name__}: {exc}"
            result.latencies.append(t1 - t0)
            result.spans.append((t0, t1))
            result.failed += not ok
            result.records.append(
                {"pass": label, "round": number, "index": item[0],
                 "latency_ms": (t1 - t0) * 1e3, "ok": ok, "digest": digest}
            )
        if seconds is not None and clock() - start >= seconds:
            break
    result.elapsed = clock() - start
    if gauge is not None:
        gauge.sample()
    return result


def write_records(args, passes):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"items-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for p in passes:
            for rec in p.records:
                f.write(json.dumps({"workload": args.workload, "seed": args.seed, **rec}) + "\n")
    return path


def end_to_end(args):
    gauge = SpeedGauge()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        t0 = time.perf_counter()
        workload, rounds, took = set_up(args.workload, args.seed)
        gauge.sample()
        setups.append(took * gauge.factor(t0, t0 + took))
        raw_setups.append(took)
    p = timed_pass(workload, rounds, args.seconds, "measure", gauge=gauge)
    p.scale(gauge)
    scaled = p.scaled
    n = len(scaled)
    q = statistics.quantiles(scaled, n=10)
    beyond = sum(x > q[8] for x in scaled)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_items_per_s": p.scaled_throughput,
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": q[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_q = statistics.quantiles(p.latencies, n=10)
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups; raw " + ", ".join(f"{s:.3f}" for s in raw_setups),
        "throughput_items_per_s": f"{n} items in {sum(scaled):.2f} s of scaled item time; "
        f"raw {n / sum(p.latencies):.4g}, and {p.throughput:.4g} with checks over {p.elapsed:.2f} s",
        "latency_p50_ms": f"{n} samples; raw {statistics.median(p.latencies) * 1e3:.4g}",
        "latency_p90_ms": f"{n} samples, {beyond} beyond it; raw {raw_q[8] * 1e3:.4g}",
        "speed": f"kernel median {statistics.median(gauge.kernel_ms):.4g} ms over {len(gauge.kernel_ms)} samples "
        f"(reference {REFERENCE_MS} ms); scale factors {p.factor_range[0]:.3f}-{p.factor_range[1]:.3f}",
        "failed_frac": f"{p.failed / n:.6g} ratio ({p.failed} of {n} items failed the output check)",
    }
    if getattr(workload, "golden", None) is not None:
        notes["golden"] = f"{workload.golden_compared} trials compared with {workload.golden_path}"
    return metrics, notes, [p]


def traced(args):
    recorder = SpanRecorder()
    workload, rounds, _ = set_up(args.workload, args.seed, recorder)
    fixed = rounds[: workload.trace_rounds]
    gauge = SpeedGauge()
    plain = timed_pass(workload, fixed, None, "untraced", gauge=gauge)
    recorder.install()
    try:
        spanned = timed_pass(workload, fixed, None, "traced", recorder, gauge)
    finally:
        recorder.uninstall()
    plain.scale(gauge)
    spanned.scale(gauge)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(spans_path)
    metrics = recorder.layer_metrics(sum(spanned.latencies))
    metrics.update(
        {
            "trace.items": len(spanned.latencies),
            "trace.untraced_items_per_s": plain.scaled_throughput,
            "trace.traced_items_per_s": spanned.scaled_throughput,
            "trace.overhead_items_per_s": plain.scaled_throughput - spanned.scaled_throughput,
            "trace.overhead_frac": 1 - spanned.scaled_throughput / plain.scaled_throughput,
        }
    )
    print(f"spans: {len(recorder.spans)} written to {spans_path.relative_to(ROOT)}")
    for key in sorted(k for k in metrics if k.endswith(".self_s")):
        base = key[: -len(".self_s")]
        print(f"  {base:40s} calls {int(metrics.get(base + '.calls', 0)):8d}  "
              f"self {metrics[key]:9.4f} s  total {metrics.get(base + '.total_s', 0):9.4f} s")
    return metrics, {}, [plain, spanned]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lincert" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no lincert sources to benchmark (src/lincert)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    try:
        metrics, notes, passes = (traced if args.trace else end_to_end)(args)
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    report = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        report[m["name"]] = {"value": value, "unit": m["unit"]}
        if not args.trace:
            note = notes.get(m["name"])
            print(f"{m['name']} {value:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for key in ("speed", "failed_frac", "golden"):
        if key in notes:
            print(f"{key} {notes[key]}")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    path = write_records(args, passes)
    print(f"workload {args.workload} seed {args.seed}: {attempted} items, {failed} failed; "
          f"records in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
