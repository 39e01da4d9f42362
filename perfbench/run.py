"""Lifecycle benchmark: outsource, expunge, verify, log and audit.

    python3 perfbench/run.py --workload dense-day --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process against the
package under ``src/`` of the checkout. It sets up the deployment
several times, then repeats whole lifecycle rounds until ``--seconds``
have passed, and prints one JSON object as its last line of output:
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, and the spans go to ``perfbench/out/``.
Progress and failures go to standard error.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
#: Metrics made mostly of the engine's calibration loop, which runs for a
#: fixed wall time on any host: reported as measured, not scaled.
AS_MEASURED = {"verify_epochs_per_s", "engine.estimate_ms_per_bundle"}


def _import_program():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "expunge"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {package}")
    sys.path.insert(0, str(SRC))
    import expunge

    if Path(expunge.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported expunge from {expunge.__file__}, not {package}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import lifecycle
    import tracing
    from workloads import SHAPES

    import_s = time.perf_counter() - _STARTED
    if args.workload not in SHAPES:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(SHAPES)}")
    shape = SHAPES[args.workload]

    totals = lifecycle.Totals()
    setups = []
    for _ in range(SETUP_REPEATS):
        totals.host.sample()
        start = time.perf_counter()
        dep = lifecycle.deploy(shape, args.seed)
        stack = lifecycle.new_stack(dep)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    spans = tracing.Spans() if args.trace else tracing.NO_SPANS
    rounds = 0
    measure_start = time.perf_counter()
    if args.trace:
        # an untraced round of the same seed, the base for tracing overhead
        lifecycle.fresh_verifier()
        lifecycle.Round(dep, stack, totals, tracing.NO_SPANS, None, deep_checks=True).run()
        untraced_phase_s = totals.phase_s
        stack = lifecycle.new_stack(dep)
    while True:
        lifecycle.fresh_verifier()
        material = lifecycle.Material() if args.trace else None
        lifecycle.Round(dep, stack, totals, spans, material, deep_checks=rounds == 0).run()
        rounds += 1
        if time.perf_counter() - measure_start >= args.seconds:
            break
        stack = lifecycle.new_stack(dep)

    t = totals
    slowdown = t.host.slowdown
    rates = {
        "outsource_readings_per_s": t.outsourced_readings / t.outsource_s,
        "expunge_readings_per_s": t.expunged_readings / t.tick_s,
        "verify_epochs_per_s": t.verified_epochs / t.verify_s,
        "log_queries_per_s": t.logged_queries / t.log_s,
        "audit_queries_per_s": t.audited_queries / t.audit_s,
    }
    print(
        f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds;"
        f" phases outsource {t.outsource_s:.3f}s tick {t.tick_s:.3f}s verify {t.verify_s:.3f}s"
        f" log {t.log_s:.3f}s audit {t.audit_s:.3f}s; time-bound trips {t.time_bound_trips};"
        f" host slowdown {slowdown:.3f} over {t.host.samples} samples; raw rates "
        + " ".join(f"{name}={value:.1f}" for name, value in rates.items()),
        file=sys.stderr,
    )
    if args.trace:
        traced_phase_s = (t.phase_s - untraced_phase_s) / rounds
        values = tracing.span_metrics(spans, shape.p_del, shape.epochs)
        values.update(tracing.probe_layers(dep, material))
        values["trace.overhead_pct"] = 100.0 * (traced_phase_s / untraced_phase_s - 1.0)
        scaled = {name for name, unit in tracing.UNITS.items() if unit in ("us", "ms")} - AS_MEASURED
        metrics = {
            name: _metric(values[name] / slowdown if name in scaled else values[name], unit)
            for name, unit in tracing.UNITS.items()
        }
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        spans.write(path)
        print(f"perfbench: {len(spans.rows)} spans written to {path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": _metric(setup_s / slowdown, "s"),
            **{
                name: _metric(value if name in AS_MEASURED else value * slowdown, "1/s")
                for name, value in rates.items()
            },
            "stored_bytes_per_raw_byte": _metric(t.peak_stored_bytes / t.raw_bytes, "x"),
            "bundle_bytes_per_reading": _metric(t.bundle_bytes / t.bundle_readings, "B"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
