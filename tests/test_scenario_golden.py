"""Golden outputs of ``run_scenario`` and ``bench`` experiment 2.

``scenario_golden.json`` pins what a scenario run reports on the FAST
config of ``test_harness.py`` in three modes (honest, lazy cloud,
tampering service provider): the full transcript, the summary, the
``(event, epoch_id)`` sequence of its measurements and the files a
``--state`` run writes, plus the exact byte counts of ``bench(config, 2)``.

The transcript is compared whole: a run keeps its wall-clock verdicts
(``time_bound_ok``, ``verified``) out of it. Only the summary's
``verification_failures``, which counts those verdicts, is stripped.
Accumulator parameters come from a seeded generator, because
timestamps are encoded as minimal-length integers and random parameters
would make the byte counts vary from run to run.

A change meant to keep outputs must pass this file unedited. To
regenerate it after a deliberate output change, run
``PYTHONPATH=src python tests/test_scenario_golden.py``.
"""

import json
import random
from pathlib import Path
from unittest import mock

import pytest

from expunge import harness
from expunge.accumulator import setup
from test_harness import FAST

GOLDEN = Path(__file__).with_name("scenario_golden.json")
MODES = {
    "honest": {},
    "lazy_cloud": {"lazy_cloud": True},
    "tampering_sp": {"tampering_sp": True},
}


def _seeded_setup(modulus_bits):
    return setup(modulus_bits, rng=random.Random(modulus_bits))


def _scenario(mode: str, state_dir: Path) -> dict:
    config = harness.ScenarioConfig(**{**FAST, **MODES[mode]})
    with mock.patch.object(harness, "setup", _seeded_setup):
        result = harness.run_scenario(config, state_dir)
    summary = dict(result.summary)
    del summary["verification_failures"]
    return {
        "transcript": result.transcript,
        "summary": summary,
        "measurements": [[m["event"], m["epoch_id"]] for m in result.measurements],
        "state_files": sorted(
            p.relative_to(state_dir).as_posix() for p in state_dir.rglob("*") if p.is_file()
        ),
    }


def _bench_bytes() -> dict:
    with mock.patch.object(harness, "setup", _seeded_setup):
        report = harness.bench(harness.ScenarioConfig(**FAST), 2)
    return {name: report.values(name) for name in ("raw_bytes", "outsourced_bytes")}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode", sorted(MODES))
def test_scenario_matches_golden(mode, tmp_path):
    # a JSON round trip turns tuples into lists, as in the golden file
    actual = json.loads(json.dumps(_scenario(mode, tmp_path)))
    expected = _golden()["scenarios"][mode]
    assert actual == expected
    assert json.dumps(actual) == json.dumps(expected)  # key order too


def test_bench_storage_bytes_match_golden():
    assert _bench_bytes() == _golden()["bench_exp2"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        doc = {
            "scenarios": {
                mode: _scenario(mode, Path(scratch) / mode) for mode in sorted(MODES)
            },
            "bench_exp2": _bench_bytes(),
        }
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
