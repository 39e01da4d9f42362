"""Command-line entry points for the simulation harness.

Exit codes: 0 verification/command success, 1 verification or audit
failure, 2 protocol or usage error, unreadable config or state included.

A ``run`` persists, each fact once, everything needed to interrogate the
simulated deployment afterwards: the config (policy included), key material,
accumulator parameters, cloud segments, sealed query blocks, clock,
transcript, measurements and summary, all through ``harness.StateDir``.
``verify`` uses that state, cloud store included; ``tick`` reads only the
config, clock and cloud store, and ``audit`` only the keys, parameters and
sealed blocks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attestation import TIME_BOUND_FLOOR_ROUND_TRIPS, EpochVerifier
from .core import SensorReading
from .encoding import EncodingError, Layout, nested, seq
from .errors import DomainError, ExpungeError, IntegrityError
from .harness import ScenarioConfig, StateDir, bench, device_pool, generate_readings, run_scenario
from .querylog import audit_block
from .wire import CloudService, LoopbackTransport

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PROTOCOL_ERROR = 2

#: ``generate --out``: a count, then each reading's canonical record.
READINGS_LAYOUT = Layout(None, ("readings", seq(nested(SensorReading))))


def _load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    return ScenarioConfig.load(Path(path))


def cmd_generate(args) -> int:
    readings = generate_readings(_load_config(args.config))
    if args.out:
        blob = READINGS_LAYOUT.pack(readings)
        Path(args.out).write_bytes(blob)
        print(f"wrote {len(readings)} readings ({len(blob)} bytes) to {args.out}")
    else:
        print(f"generated {len(readings)} readings")
        for r in readings[: args.head]:
            print(f"  t={r.time} device={r.device_id.hex()} payload={len(r.payload)}B")
    return EXIT_OK


def cmd_run(args) -> int:
    state_dir = Path(args.state) if args.state else None
    result = run_scenario(_load_config(args.config), state_dir)
    summary = result.summary
    print(
        f"scenario complete: {summary['readings']} readings over "
        f"{summary['epochs']} epochs, {summary['verifications']} verifications "
        f"({summary['verification_failures']} failed), "
        f"{summary['sealed_blocks']} query blocks "
        f"({summary['audits_failed']} failed audit)"
    )
    for eid, state in summary["states"].items():
        print(f"  epoch {eid}: {state}")
    if state_dir:
        print(f"state saved under {state_dir}")
    if summary["verification_failures"] or summary["audits_failed"]:
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    report = bench(config, args.exp)
    print(report.table())
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    state = StateDir(args.state)
    config = state.config()
    verifier = EpochVerifier(
        LoopbackTransport(CloudService(state.store(config)).handle),
        state.keyring(),
        state.params(),
        config.policy,
    )
    now = args.now if args.now is not None else state.clock()

    device = None
    if args.role == "user":
        device = args.device or device_pool(config)[0]

    try:
        report = verifier.verify(args.time, now, args.role, device)
    except IntegrityError as exc:  # a sealed value that does not open is tampering evidence
        print(f"epoch at {args.time}: NOT VERIFIED - a sealed value does not open: {exc}")
        return EXIT_VERIFICATION_FAILED
    except DomainError as exc:  # a bundle that breaks the protocol is refused
        print(f"epoch at {args.time}: NOT VERIFIED - bundle refused: {exc}")
        return EXIT_VERIFICATION_FAILED
    print(json.dumps(report.to_dict(), indent=2))
    checks = [
        f"completeness {'ok' if report.completeness_ok else 'FAILED'}",
        f"state {'ok' if report.state_ok else 'FAILED'}",
    ]
    if report.membership_positions is not None:
        n = len(report.membership_positions)
        checks.insert(0, f"membership {'present at ' + str(n) + ' position(s)' if n else 'absent'}")
    if report.time_bound_applies:
        checks.append(f"time bound {'ok' if report.time_bound_ok else 'EXCEEDED'}")
    elif report.time_bound_applies is False:
        checks.append(
            f"time bound not applicable (estimate {report.recompute_estimate * 1e3:.2f} ms"
            f" < {TIME_BOUND_FLOOR_ROUND_TRIPS:g} x rtt {report.reference_round_trip * 1e3:.2f} ms)"
        )
    verdict = "VERIFIED" if report.verified else "NOT VERIFIED"
    print(
        f"epoch {report.epoch_id} ({report.state_claimed.name.lower()} claimed): "
        f"{verdict} - " + ", ".join(checks)
    )
    return EXIT_OK if report.verified else EXIT_VERIFICATION_FAILED


def cmd_audit(args) -> int:
    state = StateDir(args.state)
    keyring = state.keyring()
    params = state.params()
    sealed = state.block(args.block)
    if sealed is None:
        raise FileNotFoundError(f"no sealed block {args.block}")
    saved = [(args.block, sealed)]
    prev = params.seed
    if args.block > 1:
        # chaining from the seed instead would pass a dropped block off as a proof mismatch
        prev_block = state.block(args.block - 1)
        if prev_block is None:
            print(
                f"sealed block {args.block - 1}, the predecessor of block {args.block}, is missing",
                file=sys.stderr,
            )
            return EXIT_VERIFICATION_FAILED
        saved.append((args.block - 1, prev_block))
        prev = prev_block.block_proof
    for block_id, block in saved:
        if block.block_id != block_id:  # a renamed or copied file would stand in for it
            print(f"the file of sealed block {block_id} holds block {block.block_id}", file=sys.stderr)
            return EXIT_VERIFICATION_FAILED
    registry = keyring.user_public_keys()
    report = audit_block(sealed, prev, keyring.sdp_box_private, params, registry)
    print(
        json.dumps(
            {
                "block_id": report.block_id,
                "ok": report.ok,
                "decrypt_ok": report.decrypt_ok,
                "proof_match": report.proof_match,
                "invalid_signature_positions": list(report.invalid_signature_positions),
            },
            indent=2,
        )
    )
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def cmd_tick(args) -> int:
    state = StateDir(args.state)
    clock = state.clock()  # read first: a damaged meta.json leaves the store untouched
    transitions = state.store(state.config()).tick(args.now)
    for t in transitions:
        print(f"epoch {t.epoch_id}: {t.from_state.name} -> {t.to_state.name} at {t.at}")
    if not transitions:
        print("no transitions due")
    state.save_clock(max(clock, args.now))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expunge",
        description="Verifiable-retention simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate synthetic readings")
    p.add_argument("--config", help="scenario config JSON")
    p.add_argument("--out", help="write canonical readings to this file")
    p.add_argument("--head", type=int, default=5, help="readings to preview")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run a full scenario")
    p.add_argument("--config", help="scenario config JSON")
    p.add_argument("--state", help="directory to persist run state")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run one desk-scale experiment")
    p.add_argument("--exp", type=int, required=True, choices=[1, 2, 3, 4, 5])
    p.add_argument("--config", help="scenario config JSON")
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="verify an epoch from saved state")
    p.add_argument("--state", required=True)
    p.add_argument("--time", type=int, required=True, help="instant or epoch id")
    p.add_argument("--role", choices=["user", "sdp"], default="user")
    p.add_argument("--device", type=bytes.fromhex, help="device id hex (user role)")
    p.add_argument("--now", type=int, help="verification clock; defaults to run end")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="audit a sealed query block")
    p.add_argument("--state", required=True)
    p.add_argument("--block", type=int, required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("tick", help="advance the retention scheduler (test mode)")
    p.add_argument("--state", required=True)
    p.add_argument("--now", type=int, required=True)
    p.set_defaults(func=cmd_tick)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExpungeError, EncodingError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL_ERROR


if __name__ == "__main__":
    sys.exit(main())
