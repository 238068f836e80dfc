"""Command-line front end for the simulation and evaluation harness.

Exit codes: 0 on success, 2 on configuration errors (bad arguments, bad
config files, an output path that cannot be written, refused before any
session runs): any ``ValueError`` a command raises is reported as one.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import wave
from dataclasses import replace

import numpy as np

from . import adversary as adv
from . import channel as ch
from . import evaluation as ev
from .protocol import PAIRING_RANGE_M, AuthPolicy, Endpoint, replay_session, run_authentication
from .signal import SAMPLE_RATE


def _parse_distances(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad distance list {text!r}") from exc


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _load_channel_cfg(args) -> ch.ChannelConfig:
    """The channel read from ``--config``, or the default channel, in the
    ``--env`` environment."""
    if not args.config:
        return ch.ChannelConfig(environment=args.env)
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    try:
        cfg = ch.config_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"bad channel config: {exc}") from exc
    return replace(cfg, environment=args.env)


def _check_outputs(args) -> None:
    """Refuse, before any session runs, an output the command could not
    write: ``--out`` is a file in an existing directory, and ``--wav-dump``
    is made here, with any missing parents."""
    out = getattr(args, "out", None)
    if out is not None and os.path.isdir(os.path.abspath(out)):  # "" names the working directory
        raise ValueError(f"cannot write {out}: it is a directory")
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ValueError(f"cannot write {out}: its directory does not exist")
    if getattr(args, "wav_dump", None) is not None:
        try:
            os.makedirs(args.wav_dump, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot make the directory {args.wav_dump}: {exc.strerror}") from None


def _emit(report: ev.ExperimentReport, out: str | None) -> None:
    if out is None:
        print(report.to_csv())
        return
    payload = report.to_json() if out.endswith(".json") else report.to_csv()
    with open(out, "w") as fh:
        fh.write(payload)
    print(f"wrote {out}")


def _cmd_auth(args) -> int:
    if args.distance < 0:  # False for nan, which the device's position check reports
        raise ValueError(f"--distance must be a non-negative distance in metres, got {args.distance}")
    cfg = _load_channel_cfg(args)
    rng = np.random.default_rng(args.seed)
    auth = Endpoint("auth", (0.0, 0.0))
    vouch = Endpoint("vouch", (args.distance, 0.0))
    _, transcript = run_authentication(auth, vouch, AuthPolicy(threshold_m=args.tau), rng, cfg)
    print(transcript.to_json())
    if args.wav_dump:
        _dump_session_wavs(args.wav_dump, cfg, transcript)
    return 0


def save_wav(path: str, samples: np.ndarray, sample_rate: float) -> None:
    """Write int16 samples, and no other dtype, as a mono 16-bit PCM WAV file."""
    if samples.dtype != np.int16:
        raise ValueError(f"WAV samples must be int16, got dtype {samples.dtype}")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(round(sample_rate)))
        fh.writeframes(samples.tobytes())


def _dump_session_wavs(directory: str, cfg: ch.ChannelConfig, transcript) -> None:
    """Write both reference signals and both recordings, rebuilt from the
    session's transcript, as WAV files, plus each signal's link header (its
    tone set and nominal powers) as JSON."""
    if transcript.playback_start is None:
        print("no WAV dump: the session ended before playback", file=sys.stderr)
        return
    sig_a, sig_v, rec_a, rec_v = replay_session(transcript, cfg)
    for device, sig, rec in (("auth", sig_a, rec_a), ("vouch", sig_v, rec_v)):
        save_wav(os.path.join(directory, f"reference_{device}.wav"), sig.samples, SAMPLE_RATE)
        with open(os.path.join(directory, f"reference_{device}.json"), "wb") as fh:
            fh.write(sig.header())
        save_wav(os.path.join(directory, f"recording_{device}.wav"), rec, transcript.sample_rates[device])
    print(f"wrote WAV dumps to {directory}")


def _cmd_frrfar(args) -> int:
    model = ev.ErrorModel(args.sigma, args.ds, args.bt_range)
    _emit(ev.frr_far_table(_parse_distances(args.tau_grid), model), args.out)
    return 0


def _cmd_fit_sigma(args) -> int:
    sigma = ev.fit_sigma(args.frr, args.tau)
    print(json.dumps({"sigma_m": sigma, "tau_m": args.tau, "frr": args.frr}))
    return 0


def _cmd_attack(args) -> int:
    """One campaign per scenario, one row each: ``allfreq`` sweeps six
    powers, and the first ``trials % 6`` of them run one trial more, so that
    exactly ``trials`` sessions run. Every campaign runs on the one channel
    the config is read into once."""
    if args.kind == "allfreq":
        scenarios = [adv.AllFrequency(per_tone_power=p) for p in ev.all_frequency_power_sweep(6)]
        if args.trials < len(scenarios):
            raise ValueError(f"--trials must be at least {len(scenarios)}, one per swept power, got {args.trials}")
    else:
        scenarios = [adv.ZeroEffort() if args.kind == "zero" else adv.GuessingReplay()]
    per_scenario, extra = divmod(args.trials, len(scenarios))
    channel_cfg = _load_channel_cfg(args)
    rows = []
    for i, scenario in enumerate(scenarios):
        report = ev.attack_campaign(
            scenario,
            per_scenario + (i < extra),
            args.seed,
            separation_m=args.separation,
            environment=args.env,
            channel_cfg=channel_cfg,
        )
        rows += report.rows
    print(ev.ExperimentReport(rows=rows, meta=report.meta).to_json())
    return 0


def _cmd_compare(args) -> int:
    report = ev.detector_comparison(
        _parse_distances(args.distances),
        args.trials,
        args.seed,
        environment=args.env,
        sigma_proc_s=args.sigma_proc,
        channel_cfg=_load_channel_cfg(args),
    )
    _emit(report, args.out)
    return 0


def _cmd_range(args) -> int:
    report = ev.multiuser_campaign(
        args.pairs,
        _parse_distances(args.distances),
        args.trials,
        args.seed,
        environment=args.env,
        channel_cfg=_load_channel_cfg(args),
        min_trials=min(args.trials, ev.DEFAULT_MIN_TRIALS),
    )
    _emit(report, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Takes every argument that starts like a negative number (``-1e3``,
    ``-0.5,1.0``) as a value. argparse itself takes only ``-1000`` and
    ``-1.5`` for numbers and reads the rest as unknown options; no flag here
    starts with a digit. Its subcommands' parsers are built by this class
    too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sonicauth",
        description="Acoustic ranging and proximity-authentication simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def session_flags(p):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--env", default="office", choices=sorted(ch.ENVIRONMENTS))
        p.add_argument("--config", help="JSON channel config file")

    def out_flag(p):
        p.add_argument("--out", help="output file (.csv or .json)")

    p = sub.add_parser("range", help="ranging-error campaign per distance, with --pairs device pairs at once")
    session_flags(p)
    out_flag(p)
    p.add_argument("--pairs", type=int, default=1)
    p.add_argument("--distances", default="0.5,1.0,1.5,2.0")
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("auth", help="one authentication session")
    session_flags(p)
    p.add_argument("--distance", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--wav-dump", help="directory for recordings and reference signals")
    p.set_defaults(func=_cmd_auth)

    p = sub.add_parser("frrfar", help="analytic FRR/FAR table")
    out_flag(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau-grid", default="0.5,1.0,1.5,2.0", dest="tau_grid")
    p.add_argument("--ds", type=float, default=ev.DETECTION_RANGE_M)
    p.add_argument("--bt-range", type=float, default=PAIRING_RANGE_M, dest="bt_range")
    p.set_defaults(func=_cmd_frrfar)

    p = sub.add_parser("fit-sigma", help="fit sigma to a target FRR")
    p.add_argument("--frr", type=float, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.set_defaults(func=_cmd_fit_sigma)

    p = sub.add_parser("attack", help="attack campaign")
    session_flags(p)
    p.add_argument("--kind", choices=["zero", "guessing", "allfreq"], required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--separation", type=float, default=3.0)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("compare", help="detector comparison")
    session_flags(p)
    out_flag(p)
    p.add_argument("--distances", default="1.0")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--sigma-proc", type=float, default=0.02, dest="sigma_proc")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
