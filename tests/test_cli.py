import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sonicauth
from helpers import load_signal, load_wav, session_locations
from sonicauth import cli
from sonicauth import evaluation as ev
from sonicauth.channel import ChannelConfig
from sonicauth.cli import main
from sonicauth.evaluation import fit_sigma
from sonicauth.protocol import RECORD_SAMPLES, AuthPolicy, Endpoint, run_authentication


def test_package_runs_with_scipy_blocked():
    """numpy is the package's one dependency. In an interpreter where every
    scipy import fails, a nominal-rate session (``auth``), a skewed-clock
    session, the analytic model (``frrfar``), its fit (``fit-sigma``) and the
    detector comparison with its xcorr and echo baselines (``compare``) all
    run, and the fit returns the same float as here."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from sonicauth.cli import main\n"
        "from sonicauth.evaluation import fit_sigma\n"
        "from sonicauth.channel import ChannelConfig\n"
        "from sonicauth.protocol import AuthPolicy, Endpoint, run_authentication\n"
        "skewed = Endpoint('v', (0.8, 0.0), sample_rate=44_100.0 * 1.001)\n"
        "rng = np.random.default_rng(14)\n"
        "_, t = run_authentication(Endpoint('a', (0.0, 0.0)), skewed, AuthPolicy(1.5), rng, ChannelConfig())\n"
        "assert t.verdict == 'accept', t.reason\n"
        "for argv in (\n"
        "    ['auth', '--distance', '1.0'],\n"
        "    ['frrfar', '--sigma', '0.0702'],\n"
        "    ['fit-sigma', '--frr', '0.028'],\n"
        "    ['compare', '--trials', '1', '--distances', '0.5'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "print(repr(fit_sigma(0.028, 1.0)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sonicauth.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.strip().splitlines()[-1]) == fit_sigma(0.028, 1.0)


def test_fit_sigma_stdout(capsys):
    assert main(["fit-sigma", "--frr", "0.028", "--tau", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma_m"] == pytest.approx(0.0702, abs=0.001)


def test_fit_sigma_unreachable_frr_exits_2(capsys):
    """At sigma = 1e-4 m, the bracket's low end, the FRR at 1 m is already
    3.99e-5: a lower target has no sigma."""
    assert main(["fit-sigma", "--frr", "3e-5"]) == 2
    assert "config error: no sigma in (1e-4, 1) reaches the requested FRR" in capsys.readouterr().err


def test_frrfar_csv_output(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["frrfar", "--sigma", "0.0702", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau_m,frr,far"
    assert len(lines) == 5


def test_frrfar_bad_sigma_exits_2(capsys):
    for sigma in ("-1.0", "nan", "inf"):
        assert main(["frrfar", "--sigma", sigma]) == 2
        assert f"config error: sigma must be finite and positive, got {float(sigma)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "distance, message",
    [
        ("nan", "device 'vouch' position must be finite"),
        ("inf", "device 'vouch' position must be finite"),
        ("1e308", "distance between (0.0, 0.0) and (1e+308, 0.0) is too large to compute"),
    ],
    ids=["nan", "inf", "1e308"],
)
def test_auth_non_finite_distance_exits_2(distance, message, capsys):
    """A vouching device at a non-finite position, or so far away that the
    distance overflows, is a configuration error, not a session printed with
    ``NaN`` or ``Infinity`` in its JSON."""
    assert main(["auth", "--distance", distance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["--distance", "-1e3"], ["--distance=-1e3"], ["--distance", "-1000"], ["--distance", "-1.0E+3"]],
    ids=["exponent", "exponent_after_equals", "integer", "upper_case_exponent"],
)
def test_auth_negative_distance_exits_2(argv, capsys):
    """A negative distance in exponent form is read as the flag's value, as
    ``-1000`` is, not as an unknown option; the distance check then rejects
    it."""
    assert main(["auth", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: --distance must be a non-negative distance in metres, got -1000.0" in captured.err


@pytest.mark.parametrize("distances", ["-0.5,1.0", "-1e3", "-.5"])
def test_distance_list_starting_negative_exits_2(distances, capsys):
    """A distance list whose first entry is negative is read as the flag's
    value and reaches the campaign's separation check."""
    assert main(["range", "--trials", "1", "--distances", distances]) == 2
    assert "config error: separation must be a finite, non-negative distance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit-sigma", "--frr", "0.028", "--out", "x"],
        ["fit-sigma", "--frr", "0.028", "--env", "home"],
        ["fit-sigma", "--frr", "0.028", "--bt-range", "10"],
        ["fit-sigma", "--frr", "0.028", "--ds", "5"],
        ["frrfar", "--sigma", "0.0702", "--seed", "1"],
        ["frrfar", "--sigma", "0.0702", "--config", "cfg.json"],
        ["auth", "--out", "x"],
        ["attack", "--kind", "zero", "--out", "x"],
    ],
    ids=[
        "fit_sigma_out", "fit_sigma_env", "fit_sigma_bt_range", "fit_sigma_ds", "frrfar_seed", "frrfar_config",
        "auth_out", "attack_out",
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_auth_json_transcript(capsys):
    assert main(["auth", "--distance", "0.5", "--tau", "1.0", "--seed", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdict"] == "accept"


def test_auth_wav_dump(tmp_path, capsys):
    dump = tmp_path / "dump"
    code = main(["auth", "--distance", "0.5", "--seed", "3", "--wav-dump", str(dump)])
    assert code == 0
    transcript = json.loads(capsys.readouterr().out.splitlines()[0])
    names = {p.name for p in dump.iterdir()}
    assert {"recording_auth.wav", "recording_vouch.wav", "reference_auth.wav"} <= names
    # the dumped files reproduce the printed session's four locations exactly;
    # each reference WAV and its JSON link header make up one link payload
    refs = [load_signal(str(dump / f"reference_{d}.wav"), str(dump / f"reference_{d}.json")) for d in ("auth", "vouch")]
    recordings, rates = zip(*(load_wav(str(dump / f"recording_{device}.wav")) for device in ("auth", "vouch")))
    speed = ChannelConfig().speed_of_sound
    assert session_locations(recordings, refs, rates, transcript["playback_gap"], speed) == transcript["locations"]


def test_range_campaign_json(tmp_path):
    out = tmp_path / "range.json"
    code = main(
        ["range", "--distances", "0.5", "--trials", "10", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["rows"][0]["distance_m"] == 0.5


def test_attack_zero_effort(capsys):
    assert main(["attack", "--kind", "zero", "--trials", "3", "--separation", "12"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row == {
        "scenario": "ZeroEffort",
        "trials": 3,
        "accepts": 0,
        "not_paired": 3,
        "signal_not_present": 0,
        "distance_exceeded": 0,
    }


def test_attack_allfreq_runs_every_trial(capsys):
    """Trials that do not divide evenly over the 6 swept powers go to the
    first powers, one each: ``--trials 7`` runs 7 sessions, not 6."""
    assert main(["attack", "--kind", "allfreq", "--trials", "7", "--separation", "12"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert [row["trials"] for row in blob["rows"]] == [2, 1, 1, 1, 1, 1]


def test_attack_allfreq_reads_the_config_once(tmp_path, monkeypatch, capsys):
    """The sweep's 6 campaigns share one channel: ``--config`` is read once, not
    once per swept power."""
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    loads = []
    load = cli._load_channel_cfg

    def counting(args):
        loads.append(args.config)
        return load(args)

    monkeypatch.setattr(cli, "_load_channel_cfg", counting)
    argv = ["attack", "--kind", "allfreq", "--trials", "6", "--separation", "12", "--config", str(cfg)]
    assert main(argv) == 0
    assert loads == [str(cfg)]
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 6


def test_env_applies_to_the_config_file(tmp_path, capsys):
    """``--env street --config x.json`` runs the file's channel in the street:
    the command sets the environment of the config it reads."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"speed_of_sound": 343.0}')
    street = ChannelConfig(speed_of_sound=343.0, environment="street")
    assert main(["auth", "--distance", "0.5", "--env", "street", "--config", str(cfg)]) == 0
    _, want = run_authentication(
        Endpoint("auth", (0.0, 0.0)), Endpoint("vouch", (0.5, 0.0)), AuthPolicy(), np.random.default_rng(0), street
    )
    assert capsys.readouterr().out == want.to_json() + "\n"
    out = tmp_path / "range.json"
    argv = ["range", "--trials", "1", "--distances", "0.5", "--env", "street", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    report = ev.multiuser_campaign(1, (0.5,), 1, 0, channel_cfg=street, environment="street", min_trials=1)
    assert out.read_text() == report.to_json()


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"warp_drive": 9}')
    assert main(["range", "--trials", "10", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "config, message",
    [
        ("[1]", "channel config must be an object, got [1]"),
        ('{"wall": {}}', "channel config wall lacks the 'plane_x' key"),
        ('{"speed_of_sound": true}', "channel config field 'speed_of_sound' must be a positive number, got True"),
        ('{"environment": "street"}', "unknown channel config keys: ['environment']"),
        ('{"noise_seed": 5}', "unknown channel config keys: ['noise_seed']"),
        ('{"channel": {"gain_at_1m": 0.2}, "speed_of_sound": 1}', "unknown channel config keys: ['channel']"),
    ],
    ids=["list", "wall_empty", "speed_bool", "environment", "noise_seed", "channel_wrapper"],
)
@pytest.mark.parametrize("command", [["range", "--trials", "1", "--distances", "0.5"], ["auth"]])
def test_malformed_config_exits_2(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main([*command, "--config", str(cfg)]) == 2
    assert f"config error: bad channel config: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"attenuation_exponent": 2000}', "attenuation_exponent 2000.0 takes the path gain at 0.1 m"),
        ('{"attenuation_exponent": -1e308}', "attenuation_exponent -1e+308 takes the path gain at 0.1 m"),
        ('{"wall": {"plane_x": 0.25, "attenuation_db": -1e308}}', "wall_attenuation_db -1e+308 takes the path gain at 0.5 m"),
        ('{"gain_at_1m": 1e308}', "gain_at_1m 1e+308 takes the path gain at 0.1 m"),
    ],
    ids=["exponent_underflows_the_divisor", "exponent_overflows_the_divisor", "wall_overflows", "gain_overflows"],
)
def test_path_gain_out_of_float_range_exits_2(tmp_path, capsys, config, message):
    """A config whose path gain leaves the float range names its field, with
    no numpy warning: before the check the exponents raised
    ``ZeroDivisionError`` and ``OverflowError``, the wall ``OverflowError``,
    and the gain ran a session on NaN samples."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["auth", "--distance", "0.5", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{message} out of the float range" in err


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_bad_seed_names_its_flag(capsys, seed):
    """Before the seed had its own argument type, ``-1`` reached numpy and
    exited with its bare 'expected non-negative integer'."""
    with pytest.raises(SystemExit) as exc:
        main(["auth", "--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in capsys.readouterr().err


def test_bad_distance_list_exits_2(capsys):
    assert main(["range", "--distances", "abc", "--trials", "10"]) == 2


def test_compare_csv(capsys):
    assert main(["compare", "--distances", "0.5", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "method,distance_m,trials,measured,mean_abs_error_m"
    assert [line.split(",")[0] for line in lines[1:]] == ["two_way_freq", "two_way_xcorr", "one_way_echo"]


def test_multiuser_csv(capsys):
    assert main(["range", "--pairs", "2", "--distances", "0.5", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == (
        "environment,distance_m,trials,measured,not_present,mean_abs_error_m,std_abs_error_m,mean_signed_error_m"
    )
    assert len(lines) == 2


def test_range_pairs_sets_the_interferers(tmp_path, capsys):
    """``range --pairs N`` runs N - 1 interfering pairs; by default one pair
    runs alone. No ``multiuser`` subcommand is left beside it."""
    for argv, interferers in (([], 0), (["--pairs", "2"], 1)):
        out = tmp_path / f"range{interferers}.json"
        assert main(["range", *argv, "--trials", "1", "--distances", "0.5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["interferer_pairs"] == interferers
    with pytest.raises(SystemExit) as exc:
        main(["multiuser", "--trials", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'multiuser'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["range", "--pairs", "0", "--trials", "1", "--distances", "0.5"], "pairs must be >= 1"),
        (
            ["compare", "--trials", "1", "--distances", "0.5", "--sigma-proc", "-1"],
            "sigma_proc_s must be in [0, 1.0] seconds, got -1.0",
        ),
        (["auth", "--distance", "0.5", "--config", "KERNEL"], f"{RECORD_SAMPLES}-sample recording is too short"),
        (["range", "--trials", "0", "--distances", "0.5"], "need at least one trial per cell, got trials=0"),
        (["range", "--trials", "1", "--distances", "nan"], "separation must be a finite, non-negative distance"),
        (["range", "--pairs", "3", "--trials", "1", "--distances", "-0.5"], "separation must be a finite, non-negative distance"),
        (["attack", "--kind", "allfreq", "--trials", "0"], "--trials must be at least 6, one per swept power, got 0"),
        (["attack", "--kind", "allfreq", "--trials", "5"], "--trials must be at least 6, one per swept power, got 5"),
        (["frrfar", "--sigma", "0.07", "--bt-range", "inf"], "need 0 < detect_range < pairing_range < inf, got 2.5 and inf"),
    ],
    ids=[
        "no_pairs",
        "negative_sigma_proc",
        "long_kernel",
        "no_trials",
        "nan_distance",
        "negative_distance",
        "allfreq_no_trials",
        "allfreq_fewer_trials_than_powers",
        "infinite_pairing_range",
    ],
)
def test_value_error_from_a_command_exits_2(tmp_path, capsys, argv, message):
    """A bad argument or config that only the campaign or session catches is
    reported as a config error, not as a traceback. ``KERNEL`` is a channel
    config whose smoothing kernel is as long as the recording."""
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"smoothing_kernel": [1.0] * RECORD_SAMPLES}))
    assert main([str(kernel) if arg == "KERNEL" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["range", "--trials", "1", "--distances", "0.5", "--out", "{missing}/x.csv"], "its directory does not exist"),
        (["range", "--pairs", "3", "--trials", "1", "--distances", "0.5", "--out", "{missing}/x.json"], "its directory does not exist"),
        (["compare", "--trials", "1", "--distances", "0.5", "--out", "{file}/x.csv"], "its directory does not exist"),
        (["frrfar", "--sigma", "0.07", "--out", "{tmp}"], "it is a directory"),
        (["frrfar", "--sigma", "0.07", "--out", ""], "it is a directory"),
    ],
    ids=[
        "range_missing_directory",
        "multiuser_missing_directory",
        "compare_under_a_file",
        "frrfar_onto_a_directory",
        "frrfar_empty_path",
    ],
)
def test_unwritable_out_exits_2_before_any_session(tmp_path, monkeypatch, capsys, argv, message):
    """An ``--out`` file the command could not write is refused with a
    one-line config error before any session runs, not after the whole
    campaign with a traceback. ``{tmp}`` is a directory, ``{file}`` a file in
    it and ``{missing}`` a path in it that does not exist."""
    paths = {"tmp": tmp_path, "file": tmp_path / "file", "missing": tmp_path / "missing"}
    paths["file"].write_text("")
    _refuse_sessions(monkeypatch)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: cannot write {argv[-1].format(**paths)}: {message}\n"
    assert not paths["missing"].exists()


@pytest.mark.parametrize("where, message", [("file/wav", "Not a directory"), ("file", "File exists")])
def test_wav_dump_that_cannot_be_made_exits_2_before_the_session(tmp_path, monkeypatch, capsys, where, message):
    """A ``--wav-dump`` directory is made before the session runs; one that
    cannot be, under a file or onto one, is a one-line config error."""
    (tmp_path / "file").write_text("")
    _refuse_sessions(monkeypatch)
    assert main(["auth", "--distance", "0.5", "--wav-dump", str(tmp_path / where)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: cannot make the directory {tmp_path / where}: {message}\n"


def _refuse_sessions(monkeypatch):
    """Replace the session at both names it is called by with one that fails
    the test."""

    def no_session(*args, **kwargs):
        raise AssertionError("a session ran")

    monkeypatch.setattr(cli, "run_authentication", no_session)
    monkeypatch.setattr(sonicauth.evaluation, "run_authentication", no_session)
