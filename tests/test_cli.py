import json
import os
import subprocess
import sys

import pytest

import sonicauth
from helpers import load_signal, load_wav
from sonicauth.cli import main
from sonicauth.evaluation import fit_sigma
from sonicauth.protocol import RECORD_SAMPLES
from sonicauth.spectrum import detect_pair


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
        ["frrfar", "--sigma", "0.0702", "--seed", "1"],
        ["frrfar", "--sigma", "0.0702", "--config", "cfg.json"],
        ["auth", "--out", "x"],
        ["attack", "--kind", "zero", "--out", "x"],
    ],
    ids=["fit_sigma_out", "fit_sigma_env", "fit_sigma_bt_range", "frrfar_seed", "frrfar_config", "auth_out", "attack_out"],
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
    located = {}
    for device, keys in (("auth", ("l_aa", "l_av")), ("vouch", ("l_va", "l_vv"))):
        samples, rate = load_wav(str(dump / f"recording_{device}.wav"))
        outcomes = detect_pair(samples, *refs, sample_rate=rate)
        located.update(zip(keys, (o.location for o in outcomes)))
    assert located == transcript["locations"]


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
    blob = json.loads(capsys.readouterr().out)
    assert blob["accepts"] == 0


def test_attack_allfreq_runs_every_trial(capsys):
    """Trials that do not divide evenly over the 6 swept powers go to the
    first powers, one each: ``--trials 7`` runs 7 sessions, not 6."""
    assert main(["attack", "--kind", "allfreq", "--trials", "7", "--separation", "12"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert [cell["trials"] for cell in blob["cells"]] == [2, 1, 1, 1, 1, 1]


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


def test_bad_distance_list_exits_2(capsys):
    assert main(["range", "--distances", "abc", "--trials", "10"]) == 2


def test_compare_csv(capsys):
    assert main(["compare", "--distances", "0.5", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "method,distance_m,trials,measured,mean_abs_error_m"
    assert [line.split(",")[0] for line in lines[1:]] == ["two_way_freq", "two_way_xcorr", "one_way_echo"]


def test_multiuser_csv(capsys):
    assert main(["multiuser", "--pairs", "2", "--distances", "0.5", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == (
        "environment,distance_m,trials,measured,not_present,mean_abs_error_m,std_abs_error_m,mean_signed_error_m"
    )
    assert len(lines) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["multiuser", "--pairs", "0", "--trials", "1", "--distances", "0.5"], "pairs must be >= 1"),
        (
            ["compare", "--trials", "1", "--distances", "0.5", "--sigma-proc", "-1"],
            "sigma_proc_s must be in [0, 1.0] seconds, got -1.0",
        ),
        (["auth", "--distance", "0.5", "--config", "KERNEL"], f"{RECORD_SAMPLES}-sample recording is too short"),
        (["range", "--trials", "0", "--distances", "0.5"], "need at least one trial per cell, got trials=0"),
        (["range", "--trials", "1", "--distances", "nan"], "separation must be a finite, non-negative distance"),
        (["multiuser", "--trials", "1", "--distances", "-0.5"], "separation must be a finite, non-negative distance"),
        (["attack", "--kind", "allfreq", "--trials", "0"], "--trials must be at least 6, one per swept power, got 0"),
        (["attack", "--kind", "allfreq", "--trials", "5"], "--trials must be at least 6, one per swept power, got 5"),
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


def test_compare_with_a_delay_past_the_shortest_echo_recording(capsys):
    """At ``--sigma-proc 1`` the drawn processing delays spread over seconds;
    each echo's recording is as long as its own delay needs."""
    assert main(["compare", "--trials", "1", "--distances", "0.5", "--sigma-proc", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["two_way_freq", "two_way_xcorr", "one_way_echo"]
