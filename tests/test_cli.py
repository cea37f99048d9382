import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ralab import analysis
from ralab.cli import main, prepare
from ralab.scenario import Scenario, emit_scenario

ROOT = Path(__file__).resolve().parent.parent
FULL_SCALE = ROOT / "scenarios" / "full_scale.scn"

TINY_SIM = [
    "--set", "duration_ms=2000",
    "--set", "traffic.twostep.n_event=5",
    "--set", "n_cr=4",
    "--set", "estimator_mode=off",
]


def write_scenario(tmp_path, sc: Scenario):
    path = tmp_path / "case.scn"
    path.write_text(emit_scenario(sc), encoding="utf-8")
    return path


class TestExitCodes:
    def test_simulate_success(self, capsys):
        assert main(["--mode", "simulate", *TINY_SIM]) == 0
        out = capsys.readouterr().out
        assert "twostep_event:" in out

    def test_parse_error_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("n_crx = 4\n", encoding="utf-8")
        assert main(["--mode", "simulate", "--scenario", str(bad)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_file_is_exit_1(self, capsys):
        assert main(["--mode", "simulate", "--scenario", "/nonexistent.scn"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_override_is_exit_1(self, capsys):
        assert main(["--mode", "simulate", "--set", "bogus=1"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_bad_grid_is_exit_1(self, capsys):
        assert main(["--mode", "optimize", "--grid", "n_cb=2..5",
                     "--set", "traffic.fourstep.n_ue=100"]) == 1
        assert "--grid" in capsys.readouterr().err

    def test_bad_mode_is_exit_1(self, capsys):
        assert main(["--mode", "dance"]) == 1

    def test_analyze_needs_population(self, capsys):
        assert main(["--mode", "analyze"]) == 1
        assert "population" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "traffic.fourstep.rate_per_s=100000",
        "traffic.twostep.event_rate_per_s=100000",
    ])
    def test_rate_beyond_float_range_is_exit_1(self, override, tmp_path, capsys):
        # rate * (t_up + t_inactive) = 800: the connected state's leave
        # probability exp(-800) underflows to 0, which the solvers report
        # as SolverError
        argv = ["--mode", "analyze", "--scenario", str(FULL_SCALE),
                "--set", override, "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rate_per_ms 100 too high")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["analyze", "optimize"])
    @pytest.mark.parametrize("population, key", [
        ("traffic.fourstep.n_ue", "traffic.fourstep.rate_per_s"),
        ("traffic.twostep.n_event", "traffic.twostep.event_rate_per_s"),
    ])
    @pytest.mark.parametrize("rate", ["92500", "90000"])
    def test_subnormal_leave_probability_is_exit_1(self, mode, population, key, rate,
                                                   capsys):
        # rate * (t_up + t_inactive) = 740 or 720: exp(-740) and exp(-720)
        # are subnormal, so the connected weight 1 / leave overflows
        argv = ["--mode", mode, "--set", f"{population}=5", "--set", f"{key}={rate}"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: rate_per_ms {float(rate) / 1000:g} too high")
        assert captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_leave_probability_just_above_the_normal_range_analyzes(self, capsys):
        # exp(-704) is still a normal float, and the chain solves
        argv = ["--mode", "analyze", "--set", "traffic.fourstep.n_ue=5",
                "--set", "traffic.fourstep.rate_per_s=88000"]
        assert main(argv) == 0
        assert "fourstep: tau=7.94579610595e-305 " in capsys.readouterr().out

    @pytest.mark.parametrize("population, key", [
        ("traffic.fourstep.n_ue", "traffic.fourstep.rate_per_s"),
        ("traffic.twostep.n_event", "traffic.twostep.event_rate_per_s"),
    ])
    def test_tiny_rate_analyzes(self, population, key, capsys):
        # the connected state's leave probability rounds to 1 at this rate
        argv = ["--mode", "analyze", "--set", f"{population}=5",
                "--set", f"{key}=1e-300"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "total_probability=1" in out

    @pytest.mark.parametrize("mode", ["simulate", "analyze"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("population, key", [
        ("traffic.fourstep.n_ue", "traffic.fourstep.rate_per_s"),
        ("traffic.twostep.n_event", "traffic.twostep.event_rate_per_s"),
    ])
    def test_non_finite_rate_is_exit_1(self, mode, value, population, key,
                                       tmp_path, capsys):
        argv = ["--mode", mode, "--set", f"{population}=100",
                "--set", f"{key}={value}", "--set", "duration_ms=1000",
                "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"must be finite, got {value}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode, overrides, key", [
        *[(mode, ["traffic.fourstep.n_ue=100", f"{key}=0"], key)
          for mode in ("analyze", "validate")
          for key in ("rar_window_ms", "backoff_avg_ms", "conres_timer_ms")],
        ("optimize", ["traffic.fourstep.n_ue=100", "rar_window_ms=0"], "rar_window_ms"),
        ("analyze", ["traffic.twostep.n_event=100", "t_up_ms=0", "t_inactive_ms=0"],
         "t_up_ms"),
    ])
    def test_zero_duration_outside_the_models_is_exit_1(self, mode, overrides, key,
                                                        capsys):
        # the simulator runs these scenarios; the load models cannot take them
        argv = ["--mode", mode, "--set", "duration_ms=1000"]
        for pair in overrides:
            argv += ["--set", pair]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite and > 0, got 0.0")
        assert err.count("\n") == 1
        assert main(["--mode", "simulate", *argv[2:]]) == 0

    def test_validate_pass_is_exit_0(self, capsys):
        argv = [
            "--mode", "validate",
            "--set", "duration_ms=200000",
            "--set", "traffic.fourstep.n_ue=200",
            "--set", "traffic.fourstep.rate_per_s=1.0",
            "--set", "n_cr=29",
            "--seed", "1",
        ]
        assert main(argv) == 0
        assert "PASS fourstep" in capsys.readouterr().out

    @pytest.mark.parametrize("population, key, name", [
        ("traffic.fourstep.n_ue", "traffic.fourstep.rate_per_s", "fourstep"),
        ("traffic.twostep.n_event", "traffic.twostep.event_rate_per_s", "twostep_event"),
    ])
    def test_validate_run_too_short_to_see_a_packet_is_exit_1(self, population, key,
                                                              name, capsys):
        # 5 devices at 1e-300/s over 100 ms expect 5e-301 packets: the
        # relative error has no resolution there, which is not a model miss
        argv = ["--mode", "validate", "--set", f"{population}=5",
                "--set", f"{key}=1e-300", "--set", "duration_ms=100"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: validate expects 5e-301 {name} packets " \
            "over the run, fewer than 1\n"

    def test_validate_miss_is_exit_2(self, capsys, monkeypatch):
        # force a wrong prediction: the exit-code contract is what is under
        # test here, the physics agreement is criterion 4's job
        real = analysis.load_fourstep
        monkeypatch.setattr(analysis, "load_fourstep", lambda sol: real(sol) * 2)
        argv = [
            "--mode", "validate",
            "--set", "duration_ms=50000",
            "--set", "traffic.fourstep.n_ue=100",
            "--seed", "1",
        ]
        assert main(argv) == 2
        assert "FAIL fourstep" in capsys.readouterr().out


    @pytest.mark.parametrize("mode", ["analyze", "simulate", "validate", "optimize"])
    @pytest.mark.parametrize("form", ["set", "duration-ms", "file"])
    def test_duration_beyond_the_slot_count_is_exit_1(self, mode, form, tmp_path):
        # 1e308 ms is finite, but its slot count is not
        argv = {
            "set": ["--set", "duration_ms=1e308"],
            "duration-ms": ["--duration-ms", "1e308"],
            "file": ["--scenario", str(tmp_path / "case.scn")],
        }[form]
        (tmp_path / "case.scn").write_text("duration_ms = 1e308\n", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "ralab.cli", "--mode", mode, *argv,
             "--set", "traffic.fourstep.n_ue=10"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: duration_ms gives an infinite slot count: 1e+308\n"
        assert [line.startswith("error:") for line in proc.stderr.splitlines()] == [True]

    @pytest.mark.parametrize("pair, key", [
        ("rar_window_ms=1e308", "rar_window_ms"),
        ("backoff_avg_ms=6e307", "backoff_avg_ms"),
        ("conres_timer_ms=1e308", "conres_timer_ms"),
        ("t_initial_ms=1e308", "t_initial_ms"),
        ("traffic.twostep.period_ms=1e308", "twostep_period_ms"),
        ("traffic.twostep.event_rate_per_s=1e-310", "twostep_event_rate_per_s"),
        ("traffic.fourstep.rate_per_s=1e-310", "fourstep_rate_per_s"),
    ])
    def test_time_beyond_the_slot_count_is_exit_1(self, pair, key, capsys):
        # finite times whose slot counts are not: the engine counts them in
        # slots, the load models in ms
        argv = ["--set", "duration_ms=200", "--set", "t_tti_ms=0.125",
                "--set", "traffic.twostep.n_periodic=2", "--set", "traffic.twostep.n_event=2",
                "--set", "traffic.fourstep.n_ue=2", "--set", pair]
        assert main(["--mode", "simulate", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} = ") and "beyond the float range" in err
        assert err.count("\n") == 1
        assert main(["--mode", "analyze", *argv]) == 0

    @pytest.mark.parametrize("mode", ["analyze", "optimize"])
    @pytest.mark.parametrize("overrides, key", [
        # the idle state and one preamble state already hold 2e308 ms
        (["traffic.fourstep.n_ue=1", "t_tti_ms=1e308", "duration_ms=1e308"], "t_tti_ms"),
        (["traffic.twostep.n_event=5", "t_tti_ms=1e308", "duration_ms=1e308"], "t_tti_ms"),
        # a failed step's hold: response window or contention timer, then backoff
        (["traffic.fourstep.n_ue=5", "rar_window_ms=1e308", "backoff_avg_ms=1e308"],
         "rar_window_ms"),
        (["traffic.fourstep.n_ue=5", "conres_timer_ms=1e308", "backoff_avg_ms=1e308"],
         "conres_timer_ms"),
        (["traffic.twostep.n_event=5", "t_up_ms=1e308", "t_inactive_ms=1e308"], "t_up_ms"),
    ], ids=["fourstep_slot", "twostep_slot", "fourstep_miss", "fourstep_collision",
            "connected"])
    def test_holding_time_beyond_the_float_range_is_exit_1(self, mode, overrides, key,
                                                           capsys):
        argv = ["--mode", mode]
        for pair in overrides:
            argv += ["--set", pair]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} = 1e+308 gives a model holding time " \
            "beyond the float range\n"

    @pytest.mark.parametrize("mode", ["analyze", "optimize"])
    def test_event_packets_per_slot_beyond_the_float_range_is_exit_1(self, mode, capsys):
        # 50 packets per ms in slots of 1e307 ms: the packets per slot
        # overflow, and the mean slots between packets read 0
        argv = ["--mode", mode, "--set", "traffic.twostep.n_event=100",
                "--set", "traffic.twostep.event_rate_per_s=50000",
                "--set", "t_tti_ms=1e307", "--set", "duration_ms=1e308"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: t_tti_ms = 1e+307 gives event packets per slot " \
            "beyond the float range\n"


class TestReportFiles:
    def test_simulate_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["--mode", "simulate", *TINY_SIM, "--out", str(out)]) == 0

        ecdf = (out / "latency_ecdf.csv").read_text(encoding="utf-8")
        assert ecdf.startswith("class,latency_ms,cum_prob\n")
        assert ecdf.endswith("\n")
        assert any(line.startswith("twostep_event,")
                   for line in ecdf.splitlines()[1:])

        load = (out / "load.csv").read_text(encoding="utf-8")
        assert load.startswith("class,necessary,unnec_failed,unnec_rar,unnec_grant\n")
        assert load.endswith("\n")

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["mode"] == "simulate"
        assert summary["seeds"] == [1]
        cls = summary["classes"]["twostep_event"]
        assert cls["generated"] == cls["delivered"] + cls["failed"] + cls["pending"]
        quant = cls["quantiles"]
        for key in ("q0.9", "q0.99", "q0.999", "q0.9999", "q0.99999"):
            assert key in quant
        assert summary["scenario"]["n_cr"] == "4"

    def test_empty_population_gives_header_only_ecdf(self, tmp_path):
        out = tmp_path / "reports"
        assert main(["--mode", "simulate", "--set", "duration_ms=100",
                     "--out", str(out)]) == 0
        assert (out / "latency_ecdf.csv").read_text(encoding="utf-8") == \
            "class,latency_ms,cum_prob\n"

    def test_csv_stable_across_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--mode", "simulate", *TINY_SIM, "--seed", "42",
                         "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("latency_ecdf.csv", "load.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_floats_serialized_at_12_digits(self, tmp_path):
        out = tmp_path / "reports"
        main(["--mode", "analyze", "--set", "traffic.fourstep.n_ue=100",
              "--out", str(out)])
        text = (out / "summary.json").read_text(encoding="utf-8")
        payload = json.loads(text)
        tau = payload["fourstep"]["tau"]
        assert tau == float(format(tau, ".12g"))


class TestSeedPooling:
    def test_multi_seed_runs_are_pooled(self, tmp_path):
        single = tmp_path / "one"
        double = tmp_path / "two"
        main(["--mode", "simulate", *TINY_SIM, "--seed", "1", "--out", str(single)])
        main(["--mode", "simulate", *TINY_SIM, "--seed", "1", "2",
              "--out", str(double)])
        s1 = json.loads((single / "summary.json").read_text(encoding="utf-8"))
        s2 = json.loads((double / "summary.json").read_text(encoding="utf-8"))
        assert s2["seeds"] == [1, 2]
        assert len(s2["per_seed"]) == 2
        assert s2["per_seed"][0]["classes"]["twostep_event"]["delivered"] == \
            s1["classes"]["twostep_event"]["delivered"]
        assert s2["classes"]["twostep_event"]["generated"] > \
            s1["classes"]["twostep_event"]["generated"]

    @pytest.mark.parametrize("mode", ["simulate", "validate"])
    def test_repeated_seed_is_exit_1(self, mode, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--mode", mode, *TINY_SIM, "--seed", "3", "1", "3", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: seed 3 given more than once\n"
        assert not out.exists()

    def test_out_of_range_seed_is_exit_1(self, capsys):
        assert main(["--mode", "simulate", *TINY_SIM, "--seed", "-3"]) == 1


class TestOptimizeMode:
    def test_grid_restricts_sweep_and_writes_table(self, tmp_path, capsys):
        out = tmp_path / "opt"
        argv = [
            "--mode", "optimize",
            "--set", "traffic.fourstep.n_ue=500",
            "--set", "traffic.fourstep.rate_per_s=1.0",
            "--set", "traffic.twostep.n_event=30",
            "--grid", "n_cr=2..10",
            "--out", str(out),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "n_cr* =" in printed

        table = (out / "split.csv").read_text(encoding="utf-8").splitlines()
        assert table[0] == "n_cr,n_cb,feasible,p_fail,load_fourstep,load_twostep,objective"
        rows = [line.split(",") for line in table[1:]]
        assert [int(r[0]) for r in rows] == list(range(2, 11))
        assert all(int(r[0]) + int(r[1]) == 54 for r in rows)

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert 2 <= summary["n_cr_star"] <= 10

    @pytest.mark.parametrize("grid", ["n_cr=60..70", "n_cr=2..55"])
    def test_grid_beyond_pool_is_exit_1(self, grid, tmp_path, capsys):
        # the default pool is n_total - n_cf = 64 - 10 = 54 preambles
        argv = ["--mode", "optimize", "--set", "traffic.fourstep.n_ue=5",
                "--grid", grid, "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid") and "= 54)" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "split.csv").exists()

    def test_scenario_file_input(self, tmp_path, capsys):
        sc = Scenario(fourstep_n_ue=300, fourstep_rate_per_s=1.0)
        path = write_scenario(tmp_path, sc)
        assert main(["--mode", "analyze", "--scenario", str(path)]) == 0
        assert "fourstep:" in capsys.readouterr().out


def readme_commands() -> list[str]:
    """Every ``ralab`` command in README's ``sh`` blocks, continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [
        " ".join(line.split())
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("ralab ")
    ]


class TestReadmeCommands:
    def test_readme_shows_every_mode(self):
        modes = {re.search(r"--mode (\w+)", cmd).group(1) for cmd in readme_commands()}
        assert modes == {"simulate", "analyze", "optimize", "validate"}

    @pytest.mark.parametrize("command", readme_commands())
    def test_command_parses_and_loads(self, command, monkeypatch):
        # the CLI's own parser, scenario file and --set handling; no run
        monkeypatch.chdir(ROOT)
        prepare(shlex.split(command)[1:])


def test_import_loads_only_numpy_dependencies():
    # the runtime needs only numpy; scipy and the test libraries cost import
    # time on every CLI start
    code = ("import sys, ralab, ralab.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & "
            "{'scipy', 'mpmath', 'hypothesis', 'pytest'}))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"
