"""The compare step of ``tools/same_answers.py``, on temporary directories."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "same_answers", ROOT / "tools" / "same_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_answers = load_tool()


def fake_run(tmp_path, name, files, stdout=b"n_cr* = 7\n", exit_code=0):
    """A manifest entry for a run that wrote ``files`` under its --out."""
    out_dir = tmp_path / name
    for rel, text in files.items():
        path = out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return {"argv": [], "exit": exit_code,
            "outputs": same_answers.hash_outputs(stdout, b"", out_dir)}


FILES = {"summary.json": "{}\n", "latency_ecdf.csv": "class,latency_ms,cum_prob\n",
         "seed_1/load.csv": "class\n"}


def test_identical_outputs_compare_equal(tmp_path):
    a = {"runs": {"simulate/x": fake_run(tmp_path, "a", FILES)}}
    b = {"runs": {"simulate/x": fake_run(tmp_path, "b", FILES)}}
    assert a == b
    assert same_answers.compare(a, b) == []


def test_every_differing_output_is_named(tmp_path):
    a = {"runs": {"simulate/x": fake_run(tmp_path, "a", FILES),
                  "analyze/x": fake_run(tmp_path, "a2", {}),
                  "optimize/x": fake_run(tmp_path, "a3", {})}}
    changed = {**FILES, "seed_1/load.csv": "class,necessary\n", "extra.txt": "\n"}
    del changed["summary.json"]
    b = {"runs": {"simulate/x": fake_run(tmp_path, "b", changed, stdout=b"n_cr* = 8\n"),
                  "analyze/x": fake_run(tmp_path, "b2", {}, exit_code=1),
                  "validate/x": fake_run(tmp_path, "b3", {})}}
    assert same_answers.compare(a, b) == [
        "analyze/x: exit 0 != 1",
        "optimize/x: run only in the manifest",
        "simulate/x: out/extra.txt",
        "simulate/x: out/seed_1/load.csv",
        "simulate/x: out/summary.json",
        "simulate/x: stdout",
        "validate/x: run only in the check",
    ]


def test_missing_out_directory_hashes_the_streams_only(tmp_path):
    hashes = same_answers.hash_outputs(b"", b"error: x\n", tmp_path / "none")
    assert sorted(hashes) == ["stderr", "stdout"]


def test_command_list_covers_every_scenario_and_mode():
    names = [name for name, _ in same_answers.commands(["b.scn", "a.scn"])]
    assert names == [
        "simulate/a", "simulate_47ms/a", "analyze/a", "optimize/a",
        "simulate/b", "simulate_47ms/b", "analyze/b", "optimize/b",
        "validate/crossval_fourstep",
    ]


def test_full_scale_gets_a_short_horizon_run():
    runs = dict(same_answers.commands(["full_scale.scn"]))
    assert list(runs) == [
        "simulate/full_scale", "simulate_47ms/full_scale", "analyze/full_scale",
        "optimize/full_scale", "simulate/full_scale_short", "validate/crossval_fourstep",
    ]
    assert runs["simulate/full_scale_short"] == [
        "--mode", "simulate", "--scenario", "scenarios/full_scale.scn",
        "--seed", "1", "2", "--duration-ms", "500",
    ]
