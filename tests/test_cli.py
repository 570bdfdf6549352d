import json
import os
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oodflow import cli, gridio, harness

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full CLI pipeline artifacts: corpus, weights, calibration."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    weights = root / "weights.bin"
    cal = root / "cal.json"
    assert cli.main(["synth", "--out", str(corpus), "--n-id", "3",
                     "--n-ood", "2", "--seed", "5", "--size", "32",
                     "--length", "60"]) == 0
    assert cli.main(["train", "--corpus", str(corpus), "--out", str(weights),
                     "--epochs", "4", "--seed", "3", "--input-size", "32",
                     "--log", str(root / "train.csv")]) == 0
    assert cli.main(["calibrate", "--corpus", str(corpus), "--weights",
                     str(weights), "--out", str(cal), "--seed", "3"]) == 0
    return {"root": root, "corpus": corpus, "weights": weights, "cal": cal}


def test_synth_writes_corpus(pipeline):
    index = json.loads((pipeline["corpus"] / "index.json").read_text())
    assert len(index["episodes"]) == 5


def test_train_writes_weights_and_log(pipeline):
    assert pipeline["weights"].stat().st_size > 0
    log_lines = (pipeline["root"] / "train.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,mean_total,mean_recon,mean_kl"
    assert len(log_lines) == 5


def test_calibrate_writes_scores_and_stats(pipeline):
    doc = json.loads(pipeline["cal"].read_text())
    assert len(doc["scores"]) >= 10
    assert doc["scores"] == sorted(doc["scores"])
    assert doc["activation_shape"][0] == 256


def test_detect_outputs(pipeline, tmp_path):
    manifest = pipeline["corpus"] / "ood_0000" / "manifest.json"
    curve = tmp_path / "curve.csv"
    events = tmp_path / "events.jsonl"
    rc = cli.main(["detect", "--episode", str(manifest),
                   "--weights", str(pipeline["weights"]),
                   "--cal", str(pipeline["cal"]),
                   "--out-curve", str(curve), "--out-events", str(events)])
    assert rc == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "frame,alpha,p,log_m,exceed_count"
    assert len(lines) == 60  # header + 59 decisions


def test_localize_outputs(pipeline, tmp_path):
    manifest = pipeline["corpus"] / "ood_0000" / "manifest.json"
    overlay = tmp_path / "overlay.fgrid"
    composite = tmp_path / "composite.ppm"
    rc = cli.main(["localize", "--episode", str(manifest), "--frame", "40",
                   "--weights", str(pipeline["weights"]),
                   "--cal", str(pipeline["cal"]),
                   "--out-overlay", str(overlay),
                   "--out-composite", str(composite)])
    assert rc == 0
    m = gridio.read_fgrid(overlay)
    assert m.shape == (1, 32, 32)
    assert 0.0 <= m.min() and m.max() <= 1.0
    assert composite.read_bytes()[:2] == b"P6"


def test_eval_metrics_schema(pipeline, tmp_path):
    out = tmp_path / "metrics.json"
    rc = cli.main(["eval", "--corpus", str(pipeline["corpus"]),
                   "--weights", str(pipeline["weights"]),
                   "--cal", str(pipeline["cal"]), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"threshold", "tp", "fp", "tn", "fn", "tpr", "fpr",
                        "f1", "accuracy", "degenerate_f1"}
    assert doc["tp"] + doc["fn"] == 2
    assert doc["fp"] + doc["tn"] == 3


def test_eval_grid_search(pipeline, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    rc = cli.main(["eval", "--corpus", str(pipeline["corpus"]),
                   "--weights", str(pipeline["weights"]),
                   "--cal", str(pipeline["cal"]),
                   "--grid", "1,2,3,4,5", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "best threshold" in printed
    doc = json.loads(out.read_text())
    assert doc["threshold"] in (1.0, 2.0, 3.0, 4.0, 5.0)


@pytest.mark.parametrize("detector, grid", [
    ([], "3"),
    (["--threshold", "1.5", "--window", "5", "--consecutive", "3"], "1.5"),
], ids=["defaults", "set"])
def test_plain_eval_is_the_one_threshold_grid(pipeline, tmp_path, capsys, detector, grid):
    # without --grid, --threshold is the one threshold searched
    args = ["eval", "--corpus", str(pipeline["corpus"]),
            "--weights", str(pipeline["weights"]), "--cal", str(pipeline["cal"])]
    assert cli.main(args + detector + ["--out", str(tmp_path / "plain.json")]) == 0
    assert "best threshold" in capsys.readouterr().out
    assert cli.main(args + detector + ["--grid", grid,
                                       "--out", str(tmp_path / "grid.json")]) == 0
    assert ((tmp_path / "plain.json").read_bytes()
            == (tmp_path / "grid.json").read_bytes())


def test_module_eval_matches_cli_main(pipeline, tmp_path):
    # `python -m oodflow eval` scores on spawned workers, which import the
    # entry module; it must run the command once and write the same file
    args = ["eval", "--corpus", str(pipeline["corpus"]),
            "--weights", str(pipeline["weights"]), "--cal", str(pipeline["cal"]),
            "--grid", "1,2,3,4,5", "--out"]
    assert cli.main(args + [str(tmp_path / "main.json")]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "oodflow", *args,
                           str(tmp_path / "module.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("best threshold") == 1
    assert ((tmp_path / "module.json").read_bytes()
            == (tmp_path / "main.json").read_bytes())


def test_bench_report(pipeline, tmp_path):
    manifest = pipeline["corpus"] / "id_0000" / "manifest.json"
    out = tmp_path / "latency.json"
    rc = cli.main(["bench", "--episode", str(manifest),
                   "--weights", str(pipeline["weights"]),
                   "--cal", str(pipeline["cal"]),
                   "--reps", "10", "--warmup", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["mean_ms", "p95_ms", "flow_ms", "encode_ms",
                         "conformal_ms", "reps"]
    assert doc["reps"] == 10
    assert all(doc[k] > 0 for k in ("mean_ms", "p95_ms", "flow_ms",
                                    "encode_ms", "conformal_ms"))


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_validation_error(tmp_path):
    rc = cli.main(["synth", "--out", str(tmp_path / "x"), "--n-id", "0",
                   "--n-ood", "1", "--seed", "1"])
    assert rc == cli.EXIT_VALIDATION


def test_exit_code_io_error(pipeline, tmp_path):
    rc = cli.main(["detect", "--episode",
                   str(pipeline["corpus"] / "id_0000" / "manifest.json"),
                   "--weights", str(tmp_path / "missing.bin"),
                   "--cal", str(pipeline["cal"]),
                   "--out-curve", str(tmp_path / "c.csv"),
                   "--out-events", str(tmp_path / "e.jsonl")])
    assert rc == cli.EXIT_IO


def test_exit_code_bad_weights_format(pipeline, tmp_path):
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    rc = cli.main(["detect", "--episode",
                   str(pipeline["corpus"] / "id_0000" / "manifest.json"),
                   "--weights", str(bogus), "--cal", str(pipeline["cal"]),
                   "--out-curve", str(tmp_path / "c.csv"),
                   "--out-events", str(tmp_path / "e.jsonl")])
    assert rc == cli.EXIT_IO


@pytest.mark.parametrize("corruption", ["max_flow_nan", "max_flow_zero", "tensor_inf",
                                        "conv_width_zero"])
def test_exit_code_corrupt_weights_values(pipeline, tmp_path, corruption):
    # values the header or payload stores but the network cannot use are a
    # format error, as an invalid architecture in the header is
    data = bytearray(pipeline["weights"].read_bytes())
    if corruption == "tensor_inf":
        data[-4:] = struct.pack("<f", np.inf)
    elif corruption == "conv_width_zero":
        # the last conv width (header bytes 24-40) set to 0, followed by
        # exactly the zero tensors that architecture implies
        latent = struct.unpack_from("<I", data, 12)[0]
        chans = (2,) + struct.unpack_from("<4I", data, 24)[:3] + (0,)
        n = 2 * latent + sum(2 * 16 * chans[i] * chans[i + 1] + chans[i] + chans[i + 1]
                             for i in range(4))
        data = data[:24] + struct.pack("<4I", *chans[1:]) + bytes(4 * n)
    else:  # max_flow follows the magic, version, input size and latent size
        data[16:20] = struct.pack("<f", np.nan if corruption == "max_flow_nan" else 0.0)
    weights = tmp_path / "weights.bin"
    weights.write_bytes(bytes(data))
    rc = cli.main(["calibrate", "--corpus", str(pipeline["corpus"]),
                   "--weights", str(weights), "--out", str(tmp_path / "cal.json"),
                   "--seed", "3"])
    assert rc == cli.EXIT_IO


def test_calibrate_requires_seed(pipeline, tmp_path, capsys):
    # the calibration split must be train's, so its seed is never defaulted
    with pytest.raises(SystemExit) as info:
        cli.main(["calibrate", "--corpus", str(pipeline["corpus"]),
                  "--weights", str(pipeline["weights"]),
                  "--out", str(tmp_path / "cal.json")])
    assert info.value.code == cli.EXIT_VALIDATION
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "cal.json").exists()


def test_train_and_calibrate_reject_corpus_without_id_flows(pipeline, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    index = json.loads((corpus / "index.json").read_text())
    index["episodes"] = [e for e in index["episodes"] if e.startswith("ood_")]
    (corpus / "index.json").write_text(json.dumps(index))
    for argv in (["train", "--out", str(tmp_path / "w.bin"), "--epochs", "1",
                  "--input-size", "32"],
                 ["calibrate", "--weights", str(pipeline["weights"]),
                  "--out", str(tmp_path / "cal.json")]):
        capsys.readouterr()
        assert cli.main(argv + ["--corpus", str(corpus), "--seed", "3"]) == cli.EXIT_VALIDATION
        assert "corpus contains no ID flow pairs" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.*"))


@pytest.mark.parametrize("command", ["train", "calibrate"])
def test_bad_fraction_fails_before_any_flow_is_solved(pipeline, tmp_path, capsys,
                                                     monkeypatch, command):
    def no_flows(*args, **kwargs):
        raise AssertionError("flows solved before --fraction was checked")

    monkeypatch.setattr(harness, "corpus_flow_dataset", no_flows)
    argv = {"train": ["train", "--out", str(tmp_path / "w.bin"), "--epochs", "1",
                      "--input-size", "32"],
            "calibrate": ["calibrate", "--weights", str(pipeline["weights"]),
                          "--out", str(tmp_path / "cal.json")]}[command]
    rc = cli.main(argv + ["--corpus", str(pipeline["corpus"]), "--seed", "3",
                          "--fraction", "1.5"])
    assert rc == cli.EXIT_VALIDATION
    assert "fraction must be in (0, 1)" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.*"))


def test_exit_code_oversized_pgm_header(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    manifest = corpus / "id_0000" / "manifest.json"
    victim = gridio.read_manifest(manifest).frame_paths[5]
    victim.write_bytes(b"P5\n100000000000 100000000000\n255\n" + bytes(4))
    rc = cli.main(["detect", "--episode", str(manifest),
                   "--weights", str(pipeline["weights"]),
                   "--cal", str(pipeline["cal"]),
                   "--out-curve", str(tmp_path / "c.csv"),
                   "--out-events", str(tmp_path / "e.jsonl")])
    assert rc == cli.EXIT_IO
    # eval skips the unreadable episode instead of aborting
    out = tmp_path / "metrics.json"
    with pytest.warns(UserWarning, match="skipping"):
        rc = cli.main(["eval", "--corpus", str(corpus),
                       "--weights", str(pipeline["weights"]),
                       "--cal", str(pipeline["cal"]), "--out", str(out)])
    assert rc == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["tp"] + doc["fp"] + doc["tn"] + doc["fn"] == 4


@pytest.mark.parametrize("broken, code", [
    ("scores-object", cli.EXIT_VALIDATION),
    ("truncated", cli.EXIT_IO),
])
def test_exit_code_malformed_calibration(pipeline, tmp_path, broken, code):
    text = pipeline["cal"].read_text()
    if broken == "scores-object":
        text = json.dumps({**json.loads(text), "scores": {"a": 1.0}})
    else:
        text = text[:len(text) // 2]
    cal = tmp_path / "cal.json"
    cal.write_text(text)
    rc = cli.main(["detect", "--episode",
                   str(pipeline["corpus"] / "id_0000" / "manifest.json"),
                   "--weights", str(pipeline["weights"]), "--cal", str(cal),
                   "--out-curve", str(tmp_path / "c.csv"),
                   "--out-events", str(tmp_path / "e.jsonl")])
    assert rc == code


@pytest.mark.parametrize("index, code", [
    ("[]", cli.EXIT_VALIDATION),
    ('{"episodes": 5}', cli.EXIT_VALIDATION),
    ('{"episodes": [5]}', cli.EXIT_VALIDATION),
    ("truncated", cli.EXIT_IO),
], ids=["list", "episodes-number", "episode-number", "truncated"])
def test_exit_code_malformed_corpus_index(pipeline, tmp_path, index, code):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    if index == "truncated":
        text = (corpus / "index.json").read_text()
        index = text[:len(text) // 2]
    (corpus / "index.json").write_text(index)
    rc = cli.main(["eval", "--corpus", str(corpus),
                   "--weights", str(pipeline["weights"]),
                   "--cal", str(pipeline["cal"]), "--out", str(tmp_path / "m.json")])
    assert rc == code


def test_exit_code_non_finite_max_flow(pipeline, tmp_path):
    # the weights file stores max_flow as float32, in which 1e39 is inf and
    # 1e-50 is 0
    weights = tmp_path / "weights.bin"
    for max_flow in ("inf", "1e39", "1e-50"):
        rc = cli.main(["train", "--corpus", str(pipeline["corpus"]),
                       "--out", str(weights), "--epochs", "1", "--seed", "3",
                       "--input-size", "32", "--max-flow", max_flow])
        assert rc == cli.EXIT_VALIDATION, max_flow
        assert not weights.exists()


def test_exit_code_non_finite_threshold(pipeline, tmp_path):
    out = tmp_path / "metrics.json"
    args = ["eval", "--corpus", str(pipeline["corpus"]),
            "--weights", str(pipeline["weights"]), "--cal", str(pipeline["cal"]),
            "--out", str(out)]
    assert cli.main(args + ["--threshold", "nan"]) == cli.EXIT_VALIDATION
    assert cli.main(args + ["--threshold", "inf"]) == cli.EXIT_VALIDATION
    assert cli.main(args + ["--grid", "1,nan"]) == cli.EXIT_VALIDATION
    assert not out.exists()


def _readme_commands():
    """The ``oodflow`` command lines of README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("oodflow ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: oodflow {shlex.join(argv)}")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "oodflow", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "bench" in proc.stdout
