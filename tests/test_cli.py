import subprocess
import sys
from collections import Counter

import pytest

from fuzzmap import load_file
from fuzzmap.cli import run

from conftest import UNCERTAIN_PAIR_EDGES


@pytest.fixture
def sample_edge_file(tmp_path):
    path = tmp_path / "sixnode.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in UNCERTAIN_PAIR_EDGES))
    return path


@pytest.fixture
def sample_model(sample_edge_file, tmp_path):
    model = tmp_path / "sixnode.fzg"
    code = run(["compress", "--input", str(sample_edge_file), "--output", str(model),
                "--k", "2", "--seed", "0"])
    assert code == 0
    return model


def test_compress_prints_summary(sample_edge_file, tmp_path, capsys):
    model = tmp_path / "g.fzg"
    code = run(["compress", "--input", str(sample_edge_file), "--output", str(model),
                "--k", "4", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=6" in out and "k=4" in out and "bytes=" in out
    assert model.exists()


def test_info_fields(sample_model, capsys):
    assert run(["info", str(sample_model)]) == 0
    out = capsys.readouterr().out
    assert "n=6" in out
    assert "k=2" in out
    assert "quantized=true" in out
    assert "directed=false" in out


def info_fields(model, capsys) -> dict:
    assert run(["info", str(model)]) == 0
    return dict(line.split("=", 1) for line in capsys.readouterr().out.split())


def test_info_reports_distinct_points(sample_model, capsys):
    fields = info_fields(sample_model, capsys)
    # counted from the coordinates, independently of the model's point index
    groups = Counter(map(tuple, load_file(sample_model).embedding.coords.tolist()))
    assert fields["distinct_points"] == str(len(groups))
    assert fields["largest_group"] == str(max(groups.values()))


def test_info_reports_point_table_bytes(sample_model, tmp_path, capsys):
    # the six-node model at k=2 has u = 6 distinct points: 36 > k * n = 12,
    # so it holds no table and queries run the kernel
    fields = info_fields(sample_model, capsys)
    assert fields["distinct_points"] == "6" and fields["point_table_bytes"] == "0"
    # a 40-node star collapses onto a few points: u**2 <= k * n = 80
    edges = tmp_path / "star.txt"
    edges.write_text("".join(f"0 {leaf}\n" for leaf in range(1, 40)))
    model = tmp_path / "star.fzg"
    assert run(["compress", "--input", str(edges), "--output", str(model), "--k", "2"]) == 0
    capsys.readouterr()
    fields = info_fields(model, capsys)
    u = int(fields["distinct_points"])
    assert 1 < u and u * u <= 2 * 40
    assert fields["point_table_bytes"] == str(8 * u * u) == str(load_file(model).point_table.nbytes)


def test_query_definite_yes(sample_model, capsys):
    assert run(["query", "--model", str(sample_model), "--u", "1", "--v", "5"]) == 0
    assert capsys.readouterr().out.strip() == "yes"


def test_query_definite_no(sample_model, capsys):
    assert run(["query", "--model", str(sample_model), "--u", "1", "--v", "4"]) == 0
    assert capsys.readouterr().out.strip() == "no"


def test_query_fuzzy_four_decimals(sample_model, capsys):
    assert run(["query", "--model", str(sample_model), "--u", "1", "--v", "2"]) == 0
    out = capsys.readouterr().out.strip()
    kind, value = out.split()
    assert kind == "fuzzy"
    assert len(value.split(".")[1]) == 4
    assert 0.0 < float(value) < 1.0


def test_query_precondition_errors_exit_3(sample_model, capsys):
    assert run(["query", "--model", str(sample_model), "--u", "1", "--v", "1"]) == 3
    assert "self query" in capsys.readouterr().err
    assert run(["query", "--model", str(sample_model), "--u", "1", "--v", "99"]) == 3
    assert "unknown external" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert run(["frobnicate"]) == 1
    assert run(["compress", "--input", "x", "--output", "y"]) == 1  # missing --k
    assert run(["sweep", "--input", "x", "--k", "10:2", "--out", "y"]) == 1
    assert run(["compress", "--input", "x", "--output", "y", "--k", "0"]) == 1
    for spec in ("abc", "1:2:3:4", "0:3"):
        assert run(["sweep", "--input", "x", "--k", spec]) == 1
    assert run(["evaluate", "--model", "x", "--graph", "y", "--sample", "-1"]) == 1
    assert run(["sweep", "--input", "x", "--k", "2", "--sample", "-1"]) == 1
    assert capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert run(["compress", "--input", str(tmp_path / "absent.txt"),
                "--output", str(tmp_path / "o.fzg"), "--k", "2"]) == 2
    assert run(["info", str(tmp_path / "absent.fzg")]) == 2
    assert capsys.readouterr().err


def test_corrupt_model_exits_2(sample_model, tmp_path, capsys):
    blob = bytearray(sample_model.read_bytes())
    blob[50] ^= 0xFF
    bad = tmp_path / "bad.fzg"
    bad.write_bytes(bytes(blob))
    assert run(["info", str(bad)]) == 2
    assert "fuzzmap:" in capsys.readouterr().err


def test_malformed_edge_list_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nnot numbers\n")
    assert run(["compress", "--input", str(path), "--output",
                str(tmp_path / "o.fzg"), "--k", "2"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_evaluate_writes_csv(sample_model, sample_edge_file, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run(["evaluate", "--model", str(sample_model), "--graph", str(sample_edge_file),
                "--sample", "0", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k,pairs,definite_pct")
    assert lines[1].split(",")[0] == "2"
    assert capsys.readouterr().out == ""  # CSV went to the file, not stdout


def test_evaluate_stdout_default(sample_model, sample_edge_file, capsys):
    assert run(["evaluate", "--model", str(sample_model), "--graph", str(sample_edge_file),
                "--sample", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,pairs,")


def test_sweep_csv_and_determinism(sample_edge_file, tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    argv = ["sweep", "--input", str(sample_edge_file), "--k", "2:4", "--seed", "7",
            "--sample", "0"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().splitlines()
    assert len(rows) == 4  # header + k in {2,3,4}


def test_sweep_k_range_step(sample_edge_file, tmp_path):
    out = tmp_path / "r.csv"
    assert run(["sweep", "--input", str(sample_edge_file), "--k", "2:6:2",
                "--sample", "0", "--out", str(out)]) == 0
    ks = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
    assert ks == ["2", "4", "6"]
    assert run(["sweep", "--input", str(sample_edge_file), "--k", "4",
                "--sample", "0", "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["4"]


def test_compress_no_quantize_and_directed(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    model = tmp_path / "d.fzg"
    assert run(["compress", "--input", str(path), "--output", str(model),
                "--k", "2", "--directed", "--no-quantize"]) == 0
    capsys.readouterr()
    assert run(["info", str(model)]) == 0
    out = capsys.readouterr().out
    assert "directed=true" in out
    assert "quantized=false" in out


def test_compress_with_fcl_override(sample_edge_file, tmp_path, capsys):
    fcl = tmp_path / "custom.fcl"
    from fuzzmap import default_fcl_text

    custom_text = default_fcl_text().replace("adjacency_likelihood", "custom_block")
    fcl.write_text(custom_text)
    model = tmp_path / "m.fzg"
    assert run(["compress", "--input", str(sample_edge_file), "--output", str(model),
                "--k", "2", "--fcl", str(fcl)]) == 0
    cg = load_file(str(model))
    assert cg.fcl_text == custom_text  # original source embedded verbatim


def test_bad_fcl_exits_2(sample_edge_file, tmp_path, capsys):
    fcl = tmp_path / "broken.fcl"
    fcl.write_text("FUNCTION_BLOCK x\nWHATEVER;\nEND_FUNCTION_BLOCK\n")
    assert run(["compress", "--input", str(sample_edge_file), "--output",
                str(tmp_path / "m.fzg"), "--k", "2", "--fcl", str(fcl)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_bad_threads_env_is_usage_error(sample_edge_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FUZZMAP_THREADS", "porridge")
    assert run(["compress", "--input", str(sample_edge_file), "--output",
                str(tmp_path / "m.fzg"), "--k", "2"]) == 1
    assert "FUZZMAP_THREADS" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "compress" in capsys.readouterr().out


def test_module_entry_point(sample_edge_file, tmp_path):
    model = tmp_path / "m.fzg"
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzmap", "compress", "--input", str(sample_edge_file),
         "--output", str(model), "--k", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "n=6" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzmap", "query", "--model", str(model),
         "--u", "1", "--v", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "yes"


def test_query_negative_id_exits_3(sample_model, capsys):
    assert run(["query", "--model", str(sample_model), "--u", "-1", "--v", "5"]) == 3
    assert "unknown external node id -1" in capsys.readouterr().err
