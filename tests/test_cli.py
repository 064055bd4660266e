import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from fuzzmap import load_file, save_file
from fuzzmap.cli import run

from conftest import UNCERTAIN_PAIR_EDGES
from oracles import fzg1_size_oracle


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


# every key fuzzmap info prints, in order; the README's CLI section lists the same
INFO_KEYS = ["version", "n", "k", "directed", "quantized", "distinct_points", "largest_group",
             "node_states", "pair_table_bytes", "id_range", "fcl_bytes", "file_bytes"]


def test_info_fields(sample_model, capsys):
    assert run(["info", str(sample_model)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("=", 1)[0] for line in lines] == INFO_KEYS
    fields = dict(line.split("=", 1) for line in lines)
    assert (fields["n"], fields["k"], fields["quantized"], fields["directed"]) == \
        ("6", "2", "true", "false")


ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
# what an input rule may raise; a rule the CLI's option parser checks raises none ("—")
RULE_EXCEPTIONS = {"ValueError", "TypeError", "GraphParseError", "FclParseError",
                   "ModelFormatError"}


def test_readme_lists_the_info_keys():
    (comment,) = re.findall(r"^fuzzmap info g\.fzg +# (.*)$", README, flags=re.M)
    assert comment.split(", ") == INFO_KEYS


def test_readme_input_rules_name_real_tests_and_messages():
    # each row of the Input-rules table: input | rule | exception and message
    # stem | CLI exit | test; no README line outside it names an exception class
    section = README.split("\n## Input rules\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")][2:]  # no header
    named = [line for line in README.splitlines() if re.search(r"\b\w+Error\b", line)]
    assert set(named) <= set(lines)
    tests = {path.name: path.read_text(encoding="utf-8") for path in (ROOT / "tests").glob("*.py")}
    source = "".join(path.read_text(encoding="utf-8")
                     for path in (ROOT / "src" / "fuzzmap").glob("*.py"))
    rows = [line.strip("|").split("|") for line in lines]
    assert rows and all(len(row) == 5 for row in rows)
    for _, _, raised, code, test in rows:
        exception, stem = re.fullmatch(r" (?:`(\w+)`|—) `([^`]+)` ", raised).groups()
        if exception is None:
            assert code == " 1 ", raised
        else:
            assert exception in RULE_EXCEPTIONS and code in (" 2 ", " 3 ", " — "), raised
        assert stem in source, stem
        file, name = re.fullmatch(r" `(test_\w+\.py)::(test_\w+)(?:\[[^\]]+\])?` ", test).groups()
        assert re.search(rf"^def {name}\(", tests.get(file, ""), flags=re.M), test


def info_fields(model, capsys) -> dict:
    assert run(["info", str(model)]) == 0
    return dict(line.split("=", 1) for line in capsys.readouterr().out.split())


def test_info_reports_distinct_points(sample_model, capsys):
    fields = info_fields(sample_model, capsys)
    # counted from the coordinates, independently of the model's point index
    groups = Counter(map(tuple, load_file(sample_model).embedding.coords.tolist()))
    assert fields["distinct_points"] == str(len(groups))
    assert fields["largest_group"] == str(max(groups.values()))


def test_info_reports_node_states(sample_model, tmp_path, capsys):
    # counted from the loaded per-node arrays, independently of the grouping save uses
    for model in (sample_model, star_model(tmp_path, capsys)):
        fields = info_fields(model, capsys)
        cg = load_file(model)
        states = Counter(zip(map(tuple, cg.embedding.coords.tolist()), cg.radii.r.tolist(),
                             cg.radii.R.tolist()))
        assert fields["node_states"] == str(len(states))
        assert int(fields["distinct_points"]) <= len(states) <= cg.n
        assert fields["version"] == "4"


def test_info_reports_id_layout(sample_model, tmp_path, capsys):
    # ids 1..6 are a range, stored as lo alone; ids 0, 5, 9 are not, and the
    # file holds all three. The size oracle decides the id block by itself.
    edges = tmp_path / "gaps.txt"
    edges.write_text("0 5\n5 9\n")
    gaps = tmp_path / "gaps.fzg"
    assert run(["compress", "--input", str(edges), "--output", str(gaps), "--k", "2"]) == 0
    capsys.readouterr()
    for model, id_range in ((sample_model, "true"), (gaps, "false")):
        fields = info_fields(model, capsys)
        assert fields["id_range"] == id_range
        cg = load_file(model)
        assert int(fields["file_bytes"]) == model.stat().st_size == fzg1_size_oracle(
            cg.embedding.coords.tolist(), cg.radii.r.tolist(), cg.radii.R.tolist(),
            cg.external_ids, cg.k, int(fields["fcl_bytes"]))


def star_model(tmp_path, capsys):
    """A 40-node star at k=2: it collapses onto a few points."""
    edges = tmp_path / "star.txt"
    edges.write_text("".join(f"0 {leaf}\n" for leaf in range(1, 40)))
    model = tmp_path / "star.fzg"
    assert run(["compress", "--input", str(edges), "--output", str(model), "--k", "2"]) == 0
    capsys.readouterr()
    return model


def test_info_reports_pair_table_bytes(sample_model, benchmark_model, tmp_path, capsys):
    # the six-node model at k=2 has u = 6 distinct points: u**2 = 36 > k * n = 12,
    # so no pair table is scored, though t = 6 node states would take 36
    # one-byte codes, under the 96-byte cap
    fields = info_fields(sample_model, capsys)
    assert (fields["distinct_points"], fields["node_states"]) == ("6", "6")
    assert fields["pair_table_bytes"] == "0"
    # a 40-node star collapses onto a few points, u**2 <= k * n = 80, and keeps
    # a pair table of one-byte codes
    model = star_model(tmp_path, capsys)
    fields = info_fields(model, capsys)
    u, t = int(fields["distinct_points"]), int(fields["node_states"])
    assert 1 < u and u * u <= 2 * 40
    assert fields["pair_table_bytes"] == str(t * t) == str(load_file(model).pair_table.codes.nbytes)
    # the query benchmark's model: 522 x 522 two-byte codes
    model = tmp_path / "ba20k.fzg"
    save_file(benchmark_model, str(model))
    fields = info_fields(model, capsys)
    assert (fields["node_states"], fields["distinct_points"]) == ("522", "148")
    assert fields["pair_table_bytes"] == "544968" == str(2 * 522 * 522)
    assert load_file(model).pair_table.codes.nbytes == 544968
    assert "side_table_bytes" not in fields


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


def test_query_on_a_directed_star_answers_the_arc_direction(tmp_path, capsys):
    # one query command for either kind of model: u -> v on a directed one
    path = tmp_path / "star.txt"
    path.write_text("".join(f"0 {v}\n" for v in range(1, 40)))
    model = tmp_path / "star.fzg"
    assert run(["compress", "--input", str(path), "--output", str(model),
                "--k", "2", "--directed"]) == 0
    capsys.readouterr()
    verdicts = []
    for u, v in (("0", "1"), ("1", "0")):
        assert run(["query", "--model", str(model), "--u", u, "--v", v]) == 0
        verdicts.append(capsys.readouterr().out.strip())
    assert verdicts == ["yes", "no"]


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


@pytest.mark.parametrize("command", [
    ["compress", "--input", "g.txt", "--output", "g.fzg", "--k", "2"],
    ["evaluate", "--model", "g.fzg", "--graph", "g.txt"],
    ["sweep", "--input", "g.txt", "--k", "2"],
])
def test_negative_seed_is_a_usage_error_before_any_io(command, monkeypatch, capsys):
    # and one bad value for each other usage rule of the command: the
    # parser checks each, as the type of its option
    import fuzzmap.cli as cli

    def no_io(*args, **kwargs):
        raise AssertionError("read an input before checking the options")

    monkeypatch.setattr(cli, "load_edge_list", no_io)
    monkeypatch.setattr(cli, "load_file", no_io)
    bad = {
        "compress": [(["--k", "0"], "--k must be >= 1"),
                     (["--k", "abc"], "argument --k: invalid int value: 'abc'")],
        "evaluate": [(["--sample", "-1"], "--sample must be >= 0")],
        "sweep": [(["--sample", "-1"], "--sample must be >= 0"),
                  (["--k", "10:2"], "bad k range '10:2'")],
    }[command[0]]
    for option, message in [(["--seed", "-1"], "--seed must be >= 0"), *bad]:
        assert run([*command, *option]) == 1
        assert capsys.readouterr().err == f"fuzzmap: {message}\n"


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
    # the CLI reads --fcl as UTF-8 text: a file that is not UTF-8 fails there
    fcl = tmp_path / "broken.fcl"
    for content, named in ((b"FUNCTION_BLOCK x\nWHATEVER;\nEND_FUNCTION_BLOCK\n", "line 2"),
                           (b"FUNCTION_BLOCK \xff\n", "'utf-8' codec")):
        fcl.write_bytes(content)
        assert run(["compress", "--input", str(sample_edge_file), "--output",
                    str(tmp_path / "m.fzg"), "--k", "2", "--fcl", str(fcl)]) == 2
        assert named in capsys.readouterr().err


def test_bad_fcl_is_named_before_the_input_is_read(tmp_path, capsys):
    # compress parsed the whole edge list before it read --fcl, and a file
    # that was not UTF-8 gave Python's codec message, naming neither
    fcl = tmp_path / "bad.fcl"
    for content, named in ((b"FUNCTION_BLOCK \xff\n", f"--fcl file is not UTF-8 ({fcl}): 'utf-8'"),
                           (b"FUNCTION_BLOCK x\nWHATEVER;\nEND_FUNCTION_BLOCK\n", "line 2")):
        fcl.write_bytes(content)
        assert run(["compress", "--input", str(tmp_path / "missing.txt"), "--output",
                    str(tmp_path / "m.fzg"), "--k", "2", "--fcl", str(fcl)]) == 2
        err = capsys.readouterr().err
        assert named in err and "missing.txt" not in err


# specs the k-range parser accepts, with the k values it once built as a list
K_RANGES = {"4": [4], " 4 ": [4], "1": [1], "2:4": [2, 3, 4], "3:3": [3], "2:6:2": [2, 4, 6],
            "1:10:3": [1, 4, 7, 10], "1:2:5": [1], "+2:03": [2, 3], "5:5:9": [5]}
# rejected specs, with their messages
BAD_K_RANGES = {"0": "k values must be >= 1", "-2": "k values must be >= 1",
                "0:3": "k values must be >= 1", "-1:4:2": "k values must be >= 1",
                "3:1": "bad k range '3:1'", "1:5:0": "bad k range '1:5:0'",
                "1:5:-1": "bad k range '1:5:-1'", "a": "bad k range 'a'",
                "1:2:3:4": "bad k range '1:2:3:4'", "1::2": "bad k range '1::2'",
                "": "bad k range ''", "0:-1": "bad k range '0:-1'"}


def test_k_range_is_a_range_of_the_same_values():
    import tracemalloc

    from fuzzmap.cli import _parse_k_range, _UsageError

    for spec, ks in K_RANGES.items():
        assert list(_parse_k_range(spec)) == ks, spec
    for spec, message in BAD_K_RANGES.items():
        with pytest.raises(_UsageError) as exc:
            _parse_k_range(spec)
        assert str(exc.value) == message
    # a million k values are not built as a list (~38 MiB)
    tracemalloc.start()
    try:
        ks = _parse_k_range("1:1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ks[0], ks[-1], len(ks)) == (1, 1000000, 1000000)
    assert peak < 1 << 20


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


def _imports_numpy_random(code: str) -> bool:
    """Whether a fresh interpreter running ``code`` imported numpy.random."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('numpy.random' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("command", ["compress", "query", "info"])
def test_compress_query_and_info_never_import_numpy_random(command, sample_edge_file,
                                                           sample_model, tmp_path):
    # FastMap draws its pivots without numpy.random (~6 MB and ~15 ms to import)
    if _imports_numpy_random("import numpy"):
        pytest.skip("this numpy imports numpy.random with numpy itself")
    args = {
        "compress": ["compress", "--input", str(sample_edge_file),
                     "--output", str(tmp_path / "m.fzg"), "--k", "8", "--seed", "1"],
        "query": ["query", "--model", str(sample_model), "--u", "1", "--v", "5"],
        "info": ["info", str(sample_model)],
    }[command]
    assert not _imports_numpy_random(f"from fuzzmap.cli import run\nassert run({args!r}) == 0")


def test_query_negative_id_exits_3(sample_model, capsys):
    assert run(["query", "--model", str(sample_model), "--u", "-1", "--v", "5"]) == 3
    assert "unknown external node id -1" in capsys.readouterr().err
