import csv
import hashlib
import json
import os
import re

import pytest

from streamsched import validate
from streamsched.cli import main
from streamsched.config import config_from_sources, config_hash

SMALL_CONFIG = """
# desk-scale run
seed = 4
n = 5
session_chunks = 20
topology.helper_layout = 40:40
topology.user_layout = 30:40;40:60
mimo.m = 8
mimo.s_max = 2
mimo.symbols_per_slot = 20000
video.segments = 10x3@400
utility.v = 100
playback.window_slots = 10
playback.rho = 2
"""

# Dropping line 1 (the provenance line) of each file gives the pins these files had before they carried it:
# ed6e9deece885e7dfbbd1bca2257b26dbbc579fd827b2ad2c44230847209548d and
# 8d34c474d37bfed8db688ffa8615aacb18ce7dce3955ea67b3464002191fbac4.
TOPOLOGY_DUMP_SHA256 = {
    "nodes.csv": "68d9f5da31156553306557f36e68fbb90e3dd06c95e531a58620cdfab3abaf90",
    "gains.csv": "2484be6420d49d32011b4d47a30276a077522138bb225cdbdcb5251c7cdba295",
}

# Bytes of `run --trace` and of `sweep --param utility.v --values 1e2,1e3` for SMALL_CONFIG: how the
# result files are written may change, but not what they hold. run.csv's and aggregate.csv's headers name
# each setting by its config key.
RESULT_SHA256 = {
    "run/summary.csv": "7f05302efb9a400a86512578bd849d73f4ac52d1a94e1ce38b28cb137275f3d2",
    "run/run.csv": "dada2539d79adafa45cf79bff05714a0154aa7a69ada988d6e864cabb5c83780",
    "run/trace_schedule.csv": "0c05d5294690d1763cae692bf99806961f1151a3525b0a06906a7fb5e601f887",
    "run/trace_client.csv": "b742da45e0105f23451fdf05dda188b54aee91ed3073527929a06e28bc5768dc",
    "run/trace_playback.csv": "3bfa56b781f2d5102570d50fa9daff0b0e2e49e8430d566caac303547c1f90f9",
    "sweep/aggregate.csv": "a2ffead73c028b33dbaf308b833b9512372464781036cb1bb54f59404ad046e4",
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        assert comment.startswith("# config=")
        return list(csv.DictReader(fh))


def test_run_missing_config_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_run_writes_summary_and_run_csv(config_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["run", "--config", config_file, "--out", out])
    assert rc == 0
    rows = read_csv(os.path.join(out, "summary.csv"))
    assert len(rows) == 2
    run_rows = read_csv(os.path.join(out, "run.csv"))
    assert run_rows[0]["policy"] == "dpp"
    assert "utility=" in capsys.readouterr().out


def test_run_override_plumbs_through(config_file, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["run", "--config", config_file, "--out", out, "--set", "utility.v=1e13"])
    assert rc == 0
    run_rows = read_csv(os.path.join(out, "run.csv"))
    assert float(run_rows[0]["utility.v"]) == 1e13


def test_run_unknown_key_exits_2(config_file, tmp_path, capsys):
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"), "--set", "nope=1"])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_unknown_key_in_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "sim.cfg"
    path.write_text(SMALL_CONFIG + "mimo.antennas = 8\n")
    rc = main(["topology", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "mimo.antennas" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("line", ["seed =", "= 5", "justtext"])
def test_malformed_config_line_exits_2_naming_its_line(tmp_path, capsys, line):
    path = tmp_path / "sim.cfg"
    path.write_text(f"# header\nn = 5\n{line}\n")
    rc = main(["topology", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}:3:" in err and "Traceback" not in err


@pytest.mark.parametrize("setting", ["seed=", "seed"])
def test_malformed_override_exits_2_naming_set(tmp_path, capsys, setting):
    rc = main(["topology", "--out", str(tmp_path / "o"), "--set", setting])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--set" in err and repr(setting) in err and "Traceback" not in err


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
    rc = main(["topology", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["topology.user_layout", "topology.helper_layout"])
@pytest.mark.parametrize("layout", ["nan:40", "40:inf", "30:40;-inf:10"])
def test_run_nonfinite_layout_exits_2(config_file, tmp_path, capsys, key, layout):
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"), "--set", f"{key}={layout}"])
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,layout", [
    ("topology.user_layout", "200:40"),
    ("topology.user_layout", "-1:40"),
    ("topology.helper_layout", "40:81"),
])
def test_run_out_of_region_layout_exits_2(config_file, tmp_path, capsys, key, layout):
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"), "--set", f"{key}={layout}"])
    assert rc == 2
    assert key in capsys.readouterr().err


# Settings that make the Poisson draw place the users, in place of the config file's explicit layouts.
POISSON = ("topology.user_layout=poisson", "topology.helper_layout=center+quarters")


@pytest.mark.parametrize("key,value", [
    ("utility.v", "nan"),
    ("utility.alpha", "nan"),
    ("playback.rho", "nan"),
    ("playback.rho", "inf"),
    ("video.sigma", "nan"),
    ("video.segments", "10x3@nan"),
    ("t_gop_seconds", "nan"),
    ("topology.tx_power", "inf"),
    ("video.d_max", "inf"),
    ("seed", "-1"),
    # Out-of-range values: each rule lives only in its config section.
    ("topology.side_m", "0"),
    ("topology.hotspot_side_m", "100"),
    ("topology.hotspot_ratio", "0"),
    ("topology.mean_users", "-1"),
    ("topology.edge_rule", "ring"),
    ("video.segments", "10x0@400"),
    ("video.segments", "10x3@-5"),
    ("video.ladder_ratio", "1"),
    ("video.d_max", "0.2"),
    ("video.d_min", "0"),
    ("playback.window_slots", "0"),
    ("playback.rho", "0"),
    ("receiver", "smart"),
    ("utility.alpha", "-1"),
    ("session_chunks", "0"),
    # Bit counts that would stop being exact: budgets past int64, chunks past a float backlog's 2**53.
    ("mimo.symbols_per_slot", "1000000000000000000"),
    ("video.segments", "10x3@1e14"),
    # Populations that cannot be drawn: the region's area overflows or underflows, the hotspot's weighted
    # area overflows, or the Poisson mean is past what could be simulated. A tuple is the key's value
    # followed by further settings.
    ("topology.side_m", ("1e200", *POISSON)),
    ("topology.side_m", ("1e-200", "topology.hotspot_side_m=1e-200", *POISSON)),
    ("topology.mean_users", ("1e20", *POISSON)),
    ("topology.hotspot_ratio", ("1e308", *POISSON)),
    # Chunks whose size in bits overflows a float, and a weight history longer than a deque can hold.
    ("t_gop_seconds", "1e306"),
    ("video.segments", "1x2@1e308"),
    ("scheduler_staleness", "100000000000000000000"),
    # Runs past the slot cap, which would hang rather than finish.
    ("n", "100000000000000000000"),
    ("drain_limit_slots", "100000000000000000000"),
    # A region wide enough for a gain to overflow, and helpers whose summed power would zero every SINR.
    ("topology.side_m", ("1e100", "topology.user_layout=40:40;5e99:5e99")),
    ("topology.tx_power", ("1e308", "topology.helper_layout=40:40;40:40")),
    # Qualities whose sums overflow, and a rung past int64 (it must be rejected, never wrapped).
    ("video.d_max", "1e308"),
    ("video.segments", "1x2@1e17"),
])
def test_run_nonfinite_value_exits_2(config_file, tmp_path, capsys, key, value):
    value, *more = (value,) if isinstance(value, str) else value
    settings = [arg for text in (f"{key}={value}", *more) for arg in ("--set", text)]
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"), *settings])
    assert rc == 2
    assert re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", capsys.readouterr().err)  # the key as a whole word
    assert not (tmp_path / "o").exists()


def test_run_trace_files(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--out", str(out / "run"), "--trace"]) == 0
    assert main(["sweep", "--config", config_file, "--out", str(out / "sweep"),
                 "--param", "utility.v", "--values", "1e2,1e3"]) == 0
    assert main(["topology", "--config", config_file, "--out", str(out / "topo")]) == 0
    written = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert set(written) == {*RESULT_SHA256, "topo/nodes.csv", "topo/gains.csv",
                            *(f"sweep/utility.v={v}/{name}" for v in ("1e2", "1e3")
                              for name in ("summary.csv", "run.csv"))}
    for name, data in written.items():
        # Each file names the config that produced it: a sweep subdirectory's has its value set.
        overrides = [name.split("/")[1]] if name.startswith("sweep/utility.v=") else []
        cfg = config_from_sources(config_file, overrides)
        assert data.startswith(f"# config={config_hash(cfg)} seed={cfg.seed}\n".encode()), name
    for name, digest in RESULT_SHA256.items():
        assert hashlib.sha256(written[name]).hexdigest() == digest, name


def test_sweep_creates_subdirs_and_aggregate(config_file, tmp_path):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--config", config_file, "--out", out,
               "--param", "utility.v", "--values", "1e2,1e3,1e4"])
    assert rc == 0
    for v in ("1e2", "1e3", "1e4"):
        assert os.path.exists(os.path.join(out, f"utility.v={v}", "summary.csv"))
        assert os.path.exists(os.path.join(out, f"utility.v={v}", "run.csv"))
    agg = read_csv(os.path.join(out, "aggregate.csv"))
    assert len(agg) == 3


def test_sweep_dedupes_with_warning(config_file, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--config", config_file, "--out", out,
               "--param", "utility.v", "--values", "1e2,1e2,1e3"])
    assert rc == 0
    assert "duplicate" in capsys.readouterr().err
    assert len(read_csv(os.path.join(out, "aggregate.csv"))) == 2


def test_sweep_dedupes_spellings_of_one_setting(config_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", config_file, "--out", str(out),
               "--param", "utility.v", "--values", "1e2,100,1e3,1000.0"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "'100'" in err and "'1000.0'" in err
    assert [row["utility.v"] for row in read_csv(out / "aggregate.csv")] == ["1e2", "1e3"]
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "utility.v=1e2", "utility.v=1e3"]


def test_sweep_empty_values_exits_2(config_file, tmp_path):
    rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "s"),
               "--param", "utility.v", "--values", " , "])
    assert rc == 2
    assert not os.path.exists(tmp_path / "s")


@pytest.mark.parametrize("command", ["run", "topology"])
def test_rejected_config_creates_no_out_dir(tmp_path, capsys, command):
    rc = main([command, "--out", str(tmp_path / "o"), "--set", "topology.mean_users=0"])
    assert rc == 2
    assert "topology.mean_users" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_sweep_checks_every_value_before_simulating(monkeypatch, config_file, tmp_path, capsys):
    from streamsched import engine

    def not_called(*args, **kwargs):
        raise AssertionError("simulated before every sweep value was checked")

    monkeypatch.setattr(engine, "run", not_called)
    cases = [
        ([], "mimo.m", "20,0"),
        # Only building the network finds the zero-user draw.
        (["--set", "topology.user_layout=poisson", "--set", "topology.mean_users=30"], "topology.mean_users",
         "30,0"),
        # Only building the catalog finds a session that could request 2**53 bits or more.
        ([], "video.segments", "10x3@400,10x3@1e13"),
    ]
    for extra, key, values in cases:
        rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "s"), *extra, "--param", key,
                   "--values", values])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "s")


def test_sweep_records_override_in_run_csv(config_file, tmp_path):
    out = str(tmp_path / "sweep")
    main(["sweep", "--config", config_file, "--out", out, "--param", "utility.v", "--values", "1e2,1e3"])
    rows = read_csv(os.path.join(out, "utility.v=1e3", "run.csv"))
    assert float(rows[0]["utility.v"]) == 1e3


def test_sweep_takes_any_config_key(config_file, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, "--out", str(out), "--param", "playback.rho",
                 "--values", "2,4"]) == 0
    for v in ("2", "4"):
        assert (out / f"playback.rho={v}" / "summary.csv").exists()
        assert (out / f"playback.rho={v}" / "run.csv").exists()
    assert [row["playback.rho"] for row in read_csv(out / "aggregate.csv")] == ["2", "4"]


@pytest.mark.parametrize("name", ["V", "M", "sMax", "receiverModel", "userCount"])
def test_sweep_rejects_a_name_that_is_not_a_config_key(config_file, tmp_path, capsys, name):
    rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "s"), "--param", name, "--values", "1"])
    assert rc == 2
    assert repr(name) in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_validate_small_counts_pass(capsys):
    rc = main(["validate", "--instances", "60", "--cases", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "greedy_vs_exhaustive: 60/60" in out
    assert "gamma_closed_form: 40/40" in out


def test_validate_injected_failure_exits_1(monkeypatch, capsys):
    failing = validate.SuiteResult("ledger_fuzz", 0, 1, {"case": 0, "reason": "injected"})
    monkeypatch.setattr(validate, "ledger_fuzz", lambda cases, seed: failing)
    rc = main(["validate", "--instances", "5", "--cases", "5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert json.loads(err) == {"suite": "ledger_fuzz", "counterexample": {"case": 0, "reason": "injected"}}


@pytest.mark.parametrize("option", ["--seed", "--instances", "--cases"])
@pytest.mark.parametrize("value", ["-1", "-5"])
def test_validate_negative_count_or_seed_exits_2(capsys, option, value):
    args = {"--seed": "7", "--instances": "5", "--cases": "5", option: value}
    rc = main(["validate", *(x for pair in args.items() for x in pair)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"argument {option}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_topology_dump(config_file, tmp_path):
    out = str(tmp_path / "topo")
    rc = main(["topology", "--config", config_file, "--out", out])
    assert rc == 0
    rows = read_csv(os.path.join(out, "nodes.csv"))
    assert {r["nodeType"] for r in rows} == {"helper", "user"}
    # Byte-for-byte pins of both files for SMALL_CONFIG's explicit layouts.
    for name, digest in TOPOLOGY_DUMP_SHA256.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_usage_error_exits_2():
    assert main(["frobnicate"]) == 2
    assert main(["sweep", "--param", "utility.v"]) == 2  # missing --values


@pytest.mark.parametrize("command", ["run", "sweep", "topology"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under_file"])
def test_out_naming_a_file_exits_2_before_simulating(monkeypatch, tmp_path, capsys, command, below):
    from streamsched import engine

    def not_called(*args, **kwargs):
        raise AssertionError("simulated before --out was checked")

    monkeypatch.setattr(engine, "run", not_called)
    monkeypatch.setattr(engine, "build_network", not_called)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile / "sub" if below else afile
    extra = ["--param", "utility.v", "--values", "1e2"] if command == "sweep" else []
    rc = main([command, "--out", str(out), "--set", "topology.mean_users=5", *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err
    assert afile.read_text() == "keep" and [p.name for p in tmp_path.iterdir()] == ["afile"]
