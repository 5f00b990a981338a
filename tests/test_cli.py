"""Command-line interface: subcommands, records, exit codes."""
from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import judipart
from judipart import (
    __version__,
    cli,
    e_between,
    from_arc_list,
    load_edge_list,
    save_edge_list,
)
from judipart.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def gen_instance(tmp_path, capsys, family="skew-d4", n=12, extra=()):
    path = tmp_path / "inst.txt"
    rc, _, _ = run(capsys, "gen", family, "--n", str(n), *extra, "-o", str(path))
    assert rc == 0
    return path


def test_gen_writes_instance_and_props(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    D = load_edge_list(path)
    assert D.n == 12 and D.m == 55
    props = json.loads((tmp_path / "inst.txt.props.json").read_text())
    assert props["family"] == "skew-d4"
    assert props["m"] == 55 and props["min_outdegree"] == 4
    assert props["params"] == {"n": 12}


def test_gen_each_family(tmp_path, capsys):
    cases = [
        ("eulerian", ["--q", "5"]),
        ("tight-union", ["--d", "3", "--copies", "2"]),
        ("star-triangle", ["--n", "8"]),
        ("skew-d4", ["--n", "11"]),
        ("skew-d6", ["--n", "30", "--seed", "3"]),
        ("random", ["--n", "15", "--d", "2", "--extra", "4", "--seed", "1"]),
    ]
    for i, (family, flags) in enumerate(cases):
        path = tmp_path / f"g{i}.txt"
        rc, out, _ = run(capsys, "gen", family, *flags, "-o", str(path))
        assert rc == 0 and "wrote" in out
        assert load_edge_list(path).m > 0


def test_gen_missing_required_param(tmp_path, capsys):
    rc, _, err = run(capsys, "gen", "eulerian", "-o", str(tmp_path / "x.txt"))
    assert rc == 2 and "needs --q" in err


# every family's flags, the outdegree as OUTDEG (gen --d, elsewhere --gen-d),
# and the engine's --d
FAMILY_FLAGS = [
    ("eulerian", ["--q", "7"], "3"),
    ("tight-union", ["OUTDEG", "4", "--copies", "2", "--augment"], "4"),
    ("star-triangle", ["--n", "8"], "1"),
    ("skew-d4", ["--n", "20"], "4"),
    ("skew-d6", ["--n", "30"], "6"),
    ("random", ["--n", "30", "OUTDEG", "3", "--extra", "5"], "3"),
]


@pytest.mark.parametrize("family, flags, d", FAMILY_FLAGS,
                         ids=[f for f, _, _ in FAMILY_FLAGS])
def test_gen_and_partition_gen_share_generator_flags(tmp_path, capsys, family,
                                                      flags, d):
    def spelled(outdeg):
        return [outdeg if f == "OUTDEG" else f for f in flags]

    path = str(tmp_path / "inst.txt")
    rc, _, err = run(capsys, "gen", family, *spelled("--d"), "--seed", "3", "-o", path)
    assert rc == 0, err
    engine = ("--d", d, "--trials", "8", "--seed", "3", "--json")
    rc1, out1, err1 = run(capsys, "partition", "--input", path, *engine)
    rc2, out2, err2 = run(capsys, "partition", "--gen", family,
                          *spelled("--gen-d"), *engine)
    assert rc1 == rc2 == 0, err1 + err2
    assert json.loads(out1)["outcome"] == json.loads(out2)["outcome"]
    # gap --x-auto reports the X that partition used
    rc3, out3, err3 = run(capsys, "gap", "--input", path, "--x-auto", "--json")
    assert rc3 == 0, err3
    assert json.loads(out3)["outcome"]["x"] == json.loads(out1)["outcome"]["x"]


@pytest.mark.parametrize("command, flags", [
    ("partition", ["--d", "3", "--trials", "4"]),
    ("oracle", []),
    ("gap", ["--x-auto"]),
    ("tight", ["--x-auto"]),
    ("certify", ["--x-auto", "--d", "3"]),
])
def test_one_record_goes_to_stdout_and_to_the_file(tmp_path, capsys, command,
                                                    flags):
    rec_path = tmp_path / "rec.json"
    rc, out, err = run(capsys, command, "--gen", "eulerian", "--q", "7", *flags,
                       "--json", "-o", str(rec_path))
    assert rc == 0, err
    assert set(json.loads(out)) == {
        "command", "input", "config", "outcome", "version", "wall_time_s"}
    assert rec_path.read_text() == out  # the JSON text and one newline


def test_partition_json_record_and_determinism(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    args = ("partition", "--input", str(path), "--d", "4",
            "--trials", "8", "--seed", "5", "--json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["command"] == "partition"
    assert r1["version"] == __version__
    assert r1["config"] == {"d": 4, "eps": 0.01, "trials": 8, "seed": 5}
    assert r1["outcome"] == r2["outcome"]  # wall time lives outside outcome
    assert r1["outcome"]["cut"]["min"] <= r1["outcome"]["cut"]["e12"]
    assert "wall_time_s" in r1


def test_partition_record_file_and_certify_flag(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    rec_path = tmp_path / "rec.json"
    rc, out, _ = run(capsys, "partition", "--input", str(path), "--d", "4",
                     "--trials", "4", "--seed", "0", "--certify",
                     "-o", str(rec_path))
    assert rc == 0
    assert "best candidate=" in out and "bundle:" in out
    rec = json.loads(rec_path.read_text())
    assert rec["outcome"]["certificate"]["checks"]


def test_partition_generated_inline(capsys):
    rc, out, _ = run(capsys, "partition", "--gen", "eulerian", "--q", "7",
                     "--d", "3", "--trials", "16", "--seed", "2")
    assert rc == 0
    assert "min=6" in out or "min=" in out


def test_oracle_subcommand(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys, family="eulerian", n=0,
                        extra=["--q", "7"])
    # gen for eulerian ignores --n; regenerate properly
    rc, out, _ = run(capsys, "oracle", "--input", str(path), "--json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["outcome"]["optimum"] == 6
    assert rec["outcome"]["evaluated"] == 2 ** 6


def test_oracle_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "big.txt"
    rc, _, _ = run(capsys, "gen", "random", "--n", "30", "--d", "1",
                   "-o", str(path))
    assert rc == 0
    rc, _, err = run(capsys, "oracle", "--input", str(path), "--limit", "24")
    assert rc == 3 and "limit" in err.lower()


def test_gap_subcommand_x_file_and_auto(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys, n=20)
    xfile = tmp_path / "x.txt"
    xfile.write_text("# the heavy vertices\n0\n1\n2\n3\n4\n")
    rc, out, _ = run(capsys, "gap", "--input", str(path),
                     "--x-file", str(xfile), "--json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["outcome"]["theta_abs"] == 15
    assert rec["outcome"]["x1"] == [4]
    rc2, out2, _ = run(capsys, "gap", "--input", str(path), "--x-auto", "--json")
    assert rc2 == 0
    assert json.loads(out2)["outcome"]["theta_abs"] == 15


@pytest.mark.parametrize("command, flags", [
    ("gap", []), ("tight", []), ("certify", ["--d", "4"]),
])
def test_x_records_name_how_x_was_chosen(tmp_path, capsys, command, flags):
    path = gen_instance(tmp_path, capsys, n=20)
    xfile = tmp_path / "x.txt"
    xfile.write_text("0\n1\n")
    base = {"d": 4, "eps": 0.01} if command == "certify" else {}
    for xflags, x_auto, x_file in [
        (["--x-file", str(xfile)], False, str(xfile)),
        (["--x-auto"], True, None),
        ([], False, None),
    ]:
        rc, out, err = run(capsys, command, "--input", str(path), *xflags,
                           *flags, "--json")
        assert rc == 0, err
        assert json.loads(out)["config"] == {**base, "x_auto": x_auto,
                                             "x_file": x_file}


@pytest.mark.parametrize("command", ["gap", "tight", "certify"])
def test_threshold_exp_flag_is_a_usage_error(tmp_path, capsys, command):
    """X is the engine's fixed n^(3/4) split; no flag moves it."""
    path = gen_instance(tmp_path, capsys)
    d = ["--d", "4"] if command == "certify" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(path), "--x-auto", *d,
              "--threshold-exp", "0.5"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: judipart")
    assert "unrecognized arguments: --threshold-exp 0.5" in out.err


def hub_cycle_instance(tmp_path, hubs=25, leaves=125):
    """Hubs 0..hubs-1 each point to the next two hubs, so e(X) > 0; every
    leaf has arcs to and from ten consecutive hubs, which puts exactly the
    hubs above the n^0.75 degree threshold."""
    arcs = [(h, (h + s) % hubs) for h in range(hubs) for s in (1, 2)]
    for j in range(leaves):
        leaf = hubs + j
        for i in range(10):
            hub = (j + i) % hubs
            arcs.append((leaf, hub) if i % 2 == 0 else (hub, leaf))
    D = from_arc_list(hubs + leaves, arcs)
    path = tmp_path / "hubs.txt"
    save_edge_list(D, path)
    return D, path


def test_gap_and_partition_with_large_x_spanning_arcs(tmp_path, capsys):
    D, path = hub_cycle_instance(tmp_path)
    rc, out, err = run(capsys, "gap", "--input", str(path), "--x-auto", "--json")
    assert rc == 0, err
    xs = json.loads(out)["outcome"]["x"]
    assert xs == list(range(25)) and e_between(D, xs, xs) == 50
    rc, out, err = run(capsys, "partition", "--input", str(path), "--d", "4",
                       "--trials", "4", "--json")
    assert rc == 0, err
    assert json.loads(out)["outcome"]["x"] == xs


@pytest.mark.parametrize("exc, shown", [
    (MemoryError("Unable to allocate 74.5 GiB"), "Unable to allocate 74.5 GiB"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_exits_three(monkeypatch, capsys, exc, shown):
    def exhausted(args, D):
        raise exc

    monkeypatch.setattr(cli, "cmd_oracle", exhausted)
    rc, _, err = run(capsys, "oracle", "--gen", "eulerian", "--q", "5")
    assert rc == 3 and err == f"limit exceeded: {shown}\n"


@pytest.mark.parametrize("command", ["partition", "oracle"])
def test_unaddressable_vertex_count_exits_three(tmp_path, capsys, command):
    path = tmp_path / "huge.txt"
    path.write_text("4611686018427387904 0\n")  # 2**62 vertices, no arcs
    extra = ("--d", "4") if command == "partition" else ()
    rc, out, err = run(capsys, command, "--input", str(path), *extra)
    assert rc == 3 and out == ""
    assert err.startswith("limit exceeded: vertex count n=4611686018427387904")


def test_gap_x_file_rejects_bad_vertex(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    xfile = tmp_path / "x.txt"
    xfile.write_text("0\n99\n")
    rc, _, err = run(capsys, "gap", "--input", str(path), "--x-file", str(xfile))
    assert rc == 2 and "99" in err


def test_tight_subcommand(tmp_path, capsys):
    path = tmp_path / "tu.txt"
    rc, _, _ = run(capsys, "gen", "tight-union", "--d", "4", "--copies", "2",
                   "-o", str(path))
    assert rc == 0
    xfile = tmp_path / "empty_x.txt"
    xfile.write_text("")
    rc, out, _ = run(capsys, "tight", "--input", str(path),
                     "--x-file", str(xfile), "--json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["outcome"]["tau"] == 3
    assert len(rec["outcome"]["components"]) == 3


def test_tight_text_lists_twenty_components_then_a_count(capsys):
    rc, out, err = run(capsys, "tight", "--gen", "tight-union", "--gen-d", "2",
                       "--copies", "22")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].endswith("components=23 tau=23")
    assert len(lines) == 22 and lines[-1] == "  ... 3 more"


def test_certify_subcommand(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys, family="skew-d6", n=60,
                        extra=["--seed", "2"])
    rc, out, _ = run(capsys, "certify", "--input", str(path), "--x-auto",
                     "--d", "6")
    assert rc == 0
    assert "bundle:" in out and ("[PASS]" in out or "[FAIL]" in out)


def test_missing_input_file(capsys):
    rc, _, err = run(capsys, "partition", "--input", "/nonexistent/g.txt",
                     "--d", "4")
    assert rc == 2 and "error" in err


def test_bad_edge_list_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    rc, _, err = run(capsys, "oracle", "--input", str(bad))
    assert rc == 2 and "loop" in err


@pytest.mark.parametrize("text, lineno", [
    pytest.param(b"3 1\n0 99999999999999999999\n", 2, id="id-over-int64"),
    pytest.param(b"3 1\n0 9223372036854775808\n", 2, id="id-2^63"),
    pytest.param(b"99999999999999999999 1\n0 1\n", 1, id="header-over-int64"),
    pytest.param(b"# c\n3 1\n0 1 2\n", 3, id="three-tokens"),
    pytest.param(b"3 1\n\n0 x\n", 3, id="non-integer"),
    pytest.param(b"3 1\n0 1.0\n", 2, id="float"),
    pytest.param(b"3 1\n1_000 1\n", 2, id="python-literal"),
    pytest.param(b"3 1\r\n0 \xff\r\n", 2, id="not-utf8"),
])
def test_malformed_edge_list_names_its_line(tmp_path, capsys, text, lineno):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text)
    for cmd in (["partition", "--d", "1"], ["oracle"]):
        rc, out, err = run(capsys, *cmd, "--input", str(bad))
        assert rc == 2 and not out
        assert err.startswith(f"error: line {lineno}: ")


def test_partition_warns_once_on_stdout_only(capsys):
    """An overstated --d is one "warning:" line and one outcome.warnings
    entry; stderr stays empty and no Python warning is raised."""
    args = ("partition", "--gen", "star-triangle", "--n", "8", "--d", "2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *args)
        assert rc == 0 and err == ""
        warned = [ln for ln in out.splitlines() if ln.startswith("warning:")]
        assert warned == ["warning: configured d=2 exceeds the actual minimum "
                          "outdegree 1; proceeding, with both recorded"]
        rc, out, err = run(capsys, *args, "--json")
    assert rc == 0 and err == ""
    assert json.loads(out)["outcome"]["warnings"] == [warned[0][len("warning: "):]]


def test_partition_of_an_empty_graph_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    rc, out, err = run(capsys, "partition", "--input", str(path), "--d", "1")
    assert rc == 2 and out == ""
    assert err == "error: cannot partition an empty graph\n"


def test_partition_p_sweep_flag_is_a_usage_error(tmp_path, capsys):
    """Every candidate's p is fixed; there is no sweep over extra p values."""
    path = gen_instance(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--input", str(path), "--d", "4", "--p-sweep", "0.3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --p-sweep 0.3" in out.err


def test_argparse_level_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "no-such-family", "-o", "/tmp/x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main([])
    assert exc2.value.code == 2


def test_partition_rounds_flag_is_a_usage_error(tmp_path, capsys):
    """The local search runs to a single-flip optimum; there is no round cap."""
    path = gen_instance(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--input", str(path), "--d", "4", "--rounds", "3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: judipart")
    assert "unrecognized arguments: --rounds 3" in out.err


@pytest.mark.parametrize("where", ["input", "x-file", "output"])
def test_directory_in_place_of_a_file_exits_two(tmp_path, capsys, where):
    path = gen_instance(tmp_path, capsys)
    paths = {"input": path, "x-file": tmp_path / "x.txt", "output": tmp_path / "rec.json"}
    paths["x-file"].write_text("0\n")
    paths[where] = tmp_path
    rc, out, err = run(capsys, "certify", "--input", str(paths["input"]), "--d", "4",
                       "--x-file", str(paths["x-file"]), "-o", str(paths["output"]))
    assert rc == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "0x1", "1.0", "1 2"])
def test_x_file_ids_follow_the_edge_list_token_rule(tmp_path, capsys, token):
    """An x-file id is a decimal int64 token, as in the edge list: no digit
    separators, no non-ASCII digits, no hex, no float, one per line."""
    path = gen_instance(tmp_path, capsys)
    xfile = tmp_path / "x.txt"
    xfile.write_text(f"0\n{token}  # a comment\n", encoding="utf-8")
    rc, out, err = run(capsys, "gap", "--input", str(path), "--x-file", str(xfile))
    assert rc == 2 and out == ""
    assert err == f"error: {xfile}:2: not a vertex id: {token!r}\n"


def test_x_file_accepts_a_sign_and_leading_zeros(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    xfile = tmp_path / "x.txt"
    xfile.write_text("+2\n007\n\n# comment\n  3 # trailing\n")
    rc, out, err = run(capsys, "gap", "--input", str(path), "--x-file", str(xfile),
                       "--json")
    assert rc == 0 and err == ""
    assert json.loads(out)["outcome"]["x"] == [2, 3, 7]


def test_x_file_not_utf8_names_its_line(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    xfile = tmp_path / "x.txt"
    xfile.write_bytes(b"0\n# caf\xe9 is skipped\n\xff1\n")
    rc, _, err = run(capsys, "gap", "--input", str(path), "--x-file", str(xfile))
    assert rc == 2 and err.startswith(f"error: {xfile}:3: not a vertex id")


@pytest.mark.parametrize("family, flags", [
    ("random", ["--n", "15", "--gen-d", "2"]),
    ("skew-d6", ["--n", "30"]),
])
def test_negative_generator_seed_exits_two(capsys, family, flags):
    rc, out, err = run(capsys, "partition", "--gen", family, *flags,
                       "--seed", "-1", "--d", "2")
    assert rc == 2 and out == "" and err == "error: seed must be >= 0, got -1\n"


def test_trials_beyond_addressable_words_exit_three(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    rc, out, err = run(capsys, "partition", "--input", str(path), "--d", "4",
                       "--trials", str(2 ** 62))
    assert rc == 3 and out == ""
    assert err.startswith("limit exceeded: ") and "too many to pack" in err
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    """python -m judipart is the same command line, from a checkout too."""
    env = dict(os.environ, PYTHONPATH=str(Path(judipart.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "judipart", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, __version__ + "\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["partition", "--help"],
                                  ["gen", "--help"]])
def test_help_prints_the_argparse_text_and_exits_zero(capsys, argv):
    """Help goes through main's final print: on an open stdout its text is
    byte for byte what argparse's own print_help writes, gen's positional
    FAMILY with its choices included."""
    parser = cli.build_parser()
    if len(argv) > 1:
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[argv[0]]
    want = io.StringIO()
    argparse.ArgumentParser.print_help(parser, want)
    assert run(capsys, *argv) == (0, want.getvalue(), "")


def test_closed_stdout_exits_one_and_writes_no_error():
    """A reader that closed the pipe before the result was printed: exit 1,
    Python's convention for EPIPE, and nothing on stderr. --help and
    --version print through the same final print."""
    env = dict(os.environ, PYTHONPATH=str(Path(judipart.__file__).parents[1]))
    for argv in (["partition", "--gen", "eulerian", "--q", "7", "--d", "3", "--json"],
                 ["--version"], ["--help"], ["partition", "--help"], ["gen", "--help"]):
        r, w = os.pipe()
        os.close(r)
        try:
            done = subprocess.run([sys.executable, "-m", "judipart", *argv],
                                  stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(w)
        assert (done.returncode, done.stderr) == (1, b""), argv
