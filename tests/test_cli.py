"""CLI regression suite: subcommand semantics, exit codes, JSON/text parity."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mainswitch import (
    TOOL_VERSION,
    Certificate,
    GraphFormatError,
    adjacency_matrix,
    as_signed,
    canonical_graph6,
    format_signed_edge_list,
    main_profile,
    parse_graph6,
    parse_signed_edge_list,
    verify_certificate,
)
from mainswitch import cli, search
from mainswitch.cli import run
from mainswitch.graphs import Graph, emit_graph6
from conftest import graph6_like, sel_like
from test_spectral import _cli_size_graphs

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with args that imports mainswitch from SRC."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))


def test_spectrum_text_and_json(capsys):
    assert run(["spectrum", "Bw"]) == 0
    text = capsys.readouterr().out
    assert "2.000000000000" in text
    assert run(["spectrum", "Bw", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3 and list(payload) == ["n", "groups"]
    for group in payload["groups"]:
        assert list(group) == ["value", "multiplicity", "is_main", "main_mass"]
    mains = [g for g in payload["groups"] if g["is_main"]]
    assert len(mains) == 1 and abs(mains[0]["value"] - 2.0) < 1e-9
    nonmain = [g for g in payload["groups"] if not g["is_main"]]
    assert nonmain[0]["multiplicity"] == 2


def test_spectrum_from_sel_file(tmp_path, capsys):
    f = tmp_path / "tri.sel"
    f.write_text("3 3\n1 2 +\n1 3 -\n2 3 +\n")
    assert run(["spectrum", f"@{f}", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3


def test_spectrum_merged_groups_fail_the_exact_check(capsys):
    # K3 has eigenvalues -1, -1, 2: a group gap of 4 merges them into one
    # group, against 2 distinct eigenvalues.  The report is still printed.
    assert run(["spectrum", "Bw", "--group-eps", "4"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("n=3\n") and len(out.splitlines()) == 3
    assert err == ("record 1: float groups=1 main=1 disagree with exact "
                   "distinct_count=2 main_count=1\n")


def test_spectrum_reports_every_record_and_fails_the_one_that_disagrees(tmp_path, capsys):
    # K3's groups lie 3 apart and K2's 2 apart: a gap of 2.5 merges K2 only.
    f = tmp_path / "mixed.g6"
    f.write_text("Bw\nA_\nBw\n")
    assert run(["spectrum", f"@{f}", "--json", "--group-eps", "2.5"]) == 1
    out, err = capsys.readouterr()
    groups = [len(json.loads(line)["groups"]) for line in out.splitlines()]
    assert groups == [2, 1, 2]
    assert err == ("record 2: float groups=1 main=1 disagree with exact "
                   "distinct_count=2 main_count=1\n")


@pytest.mark.parametrize("n", [20, 37, 60, 62])
def test_spectrum_agrees_with_main_profile_at_cli_sizes(tmp_path, capsys, n):
    for g in _cli_size_graphs(n):
        f = tmp_path / "g.sel"
        f.write_text(format_signed_edge_list(as_signed(g)))
        assert run(["spectrum", f"@{f}", "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        groups = json.loads(out)["groups"]
        profile = main_profile(adjacency_matrix(g))
        assert len(groups) == profile.distinct_count
        assert sum(grp["is_main"] for grp in groups) == profile.main_count


def test_main_profile_text_and_json(capsys):
    assert run(["main-profile", "Bw"]) == 0
    assert "main_count=1 distinct_count=2 all_main=false" in capsys.readouterr().out
    assert run(["main-profile", "Bw", "--json"]) == 0
    assert capsys.readouterr().out == '{"main_count": 1, "distinct_count": 2, "all_main": false}\n'


def test_find_switching_success(capsys):
    assert run(["find-switching", "Bw"]) == 0
    cert = Certificate.from_json_dict(json.loads(capsys.readouterr().out))
    assert cert.all_main and verify_certificate(cert)


def test_find_switching_exception_exit_code(capsys):
    assert run(["find-switching", "A_"]) == 1
    assert "NO SWITCHING (exception)" in capsys.readouterr().out


def test_find_switching_json_exception(capsys):
    assert run(["find-switching", "A_", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_main_switching"] is None
    assert payload["main_counts"] == [1, 1]


def test_construct_snr(capsys):
    assert run(["construct", "snr", "--n", "8", "--r", "3"]) == 0
    cert = Certificate.from_json_dict(json.loads(capsys.readouterr().out))
    assert cert.all_main and cert.method == "constructive"
    assert verify_certificate(cert)


def test_construct_multipartite(capsys):
    assert run(["construct", "multipartite", "--blocks", "2x3,1x1"]) == 0
    cert = Certificate.from_json_dict(json.loads(capsys.readouterr().out))
    assert cert.all_main and verify_certificate(cert)
    g = parse_graph6(cert.graph6)
    assert g.n == 7


def test_construct_multipartite_one_per_part(capsys):
    assert run(["construct", "multipartite", "--blocks", "1x3,1x2",
                "--one-per-part"]) == 0
    cert = Certificate.from_json_dict(json.loads(capsys.readouterr().out))
    assert cert.switching == (1, 4)
    assert cert.all_main


def test_construct_multipartite_k2_exception(capsys):
    assert run(["construct", "multipartite", "--blocks", "2x1"]) == 1
    assert "NO SWITCHING (exception)" in capsys.readouterr().err


def test_construct_bad_blocks_usage_error(capsys):
    assert run(["construct", "multipartite", "--blocks", "2*3"]) == 2
    assert run(["construct", "multipartite", "--blocks", "1x2,1x3"]) == 2


@pytest.mark.parametrize("argv", [
    ["construct", "multipartite", "--blocks", "1x\u0661\u0660"],   # Arabic-Indic 10
    ["construct", "multipartite", "--blocks", "1_0x1"],
    ["construct", "snr", "--n", "1_0", "--r", "2"],
    ["construct", "snr", "--n", "+8", "--r", "2"],
    ["construct", "snr", "--n", "8", "--r", "\u0662"],
    ["verify-conjecture", "--max-n", "\u0663"],
    ["verify-conjecture", "--max-n", "3", "--workers", " 2"],
], ids=repr)
def test_integer_options_read_ascii_digits_only(capsys, argv):
    # int() would read each of these values.
    try:
        rc = run(argv)
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
        assert "invalid int value" in capsys.readouterr().err
    assert rc == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, value", [
    ("--group-eps", "\u0661"),   # Arabic-Indic 1
    ("--main-eps", "1_0e-9"),
    ("--group-eps", " 1e-9"),
], ids=repr)
def test_tolerance_options_read_ascii_only(capsys, flag, value):
    # float() would read each of these values.
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "Bw", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid float value" in captured.err
    # The repr of a float is still read.
    assert run(["spectrum", "Bw", flag, repr(1e-09), "--json"]) == 0


def test_construct_multipartite_empty_part_usage_error(capsys):
    assert run(["construct", "multipartite", "--blocks", "1x0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: part size must be >= 1, got 0\n"


def test_construct_snr_bad_params():
    assert run(["construct", "snr", "--n", "4", "--r", "3"]) == 2


def test_construct_rejects_n_above_62_before_building(monkeypatch, capsys):
    # The certificate's graph6 cannot name more than 62 vertices; the
    # command must say so without building the graph.
    def refuse(*args):
        raise AssertionError("construction started")

    monkeypatch.setattr(cli, "snr_all_main_switching", refuse)
    monkeypatch.setattr(cli, "multipartite_all_main_switching", refuse)
    for argv in (["construct", "snr", "--n", "100000", "--r", "1"],
                 ["construct", "multipartite", "--blocks", "1x100000"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph6 emission supports n <= 62 only\n"


def test_verify_conjecture_max_n_4(capsys):
    assert run(["verify-conjecture", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "A_" in out and "C^" in out and "9 checked" in out


def test_verify_conjecture_json_parses_back(capsys):
    assert run(["verify-conjecture", "--max-n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graphs_checked"] == 9
    assert payload["n_range"] == [2, 4]
    assert {e["graph6"] for e in payload["exceptions"]} == {"A_", "C^"}


def test_verify_conjecture_graph6_file(tmp_path, capsys):
    f = tmp_path / "cat.g6"
    f.write_text("Bw\nA_\n")
    assert run(["verify-conjecture", "--graph6-file", str(f), "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "2 checked" in out


def test_verify_conjecture_graph6_file_blank_is_usage_error(tmp_path, capsys):
    f = tmp_path / "blank.g6"
    f.write_text("\n  \n")
    assert run(["verify-conjecture", "--graph6-file", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: no graphs to verify\n"


def test_verify_conjecture_graph6_file_without_exceptions(tmp_path, capsys):
    # Every graph of the file has an all-main switching.
    f = tmp_path / "cat.g6"
    f.write_text("Bw\nCF\nC~\n")
    assert run(["verify-conjecture", "--graph6-file", str(f)]) == 0
    out = capsys.readouterr().out
    assert "3 checked" in out and "exceptions: none" in out


def test_verify_conjecture_unexpected_exception_fails(tmp_path, capsys, monkeypatch):
    # K2 alone is a known exception and exits 0; a graph without an all-main
    # switching that is neither K2 nor K4-e must exit 1.  The triangle Bw is
    # made to look like one.
    f = tmp_path / "k2.g6"
    f.write_text("A_\nBw\n")
    assert run(["verify-conjecture", "--graph6-file", str(f)]) == 0
    find = search.find_all_main_switching
    monkeypatch.setattr(search, "find_all_main_switching",
                        lambda g: None if emit_graph6(g) == "Bw" else find(g))
    assert run(["verify-conjecture", "--graph6-file", str(f)]) == 1
    assert "Bw" in capsys.readouterr().out


def test_known_exceptions_are_canonical_graph6():
    k2 = Graph.from_edges(2, [(1, 2)])
    k4e = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert (canonical_graph6(k2), canonical_graph6(k4e)) == ("A_", "C^")


def test_verify_conjecture_non_canonical_k4e_is_known(tmp_path, capsys):
    # C} is K4-e labelled so that its graph6 is not the canonical C^.
    f = tmp_path / "k4e.g6"
    f.write_text("C}\n")
    assert run(["verify-conjecture", "--graph6-file", str(f)]) == 0
    assert "C}  class main counts" in capsys.readouterr().out


def test_verify_conjecture_certificates_file(tmp_path, capsys):
    out = tmp_path / "certs.jsonl"
    assert run(["verify-conjecture", "--max-n", "3", "--certificates", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # K2 is the lone exception among the 3 graphs
    for line in lines:
        assert verify_certificate(Certificate.from_json_dict(json.loads(line)))


def test_verify_conjecture_output_bytes_pinned(tmp_path, capsys):
    # sha256 of the --json report and of the certificate file for n <= 6, so
    # any change to catalog order, canonical labels or certificates shows.
    out = tmp_path / "certs.jsonl"
    assert run(["verify-conjecture", "--max-n", "6", "--json",
                "--certificates", str(out)]) == 0
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == \
        "41c028d27f950d3c3ba92db79788ea4ad8a8ecd208008ad7da3ecc28a76691ed"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "0246eb6867e875b01c031b913c600ed39d033e661a9cd0b096c485d38e01d3b0"


def test_check_cert_pass_and_tamper(tmp_path, capsys):
    out = tmp_path / "certs.jsonl"
    assert run(["verify-conjecture", "--max-n", "3", "--certificates", str(out)]) == 0
    capsys.readouterr()
    assert run(["check-cert", str(out)]) == 0
    capsys.readouterr()
    blobs = [json.loads(line) for line in out.read_text().strip().splitlines()]
    blobs[0]["main_count"] += 1
    out.write_text("\n".join(json.dumps(b) for b in blobs) + "\n")
    assert run(["check-cert", str(out)]) == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err


def test_bad_graph6_is_usage_error(capsys):
    assert run(["spectrum", "~~~"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert run(["spectrum", "@/nonexistent/file.g6"]) == 2


@pytest.mark.parametrize("content", ["", "\n  \n\n"])
@pytest.mark.parametrize("cmd", ["spectrum", "main-profile", "find-switching"])
def test_empty_graph6_file_is_usage_error(tmp_path, capsys, cmd, content):
    f = tmp_path / "empty.g6"
    f.write_text(content)
    assert run([cmd, f"@{f}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no graph6 records in {f}\n"


@pytest.mark.parametrize("cmd", ["spectrum", "main-profile", "find-switching",
                                 "verify-conjecture"])
def test_bad_graph6_record_names_its_line(tmp_path, capsys, cmd):
    f = tmp_path / "bad.g6"
    f.write_text("Bw\n~~bad\nA_\n")
    argv = [cmd, "--graph6-file", str(f)] if cmd == "verify-conjecture" else [cmd, f"@{f}"]
    assert run(argv) == 2
    assert capsys.readouterr().err == ("error: graph6 record 2: multi-byte vertex count "
                                       "(n > 62) not supported (byte 0)\n")


def test_verify_conjecture_disconnected_record_names_its_line(tmp_path, capsys):
    f = tmp_path / "cat.g6"
    f.write_text("Bw\n\nB_\n")  # line 3: one edge on three vertices
    # find-switching checks every record before it prints a certificate.
    for argv in (["verify-conjecture", "--graph6-file", str(f)],
                 ["find-switching", f"@{f}"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: graph6 record 3: the switching search "
                                "requires a connected graph\n")


def test_sel_above_vertex_cap_is_usage_error(tmp_path, capsys):
    f = tmp_path / "big.sel"
    f.write_text("63 0\n")
    assert run(["main-profile", f"@{f}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_find_switching_rejects_signed_input(tmp_path, capsys):
    f = tmp_path / "neg.sel"
    f.write_text("2 1\n1 2 -\n")
    assert run(["find-switching", f"@{f}"]) == 2


def test_find_switching_accepts_all_positive_sel(tmp_path, capsys):
    f = tmp_path / "pos.sel"
    f.write_text("3 3\n1 2 +\n1 3 +\n2 3 +\n")
    assert run(["find-switching", f"@{f}"]) == 0
    capsys.readouterr()


def test_workers_flag(capsys):
    assert run(["verify-conjecture", "--max-n", "4", "--workers", "2"]) == 0
    capsys.readouterr()


def test_bad_tolerances_and_workers_are_usage_errors(capsys):
    assert run(["spectrum", "Bw", "--group-eps", "-1"]) == 2
    assert run(["spectrum", "Bw", "--main-eps", "0"]) == 2
    for flag in ("--group-eps", "--main-eps"):
        for bad in ("nan", "inf"):
            assert run(["spectrum", "Bw", "--json", flag, bad]) == 2, (flag, bad)
    assert run(["verify-conjecture", "--max-n", "3", "--workers", "0"]) == 2
    assert "error:" in capsys.readouterr().err


_BW_CERT = {"graph6": "Bw", "switching": [2], "distinct_count": 2, "main_count": 2,
            "all_main": True, "method": "brute_force", "tool_version": TOOL_VERSION}


@pytest.mark.parametrize("bad_line, reason", [
    (json.dumps(dict(_BW_CERT, all_main="false")), "all_main"),
    (json.dumps(dict(_BW_CERT, switching=[2, 2.7])), "switching"),
    (json.dumps(dict(_BW_CERT, method="guess")), "method"),
    (json.dumps(dict(_BW_CERT, negative=[[1, 2]])), "unknown fields: ['negative']"),
    ("3", "JSON object"),
    # json.loads gives up on this line with a RecursionError.
    pytest.param("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded",
                 id="deeply-nested"),
])
def test_check_cert_rejects_malformed_line(tmp_path, capsys, bad_line, reason):
    f = tmp_path / "certs.jsonl"
    f.write_text(json.dumps(_BW_CERT) + "\n\n" + bad_line + "\n")
    assert run(["check-cert", str(f)]) == 2
    err = capsys.readouterr().err
    assert "certificate 3:" in err and reason in err


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)
_cert_like = st.fixed_dictionaries({
    "graph6": st.sampled_from(["Bw", "A_", "C^", "~", ""]) | st.text(max_size=4),
    "switching": st.lists(st.integers(-2, 6), max_size=4) | _json_values,
    "distinct_count": st.integers(-1, 4) | _json_values,
    "main_count": st.integers(-1, 4) | _json_values,
    "all_main": st.booleans() | _json_values,
    "method": st.sampled_from(["brute_force", "constructive"]) | _json_values,
    "tool_version": st.just(TOOL_VERSION) | _json_values,
})
_lines = (st.builds(json.dumps, _cert_like | _json_values)
          | st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20))


@given(st.lists(_lines, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_check_cert_never_raises(tmp_path, lines):
    f = tmp_path / "fuzz.jsonl"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["check-cert", str(f)]) in (0, 1, 2)


def test_usage_error_exit_code_via_argparse():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Fuzzed inputs: every one parses or is rejected with exit code 2
# ---------------------------------------------------------------------------


_inputs = (st.tuples(st.just("arg"), graph6_like(9))
           | st.tuples(st.just("g6"), st.lists(graph6_like(9), max_size=3).map("\n".join))
           | st.tuples(st.just("sel"), sel_like))
_eps = st.floats(allow_nan=True).map(repr) | st.sampled_from(["0", "-1", "x", "1e400", "-inf"])


@given(st.sampled_from(["spectrum", "main-profile", "find-switching"]), _inputs,
       st.booleans(), st.none() | _eps, st.none() | _eps)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_graph_subcommands_never_raise(tmp_path, capsys, cmd, source, as_json, group_eps, main_eps):
    kind, text = source
    if kind == "arg":
        argv = [cmd, text]
    else:
        if kind == "sel":
            try:
                assume(parse_signed_edge_list(text).n <= 9)
            except GraphFormatError:
                pass
        f = tmp_path / f"fuzz.{kind}"
        f.write_text(text, encoding="utf-8")
        argv = [cmd, f"@{f}"]
    argv += ["--json"] if as_json else []
    if cmd == "spectrum":
        argv += ["--group-eps", group_eps] if group_eps is not None else []
        argv += ["--main-eps", main_eps] if main_eps is not None else []
    capsys.readouterr()
    try:
        rc = run(argv)
    except SystemExit as exc:  # argparse rejects the command line
        assert exc.code == 2
        return
    err = capsys.readouterr().err
    assert rc in ((0, 2) if cmd == "main-profile" else (0, 1, 2))
    if rc == 2:
        assert err.startswith("error: ")
    elif rc == 1 and cmd == "spectrum":
        # Fuzzed tolerances can merge or split groups: the exact check says so.
        assert err and all(" disagree with exact distinct_count=" in line
                            for line in err.splitlines())


# ---------------------------------------------------------------------------
# Cold start: the CLI needs numpy alone
# ---------------------------------------------------------------------------


def test_cli_import_leaves_out_scipy_and_multiprocessing(tmp_path):
    proc = _python(
        tmp_path, "-c",
        "import sys, mainswitch.cli\n"
        "print([m for m in ('scipy', 'multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_WITHOUT_SCIPY = """
import contextlib, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from mainswitch.cli import main

def exit_code(argv, out=None):
    try:
        with contextlib.redirect_stdout(out or sys.stdout):
            main(argv)
    except SystemExit as exc:
        return exc.code

codes = []
with open("family.jsonl", "w") as fh:
    codes.append(exit_code(["construct", "multipartite", "--blocks", "3x4,2x2,1x1"], fh))
    codes.append(exit_code(["construct", "snr", "--n", "12", "--r", "3"], fh))
codes.append(exit_code(["check-cert", "family.jsonl"]))
codes.append(exit_code(["spectrum", "Bw", "--json"]))
print(codes)
"""


def test_cli_runs_without_scipy(tmp_path):
    proc = _python(tmp_path, "-c", _WITHOUT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "[0, 0, 0, 0]"
    assert "2/2 certificates verified" in lines
    assert json.loads(lines[-2])["n"] == 3


def test_python_dash_m_runs_the_cli(tmp_path):
    # No console script needed: the package runs as a module.
    proc = _python(tmp_path, "-m", "mainswitch", "construct", "multipartite",
                   "--blocks", "1x3,2x1")
    assert proc.returncode == 0, proc.stderr
    assert '"switching": [2, 4]' in proc.stdout
