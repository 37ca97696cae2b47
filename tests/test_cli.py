import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsskit
from dsskit import (
    LocalSubspace,
    Party,
    ProductOperator,
    PureState,
    SystemShape,
    Tolerance,
    bell_state,
    check_rank_bound,
    fileio,
    find_dss,
    ghz_state,
    project,
    search_dss,
    tensor_power,
    three_qubit_example,
    werner,
    werner_two_copy,
)
from dsskit import cli
from dsskit.cli import main

from helpers import count_opens, count_solver_calls, render_report_reference, spy_on_the_general_path

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("elapsed ms:")) + "\n"


def test_find_single_copy_returns_exit_2(capsys):
    code, out, _ = run_cli(capsys, "dss", "find", "--state", "example3q", "--p", "0.5")
    assert code == 2
    assert "no DSS found over supplied bases" in out
    assert "candidates: 27" in out


def test_find_three_werner_copies_returns_exit_2(capsys):
    code, out, _ = run_cli(capsys, "dss", "find", "--state", "werner", "--F", "0.9", "--copies", "3")
    assert code == 2
    assert "no DSS found over supplied bases" in out
    assert "candidates: 65025" in out


def test_find_two_copies_returns_certificate(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2",
        "--json", str(json_path),
    )
    assert code == 0
    assert "candidates: 3375" in out
    doc = json.loads(json_path.read_text())
    assert doc["command"] == "dss find"
    certs = doc["results"]["certificates"]
    assert any(
        c["subspace"]["per_party_indices"] == {"A": [1, 2], "B": [1, 2], "C": [1, 2]}
        for c in certs
    )
    first = certs[0]
    assert first["rank_bound_check"]["satisfied"]
    assert first["rank_bound_check"]["bound"] == 57
    assert abs(first["weight"] - 0.125) < 1e-9


def test_find_reads_no_padded_block(capsys, monkeypatch):
    # 23 of the 24 certificates of example3q(0.5)^2 are zero-padded copies
    # of one core: dss find reads that core's block only, and find_dss then
    # reads the 23 padded ones for their states.
    read = []
    original = dsskit.subspaces._SearchContext._read

    def recording_read(ctx, picks, side):
        read.extend(np.ravel_multi_index(picks, [len(s) for s in ctx.subsets]).tolist())
        return original(ctx, picks, side)

    monkeypatch.setattr(dsskit.subspaces._SearchContext, "_read", recording_read)
    code, out, _ = run_cli(capsys, "dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2")
    assert code == 0 and "certificates_found: 24" in out
    search = search_dss(three_qubit_example(0.5), copies=2)
    assert [c.subspace.basis_indices for c in search.cores] == [((1, 2), (1, 2), (1, 2))]
    # {1, 2} is subset 5 (bitmask 6) of each party's 15: position 1205, read
    # once by the CLI's search and once by search_dss.
    assert read == [1205, 1205]
    read.clear()
    certs = find_dss(three_qubit_example(0.5), copies=2)
    assert len(read) == 24 and sorted(read[1:]) == sorted(set(read[1:]))
    assert [c.subspace.basis_indices for c in certs] == [r.indices for r in search.records]


def test_find_without_entanglement_reports_every_pure_projection(capsys):
    # Every pure candidate of example3q(0.5)^2 is a certificate, each weight
    # as a direct projection of the dense power gives it.
    code, out, _ = run_cli(
        capsys,
        "dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2",
        "--no-require-entangled", "--json", "-",
    )
    assert code == 0
    certs = json.loads(out[out.index("\n{") + 1:])["results"]["certificates"]
    assert len(certs) == 979
    entangled = [c for c in certs if c["classification"] == "pure-entangled"]
    assert len(entangled) == 24 and all(c["signature"] == [2, 2, 2] for c in entangled)
    assert sum(c["classification"] == "pure-product" for c in certs) == 955
    two = tensor_power(three_qubit_example(0.5), 2)
    for c in certs:
        sub = LocalSubspace.from_indices(two.shape, c["subspace"]["per_party_indices"])
        assert c["weight"] == project(two, sub).weight


def test_rank_bound_checks_match_library(capsys, tmp_path):
    # The CLI measures the n-copy rank once per run; each certificate's
    # check must still read as check_rank_bound reports it.
    single = three_qubit_example(0.3)
    two = tensor_power(single, 2)
    expected = [check_rank_bound(single, 2, cert) for cert in find_dss(two)]
    json_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "dss", "find", "--state", "example3q", "--p", "0.3", "--copies", "2",
        "--json", str(json_path),
    )
    assert code == 0
    got = [c["rank_bound_check"] for c in json.loads(json_path.read_text())["results"]["certificates"]]
    assert got == [{"rank": r.rank, "bound": r.bound, "satisfied": r.satisfied} for r in expected]

    sub = LocalSubspace.from_indices(two.shape, {lbl: (1, 2) for lbl in "ABC"})
    fileio.write_subspace(str(tmp_path / "sub.json"), sub)
    code, _, _ = run_cli(
        capsys,
        "dss", "check", "--state", "example3q", "--p", "0.3", "--copies", "2",
        "--subspace", str(tmp_path / "sub.json"), "--json", str(json_path),
    )
    assert code == 0
    assert json.loads(json_path.read_text())["results"]["rank_bound_check"] == got[0]


def test_dss_check_accepts_and_refuses(capsys, tmp_path):
    two = tensor_power(three_qubit_example(0.5), 2)
    good = LocalSubspace.from_indices(two.shape, {lbl: (1, 2) for lbl in "ABC"})
    bad = LocalSubspace.from_indices(two.shape, {lbl: (0, 3) for lbl in "ABC"})
    fileio.write_subspace(str(tmp_path / "good.json"), good)
    fileio.write_subspace(str(tmp_path / "bad.json"), bad)

    code, out, _ = run_cli(
        capsys,
        "dss", "check", "--state", "example3q", "--p", "0.5", "--copies", "2",
        "--subspace", str(tmp_path / "good.json"),
    )
    assert code == 0
    assert "accepted: true" in out
    assert "signature: [2, 2, 2]" in out

    code, out, _ = run_cli(
        capsys,
        "dss", "check", "--state", "example3q", "--p", "0.5", "--copies", "2",
        "--subspace", str(tmp_path / "bad.json"),
    )
    assert code == 0
    assert "accepted: false" in out
    assert "refusal: mixed" in out


def test_decompose_command(capsys, tmp_path):
    shape = SystemShape.qubits("AB")
    op = ProductOperator.from_parts(shape, {"A": np.diag([0.5, np.sqrt(3) / 2]).astype(complex)})
    fileio.write_operator(str(tmp_path / "op.json"), op)
    code, out, _ = run_cli(capsys, "decompose", "--operator", str(tmp_path / "op.json"))
    assert code == 0
    assert "retained_dim: 2" in out
    assert "unitary" in out and "projector" in out and "filter" in out


def test_entanglement_command_on_presets(capsys):
    code, out, _ = run_cli(capsys, "entanglement", "--state", "werner", "--F", "0.8")
    assert code == 0
    assert "concurrence: 0.6" in out

    code, out, _ = run_cli(capsys, "entanglement", "--state", "ghz")
    assert code == 0
    assert "pure: true" in out
    assert "signature: [2, 2, 2]" in out


def test_filter_compare_with_grid(capsys):
    code, out, _ = run_cli(capsys, "filter-compare", "--lambda", "0.9", "--grid", "0.9:0.99:0.025")
    assert code == 0
    assert "improved: true" in out
    assert "grid:" in out


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0.5:nan:0.1", "0.5:1:nan", "0.5:-inf:0.1", "0.5:1:inf"])
def test_grid_with_a_non_finite_bound_or_step_exit_1(capsys, grid):
    code, out, err = run_cli(capsys, "filter-compare", "--lambda", "0.9", "--grid", grid)
    assert code == 1
    assert out == ""
    assert err == f"error: --grid needs finite A, B and STEP, got {grid!r}\n"


def _capped_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="caps the child's memory with RLIMIT_AS")
def test_grid_with_an_infinite_bound_exits_instead_of_looping():
    # A grid up to B = inf once grew its list until killed.  In a child
    # process capped at 1 GiB and 20 s, such a loop fails the test instead
    # of hanging the suite.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "dsskit.cli", "filter-compare", "--lambda", "0.9", "--grid", "0.5:inf:0.1"],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=_capped_address_space,
    )
    assert done.returncode == 1
    assert done.stderr == "error: --grid needs finite A, B and STEP, got '0.5:inf:0.1'\n"


@pytest.mark.skipif(sys.platform != "linux", reason="caps the child's memory with RLIMIT_AS")
@pytest.mark.parametrize(
    "grid,message",
    [
        # 0.5 + 1e-20 == 0.5: the loop once never moved.
        ("0.5:0.6:1e-20", "--grid STEP is too small to move A"),
        # 10^8 points were once built before any work.
        ("0:1:1e-8", f"--grid gives more than {cli._GRID_MAX_POINTS} points"),
    ],
)
def test_grid_that_would_not_end_exits_instead_of_looping(grid, message):
    # In a child process capped at 1 GiB and 20 s, so that a regression
    # fails the test instead of hanging the suite.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "dsskit.cli", "filter-compare", "--lambda", "0.9", "--grid", grid],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=_capped_address_space,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"error: {message}, got {grid!r}\n"


def test_grid_point_cap_is_inclusive():
    assert len(cli._parse_grid("1e-4:1:1e-4")) == cli._GRID_MAX_POINTS
    with pytest.raises(cli.CliUsageError):
        cli._parse_grid("1e-4:1.0001:1e-4")


def test_simulate_builtins(capsys):
    code, out, _ = run_cli(capsys, "simulate", "ghz-example", "--p", "0.5")
    assert code == 0
    assert "success_probability: 0.125" in out
    assert out.count("fidelity: 1") == 8

    code, out, _ = run_cli(capsys, "simulate", "werner-example", "--F", "0.8")
    assert code == 0
    assert "bell_diagonal: true" in out


def test_simulate_protocol_file(capsys, tmp_path):
    rho = werner(0.9)
    fileio.write_state(str(tmp_path / "state.json"), rho)
    sub = LocalSubspace.from_indices(rho.shape, {"A": (0, 1), "B": (0, 1)})
    fileio.write_subspace(str(tmp_path / "sub.json"), sub)
    protocol = {"steps": [{"kind": "project", "subspace": "sub.json"}]}
    (tmp_path / "protocol.json").write_text(json.dumps(protocol))
    code, out, _ = run_cli(
        capsys,
        "simulate", "--protocol", str(tmp_path / "protocol.json"),
        "--state", str(tmp_path / "state.json"),
    )
    assert code == 0
    assert "success_probability: 1" in out


def write_near_orthogonal_inputs(tmp_path) -> None:
    """A pure product state, search bases whose first party-A vector lies
    3e-6 away from orthogonal to the A factor, the subspace on that vector
    and a protocol projecting onto it: projections of weight ~9e-12."""
    shape = SystemShape.qubits("AB")
    u = np.array([np.cos(0.7), np.sin(0.7)], dtype=complex)
    v = np.array([np.cos(1.1), np.sin(1.1)], dtype=complex)
    a = np.array([-u[1], u[0]]) + 3e-6 * u
    a /= np.linalg.norm(a)
    a2 = u - np.vdot(a, u) * a
    a2 /= np.linalg.norm(a2)
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]], dtype=complex)
    rho = PureState(shape, np.kron(u, v)).to_density()
    fileio.write_state(str(tmp_path / "state.json"), rho)
    bases = LocalSubspace((("A", np.column_stack([a, a2])), ("B", rot)))
    fileio.write_subspace(str(tmp_path / "bases.json"), bases)
    fileio.write_subspace(str(tmp_path / "sub.json"), LocalSubspace((("A", a[:, None]), ("B", rot))))
    protocol = {"steps": [{"kind": "project", "subspace": "sub.json"}]}
    (tmp_path / "protocol.json").write_text(json.dumps(protocol))


def test_near_zero_weight_projections_are_results_not_errors(capsys, tmp_path):
    """Renormalizing a weight near 1e-11 magnifies roundoff past the
    hermiticity margin; derived states are not checked again, so these
    commands report instead of failing."""
    write_near_orthogonal_inputs(tmp_path)
    state, sub = str(tmp_path / "state.json"), str(tmp_path / "sub.json")
    code, out, err = run_cli(capsys, "dss", "check", "--state", state, "--subspace", sub)
    assert (code, err) == (0, "")
    assert "accepted: false" in out and "refusal: product" in out

    bases = str(tmp_path / "bases.json")
    code, out, err = run_cli(
        capsys, "dss", "find", "--state", state, "--bases", bases, "--no-require-entangled"
    )
    assert (code, err) == (0, "")
    assert "certificates_found: 9" in out

    protocol = str(tmp_path / "protocol.json")
    code, out, err = run_cli(capsys, "simulate", "--protocol", protocol, "--state", state)
    assert (code, err) == (0, "")
    assert "success_probability: 8.99998939507e-12" in out


def test_rankbound_command(capsys):
    code, out, _ = run_cli(capsys, "rankbound", "--dims", "2,2,2", "--copies", "2", "--signature", "2,2,2")
    assert code == 0
    assert "bound: 57" in out

    code, out, _ = run_cli(
        capsys,
        "rankbound", "--state", "example3q", "--p", "0.5", "--copies", "2", "--signature", "2,2,2",
    )
    assert code == 0
    assert "measured_rank: 4" in out
    assert "satisfied: true" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("dss", "find", "--state", "nonexistent-preset"),
        ("dss", "find", "--state", "werner"),  # missing --F
        ("dss", "find", "--state", "example3q", "--p", "0.5", "--rank-rtol", "0.5"),
        ("filter-compare", "--lambda", "0.9", "--grid", "bad"),
        ("filter-compare",),  # missing required --lambda
        ("simulate",),  # neither builtin nor protocol
        ("rankbound", "--signature", "2,2"),  # neither dims nor state
        ("no-such-command",),
        ("dss", "find", "--state", "example3q", "--p", "5.0"),  # preset validation error
        ("dss", "find", "--state", "bell", "--workers", "4"),  # no such option
        ("rankbound", "--dims", "2,2", "--signature", "2,2,2"),  # one entry per party
        ("rankbound", "--dims", "2,2", "--signature", "5,5"),  # above the dims
        ("rankbound", "--state", "bell", "--signature", "3"),
    ],
)
def test_error_paths_exit_1(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("simulate", "ghz-example", "--p", "0.5", "--state", "werner", "--F", "0.9",
          "--copies", "3", "--protocol", "nonexist.json"), "--state"),
        (("simulate", "ghz-example", "--p", "0.5", "--protocol", "p.json"), "--protocol"),
        (("simulate", "werner-example", "--F", "0.8", "--copies", "1"), "--copies"),
        (("rankbound", "--dims", "2,2", "--state", "bell", "--signature", "2,2"), "--dims"),
        (("simulate", "ghz-example", "--p", "0.5", "--F", "0.9"), "--F"),
        (("simulate", "werner-example", "--F", "0.8", "--lambda", "0.3"), "--lambda"),
        (("entanglement", "--state", "bell", "--lambda", "0.3"), "--lambda"),
        (("dss", "find", "--state", "werner", "--F", "0.9", "--p", "0.5"), "--p"),
        (("rankbound", "--dims", "2,2", "--F", "0.9", "--signature", "2,2"), "--F"),
    ],
    ids=["simulate-state", "simulate-protocol", "simulate-copies", "rankbound-dims",
         "ghz-example-F", "werner-example-lambda", "bell-lambda", "werner-p", "dims-F"],
)
def test_flags_that_would_go_unread_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag} cannot be combined with")


#: One command per input-file flag, the file at ``{path}``.
FILE_INPUTS = pytest.mark.parametrize(
    "argv",
    [
        ("dss", "find", "--state", "{path}"),
        ("dss", "find", "--state", "werner", "--F", "0.9", "--bases", "{path}"),
        ("dss", "check", "--state", "ghz", "--subspace", "{path}"),
        ("decompose", "--operator", "{path}"),
        ("simulate", "--protocol", "{path}", "--state", "werner", "--F", "0.9"),
    ],
    ids=["state", "bases", "subspace", "operator", "protocol"],
)


@FILE_INPUTS
def test_an_undecodable_input_file_is_one_error_line(capsys, tmp_path, argv):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == 1 and out == ""
    decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert err == f"error: {str(path)!r} is not valid JSON: {decode}\n"


def nested_json(depth: int = 100_000) -> str:
    """A JSON array nested deeper than the decoder's recursion limit."""
    return "[" * depth + "]" * depth


@FILE_INPUTS
def test_a_deeply_nested_input_file_is_one_error_line(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text(nested_json())
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {str(path)!r} is not valid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_a_deeply_nested_referenced_file_is_one_error_line(capsys, tmp_path):
    (tmp_path / "deep.json").write_text(nested_json())
    protocol = tmp_path / "protocol.json"
    protocol.write_text(json.dumps({"steps": [{"kind": "project", "subspace": "deep.json"}]}))
    code, out, err = run_cli(capsys, "simulate", "--protocol", str(protocol), "--state", "werner", "--F", "0.9")
    assert code == 1 and out == ""
    assert err == f"error: protocol: step 0: referenced file {str(tmp_path / 'deep.json')!r} is not valid JSON\n"


def test_dss_check_opens_its_subspace_file_once(capsys, tmp_path, monkeypatch):
    shape = SystemShape(tuple(Party(label, (2,) * 3) for label in "ABC"))
    path = tmp_path / "sub.json"
    fileio.write_subspace(str(path), LocalSubspace.from_indices(shape, {label: (2, 4) for label in "ABC"}))
    opens = count_opens(monkeypatch)
    code, out, _ = run_cli(
        capsys, "dss", "check", "--state", "example3q", "--p", "0.6", "--copies", "3",
        "--subspace", str(path), "--json", "-",
    )
    assert code == 0 and "accepted: true" in out
    assert opens == {str(path): 1}


def test_a_state_file_query_opens_the_state_file_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    fileio.write_state(str(path), werner(0.9))
    opens = count_opens(monkeypatch)
    code, out, _ = run_cli(capsys, "entanglement", "--state", str(path), "--json", "-")
    assert code == 0 and '"sha256"' in out
    assert opens == {str(path): 1}


def test_dss_check_decomposes_the_single_copy_once(capsys, tmp_path, monkeypatch):
    # The state's check computes its spectrum, and project's power checks
    # and the rank bound read it.
    shape = SystemShape(tuple(Party(label, (2,) * 3) for label in "ABC"))
    path = tmp_path / "sub.json"
    fileio.write_subspace(str(path), LocalSubspace.from_indices(shape, {label: (2, 4) for label in "ABC"}))
    calls = count_solver_calls(monkeypatch)
    code, _, _ = run_cli(
        capsys, "dss", "check", "--state", "example3q", "--p", "0.6", "--copies", "3", "--subspace", str(path),
    )
    assert code == 0
    assert calls["eigvalsh"] == 1


def test_preset_flags_with_a_state_file_are_usage_errors(capsys, tmp_path):
    path = tmp_path / "state.json"
    fileio.write_state(str(path), werner(0.9))
    code, out, err = run_cli(capsys, "entanglement", "--state", str(path), "--p", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("error: --p cannot be combined with a state file")


def test_dss_check_of_four_copies_builds_no_dense_power(capsys, tmp_path):
    """Side 4096: the dense power alone would take 268 MB."""
    p = 0.6
    shape = SystemShape(tuple(Party(label, (2,) * 4) for label in "ABC"))
    # Copies 1 and 2 span {|01>, |10>} at every party; copies 3 and 4 hold |0>.
    subspace = LocalSubspace.from_indices(shape, {label: (4, 8) for label in "ABC"})
    fileio.write_subspace(str(tmp_path / "sub.json"), subspace)
    json_path = tmp_path / "report.json"
    started = time.perf_counter()
    code, _, _ = run_cli(
        capsys, "dss", "check", "--state", "example3q", "--p", str(p), "--copies", "4",
        "--subspace", str(tmp_path / "sub.json"), "--json", str(json_path),
    )
    assert time.perf_counter() - started < 2.0
    assert code == 0
    results = json.loads(json_path.read_text())["results"]
    assert results["accepted"] and results["signature"] == [2, 2, 2]
    assert abs(results["weight"] - p * p / 2 * (p / 2) ** 2) <= 1e-12
    assert results["rank_bound_check"] == {"rank": 16, "bound": 4096 - 8 + 1, "satisfied": True}


def test_dss_check_and_werner_example_never_build_a_power(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tensor_power called")

    for module in (dsskit, dsskit.states, dsskit.subspaces, dsskit.protocols, cli):
        monkeypatch.setattr(module, "tensor_power", refuse, raising=False)
    shape = SystemShape(tuple(Party(label, (2,) * 3) for label in "ABC"))
    subspace = LocalSubspace.from_indices(shape, {label: (2, 4) for label in "ABC"})
    fileio.write_subspace(str(tmp_path / "sub.json"), subspace)
    code, out, _ = run_cli(
        capsys, "dss", "check", "--state", "example3q", "--p", "0.6", "--copies", "3",
        "--subspace", str(tmp_path / "sub.json"),
    )
    assert code == 0 and "accepted: true" in out
    assert werner_two_copy(0.8).subspaces[0].weight > 0
    code, out, _ = run_cli(capsys, "simulate", "werner-example", "--F", "0.8")
    assert code == 0 and "combined_concurrence" in out


@pytest.mark.parametrize("copies,message", [
    ("3", "error: search would enumerate 16581375 candidate subspaces (cap 1000000)"),
    ("4", "error: search would enumerate 281462092005375 candidate subspaces (cap 1000000)"),
    ("5", "error: 5 copies give total dimension 32768, above the cap 4096"),
])
def test_find_refuses_above_the_cap_before_building_the_power(capsys, copies, message):
    # At 3 copies the refused power and its kron took 8.6 MB before the cap
    # was checked; at 4 the power alone would take 256 MiB.
    cli.build_parser()
    tracemalloc.start()
    try:
        code, _, err = run_cli(
            capsys, "dss", "find", "--state", "example3q", "--p", "0.5", "--copies", copies
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err.startswith(message)
    assert peak < 1 << 20


def test_entanglement_of_four_ghz_copies_builds_no_dense_power(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    started = time.perf_counter()
    code, _, _ = run_cli(capsys, "entanglement", "--state", "ghz", "--copies", "4",
                         "--json", str(json_path))
    assert time.perf_counter() - started < 2.0
    assert code == 0
    results = json.loads(json_path.read_text())["results"]
    assert results["pure"] and results["per_party_dims"] == [16, 16, 16]
    assert results["signature"] == [16, 16, 16]  # each party holds 4 copies of rank 2


def test_bad_state_file_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "parties": [{"label": "A", "dim": 2}],
        "matrix": {"re": [[0.45, 0.0], [0.0, 0.45]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    }))
    code, _, err = run_cli(capsys, "entanglement", "--state", str(bad))
    assert code == 1
    assert "trace" in err


SWAP = {"re": [[0.0, 1.0], [1.0, 0.0]]}
RAGGED = {"re": [[1.0, 0.0], [0.0]]}


@pytest.mark.parametrize(
    "state,steps,context",
    [
        ({"re": [[0.5, 0.0], [0.0]]}, None, "state: matrix: re"),
        ([{"row": "x", "col": 0, "re": 1.0}], None, "sparse entry 0: row"),
        (None, [{"kind": "local_unitary", "gates": {"A": RAGGED}}], "gate 'A': re"),
        (None, [{"kind": "measure_and_discard", "party": "A", "subsystem": 0,
                 "basis": {"re": [[1.0, "x"], [0.0, 1.0]]}}], "basis: re"),
        (None, [{"kind": "filter", "operator": {"factors": [
            {"party": "A", "matrix": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0], [0.0, 0.0]]}},
        ]}}], "factor 0: im"),
        ([{"row": 0.9, "col": 0, "re": 1.0}], None, "sparse entry 0: row: expected an integer, got 0.9"),
        (None, [{"kind": "measure_and_discard", "party": "A", "subsystem": 0.5}],
         "step 0: subsystem: expected an integer"),
        (None, [{"kind": "filter", "operator": {"factors": [
            {"party": "A", "matrix": {"re": [[1, 0], [0, "x"]]}},
        ]}}], "step 0: operator: factor 0: re"),
    ],
    ids=["ragged-state", "sparse-row", "gate", "measurement-basis", "operator-factor",
         "fractional-row", "fractional-subsystem", "filter-step-context"],
)
def test_malformed_numbers_exit_1(capsys, tmp_path, state, steps, context):
    argv = ["simulate", "--state", "bell"]
    if state is not None:
        doc = {"parties": [{"label": "A", "dim": 2}], "matrix": state}
        (tmp_path / "state.json").write_text(json.dumps(doc))
        argv = ["entanglement", "--state", str(tmp_path / "state.json")]
    if steps is not None:
        (tmp_path / "protocol.json").write_text(json.dumps({"steps": steps}))
        argv += ["--protocol", str(tmp_path / "protocol.json")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and context in err
    assert "Traceback" not in err


def test_fractional_dims_exit_1(capsys, tmp_path):
    doc = {"parties": [{"label": "A", "dims": [2.7]}], "matrix": {"re": [[1.0, 0.0], [0.0, 0.0]]}}
    (tmp_path / "state.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "entanglement", "--state", str(tmp_path / "state.json"))
    assert code == 1
    assert err == "error: state: party 0: dims: expected an integer, got 2.7\n"


def test_conditional_outcome_position_out_of_range_names_step(capsys, tmp_path):
    protocol = {"steps": [
        {"kind": "measure_and_discard", "party": "A", "subsystem": 0},
        {"kind": "conditional", "parity": "odd", "outcomes": [3],
         "step": {"kind": "local_unitary", "gates": {"B": SWAP}}},
    ]}
    (tmp_path / "protocol.json").write_text(json.dumps(protocol))
    code, _, err = run_cli(
        capsys, "simulate", "--protocol", str(tmp_path / "protocol.json"), "--state", "bell"
    )
    assert code == 1
    assert err.startswith("error: step 1:") and "outcome position 3 is out of range" in err


def test_tolerance_profile_env(capsys, monkeypatch):
    monkeypatch.setenv("DSSKIT_TOLERANCE_PROFILE", "loose")
    code, out, _ = run_cli(capsys, "entanglement", "--state", "werner", "--F", "0.8")
    assert code == 0
    assert "loose" in out

    monkeypatch.setenv("DSSKIT_TOLERANCE_PROFILE", "bogus")
    code, _, err = run_cli(capsys, "entanglement", "--state", "werner", "--F", "0.8")
    assert code == 1


def test_state_file_is_checked_to_the_resolved_tolerance(capsys, monkeypatch, tmp_path):
    # Smallest eigenvalue -1e-8: outside the default psd_atol (1e-9), inside
    # the loose profile's (1e-6) and inside --psd-atol 1e-7.
    doc = {
        "parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
        "matrix": {"re": np.diag([0.6, 0.4 + 1e-8, 0.0, -1e-8]).tolist(), "im": np.zeros((4, 4)).tolist()},
    }
    path = str(tmp_path / "state.json")
    fileio.write_json(path, doc)
    query = ("rankbound", "--state", path, "--signature", "1,1")

    code, _, err = run_cli(capsys, *query)
    assert code == 1 and "negative eigenvalue -1.000e-08" in err
    code, out, _ = run_cli(capsys, *query, "--psd-atol", "1e-7")
    assert code == 0 and "measured_rank: 3" in out
    monkeypatch.setenv("DSSKIT_TOLERANCE_PROFILE", "loose")
    code, out, _ = run_cli(capsys, *query)
    assert code == 0 and "measured_rank: 2" in out  # loose's rank_rtol, 1e-6, drops -1e-8


def test_power_of_a_state_file_is_checked_to_the_resolved_tolerance(capsys, monkeypatch, tmp_path):
    # The file's smallest eigenvalue is -1e-8, its power's -6e-9: both
    # outside the default psd_atol (1e-9), both inside --psd-atol 1e-7 and
    # the loose profile's 1e-6.
    doc = {
        "parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
        "matrix": {"re": np.diag([0.6, 0.4 + 1e-8, 0.0, -1e-8]).tolist(), "im": np.zeros((4, 4)).tolist()},
    }
    path = str(tmp_path / "state.json")
    fileio.write_json(path, doc)
    query = ("dss", "find", "--state", path, "--copies", "2")

    code, _, err = run_cli(capsys, *query)
    assert code == 1 and "negative eigenvalue" in err
    code, _, err = run_cli(capsys, *query, "--psd-atol", "1e-7")
    assert code in (0, 2) and err == ""
    monkeypatch.setenv("DSSKIT_TOLERANCE_PROFILE", "loose")
    code, _, err = run_cli(capsys, *query)
    assert code in (0, 2) and err == ""


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("dss", "decompose", "entanglement", "filter-compare", "simulate", "rankbound"):
        assert name in out
    with pytest.raises(SystemExit):
        main(["dss", "--help"])
    out = capsys.readouterr().out
    assert "find" in out and "check" in out


def test_parser_is_built_once_and_leaks_no_state(capsys, monkeypatch):
    calls = []

    def recording_search_dss(sigma, bases, **kwargs):
        calls.append(kwargs)
        return search_dss(sigma, bases, **kwargs)

    monkeypatch.setattr(cli, "search_dss", recording_search_dss)
    plain = ("dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2")
    code, reference, _ = run_cli(capsys, *plain)
    assert code == 0
    builds = cli.build_parser.cache_info().misses

    code, out, _ = run_cli(
        capsys, *plain, "--no-require-entangled", "--rank-rtol", "1e-8", "--json", "-"
    )
    assert code == 0 and '"command": "dss find"' in out
    code, out, _ = run_cli(capsys, *plain)
    assert code == 0
    assert strip_timing(out) == strip_timing(reference)
    assert "certificates_found: 24" in out and "{" not in out
    assert calls[-1]["require_entangled"] and calls[-1]["tol"] == Tolerance()
    assert not calls[1]["require_entangled"] and calls[1]["tol"].rank_rtol == 1e-8
    assert cli.build_parser.cache_info().misses == builds


def test_find_with_bases_file_and_min_signature(capsys, tmp_path):
    two = tensor_power(three_qubit_example(0.5), 2)
    fileio.write_subspace(str(tmp_path / "bases.json"), LocalSubspace.full(two.shape))

    code, out, _ = run_cli(
        capsys,
        "dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2",
        "--bases", str(tmp_path / "bases.json"), "--min-signature", "2,2,2",
    )
    assert code == 0
    assert "certificates_found: 24" in out

    code, _, _ = run_cli(
        capsys,
        "dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2",
        "--min-signature", "3,3,3",
    )
    assert code == 2


@pytest.mark.parametrize(
    "name,argv",
    [
        ("filter_compare_0.9.txt", ("filter-compare", "--lambda", "0.9")),
        ("ghz_example_0.5.txt", ("simulate", "ghz-example", "--p", "0.5")),
        ("werner_example_0.8.txt", ("simulate", "werner-example", "--F", "0.8")),
    ],
)
def test_golden_reports(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    golden = os.path.join(GOLDEN_DIR, name)
    with open(golden, "r", encoding="utf-8") as fh:
        expected = fh.read()
    assert strip_timing(out) == expected


JSON_GOLDENS = [
    ("find_example3q_0.5_x2.json", 0,
     ("dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2")),
    ("find_example3q_0.5_x2_min222.json", 0,
     ("dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2",
      "--min-signature", "2,2,2")),
    ("find_werner_0.9_x2.json", 2, ("dss", "find", "--state", "werner", "--F", "0.9", "--copies", "2")),
    ("rankbound_state_example3q_0.5_x2.json", 0,
     ("rankbound", "--state", "example3q", "--p", "0.5", "--copies", "2", "--signature", "2,2,2")),
    ("rankbound_dims_222_x2.json", 0,
     ("rankbound", "--dims", "2,2,2", "--copies", "2", "--signature", "2,2,2")),
    ("simulate_ghz_example_0.5.json", 0, ("simulate", "ghz-example", "--p", "0.5")),
    ("simulate_werner_example_0.8.json", 0, ("simulate", "werner-example", "--F", "0.8")),
    ("filter_compare_0.9_grid.json", 0,
     ("filter-compare", "--lambda", "0.9", "--grid", "0.9:0.99:0.025")),
    ("entanglement_werner_0.9.json", 0, ("entanglement", "--state", "werner", "--F", "0.9")),
    ("entanglement_bell.json", 0, ("entanglement", "--state", "bell")),
    ("check_example3q_0.5_x2.json", 0,
     ("dss", "check", "--state", "example3q", "--p", "0.5", "--copies", "2",
      "--subspace", "subspace_x2_certificate.json")),
    ("check_example3q_0.6_x3.json", 0,
     ("dss", "check", "--state", "example3q", "--p", "0.6", "--copies", "3",
      "--subspace", "subspace_x3_certificate.json")),
    ("check_example3q_0.5_x2_mixed.json", 0,
     ("dss", "check", "--state", "example3q", "--p", "0.5", "--copies", "2",
      "--subspace", "subspace_x2_mixed.json")),
    # The certificate's span in rotated, complex per-party bases: the
    # compressed and contracted path, not the computational one.
    ("check_example3q_0.5_x2_rotated.json", 0,
     ("dss", "check", "--state", "example3q", "--p", "0.5", "--copies", "2",
      "--subspace", "subspace_x2_rotated.json")),
]


@pytest.mark.parametrize("subspace,copies,general", [
    ("subspace_x3_certificate.json", "3", False),
    ("subspace_x2_certificate.json", "2", False),
    ("subspace_x2_rotated.json", "2", True),
])
def test_check_compresses_only_subspaces_off_the_computational_basis(capsys, monkeypatch, subspace, copies, general):
    """``dss check`` on a computational subspace file reads its block from
    single-copy entries, with no compression and no copy-by-copy
    contraction; on a rotated one it takes both."""
    monkeypatch.chdir(os.path.join(GOLDEN_DIR, "json"))
    calls = spy_on_the_general_path(monkeypatch)
    code, _, _ = run_cli(capsys, "dss", "check", "--state", "example3q", "--p", "0.6",
                         "--copies", copies, "--subspace", subspace)
    assert code == 0
    assert calls == (["compression", "sandwich"] if general else [])


def json_report_without_timing(path) -> str:
    doc = json.loads(path.read_text())
    del doc["timing_ms"]
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name,exit_code,argv", JSON_GOLDENS, ids=[g[0] for g in JSON_GOLDENS])
def test_json_golden_reports(capsys, tmp_path, monkeypatch, name, exit_code, argv):
    """The full-precision --json report, minus timing, is byte-identical to the golden.
    Input files named in ``argv`` sit next to the goldens, so a report records
    the same relative path wherever the repository is checked out."""
    monkeypatch.chdir(os.path.join(GOLDEN_DIR, "json"))
    json_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, *argv, "--json", str(json_path))
    assert code == exit_code
    with open(os.path.join(GOLDEN_DIR, "json", name), "r", encoding="utf-8") as fh:
        expected = fh.read()
    assert json_report_without_timing(json_path) == expected


def report_doc(report) -> dict:
    """A report's fields, as ``--json`` writes them."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


@pytest.mark.parametrize("name,exit_code,argv", JSON_GOLDENS, ids=[g[0] for g in JSON_GOLDENS])
def test_raw_json_payload_is_the_standard_encoders(capsys, monkeypatch, name, exit_code, argv):
    """The raw ``--json -`` bytes, timing included, are ``json.dumps(...,
    indent=2)`` of the same report: the golden test above re-serializes its
    file, so it cannot see a layout change."""
    monkeypatch.chdir(os.path.join(GOLDEN_DIR, "json"))
    reports, texts = [], cli._report_texts
    monkeypatch.setattr(
        cli, "_report_texts", lambda report, with_json: reports.append(report) or texts(report, with_json)
    )
    code, out, _ = run_cli(capsys, *argv, "--json", "-")
    assert code == exit_code
    (report,) = reports
    text = render_report_reference(report)
    assert out == text + "\n" + json.dumps(report_doc(report), indent=2) + "\n"


def test_json_writer_matches_the_standard_encoder_on_a_planted_tree():
    tree = {
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.1, 1e16, np.float64(2.5)],
        "text": ["é ☃ \U0001f600", "\x00\x1f\t\n\"\\/", ""],
        "empty": {"dict": {}, "list": [], "nested": [[], {}, [[]], {"x": {}}]},
        "tuples": (1, (2, (3,)), ()),
        "bool vs int": [True, False, None, 1, 0, -7, 10**30],
        "nested": {"a": {"b": {"c": [{"d": 1.5}]}}},
        "scalars": {"str": "x", "int": 1, "float": 1.0, "zero": -0.0, "none": None, "true": True, "false": False},
        "empties": {"list": [], "dict": {}, "tuple": ()},
        1: "int key",
        2.5: "float key",
        float("nan"): "nan key",
        True: "bool key",
        None: "none key",
    }
    for report in (
        cli.Report("planted", {"tree": tree}, tree, ["a warning", tree], 1.25),
        cli.Report("empty", {}, {}, [], -0.0),
    ):
        text, payload = cli._report_texts(report, True)
        assert payload == json.dumps(report_doc(report), indent=2)
        assert text == render_report_reference(report)
        assert cli._report_texts(report, False) == (text, None)


#: What a report may hold: str, int, bool and None scalars, floats with
#: NaN, ±inf, -0.0 and ``np.float64`` among them, nested in dicts with
#: non-str keys, lists and tuples, empty ones included.
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]))
REPORT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**20), 10**20), st.text(max_size=6),
    JSON_FLOATS, JSON_FLOATS.map(np.float64),
)
REPORT_KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(), st.none(), JSON_FLOATS)
REPORT_TREES = st.recursive(
    REPORT_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(REPORT_KEYS, children, max_size=4),
    ),
    max_leaves=24,
)
REPORTS = st.builds(
    cli.Report,
    st.text(max_size=10),
    st.dictionaries(REPORT_KEYS, REPORT_TREES, max_size=4),
    st.dictionaries(REPORT_KEYS, REPORT_TREES, max_size=4),
    st.lists(REPORT_TREES, max_size=3),
    JSON_FLOATS,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(REPORTS)
def test_report_writer_matches_the_references_on_generated_trees(report):
    """One walk gives the text of the reference writer and the JSON of
    ``json.dumps(..., indent=2)``; without JSON, the same text."""
    text, payload = cli._report_texts(report, True)
    assert payload == json.dumps(report_doc(report), indent=2)
    assert text == render_report_reference(report)
    assert cli._report_texts(report, False) == (text, None)


@pytest.mark.parametrize(
    "value",
    [np.int64(1), np.bool_(True), {1, 2}, b"bytes", np.zeros(2), {"a": [object()]}, {(1, 2): "tuple key"}],
    ids=["int64", "bool_", "set", "bytes", "ndarray", "nested object", "tuple key"],
)
def test_json_writer_refuses_what_the_standard_encoder_refuses(value):
    report = cli.Report("refused", {"seed": 0}, {"value": value})
    with pytest.raises(TypeError) as want:
        json.dumps(report_doc(report), indent=2)
    with pytest.raises(TypeError) as got:
        cli._report_texts(report, True)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("state", [("werner", "--F", "0.9"), ("bell",), ("ghz",)], ids=lambda s: s[0])
def test_entanglement_top_eigenvalue_matches_dense(capsys, tmp_path, state, copies):
    single = {
        "werner": lambda: werner(0.9),
        "bell": lambda: bell_state().to_density(),
        "ghz": lambda: ghz_state().to_density(),
    }[state[0]]()
    dense = float(np.max(np.linalg.eigvalsh(tensor_power(single, copies).mat)))
    json_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "entanglement", "--state", *state, "--copies", str(copies), "--json", str(json_path)
    )
    assert code == 0
    results = json.loads(json_path.read_text())["results"]
    assert abs(results["top_eigenvalue"] - dense) <= 1e-12
    assert results["per_party_dims"] == [d**copies for d in single.shape.dims]


def test_entanglement_above_the_cap_exit_1(capsys):
    code, _, err = run_cli(capsys, "entanglement", "--state", "werner", "--F", "0.9", "--copies", "7")
    assert code == 1
    assert err == "error: 7 copies give total dimension 16384, above the cap 4096\n"
