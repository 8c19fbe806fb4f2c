import hashlib
import json

import pytest

from ssgamma import integrals
from ssgamma.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


def test_gamma_so_matches(capsys):
    code, out = run(
        capsys, "gamma-so", "--p", "3", "--ell", "1", "--zeta", "-1",
        "--tau-j", "1", "--tau-pi", "-1",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["matches"] is True
    assert doc["computed"] == doc["predicted"]
    assert no_floats(doc)
    assert doc["metadata"]["level_N"] == 2


def test_gamma_so_deterministic_output(capsys):
    args = ("gamma-so", "--p", "3", "--ell", "1", "--zeta", "1")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_gamma_so_brute_mode(capsys):
    code, out = run(
        capsys, "gamma-so", "--p", "3", "--ell", "1", "--zeta", "1", "--mode", "brute"
    )
    assert code == EXIT_OK
    assert json.loads(out)["metadata"]["mode"] == "brute-force"


def test_config_errors(capsys):
    assert run(capsys, "gamma-so", "--p", "4", "--zeta", "1")[0] == EXIT_CONFIG
    assert run(capsys, "gamma-so", "--p", "3", "--zeta", "2")[0] == EXIT_CONFIG
    assert run(capsys, "gamma-so", "--p", "3", "--zeta", "1", "--tau-j", "5")[0] == EXIT_CONFIG
    assert run(capsys, "gamma-so", "--p", "3", "--zeta", "1", "--level", "1")[0] == EXIT_CONFIG
    assert run(capsys, "param", "--p", "3", "--ell", "3")[0] == EXIT_CONFIG


def test_ell_below_one_is_a_config_error(capsys):
    for ell in ("0", "-1"):
        code = main(["gamma-so", "--p", "3", "--ell", ell, "--zeta", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: ")


def test_scan_support(capsys):
    code, out = run(capsys, "scan-support", "--p", "3", "--ell", "1", "--side", "phi")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["predicate_match"] is True
    assert doc["predicate_mismatches"] == []
    assert doc["nonvanishing"]


def test_scan_support_negative_control(capsys):
    code, out = run(
        capsys, "scan-support", "--p", "3", "--ell", "1", "--side", "phi-star",
        "--corrupt-predicate",
    )
    assert code == EXIT_MISMATCH
    assert json.loads(out)["predicate_match"] is False


def test_table_csv(capsys):
    code, out = run(capsys, "table", "--p", "3", "--ell", "1")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "p,ell,zeta,tau_j,tau_pi,gamma_so,gamma_gl_closed,match,error"
    # 1 prime x 1 ell x 2 zeta x (p-1) tau_j x 2 tau_pi rows
    assert len(lines) == 1 + 2 * 2 * 2
    assert all(",true," in row for row in lines[1:])
    # deterministic row order: zeta block -1 before 1
    assert lines[1].startswith("3,1,-1,0,-1")


def test_param_output(capsys):
    code, out = run(capsys, "param", "--p", "5", "--ell", "2", "--zeta", "-1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["depth"] == "1/4"
    assert doc["depth_check"]["unique_single_block"] is True
    assert doc["kappa_on_units"]["2"] == -1
    assert no_floats(doc)


def test_param_past_the_partition_check_reports_null(capsys):
    # the partition check stops at 2l = 12, so it gives no verdict at l = 7
    code, out = run(capsys, "param", "--p", "5", "--ell", "7")
    assert code == EXIT_OK
    check = json.loads(out)["depth_check"]
    assert check["partitions_checked"] == 0
    assert check["unique_single_block"] is None


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SSGAMMA_OUTPUT_DIR", str(tmp_path))
    code, out = run(
        capsys, "gamma-so", "--p", "3", "--ell", "1", "--zeta", "1",
        "--output", "g.json",
    )
    assert code == EXIT_OK
    assert out == ""
    data = (tmp_path / "g.json").read_bytes()
    assert b"\r" not in data
    assert json.loads(data)["matches"] is True


@pytest.mark.parametrize(
    "extra",
    [("--ell", "0"), ("--ell", "1", "--level", "1"), ("--ell", "1", "--cutoff", "0")],
)
def test_scan_support_domain_is_a_config_error(capsys, extra):
    code = main(["scan-support", "--p", "3", "--side", "phi", *extra])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize(
    "extra",
    [("--ell", "1", "--level", "1"), ("--ell", "1", "--cutoff", "0"), ("--ell", "1,0")],
)
def test_table_domain_is_a_config_error(capsys, extra):
    code = main(["table", "--p", "3", *extra])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


def test_gamma_so_brute_reports_a_nonzero_shell_point(capsys, monkeypatch):
    monkeypatch.setattr(integrals, "_so_whittaker_parts", lambda g, p, ell, t: (0, 0, 0))
    monkeypatch.setattr(integrals, "_SO_BUCKETS", {})
    code, out = run(capsys, "gamma-so", "--p", "3", "--ell", "1", "--zeta", "1", "--mode", "brute")
    assert code == EXIT_MISMATCH
    doc = json.loads(out)
    assert doc["error"] == "boundary_nonvanishing"
    assert doc["detail"].startswith("nonzero phi_star integrand at the padding shell: ")


@pytest.mark.parametrize("p,ell", [("5", "-1"), ("3", "0"), ("5", "0")])
def test_param_rank_below_one_is_a_config_error(capsys, p, ell):
    code = main(["param", "--p", p, "--ell", ell])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == f"config error: need l >= 1, got {ell}\n"


# sha256 of the standard output of fixed invocations, recorded before the
# SO and GL buckets were merged over tame classes; every exit code is 0
CLI_DIGESTS = [
    (
        ["gamma-so", "--p", "3", "--ell", "1", "--zeta", "-1", "--tau-j", "1", "--tau-pi=-2/3"],
        "d367c75919559b4f780fd4d5fc370feda202d182b71768556dd42db15a9e100f",
    ),
    (
        ["gamma-so", "--p", "3", "--ell", "1", "--zeta", "1", "--tau-j", "1", "--tau-pi=-2/3", "--mode", "brute"],
        "4970bf54e09f28cbdd07056d3b829bba2cd52d09229ded7c7d1ca443f50d0fd3",
    ),
    (
        ["gamma-so", "--p", "3", "--ell", "2", "--zeta", "1", "--tau-j", "0", "--tau-pi", "5"],
        "6684a40a2bad326374586d13c48ae8d48293e3cccd30c34f02cf30b3e8c32175",
    ),
    (
        ["gamma-so", "--p", "3", "--ell", "2", "--zeta", "-1", "--tau-j", "1", "--tau-pi", "5", "--mode", "brute"],
        "7de5de24410afaafe67e1ca60ca5518f7b8af32ed09dd6b667cd54e7e84e6e18",
    ),
    (["table", "--p", "3,5", "--ell", "1"], "af7396732c5760c6f71905953596c642a35edc314f46fa07b55aa85733fca7a6"),
    (
        ["scan-support", "--p", "3", "--ell", "1", "--side", "phi"],
        "e43bf9d059785b353c19b3d930a7dbfd6d0801d022fa72f7da9ee2c4070746ae",
    ),
    (
        ["scan-support", "--p", "3", "--ell", "1", "--side", "phi-star"],
        "5e1c149680e52f6a588e51737f84d57f68fa33c587932959fb9ffa7c745e16fc",
    ),
    (["param", "--p", "5", "--ell", "2", "--zeta", "-1"], "b32025f2015a1db4eac6cfee99428feeb5f82a40b2c57604098d4a85a807af66"),
]


@pytest.mark.parametrize("argv,digest", CLI_DIGESTS, ids=[" ".join(a) for a, _ in CLI_DIGESTS])
def test_cli_output_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
