import csv
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ssgamma import cli, integrals
from ssgamma.characters import OrderOverflow, TameCharacter
from ssgamma.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, ConfigError, _check_prime, main
from ssgamma.cyclotomic import CyclotomicNumber
from ssgamma.matrices import SingularMatrix
from ssgamma.scalars import ExactScalar, NonMonomialDivisor


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


def test_scan_support_negative_control(capsys, monkeypatch):
    # an intentionally wrong support lemma, the Phi* side given the Phi
    # support-aware window: the scan must report the mismatch
    real = integrals._z_windows
    monkeypatch.setattr(
        integrals, "_z_windows", lambda p, level, cutoff, mode, i: real(p, level, cutoff, mode, 0)
    )
    code, out = run(capsys, "scan-support", "--p", "3", "--ell", "1", "--side", "phi-star")
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


def test_table_prints_the_sign_of_every_rational_gamma(capsys):
    # tau(-1) = (-1)^j is stored as zeta_2^j, so the text must come from the
    # canonical value: gamma = zeta * tau(-pi) q^(1/2 - s)
    code, out = run(capsys, "table", "--p", "3,5,7", "--ell", "1")
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == sum(2 * (p - 1) * 2 for p in (3, 5, 7))
    for row in rows:
        sign = int(row["zeta"]) * (-1) ** int(row["tau_j"]) * int(row["tau_pi"])
        expected = f"{sign}*q^(1/2)*(q^-s)^1"
        assert (row["gamma_so"], row["gamma_gl_closed"]) == (expected, expected), row


def test_table_reports_a_failing_cell(capsys, monkeypatch):
    """A cell whose computation raises keeps its row, with match false,
    empty gammas and the error text, and the table exits 1.  No valid
    table input makes a cell fail, so the error is put in here."""
    real = cli.gamma_so

    def gamma_so(cfg):
        if cfg.tau.unit_exponent == 1:
            raise integrals.ZeroDenominator("Phi vanished")
        return real(cfg)

    monkeypatch.setattr(cli, "gamma_so", gamma_so)
    code, out = run(capsys, "table", "--p", "3", "--ell", "1")
    assert code == EXIT_MISMATCH
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 8
    for row in rows:
        failed = row["tau_j"] == "1"
        assert row["match"] == ("false" if failed else "true"), row
        assert row["error"] == ("Phi vanished" if failed else ""), row
        assert (row["gamma_so"] == "") == failed, row


def test_scalar_str_renders_zero():
    # no CLI command renders a zero scalar: Phi = 0 raises, and gamma is a monomial
    assert cli.scalar_str(ExactScalar.zero(3)) == "0"


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


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "a-directory"])
def test_unwritable_output_is_a_config_error(tmp_path, monkeypatch, capsys, target):
    monkeypatch.setenv("SSGAMMA_OUTPUT_DIR", str(tmp_path))
    code = main(["param", "--p", "3", "--ell", "1", "--output", target])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write ")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("p,ell", [("3", ","), (",", "1"), (",", ",")])
def test_empty_table_list_is_a_config_error(capsys, p, ell):
    # an empty table would print only its header and claim every cell matched
    code = main(["table", "--p", p, "--ell", ell])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == "config error: --p and --ell each need at least one value\n"


def test_gamma_so_brute_reports_a_nonzero_shell_point(capsys, monkeypatch):
    monkeypatch.setattr(integrals, "coset_decompose", lambda rows, diag, p: rows)
    monkeypatch.setattr(integrals, "_BUCKETS", {})
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
# SO and GL buckets were merged over tame classes; every exit code is 0.
# The three gamma-so runs at odd tau_j and the table were re-recorded when
# cyclo_str began rendering a rational from its canonical value: only the
# sign of the *_str texts changed.
CLI_DIGESTS = [
    (
        ["gamma-so", "--p", "3", "--ell", "1", "--zeta", "-1", "--tau-j", "1", "--tau-pi=-2/3"],
        "b37c08bb61f35162bb6e1549ea28111b796b5aa021dbe4d6aa1f56a39962e19b",
    ),
    (
        ["gamma-so", "--p", "3", "--ell", "1", "--zeta", "1", "--tau-j", "1", "--tau-pi=-2/3", "--mode", "brute"],
        "e31b096eb3dcdf6a0402e7af8586cff729b706e3a1b91aab7d602d2c47417d60",
    ),
    (
        ["gamma-so", "--p", "3", "--ell", "2", "--zeta", "1", "--tau-j", "0", "--tau-pi", "5"],
        "6684a40a2bad326374586d13c48ae8d48293e3cccd30c34f02cf30b3e8c32175",
    ),
    (
        ["gamma-so", "--p", "3", "--ell", "2", "--zeta", "-1", "--tau-j", "1", "--tau-pi", "5", "--mode", "brute"],
        "4362c301fc252b276e5f9f0f6e50a07ced65a44b6528d844cb57b5fb01d9387e",
    ),
    (["table", "--p", "3,5", "--ell", "1"], "0f3e0deb3772c62bf64df4c5e7b26a0a7fbd529f58bc6a17bbfe0abaf5fe3abb"),
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


# sha256 of `param --p P --ell L` standard output (zeta defaults to 1), for
# every p in {3, 5, 7} and l in 1..6 with p not dividing 2l, recorded while
# the partitions still came from sympy
PARAM_DIGESTS = {
    (3, 1): "d1e76ff286374189d84643ba69c83eec40d776cab86dd7ffa2f96f01c1663edc",
    (3, 2): "0c97fafe862a5723e928573f75819396581c72f80f5acbafc0ed2fe4095816ec",
    (3, 4): "1f3a65a4ca394b6654525dc06251b592e3acbc3e45efb55ed601d304fbf585d8",
    (3, 5): "657babf72daf893bf9afd3f7249dc794abfe7c0f0eec84da2685e90ddf4e944d",
    (5, 1): "a5e4dd0ba72320398ccda4fb687a66396b53452a78e26ce787ee5a76f413d603",
    (5, 2): "713bb853e7906209737ea30402dac44fa96009d359565c6a81f36f48077c8283",
    (5, 3): "18b2c7863bdda2936ab0d0181a2d6b3afead379595e541326c419c85d4a03705",
    (5, 4): "4204dc92b0f9dbab37f71e98919abdc6db0a5a259d4ea06719bb41c74a1f3e97",
    (5, 6): "ed060b425bad484c9295459d2c6dcb6b7147fbd754e7ef184882960ed9a6eed2",
    (7, 1): "4c73311ddee1db818108b451269215431ab1c7f1a68a3366377daa78bec08957",
    (7, 2): "c0aa963cb53d2b8fdeebb51c357fccc8315c2aaa2d94096cd940a141e043ef6c",
    (7, 3): "34c5052fa0fdeae510cfdfae3dd0167eb2e5a8628a998f132b970a250458ebf8",
    (7, 4): "5f093a95d87e28aadb37475eedfbd61a7945a55ff0b52061b43d030b21699f83",
    (7, 5): "94b2cc476b62f0db68b77c8a21e41f737b4279f221629498a9c258957c7ebdac",
    (7, 6): "0bf87f4c13add0fbc2f2a2773d7557ed269eab080d2e22d1bc5d738250ba7717",
}


def test_param_digests_cover_every_admissible_rank():
    assert sorted(PARAM_DIGESTS) == [(p, ell) for p in (3, 5, 7) for ell in range(1, 7) if (2 * ell) % p]


@pytest.mark.parametrize("p,ell", sorted(PARAM_DIGESTS))
def test_param_output_bytes_are_pinned(capsys, p, ell):
    code, out = run(capsys, "param", "--p", str(p), "--ell", str(ell))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PARAM_DIGESTS[p, ell]


def test_check_prime_accepts_exactly_the_odd_primes():
    # sympy is the oracle for the trial division
    from sympy import isprime

    def accepted(p):
        try:
            return _check_prime(p) == p
        except ConfigError:
            return False

    # the range holds the prime squares below 10^4 and the Carmichael
    # numbers 561 = 3*11*17 and 1105 = 5*13*17; past it, two squares, a
    # product of two primes and two primes
    extra = [101**2, 9973**2, 10007 * 10009, 10007, 2**31 - 1]
    for p in [*range(-3, 10**4), *extra]:
        assert accepted(p) == (p >= 3 and isprime(p)), p


@pytest.mark.parametrize(
    "error",
    [OrderOverflow("psi order past the bound"), SingularMatrix("singular"), NonMonomialDivisor("not a monomial")],
    ids=lambda e: type(e).__name__,
)
def test_library_errors_exit_2_without_a_traceback(capsys, monkeypatch, error):
    def fail(cfg):
        raise error

    monkeypatch.setattr(cli, "gamma_so", fail)
    code = main(["gamma-so", "--p", "3", "--ell", "1", "--zeta", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_MISMATCH
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_tau_pi_with_an_exponent_is_a_config_error(capsys):
    # "1e5000" parses, but its 5001 digits are more than str() will print
    for tau_pi in ("1e5000", "2E1", "1" * 5000):
        code = main(["gamma-so", "--p", "3", "--ell", "1", "--zeta", "1", f"--tau-pi={tau_pi}"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: bad tau-pi value ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma-so", "--p", "3", "--zeta", "1", "--tau-pi=--"],
        ["gamma-so", "--p=--", "--zeta", "1"],
        ["table", "--p=--", "--ell", "1"],
        ["param", "--p", "3", "--ell=--"],
    ],
)
def test_double_dash_option_value_is_a_config_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == "config error: '--' is not an option value\n"


# none is a valid --zeta; "2" and "-2/3" are valid --tau-pi values
JUNK = ("", "x", "2", "0", "1/0", "-2/3", "1e5000", "--")


def mostly(valid, full):
    """Half the draws from the valid values: few examples would pass every
    check if each argument were drawn from its whole range."""
    return st.one_of(st.sampled_from(valid), full)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["gamma-so", "scan-support", "table", "param"]),
    p=mostly((3, 5, 7), st.integers(-2, 8)),
    ell=mostly((1, 2), st.integers(-1, 2)),
    level=mostly((2, 3), st.integers(0, 3)),
    cutoff=mostly((1, 2), st.integers(0, 2)),
    zeta=mostly(("1", "-1", "+1"), st.sampled_from(JUNK)),
    tau_pi=mostly(("1", "-1", "5"), st.sampled_from(JUNK)),
    side=st.sampled_from(["phi", "phi-star"]),
)
def test_cli_fuzz_exits_with_a_documented_code(tmp_path, command, p, ell, level, cutoff, zeta, tau_pi, side):
    if command == "scan-support":
        # the scan is brute force, point by point: at l = 2 it takes 0.3 s to
        # minutes on this grid, and nothing bounds its work before the loop yet
        ell = min(ell, 1)
    argv = [command, f"--p={p}", f"--ell={ell}", f"--output={tmp_path / 'out'}"]
    if command != "param":
        argv += [f"--level={level}", f"--cutoff={cutoff}"]
    if command in ("gamma-so", "param"):
        argv.append(f"--zeta={zeta}")
    if command == "gamma-so":
        argv.append(f"--tau-pi={tau_pi}")
    if command == "scan-support":
        argv.append(f"--side={side}")
    assert main(argv) in (EXIT_OK, EXIT_MISMATCH, EXIT_CONFIG)


# sha256 of the rendered warm cells of each group below: for every cell,
# cli.scalar_str and to_records of the computed and of the predicted
# gamma.  scalar_str prints the stored (unreduced) coefficients of an
# irrational value, so these pin how each value is stored, not only what
# it equals.  Recorded before the monomial fast paths of the exact ring.
def pin_taus(p, j):
    values = (
        ExactScalar.from_coeff(p, -1),
        ExactScalar.from_coeff(p, Fraction(3, 7)),
        ExactScalar.from_coeff(p, 2 * CyclotomicNumber.root_of_unity(4, 1), q_half=1),
    )
    return [TameCharacter(p, j, v) for v in values]


def rendered_cells(group):
    kind, p, size, mode = group
    if kind == "so":
        zetas = (CyclotomicNumber.one(), -CyclotomicNumber.one())
    else:
        zetas = tuple(CyclotomicNumber.root_of_unity(size, k) for k in range(size))
    out = []
    for zeta in zetas:
        for j in range(p - 1):
            for tau in pin_taus(p, j):
                if kind == "so":
                    cfg = integrals.IntegralConfig(p, size, zeta, tau, level=2, cutoff=1, mode=mode)
                    res = integrals.gamma_so(cfg)
                else:
                    res = integrals.jpss_gl_gamma(size, tau, zeta, level=2, cutoff=1)
                assert res.matches
                out.append([cli.scalar_str(x) for x in (res.computed, res.predicted)])
                out.append([x.to_records() for x in (res.computed, res.predicted)])
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


CELL_DIGESTS = {
    ("so", 3, 2, "support-aware"): "1548c5dc8d8cb71790f54fdb4b2ad56756d1c681458287f205b2a110fb18ca0c",
    ("so", 3, 2, "brute-force"): "1548c5dc8d8cb71790f54fdb4b2ad56756d1c681458287f205b2a110fb18ca0c",
    ("so", 5, 2, "support-aware"): "e70ef60ef99039598da34b36aa478ddd5f3049aa4a9498d8fec686b95e77b7ac",
    ("so", 7, 1, "support-aware"): "b663fd2602a5856b32126fb4b4cfb42edb62f29e27206a74f842e78765460131",
    ("gl", 3, 2, None): "d41540aadc5dd7434022539e502cf6f45c0b0381181e0366e936f5e54348e90e",
    ("gl", 3, 3, None): "b8860d84aac845395978619086dd04c52ed677c1ada8dc66f2265c743413def8",
    ("gl", 5, 2, None): "0cd505266854ef785cfe2880de65553343142ef30bb8c517f1e0cb2e4f88cecb",
    ("gl", 5, 3, None): "26a6390768e1f3c081ef1e8c0cacc1bf31ec62dc2b26784e4ede09a9f9e1ac64",
}


@pytest.mark.parametrize("group", sorted(CELL_DIGESTS, key=str), ids=str)
def test_rendered_warm_cells_are_pinned(group):
    assert rendered_cells(group) == CELL_DIGESTS[group]
