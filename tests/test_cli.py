import os
import pathlib
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import progressio
from progressio import cli
from progressio import PrimeField, build_stable, certificate_to_text, parse_poly
from progressio.cli import run
from progressio.errors import ParseError
from progressio.poly import Poly


def read(path):
    return path.read_bytes()


def test_construct_then_certify_round_trip(tmp_path):
    cert_file = tmp_path / "cert.txt"
    code = run(["construct", "-p", "7", "-a", "X+1", "-b", "1", "-n", "9",
                "-o", str(cert_file)])
    assert code == 0
    text = cert_file.read_text()
    assert text.startswith("# seed: 0\n")
    assert "modulus: 7" in text
    assert run(["certify", "--cert", str(cert_file)]) == 0


def test_certify_tampered_certificate(tmp_path, capsys):
    cert_file = tmp_path / "cert.txt"
    run(["construct", "-p", "7", "-a", "X+1", "-b", "1", "-n", "9",
         "-o", str(cert_file)])
    lines = cert_file.read_text().splitlines()
    tampered = [
        line if not line.startswith("e:") else "e: 6" for line in lines
    ]
    cert_file.write_text("\n".join(tampered) + "\n")
    assert run(["certify", "--cert", str(cert_file)]) == 1
    err = capsys.readouterr().err
    assert "violated" in err
    assert "degree/exponent" in err and "witness1-identity" in err


@pytest.mark.parametrize("e", ["-1", "1000000000"])
def test_certify_rejects_out_of_range_exponent(tmp_path, capsys, e):
    # The degree clauses are read before (X - gamma1)^e is expanded, so a
    # negative exponent fails cleanly and a huge one costs no time.
    cert_file = tmp_path / "cert.txt"
    run(["construct", "-p", "7", "-a", "X+1", "-b", "1", "-n", "9",
         "-o", str(cert_file)])
    lines = cert_file.read_text().splitlines()
    tampered = [line if not line.startswith("e:") else f"e: {e}" for line in lines]
    cert_file.write_text("\n".join(tampered) + "\n")
    start = time.perf_counter()
    assert run(["certify", "--cert", str(cert_file)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "degree/exponent" in err and "witness1-identity" in err


def test_certify_refuses_a_repeated_key(tmp_path, capsys):
    # A second "e:" line is a malformed file, not a value that replaces the first.
    cert_file = tmp_path / "cert.txt"
    run(["construct", "-p", "7", "-a", "X+1", "-b", "1", "-n", "9",
         "-o", str(cert_file)])
    cert_file.write_text(cert_file.read_text() + "e: 999\n")
    assert run(["certify", "--cert", str(cert_file)]) == 2
    assert "repeats key 'e'" in capsys.readouterr().err


def test_certify_refuses_a_4001_digit_modulus_at_once(tmp_path, capsys):
    # The modulus is checked against 2^61 before Miller-Rabin, whose cost grows
    # with the number read.
    cert_file = tmp_path / "cert.txt"
    run(["construct", "-p", "7", "-a", "X+1", "-b", "1", "-n", "9",
         "-o", str(cert_file)])
    lines = cert_file.read_text().splitlines()
    huge = f"modulus: {10**4000 + 1}"
    cert_file.write_text("\n".join(huge if line.startswith("modulus:") else line
                                    for line in lines) + "\n")
    start = time.perf_counter()
    assert run(["certify", "--cert", str(cert_file)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "2^61" in capsys.readouterr().err


def test_factor_rejects_huge_exponent(capsys):
    # "X^1000000000" would be a dense list of 10^9 + 1 coefficients.
    start = time.perf_counter()
    assert run(["factor", "-p", "5", "-f", "X^1000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exponent" in capsys.readouterr().err


def test_parse_poly_accepts_exponent_at_the_bound():
    field = PrimeField(5)
    assert parse_poly(field, f"X^{2**20}+1").degree == 2**20
    with pytest.raises(ParseError):
        parse_poly(field, f"X^{2**20 + 1}")


def test_construct_determinism(tmp_path):
    out1, out2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    argv = ["construct", "-p", "13", "-a", "X^2+1", "-b", "X", "-n", "11",
            "--seed", "5"]
    assert run(argv + ["-o", str(out1)]) == 0
    assert run(argv + ["-o", str(out2)]) == 0
    assert read(out1) == read(out2)


def test_search_csv_and_detail(tmp_path):
    csv_file = tmp_path / "report.csv"
    code = run(["search", "-p", "101", "-a", "X+1", "-b", "1", "-n", "7",
                "--max-hits", "3", "-o", str(csv_file)])
    assert code == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "# seed: 0"
    assert lines[1] == "strategy,p,n,scanned,hits,density"
    assert lines[2].startswith("constructed-scan,101,7,")

    detail_file = tmp_path / "report.txt"
    code = run(["search", "-p", "101", "-a", "X+1", "-b", "1", "-n", "7",
                "--max-hits", "3", "--format", "structured-text",
                "-o", str(detail_file)])
    assert code == 0
    assert "member: " in detail_file.read_text()


def test_search_exhaustive_strategy(tmp_path):
    out = tmp_path / "r.csv"
    code = run(["search", "-p", "3", "-a", "X+1", "-b", "X^2+1", "-n", "4",
                "--strategy", "exhaustive", "-o", str(out)])
    assert code == 0
    assert "exhaustive,3,4," in out.read_text()
    detail = tmp_path / "r.txt"
    code = run(["search", "-p", "3", "-a", "X+1", "-b", "X^2+1", "-n", "4",
                "--strategy", "exhaustive", "--format", "structured-text",
                "-o", str(detail)])
    assert code == 0
    body = detail.read_text()
    assert body.count("c: ") == body.count("member: ") >= 1


def test_search_exhaustive_refuses_huge_degree_at_once(capsys):
    start = time.perf_counter()
    code = run(["search", "-p", "3", "-a", "X+1", "-b", "1", "-n", str(10**8),
                "--strategy", "exhaustive"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "candidate space exceeds the guard" in captured.err


def test_count_subcommand(tmp_path, capsys):
    cert_file = tmp_path / "cert.txt"
    run(["construct", "-p", "101", "-a", "X+1", "-b", "1", "-n", "7",
         "-o", str(cert_file)])
    assert run(["count", "--cert", str(cert_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "p,n,count,expected,ratio"
    assert out.splitlines()[1].startswith("101,7,")
    dest = tmp_path / "density.csv"
    assert run(["count", "--cert", str(cert_file), "-o", str(dest)]) == 0
    assert dest.read_text() == out


def test_count_refuses_a_61_bit_modulus(tmp_path, capsys):
    # The scan and its root sieve are O(p), so count stops at the guard.
    field = PrimeField((1 << 61) - 1)
    cert = build_stable(parse_poly(field, "X+1"), Poly.one(field), 9)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(certificate_to_text(cert))
    start = time.perf_counter()
    assert run(["count", "--cert", str(cert_file)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "10000000" in capsys.readouterr().err


def test_factor_subcommand(capsys):
    assert run(["factor", "-p", "5", "-f", "X^2+1"]) == 0
    out = capsys.readouterr().out
    assert out == "(X+2)^1\n(X+3)^1\n"


def test_exit_code_usage_errors(capsys):
    assert run(["factor", "-p", "6", "-f", "X"]) == 2  # composite modulus
    assert run(["factor", "-p", "5", "-f", "X^"]) == 2  # bad grammar
    assert run(["construct", "-p", "7", "-a", "X^2", "-b", "X", "-n", "9"]) == 2
    capsys.readouterr()


def test_exit_code_math_failures(tmp_path, capsys):
    # exponent window empty: the mathematics says no
    assert run(["construct", "-p", "7", "-a", "X+1", "-b", "X", "-n", "3"]) == 1
    # field too small for the construction
    assert run(["construct", "-p", "5", "-a", "X^2+1", "-b", "1", "-n", "9"]) == 1
    err = capsys.readouterr().err
    assert "failed:" in err


def test_missing_file_is_usage_error(capsys):
    assert run(["certify", "--cert", "/nonexistent/cert.txt"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["certify", "count"])
def test_non_utf8_certificate_is_usage_error(tmp_path, capsys, command):
    cert_file = tmp_path / "cert.txt"
    cert_file.write_bytes(b"\xff\xfe" + "modulus: 7\n".encode("utf-16-le"))
    assert run([command, "--cert", str(cert_file)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_search_rejects_negative_max_hits(capsys):
    argv = ["search", "-p", "7", "-a", "X+1", "-b", "1", "-n", "9", "--max-hits"]
    assert run(argv + ["-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_hits" in captured.err
    assert run(argv + ["0"]) == 0
    assert "constructed-scan,7,9,0,0," in capsys.readouterr().out


@pytest.mark.parametrize("max_hits", ["4097", "1000000000"])
def test_search_rejects_max_hits_above_4096(capsys, max_hits):
    # Refused before the certificate is built, at the largest admissible p too.
    argv = ["search", "-p", str((1 << 61) - 1), "-a", "X+1", "-b", "1", "-n", "9",
            "--strategy", "constructed", "--max-hits", max_hits]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_hits" in captured.err


def test_shared_parser_keeps_nothing_between_calls(capsys):
    # run() builds its parser once; options of an earlier call, or of one that
    # argparse rejected, must not reach a later default search.
    assert run(["search", "-p", "3", "-a", "X+1", "-b", "X^2+1", "-n", "4",
                "--strategy", "exhaustive", "--format", "structured-text"]) == 0
    assert run(["search", "-p", "7", "-a", "X+1", "-b", "1", "-n", "9",
                "--format", "xml"]) == 2
    capsys.readouterr()
    argv = ["search", "-p", "7", "-a", "X+1", "-b", "1", "-n", "9"]
    assert run(argv) == 0
    src = pathlib.Path(progressio.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-m", "progressio.cli", *argv], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True,
    )
    assert capsys.readouterr().out.encode("utf-8") == fresh.stdout


def test_selftest_quick(capsys):
    assert run(["selftest", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 4
    assert "FAIL" not in out


def test_selftest_full(capsys):
    # Trial division at p = 3 up to degree 6 (every p-th-power shape) and the
    # root sieve at p = 1009.
    assert run(["selftest", "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 6
    assert "FAIL" not in out


def _skewed_expand(real):
    # Unit and factors as factorize has them; only the product comes out wrong.
    def factorize(f, *seed):
        ours = real(f, *seed)
        return SimpleNamespace(unit=ours.unit, factors=ours.factors, expand=lambda: f + 1)

    return factorize


# One reference broken at a time, each read by exactly one selftest suite.
_BREAKERS = {
    "necklace counts match enumeration": (
        "count_irreducibles", lambda real: lambda p, n: real(p, n) + (n == 1)),
    "factorization agrees with trial division": (
        "factorize", lambda real: lambda f, *seed: real(f * f, *seed)),
    "factorization expands back": (
        "factorize", _skewed_expand),
    "discriminant character agrees with the factor count": (
        "_discriminant", lambda real: lambda f, p: 0),
    "exhaustive search agrees with the necklace count": (
        "search_exhaustive",
        lambda real: lambda a, b, n: SimpleNamespace(hits=(), scanned=0)),
    "irreducibility test agrees with the sieve": (
        "enumerate_irreducibles", lambda real: lambda p, n: real(p, n)[p == 3:]),
    "product kernel agrees with convolution": (
        "naive_mul", lambda real: lambda f, g: real(f, g) + 1),
    "product kernel's mulmod agrees with long division": (
        "_reducer", lambda real: lambda m, p: lambda f, g: [*real(m, p)(f, g), 1]),
    "Euclid kernel agrees with long division and Sylvester": (
        "sylvester_resultant", lambda real: lambda a, b, p: (real(a, b, p) + 1) % p),
    "certificate round-trip certifies": (
        "certify_sn", lambda real: lambda cert: SimpleNamespace(n=cert.n + 1)),
    "root sieve agrees with the irreducibility test": (
        "_root_sieve", lambda real: lambda a, bc, p: bytearray([1]) * p),
}


@pytest.mark.parametrize("case", list(_BREAKERS))
def test_selftest_reports_exactly_the_broken_suite(monkeypatch, capsys, case):
    name, breaker = _BREAKERS[case]
    monkeypatch.setattr(cli, name, breaker(getattr(cli, name)))
    assert run(["selftest", "--level", "quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    suite = {"factorization expands back": "factorization agrees with trial division",
             "product kernel's mulmod agrees with long division":
                 "product kernel agrees with convolution"}.get(case, case)
    assert failed == [f"FAIL  {suite}"]
    assert sum(line.startswith("ok  ") for line in lines) == 8
