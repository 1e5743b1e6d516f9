import json
from math import prod

import pytest

from mwglue.cli import MAX_SQ_PRIMES, main
from mwglue.descent import descent_class
from mwglue.etale import CubicEtaleAlgebra, NonSquareCertificate
from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_POINT, EXAMPLE_PSI
from mwglue.glue import GluingData

from oracles import trial_is_prime


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def gluing_file(tmp_path):
    return _write(
        tmp_path,
        "gluing.json",
        GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI).to_json(),
    )


class TestVerifyExample:
    def test_default_run_verifies(self, capsys):
        assert main(["verify-example"]) == 0
        out = capsys.readouterr().out
        assert "verdict: verified" in out
        assert "p = 13" in out

    def test_json_format(self, capsys):
        assert main(["verify-example", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "verified"
        assert data["certificate"]["p"] == 13
        assert data["norm_of_shift"] == "1"

    def test_small_bounds_give_unknown(self, capsys):
        assert main(["verify-example", "--sq-primes", "2"]) == 2

    def test_tampered_fixture_falsifies(self, tmp_path, capsys):
        fixtures = _write(
            tmp_path, "fixtures.json", {"E": {"f": ["1", "6", "4"]}}
        )
        assert main(["verify-example", "--fixtures", fixtures]) == 1

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify-example", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "verified"

    def test_full_fixture_override_schema(self, tmp_path, capsys):
        # spelling out every fixture key explicitly must reproduce the verdict
        from mwglue.fixtures import (
            COVER_TO_E,
            COVER_TO_F,
            EXAMPLE_C,
            EXAMPLE_C_UNSCALED,
            EXAMPLE_RESCALE,
        )

        data = {
            "E": EXAMPLE_E.to_json(),
            "F": EXAMPLE_F.to_json(),
            "h": EXAMPLE_PSI.to_json(),
            "P": EXAMPLE_POINT.to_json(),
            "C": EXAMPLE_C.to_json(),
            "C_unscaled": EXAMPLE_C_UNSCALED.to_json(),
            "rescale": str(EXAMPLE_RESCALE),
            "cover_to_E": {"u": COVER_TO_E[0].to_json(), "v": COVER_TO_E[1].to_json()},
            "cover_to_F": {"u": COVER_TO_F[0].to_json(), "v": COVER_TO_F[1].to_json()},
        }
        fixtures = _write(tmp_path, "full.json", data)
        assert main(["verify-example", "--fixtures", fixtures]) == 0

    def test_certificate_in_report_revalidates(self, capsys):
        assert main(["verify-example", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        cert = NonSquareCertificate.from_json(data["certificate"])
        K = CubicEtaleAlgebra.from_cubic(EXAMPLE_E.f_poly())
        elem = K.element([EXAMPLE_POINT.x, -1])
        assert cert.validate(K, elem)


class TestFamilyCommand:
    def test_run_three_instances(self, capsys):
        assert main(["family", "--l1", "3", "--l2", "5", "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "229" in out.splitlines()[0]
        assert out.splitlines()[0].index("229") < out.splitlines()[0].index("1129")

    def test_equal_primes_rejected(self, capsys):
        assert main(["family", "--l1", "3", "--l2", "3"]) == 3

    def test_bound_exhaustion(self, capsys):
        code = main(
            ["family", "--l1", "3", "--l2", "5", "--count", "100", "--bound", "1000"]
        )
        assert code == 2
        assert "bound exhausted" in capsys.readouterr().out

    def test_json_report_revalidates(self, capsys):
        from mwglue.arith import (
            SquareClassTriple,
            validate_noncontainment_certificate,
        )
        from mwglue.arith import coordinate_from_json

        assert main(
            ["family", "--l1", "3", "--l2", "5", "--count", "1", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        inst = data["instances"][0]
        assert inst["p"] == 229
        obstruction = inst["obstruction"]
        span = [SquareClassTriple.from_json(t) for t in obstruction["span"]]
        target = SquareClassTriple.from_json(obstruction["target"])
        coords = [coordinate_from_json(c) for c in obstruction["certificate"]]
        assert validate_noncontainment_certificate(span, target, coords)

    def test_invalid_f_file_params(self, tmp_path, capsys):
        # l1 = 3 occurs in the honest generator classes of the default F
        f_file = _write(
            tmp_path,
            "F.json",
            {
                "F": {"f": ["0", "-3", "2"]},
                "generators": [{"x": "3", "y": "6"}, {"x": "0", "y": "0"}],
            },
        )
        assert main(["family", "--l1", "3", "--l2", "5", "--F", f_file]) == 3

    def test_f_file_honest_run(self, tmp_path, capsys):
        f_file = _write(
            tmp_path,
            "F.json",
            {
                "F": {"f": ["0", "-3", "2"]},
                "generators": [{"x": "3", "y": "6"}, {"x": "0", "y": "0"}],
            },
        )
        assert (
            main(["family", "--l1", "5", "--l2", "7", "--F", f_file, "--count", "1"])
            == 0
        )
        assert "1231" in capsys.readouterr().out


class TestMembershipCommand:
    def test_example_pair(self, tmp_path, gluing_file, capsys):
        p_file = _write(tmp_path, "P.json", {"x": "-2", "y": "1"})
        q_file = _write(tmp_path, "Q.json", "O")
        assert main(["membership", "--gluing", gluing_file, "--P", p_file, "--Q", q_file]) == 0
        assert "not_in_image" in capsys.readouterr().out

    def test_identity_pair(self, tmp_path, gluing_file, capsys):
        p_file = _write(tmp_path, "P.json", "O")
        q_file = _write(tmp_path, "Q.json", "O")
        assert main(["membership", "--gluing", gluing_file, "--P", p_file, "--Q", q_file]) == 0
        assert "in_image" in capsys.readouterr().out

    def test_off_curve_point(self, tmp_path, gluing_file, capsys):
        p_file = _write(tmp_path, "P.json", {"x": "1", "y": "1"})
        q_file = _write(tmp_path, "Q.json", "O")
        assert main(["membership", "--gluing", gluing_file, "--P", p_file, "--Q", q_file]) == 3

    def test_unknown_exit(self, tmp_path, gluing_file, capsys):
        p_file = _write(tmp_path, "P.json", {"x": "-2", "y": "1"})
        q_file = _write(tmp_path, "Q.json", "O")
        code = main(
            [
                "membership",
                "--gluing",
                gluing_file,
                "--P",
                p_file,
                "--Q",
                q_file,
                "--sq-primes",
                "2",
                "--format",
                "json",
            ]
        )
        assert code == 2
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "unknown"
        assert data["bounds"] == {"cert_primes": 2}

    def test_sq_primes_cap(self, tmp_path, gluing_file, capsys):
        p_file = _write(tmp_path, "P.json", {"x": "-2", "y": "1"})
        q_file = _write(tmp_path, "Q.json", "O")
        args = ["membership", "--gluing", gluing_file, "--P", p_file, "--Q", q_file]
        assert main([*args, "--sq-primes", str(MAX_SQ_PRIMES + 1)]) == 3
        assert f"at most {MAX_SQ_PRIMES}" in capsys.readouterr().err
        assert main(["verify-example", "--sq-primes", str(MAX_SQ_PRIMES + 1)]) == 3
        assert main([*args, "--sq-primes", "0"]) == 3
        assert main([*args, "--height", "100"]) == 3  # the flag is gone

    def test_rho_budget_exhausted_on_family_gluing(self, tmp_path, capsys):
        # the class triple of 10P on the p = 229 family curve needs a
        # cofactor that rho cannot split within its step budget: exit 2,
        # naming the budget; 7P needs an 89-bit cofactor with a 43-bit
        # factor, in budget.  Membership of (10P, O) factors nothing.
        from mwglue.family import build_instance, gluing_for_instance
        from mwglue.fixtures import FAMILY_F

        inst = build_instance(229)
        gluing = gluing_for_instance(inst, FAMILY_F)
        c_file = _write(tmp_path, "curve.json", gluing.E.to_json())
        g_file = _write(tmp_path, "gluing.json", gluing.to_json())
        q_file = _write(tmp_path, "Q.json", "O")

        def run(command, n):
            p_file = _write(tmp_path, "P.json", gluing.E.mul(n, inst.P).to_json())
            if command == "membership":
                args = ["--gluing", g_file, "--P", p_file, "--Q", q_file]
            else:
                args = ["--curve", c_file, "--point", p_file, "--roots", "0,-230,228"]
            code = main([command, *args])
            return code, capsys.readouterr()

        code, out = run("descent-class", 7)
        assert code == 0 and out.out == "(-1, 229, -229)\n"
        code, out = run("descent-class", 10)
        assert code == 2
        assert out.err.startswith("bound exhausted: Pollard rho used its budget of _RHO_STEPS")
        code, out = run("membership", 10)
        assert code == 0 and out.out == "verdict: in_image\n"

    def test_emitted_verdict_revalidates(self, tmp_path, gluing_file, capsys):
        p_file = _write(tmp_path, "P.json", {"x": "-2", "y": "1"})
        q_file = _write(tmp_path, "Q.json", "O")
        main(
            [
                "membership",
                "--gluing",
                gluing_file,
                "--P",
                p_file,
                "--Q",
                q_file,
                "--format",
                "json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"verdict", "certificate"}  # bounds only on unknown
        cert = NonSquareCertificate.from_json(data["certificate"])
        gluing = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        diff = descent_class(EXAMPLE_E, gluing.L, EXAMPLE_POINT)
        assert cert.validate(gluing.L, diff.rep)


class TestPointCommands:
    def test_descent_class_marked_order(self, tmp_path, capsys):
        curve = _write(tmp_path, "curve.json", {"f": ["0", "-120", "2"]})
        point = _write(tmp_path, "point.json", {"x": "-1", "y": "11"})
        code = main(
            ["descent-class", "--curve", curve, "--point", point, "--roots", "0,-12,10"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "(-1, 11, -11)"

    def test_jinv(self, tmp_path, capsys):
        curve = _write(tmp_path, "curve.json", {"f": ["1", "0", "0"]})
        assert main(["jinv", "--curve", curve]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_torsion(self, tmp_path, capsys):
        curve = _write(tmp_path, "curve.json", {"f": ["0", "-8", "2"]})
        assert main(["torsion", "--curve", curve]) == 0
        assert "Z/2 x Z/2" in capsys.readouterr().out

    def test_torsion_without_factoring_the_discriminant(self, tmp_path, capsys):
        # the discriminant's cofactor (10000799 * 205126079)^2 lies above the
        # certified primality range; torsion needs no factorization
        curve = _write(tmp_path, "curve.json", {"f": ["123456789012345678901", "0", "0"]})
        assert main(["torsion", "--curve", curve]) == 0
        assert capsys.readouterr().out.strip() == "trivial (order 1)"

    def test_torsion_when_every_prime_below_1000_divides_the_discriminant(self, tmp_path, capsys):
        # y^2 = (x - 1)(x^2 + x + M - 2), M the product of the odd primes
        # below 1000, has the double root 1 mod each of them
        M = prod(q for q in range(3, 1000, 2) if trial_is_prime(q))
        curve = _write(tmp_path, "curve.json", {"f": [str(2 - M), str(M - 3), "0"]})
        assert main(["torsion", "--curve", curve]) == 0
        assert capsys.readouterr().out == "Z/2 (order 2)\ngenerators: (1, 0)\n"

    def test_primality_bound_exhausted(self, tmp_path, capsys):
        # the class of (0, 0) on y^2 = x (x + 1) (x - P) needs the square class
        # of -P, and P = 10^30 + 57 is a probable prime above psi_13
        P = 10**30 + 57
        curve = _write(tmp_path, "curve.json", {"f": ["0", str(-P), str(1 - P)]})
        point = _write(tmp_path, "point.json", {"x": "0", "y": "0"})
        assert main(["descent-class", "--curve", curve, "--point", point]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bound exhausted:")
        assert "psi_13 = 3317044064679887385961981" in err

    def test_missing_file_is_input_error(self, capsys):
        assert main(["jinv", "--curve", "/nonexistent/curve.json"]) == 3

    def test_unknown_flag_is_input_error(self, capsys):
        assert main(["jinv", "--curve", "x", "--bogus"]) == 3

    def test_singular_curve_is_input_error(self, tmp_path, capsys):
        curve = _write(tmp_path, "curve.json", {"f": ["0", "0", "0"]})
        assert main(["jinv", "--curve", curve]) == 3
