import copy
import json
import os
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

import mwglue.poly as P
from mwglue import cli
from mwglue.cli import MAX_DIGITS, MAX_FAMILY_COUNT, MAX_SQ_PRIMES, main
from mwglue.descent import ObstructionVerdict, descent_class
from mwglue.etale import CubicEtaleAlgebra, NonSquareCertificate
from mwglue.fixtures import (
    COVER_TO_E,
    COVER_TO_F,
    EXAMPLE_C,
    EXAMPLE_C_UNSCALED,
    EXAMPLE_E,
    EXAMPLE_F,
    EXAMPLE_POINT,
    EXAMPLE_PSI,
)
from mwglue.glue import GluingData

from oracles import trial_is_prime

SRC = Path(__file__).resolve().parents[1] / "src"


GLUING = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI).to_json()


def _membership(inputs, p, q="O") -> list[str]:
    """The argv of membership of (p, q) on the example gluing."""
    return ["membership", "--gluing", inputs.write("gluing.json", GLUING),
            "--P", inputs.write("P.json", p), "--Q", inputs.write("Q.json", q)]


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

    def test_tampered_fixture_falsifies(self, inputs, capsys):
        fixtures = inputs.write("fixtures.json", {"E": {"f": ["1", "6", "4"]}})
        assert main(["verify-example", "--fixtures", fixtures]) == 1

    def test_gluing_validated_once(self, monkeypatch):
        # the roots-mapped, gluing and membership steps all report from one
        # validation, which builds F's algebra once
        import mwglue.example as Ex
        import mwglue.glue as G

        calls = {"validate": 0, "F_algebra": 0}
        validate, from_cubic = G.validate_identification, CubicEtaleAlgebra.from_cubic.__func__

        def counted_validate(*args):
            calls["validate"] += 1
            return validate(*args)

        def counted_from_cubic(cls, f, root_order=None):
            calls["F_algebra"] += P.poly(f) == EXAMPLE_F.f_poly()
            return from_cubic(cls, f, root_order)

        # wherever it is bound by name, so a second caller is counted too
        for module in (G, Ex):
            monkeypatch.setattr(module, "validate_identification", counted_validate, raising=False)
        monkeypatch.setattr(CubicEtaleAlgebra, "from_cubic", classmethod(counted_from_cubic))
        assert Ex.run_example().exit_code == 0
        assert calls == {"validate": 1, "F_algebra": 1}

    def test_misspelled_fixture_key_refused(self, inputs, capsys):
        # {"E": ...} with this cubic falsifies; {"e": ...} must not verify
        fixtures = inputs.write("fixtures.json", {"e": {"f": ["1", "6", "4"]}})
        assert main(["verify-example", "--fixtures", fixtures]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'e' in the fixtures file")
        assert err.count("\n") == 1

    def test_fixtures_file_must_hold_an_object(self, inputs, capsys):
        fixtures = inputs.write("fixtures.json", [])
        assert main(["verify-example", "--fixtures", fixtures]) == 3
        assert capsys.readouterr().err == "error: the fixtures file: expected an object\n"

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify-example", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "verified"

    def test_full_fixture_override_schema(self, inputs, capsys):
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
        fixtures = inputs.write("full.json", data)
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

    def test_count_cap(self, capsys):
        start = time.perf_counter()
        code = main(["family", "--l1", "3", "--l2", "5", "--count", str(MAX_FAMILY_COUNT + 1),
                     "--bound", str(10**21)])
        assert code == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error: --count must be at most {MAX_FAMILY_COUNT}\n"

    def test_primality_bound_exhausted(self, capsys):
        # P = 10^30 + 57 is a probable prime above psi_13, so it cannot be
        # proven an odd prime
        P = 10**30 + 57
        assert main(["family", "--l1", str(P), "--l2", "5", "--count", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bound exhausted:")
        assert "psi_13 = 3317044064679887385961981" in err

    def test_bound_exhaustion(self, capsys):
        code = main(
            ["family", "--l1", "3", "--l2", "5", "--count", "100", "--bound", "1000"]
        )
        assert code == 2
        assert "bound exhausted" in capsys.readouterr().out

    def test_bound_is_inclusive_in_the_message(self, capsys):
        # 229 is the first prime of (3, 5) and the bound itself: it is found,
        # and the message says the search ran up to the bound, not below it
        code = main(["family", "--l1", "3", "--l2", "5", "--count", "2", "--bound", "229"])
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "primes: 229"
        assert lines[1] == "bound exhausted: found 1 of 2 instances up to 229"

    def test_json_report_revalidates(self, capsys):
        from mwglue.arith import SquareClassTriple
        from oracles import validate_noncontainment_certificate

        assert main(
            ["family", "--l1", "3", "--l2", "5", "--count", "1", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        inst = data["instances"][0]
        assert inst["p"] == 229
        obstruction = inst["obstruction"]
        span = [SquareClassTriple.from_json(t) for t in obstruction["span"]]
        target = SquareClassTriple.from_json(obstruction["target"])
        coords = ObstructionVerdict.from_json(obstruction).certificate
        assert validate_noncontainment_certificate(span, target, coords)

    def test_invalid_f_file_params(self, inputs, capsys):
        # l1 = 3 occurs in the honest generator classes of the default F
        f_file = inputs.write("F.json", {
            "F": {"f": ["0", "-3", "2"]},
            "generators": [{"x": "3", "y": "6"}, {"x": "0", "y": "0"}],
        })
        assert main(["family", "--l1", "3", "--l2", "5", "--F", f_file]) == 3

    def test_misspelled_f_file_key_refused(self, inputs, capsys):
        # with "generators" this exits 3 as above; "generator" must not drop them
        f_file = inputs.write("F.json", {
            "F": {"f": ["0", "-3", "2"]},
            "generator": [{"x": "3", "y": "6"}, {"x": "0", "y": "0"}],
        })
        assert main(["family", "--l1", "3", "--l2", "5", "--F", f_file]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'generator' in the F file")
        assert err.count("\n") == 1

    def test_f_file_must_hold_an_object(self, inputs, capsys):
        f_file = inputs.write("F.json", [{"f": ["0", "-3", "2"]}])
        assert main(["family", "--l1", "3", "--l2", "5", "--F", f_file]) == 3
        assert capsys.readouterr().err == "error: the F file: expected an object with the key F\n"

    def test_f_file_honest_run(self, inputs, capsys):
        f_file = inputs.write("F.json", {
            "F": {"f": ["0", "-3", "2"]},
            "generators": [{"x": "3", "y": "6"}, {"x": "0", "y": "0"}],
        })
        assert (
            main(["family", "--l1", "5", "--l2", "7", "--F", f_file, "--count", "1"])
            == 0
        )
        assert "1231" in capsys.readouterr().out


class TestMembershipCommand:
    def test_example_pair(self, inputs, capsys):
        assert main(_membership(inputs, {"x": "-2", "y": "1"})) == 0
        assert "not_in_image" in capsys.readouterr().out

    def test_identity_pair(self, inputs, capsys):
        assert main(_membership(inputs, "O")) == 0
        assert "in_image" in capsys.readouterr().out

    def test_off_curve_point(self, inputs, capsys):
        assert main(_membership(inputs, {"x": "1", "y": "1"})) == 3

    def test_unknown_exit(self, inputs, capsys):
        code = main([*_membership(inputs, {"x": "-2", "y": "1"}), "--sq-primes", "2", "--format", "json"])
        assert code == 2
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "unknown"
        assert data["bounds"] == {"cert_primes": 2}

    def test_sq_primes_cap(self, inputs, capsys):
        args = _membership(inputs, {"x": "-2", "y": "1"})
        assert main([*args, "--sq-primes", str(MAX_SQ_PRIMES + 1)]) == 3
        assert f"at most {MAX_SQ_PRIMES}" in capsys.readouterr().err
        assert main(["verify-example", "--sq-primes", str(MAX_SQ_PRIMES + 1)]) == 3
        assert main([*args, "--sq-primes", "0"]) == 3
        assert main([*args, "--height", "100"]) == 3  # the flag is gone

    def test_multiples_on_family_gluing_factor_nothing(self, inputs, capsys):
        # the class of nP on the p = 229 family curve is shown as x - e_i at
        # nP, which needs no factoring: the factored class of 8P, 9P, 10P,
        # 12P and 15P had a probable prime above psi_13 or a cofactor beyond
        # rho's budget.  Membership of (10P, O) factors nothing either.
        from mwglue.family import FAMILY_F, build_instance, gluing_for_instance

        inst = build_instance(229)
        gluing = gluing_for_instance(inst, FAMILY_F)
        c_file = inputs.write("curve.json", gluing.E.to_json())
        g_file = inputs.write("gluing.json", gluing.to_json())
        q_file = inputs.write("Q.json", "O")
        roots = (0, -230, 228)
        for n in range(1, 41):
            pt = gluing.E.mul(n, inst.P)
            args = ["--curve", c_file, "--point", inputs.write(f"{n}P.json", pt.to_json()), "--roots", "0,-230,228"]
            assert main(["descent-class", *args, "--format", "json"]) == 0, n
            rep = json.loads(capsys.readouterr().out)["class"]["rep"]
            assert rep == [[str(pt.x - e)] for e in roots], n
            assert main(["descent-class", *args]) == 0, n
            assert capsys.readouterr().out == f"class of {rep}\n", n
        p_file = inputs.write("membership-10P.json", gluing.E.mul(10, inst.P).to_json())
        assert main(["membership", "--gluing", g_file, "--P", p_file, "--Q", q_file]) == 0
        assert capsys.readouterr().out == "verdict: in_image\n"

    def test_emitted_verdict_revalidates(self, inputs, capsys):
        main([*_membership(inputs, {"x": "-2", "y": "1"}), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"verdict", "certificate"}  # bounds only on unknown
        cert = NonSquareCertificate.from_json(data["certificate"])
        gluing = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        diff = descent_class(EXAMPLE_E, gluing.L, EXAMPLE_POINT)
        assert cert.validate(gluing.L, diff.rep)


E_JSON, F_JSON = EXAMPLE_E.to_json(), EXAMPLE_F.to_json()
POINT_ERROR = 'point: expected "O" or an object with the keys x and y'
GLUING_ERROR = "gluing: expected an object with the keys E, F and h"
SHAPE_ERRORS = [
    ("curve", [1, 2], "curve: expected an object with the key f"),
    ("curve", None, "curve: expected an object with the key f"),
    ("curve", {"f": [1, 2]}, "f: expected a list of 3 rationals"),
    ("curve", {"f": "1, 6, 5"}, "f: expected a list of 3 rationals"),
    ("curve", {"g": [1, 6, 5]}, "unknown key 'g' in curve; known keys: f"),
    ("point", [-2, 1], POINT_ERROR),
    ("point", {"x": "-2"}, "point: expected an object with the keys x and y"),
    ("point", None, POINT_ERROR),
    ("gluing", [E_JSON, F_JSON, ["6", "5", "1"]], GLUING_ERROR),
    ("gluing", {"E": E_JSON, "F": F_JSON}, GLUING_ERROR),
    ("gluing", {"E": E_JSON, "F": F_JSON, "h": "x^2 + 5x + 6"}, "h: expected a list of rationals"),
    ("gluing", {"E": E_JSON, "F": {"f": None}, "h": ["6", "5", "1"]}, "F.f: expected a list of 3 rationals"),
    ("gluing", {"E": {"f": [1]}, "F": F_JSON, "h": ["6", "5", "1"]}, "E.f: expected a list of 3 rationals"),
    ("gluing", {"E": E_JSON, "F": "y^2 = x^3", "h": ["6", "5", "1"]}, "F: expected an object with the key f"),
    ("fixtures", {"h": {"x": "1"}}, "h: expected a list of rationals"),
    ("fixtures", {"P": {"y": "1"}}, "P: expected an object with the keys x and y"),
    ("fixtures", {"E": {"f": [1]}}, "E.f: expected a list of 3 rationals"),
    # a string was read digit by digit, as x^6 + 6x^4 + 5x^2 + 1
    ("fixtures", {"C": {"h6": "1050601"}}, "C.h6: expected a list of rationals"),
    ("fixtures", {"C": {"h7": ["1", "0", "0", "0", "0", "0", "1"]}}, "unknown key 'h7' in C; known keys: h6"),
    ("fixtures", {"C_unscaled": ["1", "0", "1"]}, "C_unscaled: expected an object with the key h6"),
    ("fixtures", {"cover_to_E": {"u": {"num": ["1"], "den": ["1"]}}},
     "cover_to_E: expected an object with the keys u and v"),
    ("fixtures", {"cover_to_E": {"u": {"num": "-1", "den": ["0", "0", "1"]}, "v": {"num": ["1"], "den": ["1"]}}},
     "cover_to_E.u.num: expected a list of rationals"),
    ("fixtures", {"cover_to_F": {"u": {"num": ["0", "0", "1"], "den": ["1"]}, "v": {"num": ["1"], "den": "1"}}},
     "cover_to_F.v.den: expected a list of rationals"),
    ("fixtures", {"cover_to_F": [["0", "0", "1"], ["1"]]}, "cover_to_F: expected an object with the keys u and v"),
    # two points at infinity were read as the generators
    ("F", {"F": E_JSON, "generators": "OO"}, "generators: expected a list of points"),
    ("F", {"F": E_JSON, "generators": ["O", {"x": "3/0", "y": "6"}]},
     'generators[1].x: not a rational number: "3/0"'),
    ("F", {"F": E_JSON, "generators": ["O", {"x": "0"}]},
     "generators[1]: expected an object with the keys x and y"),
    ("F", {"generators": []}, "the F file: expected an object with the key F"),
    ("F", {"F": {"f": ["0", "-3"]}}, "F.f: expected a list of 3 rationals"),
    # a key that no reader reads is refused at every level, with its path
    ("curve", {**E_JSON, "g": ["0"]}, "unknown key 'g' in curve; known keys: f"),
    ("point", {"x": "-2", "y": "1", "z": "7"}, "unknown key 'z' in point; known keys: x, y"),
    ("gluing", {"E": E_JSON, "F": F_JSON, "h": ["6", "5", "1"], "psi": ["0"]},
     "unknown key 'psi' in gluing; known keys: E, F, h"),
    ("gluing", {"E": {**E_JSON, "g": ["0"]}, "F": F_JSON, "h": ["6", "5", "1"]},
     "unknown key 'g' in E; known keys: f"),
    ("gluing", {"E": E_JSON, "F": {**F_JSON, "f2": []}, "h": ["6", "5", "1"]},
     "unknown key 'f2' in F; known keys: f"),
    ("fixtures", {"E": {**E_JSON, "g": ["0"]}}, "unknown key 'g' in E; known keys: f"),
    ("fixtures", {"P": {"x": "-2", "y": "1", "z": "7"}}, "unknown key 'z' in P; known keys: x, y"),
    ("fixtures", {"C": {"h6": ["-1", "0", "5", "0", "-6", "0", "1"], "h5": []}},
     "unknown key 'h5' in C; known keys: h6"),
    ("fixtures", {"cover_to_E": {"u": {"num": ["-1"], "den": ["0", "0", "1"]},
                                 "v": {"num": ["1"], "den": ["0", "0", "0", "1"]}, "w": {}}},
     "unknown key 'w' in cover_to_E; known keys: u, v"),
    ("fixtures", {"cover_to_F": {"u": {"num": ["0", "0", "1"], "den": ["1"], "scale": "2"},
                                 "v": {"num": ["1"], "den": ["1"]}}},
     "unknown key 'scale' in cover_to_F.u; known keys: num, den"),
    ("F", {"F": {**E_JSON, "g": ["0"]}}, "unknown key 'g' in F; known keys: f"),
    ("F", {"F": E_JSON, "generators": [{"x": "0", "y": "0", "z": "1"}]},
     "unknown key 'z' in generators[0]; known keys: x, y"),
]


@pytest.mark.parametrize("kind,payload,message", SHAPE_ERRORS,
                         ids=[f"{kind}-{json.dumps(payload)}" for kind, payload, _ in SHAPE_ERRORS])
def test_shape_error_names_the_field(inputs, capsys, kind, payload, message):
    assert main(_reading(inputs, kind, payload)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def _reading(inputs, kind, payload) -> list[str]:
    """A command that reads payload as the input file of this kind."""
    bad = inputs.write(f"{kind}.json", payload)
    curve = inputs.write("E.json", E_JSON)
    point = inputs.write("P.json", {"x": "-2", "y": "1"})
    return {
        "curve": ["jinv", "--curve", bad],
        "point": ["descent-class", "--curve", curve, "--point", bad],
        "gluing": ["membership", "--gluing", bad, "--P", point, "--Q", point],
        "fixtures": ["verify-example", "--fixtures", bad],
        "F": ["family", "--l1", "3", "--l2", "5", "--count", "1", "--F", bad],
    }[kind]


# A well-formed file of each kind, and every object a reader takes in it: the
# route to it from the top of the file, its name in a message and its keys.
DOCUMENTS = {
    "curve": E_JSON,
    "point": {"x": "-2", "y": "1"},
    "gluing": {"E": E_JSON, "F": F_JSON, "h": ["6", "5", "1"]},
    "F": {"F": {"f": ["0", "-3", "2"]}, "generators": ["O", {"x": "3", "y": "6"}]},
    "fixtures": {"C": EXAMPLE_C.to_json(), "C_unscaled": EXAMPLE_C_UNSCALED.to_json(),
                 **{name: {"u": u.to_json(), "v": v.to_json()}
                    for name, (u, v) in (("cover_to_E", COVER_TO_E), ("cover_to_F", COVER_TO_F))}},
}
MAP_KEYS, FIXTURE_KEYS = "num, den", "E, F, h, P, C, C_unscaled, rescale, cover_to_E, cover_to_F"
OBJECTS = [
    ("curve", (), "curve", "f"),
    ("point", (), "point", "x, y"),
    ("gluing", (), "gluing", "E, F, h"),
    ("gluing", ("E",), "E", "f"),
    ("gluing", ("F",), "F", "f"),
    ("F", (), "the F file", "F, generators"),
    ("F", ("generators", 1), "generators[1]", "x, y"),
    ("fixtures", (), "the fixtures file", FIXTURE_KEYS),
    ("fixtures", ("C",), "C", "h6"),
    ("fixtures", ("C_unscaled",), "C_unscaled", "h6"),
    ("fixtures", ("cover_to_E",), "cover_to_E", "u, v"),
    ("fixtures", ("cover_to_E", "u"), "cover_to_E.u", MAP_KEYS),
    ("fixtures", ("cover_to_E", "v"), "cover_to_E.v", MAP_KEYS),
    ("fixtures", ("cover_to_F",), "cover_to_F", "u, v"),
    ("fixtures", ("cover_to_F", "u"), "cover_to_F.u", MAP_KEYS),
    ("fixtures", ("cover_to_F", "v"), "cover_to_F.v", MAP_KEYS),
]
OBJECT_IDS = [f"{kind}-{name}" for kind, _, name, _ in OBJECTS]


def _at(document, route):
    for step in route:
        document = document[step]
    return document


def _first_number(value, route: tuple) -> tuple:
    """The route to the first rational inside value, which sits at route."""
    while not isinstance(value, str):
        step, value = next(iter(value.items() if isinstance(value, dict) else enumerate(value)))
        route = (*route, step)
    return route


@pytest.mark.parametrize("kind,route,name,keys", OBJECTS, ids=OBJECT_IDS)
def test_unread_key_is_refused_first(inputs, capsys, kind, route, name, keys):
    # the object misses its first key, required in all but the fixtures
    # file, and holds a bad number as well
    document = copy.deepcopy(DOCUMENTS[kind])
    obj = _at(document, route)
    obj.pop(keys.split(", ")[0], None)
    if obj:
        number = _first_number(obj, ())
        _at(obj, number[:-1])[number[-1]] = 0.5
    obj["unread"] = ["1"]
    assert main(_reading(inputs, kind, document)) == 3
    assert capsys.readouterr().err == f"error: unknown key 'unread' in {name}; known keys: {keys}\n"


@pytest.mark.parametrize("kind,route,name,keys", OBJECTS, ids=OBJECT_IDS)
def test_refused_number_names_its_path(inputs, capsys, kind, route, name, keys):
    document = copy.deepcopy(DOCUMENTS[kind])
    number = _first_number(_at(document, route), route)
    _at(document, number[:-1])[number[-1]] = 0.5
    path = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in number).lstrip(".")
    assert main(_reading(inputs, kind, document)) == 3
    assert capsys.readouterr().err == f"error: {path}: not a rational number: 0.5\n"


OFF_CURVE = {"x": "1" * 3000, "y": "1"}


@pytest.mark.parametrize("command", ["membership", "descent-class", "family"])
def test_off_curve_point_is_quoted_short(inputs, capsys, command):
    if command == "membership":
        argv = _membership(inputs, OFF_CURVE)
    elif command == "descent-class":
        argv = ["descent-class", "--curve", inputs.write("E.json", E_JSON),
                "--point", inputs.write("P.json", OFF_CURVE)]
    else:
        f_file = inputs.write("F.json", {"F": {"f": ["0", "-3", "2"]}, "generators": [OFF_CURVE]})
        argv = ["family", "--l1", "3", "--l2", "5", "--F", f_file]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "is not on" in err and len(err.encode()) < 200


class TestPointCommands:
    def test_descent_class_marked_order(self, inputs, capsys):
        curve = inputs.write("curve.json", {"f": ["0", "-120", "2"]})
        point = inputs.write("point.json", {"x": "-1", "y": "11"})
        code = main(
            ["descent-class", "--curve", curve, "--point", point, "--roots", "0,-12,10"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "class of [['-1'], ['11'], ['-11']]"

    def test_jinv(self, inputs, capsys):
        curve = inputs.write("curve.json", {"f": ["1", "0", "0"]})
        assert main(["jinv", "--curve", curve]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_torsion(self, inputs, capsys):
        curve = inputs.write("curve.json", {"f": ["0", "-8", "2"]})
        assert main(["torsion", "--curve", curve]) == 0
        assert "Z/2 x Z/2" in capsys.readouterr().out

    def test_torsion_without_factoring_the_discriminant(self, inputs, capsys):
        # the discriminant's cofactor (10000799 * 205126079)^2 lies above the
        # certified primality range; torsion needs no factorization
        curve = inputs.write("curve.json", {"f": ["123456789012345678901", "0", "0"]})
        assert main(["torsion", "--curve", curve]) == 0
        assert capsys.readouterr().out.strip() == "trivial (order 1)"

    def test_torsion_when_every_prime_below_1000_divides_the_discriminant(self, inputs, capsys):
        # y^2 = (x - 1)(x^2 + x + M - 2), M the product of the odd primes
        # below 1000, has the double root 1 mod each of them
        M = prod(q for q in range(3, 1000, 2) if trial_is_prime(q))
        curve = inputs.write("curve.json", {"f": [str(2 - M), str(M - 3), "0"]})
        assert main(["torsion", "--curve", curve]) == 0
        assert capsys.readouterr().out == "Z/2 (order 2)\ngenerators: (1, 0)\n"

    def test_two_torsion_class_proves_no_prime(self, inputs, capsys):
        # on y^2 = x (x + 1) (x - P), P = 10^30 + 57 a probable prime above
        # psi_13, the class of (0, 0) is shown with its forced component
        # f'(0) = -P, which is not factored
        P = 10**30 + 57
        curve = inputs.write("curve.json", {"f": ["0", str(-P), str(1 - P)]})
        point = inputs.write("point.json", {"x": "0", "y": "0"})
        assert main(["descent-class", "--curve", curve, "--point", point, "--roots", f"0,-1,{P}",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"class": {"rep": [[str(-P)], ["1"], [str(-P)]]}}

    def test_missing_file_is_input_error(self, capsys):
        assert main(["jinv", "--curve", "/nonexistent/curve.json"]) == 3

    def test_unknown_flag_is_input_error(self, capsys):
        assert main(["jinv", "--curve", "x", "--bogus"]) == 3

    def test_singular_curve_is_input_error(self, inputs, capsys):
        curve = inputs.write("curve.json", {"f": ["0", "0", "0"]})
        assert main(["jinv", "--curve", curve]) == 3

    def test_zero_denominator_in_point_is_input_error(self, inputs, capsys):
        curve = inputs.write("curve.json", {"f": ["0", "-120", "2"]})
        point = inputs.write("point.json", {"x": "1/0", "y": "1"})
        assert main(["descent-class", "--curve", curve, "--point", point]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_denominator_in_roots_is_input_error(self, inputs, capsys):
        curve = inputs.write("curve.json", {"f": ["0", "-120", "2"]})
        point = inputs.write("point.json", {"x": "-1", "y": "11"})
        args = ["descent-class", "--curve", curve, "--point", point, "--roots", "1/0,-12,10"]
        assert main(args) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_infinite_coefficient_is_input_error(self, inputs, capsys):
        # JSON reads 1e999 as the float inf
        curve = inputs.write("curve.json", text='{"f": [1e999, 6, 5]}')
        assert main(["jinv", "--curve", curve]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_exponent_notation_is_refused_at_once(self, inputs, capsys):
        # Fraction("1e999999999") would build 10^999999999
        curve = inputs.write("curve.json", {"f": ["1e999999999", "6", "5"]})
        start = time.perf_counter()
        assert main(["jinv", "--curve", curve]) == 3
        assert time.perf_counter() - start < 0.5
        assert '"1e999999999"' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value,accepted",
        [
            ("5", True),
            ("-2/3", True),
            ("0.5", True),
            (7, True),
            (0.1, False),  # read through its binary value, 3602879701896397/2^55
            (True, False),  # read as 1
            (None, False),
            ("1_000", False),
            (" 7 ", False),
            ("\u0661\u0662", False),  # Arabic-Indic digits, read as 12
            ("0x10", False),
            ("1.5/2", False),
        ],
        ids=repr,
    )
    def test_number_grammar(self, inputs, capsys, value, accepted):
        curve = inputs.write("curve.json", {"f": [value, 6, 5]})
        code = main(["jinv", "--curve", curve])
        err = capsys.readouterr().err
        if accepted:
            assert code == 0 and err == ""
        else:
            assert code == 3
            assert err == f"error: f[0]: not a rational number: {json.dumps(value, ensure_ascii=False)}\n"

    def test_long_refused_value_gives_a_short_message(self, inputs):
        # nested just below the decoder's limit in a fresh interpreter, so
        # the JSON reads and the refused value quotes to about 1,950 characters
        depth = 960
        curve = inputs.write("curve.json", text='{"f": [' + "[" * depth + "]" * depth + ", 6, 5]}")
        env = dict(os.environ, PYTHONIOENCODING="utf-8")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-m", "mwglue.cli", "jinv", "--curve", curve],
            env=env, capture_output=True, timeout=120,
        )
        assert run.returncode == 3
        err = run.stderr.decode("utf-8")
        assert err.startswith("error: f[0]: not a rational number: [[[")
        assert err.count("\n") == 1 and err.endswith("…\n") and len(err) < 200

    def test_deeply_nested_json_is_input_error(self, inputs, capsys):
        depth = 100_000
        curve = inputs.write("curve.json", text='{"f": [' + "[" * depth + "]" * depth + ", 6, 5]}")
        assert main(["jinv", "--curve", curve]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {curve}: JSON nested too deeply to read\n"


class TestFaultExit:
    """Only input errors exit 3: any exception main does not map is a fault
    in mwglue, reported with its traceback and exit 4."""

    def test_type_error_in_a_handler(self, monkeypatch, capsys):
        def fail(args):
            raise TypeError("handler failed")

        monkeypatch.setitem(cli.COMMANDS, "jinv", (fail, *cli.COMMANDS["jinv"][1:]))
        assert main(["jinv", "--curve", "unread.json"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("TypeError: handler failed\n")


class TestNumberSize:
    """main reads and writes integers of up to MAX_DIGITS digits, and leaves
    the interpreter's limit as it found it."""

    def test_point_past_the_default_limit(self, inputs, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            point = EXAMPLE_E.mul(280, EXAMPLE_POINT)  # coordinates of 4,394 digits
            assert len(str(point.y.numerator)) > 4300
            argv = _membership(inputs, point.to_json())
        finally:
            sys.set_int_max_str_digits(limit)
        assert main(argv) == 0
        assert capsys.readouterr().out == "verdict: in_image\n"
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("where", ["string", "JSON integer", "answer"])
    def test_number_above_the_bound(self, inputs, capsys, where):
        big = "1" * (MAX_DIGITS + 1)
        text = {
            "string": f'{{"f": ["{big}", "6", "5"]}}',
            "JSON integer": f'{{"f": [{big}, 6, 5]}}',
            # j = c4^3 / disc has about three times the digits of c1
            "answer": f'{{"f": [1, "{big[:MAX_DIGITS // 2]}", 0]}}',
        }[where]
        assert main(["jinv", "--curve", inputs.write("curve.json", text=text)]) == 2
        assert capsys.readouterr().err == (
            f"bound exhausted: a number has more than MAX_DIGITS = {MAX_DIGITS} digits\n")


def _run_with_closed_stdout(*argv) -> subprocess.CompletedProcess:
    """Run mwglue with stdout a pipe whose read end closed before it started,
    so that every write to stdout meets a closed pipe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "mwglue.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)


class TestClosedStdout:
    """A reader that closes stdout early is not invalid input: the command
    keeps the exit code of its answer and writes nothing to stderr."""

    def test_help(self):
        run = _run_with_closed_stdout("--help")
        assert (run.returncode, run.stderr) == (0, "")

    def test_json_report_keeps_its_exit_code(self, tmp_path, capsys):
        argv = ["family", "--l1", "3", "--l2", "5", "--count", "3", "--format", "json",
                "--out", str(tmp_path / "report.json")]
        code = main(argv)
        report = capsys.readouterr().out
        (tmp_path / "report.json").unlink()
        run = _run_with_closed_stdout(*argv)
        assert (run.returncode, run.stderr) == (code, "")
        # the --out file is written before stdout, so the closed pipe keeps it
        assert (tmp_path / "report.json").read_text() == report

    def test_missing_file_is_still_input_error(self, tmp_path):
        run = _run_with_closed_stdout("jinv", "--curve", str(tmp_path / "missing.json"))
        assert run.returncode == 3
        assert run.stderr.startswith("error: [Errno 2]") and run.stderr.count("\n") == 1


CLI = (sys.executable, "-m", "mwglue.cli")


def _run_process(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unbuffered=False):
    """Run args in a fresh process with src/ on PYTHONPATH and stdout
    block-buffered, as on a pipe or file, even where PYTHONUNBUFFERED is set,
    unless unbuffered.  stdout is bytes, stderr text."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    run = subprocess.run(args, stdout=stdout, stderr=stderr, env=env, timeout=120)
    run.stderr = run.stderr.decode() if run.stderr is not None else None
    return run


no_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestProcessExit:
    """`cli.entry` flushes stdout and stderr and ends the process with
    os._exit.  Each case keeps the exit code and stderr of a normal
    interpreter exit."""

    def test_stdout_closed_at_start(self, inputs):
        curve = inputs.write("curve.json", {"f": ["1", "6", "5"]})
        run = _run_process(["sh", "-c", 'exec "$@" >&-', "sh", *CLI, "jinv", "--curve", curve])
        assert (run.returncode, run.stderr) == (0, "")

    @no_dev_full
    def test_report_larger_than_the_buffer_on_a_full_device(self):
        with open("/dev/full", "wb") as full:
            run = _run_process([*CLI, "family", "--l1", "3", "--l2", "5", "--count", "3", "--format", "json"],
                               stdout=full)
        assert run.returncode == 3
        assert run.stderr.startswith("error: [Errno 28]") and run.stderr.count("\n") == 1

    @no_dev_full
    def test_buffered_answer_on_a_full_device(self, inputs):
        # the answer fits stdout's buffer and stays there after the failed
        # write; _print points fd 1 at /dev/null, so no later flush fails
        curve = inputs.write("curve.json", {"f": ["1", "6", "5"]})
        for unbuffered in (False, True):
            with open("/dev/full", "wb") as full:
                run = _run_process([*CLI, "jinv", "--curve", curve], stdout=full, unbuffered=unbuffered)
            assert run.returncode == 3
            assert run.stderr.startswith("error: [Errno 28]") and run.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["closed", "full"])
    def test_error_line_that_cannot_be_written(self, tmp_path, stderr, unbuffered):
        # the error line is lost, and the exit code stays that of the error
        if stderr == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        argv = [*CLI, "jinv", "--curve", str(tmp_path / "missing.json")]
        if stderr == "closed":
            run = _run_process(["sh", "-c", 'exec "$@" 2>&-', "sh", *argv], stderr=None, unbuffered=unbuffered)
        else:
            with open("/dev/full", "wb") as full:
                run = _run_process(argv, stderr=full, unbuffered=unbuffered)
        assert (run.returncode, run.stdout) == (3, b"")

    def test_missing_input_file(self, tmp_path):
        run = _run_process([*CLI, "jinv", "--curve", str(tmp_path / "missing.json")])
        assert (run.returncode, run.stdout) == (3, b"")
        assert run.stderr.startswith("error: [Errno 2]") and run.stderr.count("\n") == 1

    def test_exception_out_of_main_gives_a_traceback(self):
        script = (
            "import sys\n"
            "from mwglue import cli\n"
            "def fail(args):\n"
            "    raise RuntimeError('handler failed')\n"
            "cli.COMMANDS['jinv'] = (fail, *cli.COMMANDS['jinv'][1:])\n"
            "sys.argv[1:] = ['jinv', '--curve', 'unread.json']\n"
            "cli.entry()\n"
        )
        run = _run_process([sys.executable, "-c", script])
        assert run.returncode == 4
        assert run.stderr.startswith("Traceback (most recent call last):\n")
        assert run.stderr.endswith("RuntimeError: handler failed\n")

    def test_report_larger_than_a_pipe_buffer_is_read_whole(self, tmp_path):
        out = tmp_path / "F.json"
        run = _run_process([*CLI, "family", "--l1", "3", "--l2", "5", "--count", "200", "--format", "json",
                            "--out", str(out)])
        assert (run.returncode, run.stderr) == (0, "")
        assert len(run.stdout) > 65536
        assert run.stdout == out.read_bytes()
