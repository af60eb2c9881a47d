import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entbridge.bridge as bridge
import entbridge.cli as cli
from entbridge import InputError, padic
from entbridge.bridge import _two_sided_report, random_instance, verify_instance
from entbridge.cli import canonical_json, load_schema, main, render_text
from entbridge.fingroup import FinAbGroup, full_subgroup

FINITE_INSTANCE = {
    "kind": "finite",
    "moduli": [4, 2, 2],
    "endomorphism": [[0, 0, 2], [1, 0, 0], [1, 1, 0]],
    "subgroup": [[1, 0, 0], [0, 1, 1]],
    "steps": 6,
}

# `verify --format text` output of FINITE_INSTANCE and of the qp instance in
# test_qp_text_format; a change to the text rendering must update these
FINITE_TEXT = """\
kind: finite
verdict: pass
step  primal-index  dual-index  equal
   1             1           1  yes
   2             2           2  yes
   3             4           4  yes
   4             4           4  yes
   5             4           4  yes
   6             4           4  yes
primal entropy = log(1) = 0
dual entropy = log(1) = 0
"""

QP_TEXT = """\
kind: qp
verdict: pass
step  primal-index  dual-index  equal
   1             1           1  yes
   2             2           2  yes
   3             4           4  yes
   4             8           8  yes
   5            16          16  yes
primal entropy <= log(2) = 0.69314718056
dual entropy <= log(2) = 0.69314718056
closed form: 1 * log(2) = 0.69314718056
primal vs closed form: consistent, reached
dual vs closed form: consistent, reached
"""


# bytes that are not UTF-8, arrays nested past the JSON parser's recursion
# limit, and an integer past the interpreter's 4300-digit limit for
# converting a string to an int
UNREADABLE = pytest.mark.parametrize(
    "payload",
    [
        b"\xff\xfe{}",
        b"[" * 100_000,
        b'{"kind": "finite", "moduli": [%s], "endomorphism": [[0]], "subgroup": [], "steps": 2}'
        % (b"9" * 5000),
    ],
    ids=["not-utf8", "too-deep", "too-many-digits"],
)

# strings that pass the instance schema as a qp or real entry but that
# Fraction cannot read
UNREADABLE_ENTRIES = ["abc", "1/2/3", "inf", "0x10", "1 /2"]

# the largest prime below padic._MR_BOUND, the top of the schema's range
LARGEST_PRIME = 3317044064679887385961813


SHIFT_INSTANCE = {"kind": "shift", "modulus": 2, "height": 8, "level": 1, "steps": 7}
QP_INSTANCE = {"kind": "qp", "prime": 2, "matrix": [["1/2"]], "steps": 5}

# (the cap, a function from a size to an instance of that size) for every
# cap of the instance schema
CAPS = {
    "finite steps": (64, lambda n: dict(FINITE_INSTANCE, steps=n)),
    "shift steps": (64, lambda n: dict(SHIFT_INSTANCE, steps=n)),
    "qp steps": (64, lambda n: dict(QP_INSTANCE, steps=n)),
    "shift height": (64, lambda n: dict(SHIFT_INSTANCE, height=n)),
    "moduli": (16, lambda n: dict(FINITE_INSTANCE, moduli=[2] * n)),
    "endomorphism rows": (16, lambda n: dict(FINITE_INSTANCE, endomorphism=[[0, 0, 0]] * n)),
    "endomorphism columns": (16, lambda n: dict(FINITE_INSTANCE, endomorphism=[[0] * n] * 3)),
    "subgroup generators": (16, lambda n: dict(FINITE_INSTANCE, subgroup=[[0, 0, 0]] * n)),
    "subgroup entries": (16, lambda n: dict(FINITE_INSTANCE, subgroup=[[0] * n])),
    "qp rows": (16, lambda n: dict(QP_INSTANCE, matrix=[["1"]] * n)),
    "qp columns": (16, lambda n: dict(QP_INSTANCE, matrix=[["1"] * n])),
    "real rows": (16, lambda n: {"kind": "real", "matrix": [[1]] * n}),
    "real columns": (16, lambda n: {"kind": "real", "matrix": [[1] * n]}),
    "finite modulus": (2**128, lambda n: dict(FINITE_INSTANCE, moduli=[n, 2, 2])),
    "shift modulus": (2**128, lambda n: dict(SHIFT_INSTANCE, modulus=n)),
    "qp integer entry": (2**128, lambda n: dict(QP_INSTANCE, matrix=[[n]])),
    "qp negative integer entry": (2**128, lambda n: dict(QP_INSTANCE, matrix=[[-n]])),
    "qp string length": (16, lambda n: dict(QP_INSTANCE, matrix=[["1/" + "1" * (n - 2)]])),
    "qp exponent digits": (1, lambda n: dict(QP_INSTANCE, matrix=[["1e-" + "1" * n]])),
    "real string length": (32, lambda n: {"kind": "real", "matrix": [["1/" + "1" * (n - 2)]]}),
    "real exponent digits": (3, lambda n: {"kind": "real", "matrix": [["1e" + "1" * n]]}),
}


def mutate(rng, instance, mutation):
    """A copy of ``instance`` with one mutation: a key dropped, a value of
    the wrong type, an extra key, a wrong kind or a value past a cap.  A
    copy that stays schema-valid (an optional key dropped, an empty
    subgroup) is as cheap to verify as the instance itself."""
    bad = json.loads(json.dumps(instance))
    key = rng.choice(sorted(bad))
    if mutation == "drop":
        del bad[key]
    elif mutation == "type":
        bad[key] = rng.choice(["x", None, 1.5, [], {}])
    elif mutation == "extra":
        bad[rng.choice(["extra", "level", "prime", "steps"])] = 1
    elif mutation == "kind":
        bad["kind"] = rng.choice([k for k in ("finite", "shift", "qp", "real", "torus") if k != bad["kind"]])
    else:  # past a cap
        key = rng.choice([k for k in ("steps", "height", "moduli", "endomorphism", "matrix") if k in bad])
        bad[key] = 65 if key in ("steps", "height") else bad[key] * 17
    return bad


def write_instance(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def mismatch_report():
    extra = {
        "moduli": [2],
        "endomorphism": [[1]],
        "subgroup": [[0]],
    }
    terms = [full_subgroup(FinAbGroup((2,)))] * 3
    return _two_sided_report("finite", ((terms, [1, 2, 4]), (terms, [1, 2, 8])), extra)


class TestGenerate:
    @pytest.mark.parametrize("kind", ["finite", "shift", "qp", "real"])
    def test_deterministic_in_seed(self, kind, capsys):
        assert main(["generate", kind, "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", kind, "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_output_is_a_valid_instance(self, capsys):
        schema = load_schema("instance")
        for kind in ["finite", "shift", "qp", "real"]:
            main(["generate", kind, "--seed", "3"])
            jsonschema.validate(json.loads(capsys.readouterr().out), schema)


class TestVerify:
    def test_pass_roundtrip(self, tmp_path, capsys):
        path = write_instance(tmp_path, FINITE_INSTANCE)
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert out == canonical_json(report)
        # byte-identical on a second run
        assert main(["verify", path]) == 0
        assert capsys.readouterr().out == out

    def test_reads_stdin(self, capsys, monkeypatch):
        data = json.dumps(FINITE_INSTANCE).encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["verify", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_text_format(self, tmp_path, capsys):
        path = write_instance(tmp_path, FINITE_INSTANCE)
        assert main(["verify", path, "--format", "text"]) == 0
        assert capsys.readouterr().out == FINITE_TEXT

    def test_real_text_format(self, tmp_path, capsys):
        instance = {"kind": "real", "matrix": [[2, 0], [0, "1/2"]]}
        path = write_instance(tmp_path, instance)
        assert main(["verify", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "topological entropy:" in out and "algebraic entropy" in out

    def test_qp_text_format(self, tmp_path, capsys):
        instance = {"kind": "qp", "prime": 2, "matrix": [["1/2"]], "steps": 5}
        path = write_instance(tmp_path, instance)
        assert main(["verify", path, "--format", "text"]) == 0
        assert capsys.readouterr().out == QP_TEXT

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/instance.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["verify", str(path)]) == 2

    @UNREADABLE
    def test_unreadable_file_is_input_error(self, tmp_path, capsys, payload):
        path = tmp_path / "instance.json"
        path.write_bytes(payload)
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @UNREADABLE
    def test_unreadable_stdin_is_input_error(self, capsys, monkeypatch, payload):
        # a strict UTF-8 stdin, as under a UTF-8 locale
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8"))
        assert main(["verify", "-"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_stdin_decode_error_does_not_depend_on_the_locale(
        self, tmp_path, capsys, monkeypatch
    ):
        # the C/POSIX locale's stdin decodes with surrogateescape, so a text
        # read would pass the bad byte on to the JSON parser
        path = tmp_path / "instance.json"
        path.write_bytes(b"\xff")
        assert main(["verify", str(path)]) == 2
        from_file = capsys.readouterr().err
        assert "can't decode byte 0xff" in from_file
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff"), errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["verify", "-"]) == 2
        assert capsys.readouterr().err == from_file

    def test_largest_accepted_prime(self, tmp_path, capsys):
        assert padic.is_prime(LARGEST_PRIME)
        instance = {"kind": "qp", "prime": LARGEST_PRIME, "matrix": [["2"]], "steps": 3}
        assert main(["verify", write_instance(tmp_path, instance)]) == 0

    def test_schema_rejection(self, tmp_path, capsys):
        # one step gives a single index, which no entropy bound can use
        shift = {"kind": "shift", "modulus": 2, "height": 8, "level": 1}
        qp = {"kind": "qp", "prime": 2, "matrix": [["1/2"]]}
        for bad in [
            dict(FINITE_INSTANCE, steps=0),
            dict(FINITE_INSTANCE, steps=1),
            dict(shift, steps=1),
            dict(qp, steps=1),
            # past the schema's cap, where is_prime raises ValueError
            dict(qp, steps=2, prime=padic._MR_BOUND),
        ] + [make(cap + 1) for cap, make in CAPS.values()]:
            path = write_instance(tmp_path, bad)
            assert main(["verify", path]) == 2
            assert "invalid instance" in capsys.readouterr().err
        # a value at each cap is accepted; only validated, since verifying
        # it takes seconds
        schema = load_schema("instance")
        for cap, make in CAPS.values():
            jsonschema.validate(make(cap), schema)

    def test_exit_code_and_message_follow_the_schema(self, tmp_path, capsys):
        # boundary oracle: exit 2 with the message of validating against the
        # full shipped schema exactly when that validation fails
        schema = load_schema("instance")
        for kind in ["finite", "shift", "qp", "real"]:
            for seed in range(5):
                instance = random_instance(random.Random(seed), kind)
                rng = random.Random(f"{kind}/{seed}")
                mutations = ["drop", "type", "extra", "kind", "cap"]
                for candidate in [instance] + [mutate(rng, instance, m) for m in mutations]:
                    code = main(["verify", write_instance(tmp_path, candidate)])
                    captured = capsys.readouterr()
                    try:
                        jsonschema.validate(candidate, schema)
                    except jsonschema.ValidationError as exc:
                        assert code == 2, candidate
                        assert captured.out == ""
                        assert captured.err == f"error: invalid instance: {exc.message}\n", candidate
                    else:
                        assert code in (0, 1), candidate

    def test_value_error_is_input_error(self, tmp_path, capsys):
        # 4 passes the schema, which cannot say that a prime is prime
        composite = {"kind": "qp", "prime": 4, "matrix": [["1", "1"], ["1", "1"]], "steps": 4}
        path = write_instance(tmp_path, composite)
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: prime required\n"

    @pytest.mark.parametrize(
        "entry", UNREADABLE_ENTRIES, ids=["word", "two-slashes", "inf", "hex", "space"]
    )
    @pytest.mark.parametrize(
        "instance",
        [{"kind": "qp", "prime": 2, "steps": 3}, {"kind": "real"}],
        ids=["qp", "real"],
    )
    def test_unreadable_entry_is_input_error(self, tmp_path, capsys, instance, entry):
        instance = dict(instance, matrix=[["1", entry], ["0", "1"]])
        jsonschema.validate(instance, load_schema("instance"))
        assert main(["verify", write_instance(tmp_path, instance)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Invalid literal for Fraction" in captured.err
        with pytest.raises(InputError, match="Invalid literal for Fraction"):
            verify_instance(instance)

    def test_internal_value_error_is_computation_error(self, tmp_path, capsys, monkeypatch):
        # a check that holds by construction raises plain ValueError; when
        # one fails, the package is at fault, not the input
        def broken(*args):
            raise ValueError("lattice not full rank")

        monkeypatch.setattr(bridge, "two_chains", broken)
        assert main(["verify", write_instance(tmp_path, SHIFT_INSTANCE)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: computation failed: lattice not full rank\n"

    @pytest.mark.parametrize(
        "payload,message",
        [
            (None, "No such file"),
            (b"\xff", "can't decode byte 0xff"),
            (b"{not json", "Expecting property name"),
            (b'{"tolerance": NaN}', "NaN is not a finite number"),
            (b'{"kind": "torus"}', "invalid instance: "),
        ],
        ids=["missing", "not-utf8", "not-json", "not-finite", "schema"],
    )
    def test_read_instance_refuses_with_input_error(self, tmp_path, payload, message):
        path = tmp_path / "instance.json"
        if payload is not None:
            path.write_bytes(payload)
        with pytest.raises(InputError, match=message):
            cli._read_instance(str(path))

    def test_zero_denominator_is_input_error(self, tmp_path, capsys):
        bad = {"kind": "qp", "prime": 2, "matrix": [["1/0", "0"], ["0", "1"]], "steps": 4}
        path = write_instance(tmp_path, bad)
        assert main(["verify", path]) == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_non_homomorphism_is_input_error(self, tmp_path, capsys):
        # x -> (0, x_0) sends the order-2 generator to 1 in Z/4, where 2 * 1 != 0
        bad = {
            "kind": "finite",
            "moduli": [2, 4],
            "endomorphism": [[0, 0], [1, 0]],
            "subgroup": [],
            "steps": 2,
        }
        path = write_instance(tmp_path, bad)
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "matrix does not define a homomorphism" in captured.err

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("1e400", "not a finite number"),  # overflows to inf when the JSON is parsed
            ('"1e400"', "too large for floating point"),  # exact, but no float holds it
        ],
    )
    def test_non_finite_real_entry_is_input_error(self, tmp_path, capsys, entry, message):
        path = tmp_path / "instance.json"
        text = '{"kind": "real", "matrix": [[%s, 0], [0, 1]]}' % entry
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "instance,floats",
        [
            (dict(FINITE_INSTANCE, steps=3), {"steps": 3.0, "moduli": [4.0, 2.0, 2.0]}),
            (dict(SHIFT_INSTANCE, steps=3), {"steps": 3.0, "level": 1.0, "modulus": 2.0}),
            (dict(QP_INSTANCE, steps=3), {"steps": 3.0, "prime": 2.0}),
        ],
        ids=["finite", "shift", "qp"],
    )
    def test_integral_numbers_are_integers(self, tmp_path, capsys, instance, floats):
        # JSON Schema counts 3.0 as an integer, so the instance is valid and
        # verifies with the report of the instance written with integers
        assert main(["verify", write_instance(tmp_path, instance)]) == 0
        expected = capsys.readouterr().out
        assert main(["verify", write_instance(tmp_path, dict(instance, **floats))]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "text,modulus",
        [
            ('{"kind":"shift","modulus":1e30,"height":4,"level":0,"steps":2}', 10**30),
            ('{"kind":"shift","modulus":9007199254740993.0,"height":4,"level":0,"steps":2}', 2**53 + 1),
        ],
        ids=["1e30", "2^53+1"],
    )
    def test_integral_numbers_are_read_exactly(self, tmp_path, capsys, text, modulus):
        # as floats these are 1000000000000000019884624838656 and 2^53
        path = tmp_path / "instance.json"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["modulus"] == modulus
        assert report["indices"] == {"primal": [1, modulus], "dual": [1, modulus]}

    @pytest.mark.parametrize(
        "text,value",
        [("2.5", 2.5), ("-0.0", 0), ("3.0", 3), ("1e30", 10**30), ("1.0000000000000000001", 1)],
    )
    def test_json_number(self, text, value):
        # an integral value is exact; a fraction that rounds to an integral
        # float reads as that float's int
        number = cli._json_number(text)
        assert number == value and type(number) is type(value)

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, number):
        # the schema cannot refuse these as a tolerance: NaN fails no
        # comparison and an infinity is positive
        path = tmp_path / "instance.json"
        text = '{"kind": "real", "matrix": [[2, 0], [0, 1]], "tolerance": %s}' % number
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    def test_non_square_qp_matrix_is_input_error(self, tmp_path, capsys):
        instance = dict(QP_INSTANCE, matrix=[["1", "2", "3"], ["4", "5", "6"]])
        assert main(["verify", write_instance(tmp_path, instance)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "endomorphism matrix must be square" in captured.err

    def test_eigenvalue_overflow_is_input_error(self, tmp_path, capsys):
        # schema-valid entries near 1e307: the eigenvalue moduli overflow to
        # inf, which must not reach stdout as a non-JSON Infinity or NaN
        rng = random.Random(0)
        matrix = [[f"{rng.randrange(10**25, 10**26)}e282" for _ in range(16)] for _ in range(16)]
        instance = {"kind": "real", "matrix": matrix}
        jsonschema.validate(instance, load_schema("instance"))
        assert main(["verify", write_instance(tmp_path, instance)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eigenvalue modulus is not finite" in captured.err

    def test_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        report = mismatch_report()
        jsonschema.validate(report, load_schema("report"))
        monkeypatch.setattr(cli, "verify_instance", lambda instance: report)
        path = write_instance(tmp_path, FINITE_INSTANCE)
        assert main(["verify", path]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "mismatch"

    def test_computation_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(instance):
            raise RuntimeError("numerical meltdown")

        monkeypatch.setattr(cli, "verify_instance", boom)
        path = write_instance(tmp_path, FINITE_INSTANCE)
        assert main(["verify", path]) == 3
        assert "computation failed" in capsys.readouterr().err

    def test_malformed_report_is_computation_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_instance", lambda instance: {"kind": "finite"})
        path = write_instance(tmp_path, FINITE_INSTANCE)
        assert main(["verify", path]) == 3
        assert "malformed report" in capsys.readouterr().err


    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_non_finite_report_is_computation_error(self, tmp_path, capsys, monkeypatch, fmt):
        # the report schema admits an infinite difference, but the canonical
        # report is strict JSON, so nothing reaches stdout
        instance = {"kind": "real", "matrix": [[2, 0], [0, 1]]}
        report = dict(verify_instance(instance), difference=float("inf"))
        jsonschema.validate(report, load_schema("report"))
        monkeypatch.setattr(cli, "verify_instance", lambda instance: report)
        path = write_instance(tmp_path, instance)
        assert main(["verify", path, "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed report" in captured.err

    def test_canonical_json_refuses_non_finite_numbers(self):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                canonical_json({"difference": value})


class TestParser:
    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys, monkeypatch):
        # main only parses: building a parser inside it would fail here
        monkeypatch.setattr(cli.argparse, "ArgumentParser", None)
        path = write_instance(tmp_path, FINITE_INSTANCE)
        assert main(["verify", path, "--format", "text"]) == 0
        assert capsys.readouterr().out == FINITE_TEXT
        # the default format again after --format text
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert out == canonical_json(json.loads(out))
        # and the default seed again after --seed 4
        for kind, argv in [("qp", ["--seed", "4"]), ("qp", []), ("shift", [])]:
            assert main(["generate", kind, *argv]) == 0
            seed = int(argv[1]) if argv else 0
            assert capsys.readouterr().out == canonical_json(random_instance(random.Random(seed), kind))
        for which in ("report", "instance"):
            assert main(["schema", which]) == 0
            assert capsys.readouterr().out == canonical_json(load_schema(which))


def integral(n):
    """n written as an int or as an integral float."""
    return st.sampled_from([n, float(n)])


def counts(low, high):
    return st.integers(low, high).flatmap(integral)


def square(entries, max_side=3):
    return st.integers(1, max_side).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


fractions = st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 9), st.integers(0, 9))

# strings with no e or E, which the schema passes as an entry: some Fraction
# reads, most it does not
literals = st.one_of(
    st.sampled_from(UNREADABLE_ENTRIES),
    st.text(alphabet="0123456789/ .+-_xabcfin", min_size=1, max_size=8),
)


@st.composite
def matrices(draw, entries):
    """A square matrix of the entries, in half the draws with one entry a literal."""
    matrix = draw(square(entries))
    if draw(st.booleans()):
        row = draw(st.sampled_from(matrix))
        row[draw(st.integers(0, len(row) - 1))] = draw(literals)
    return matrix


@st.composite
def finite_instances(draw):
    moduli = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    rank = len(moduli)
    # entry (i, j) a multiple of d_i / gcd(d_i, d_j), so the matrix is an endomorphism
    endomorphism = [
        [draw(st.integers(0, 3)) * (di // math.gcd(di, dj)) for dj in moduli] for di in moduli
    ]
    return {
        "kind": "finite",
        "moduli": [draw(integral(d)) for d in moduli],
        "endomorphism": endomorphism,
        "subgroup": draw(
            st.lists(st.lists(st.integers(-12, 12), min_size=rank, max_size=rank), max_size=3)
        ),
        "steps": draw(counts(2, 6)),
    }


@st.composite
def shift_instances(draw):
    height = draw(st.integers(2, 8))
    return {
        "kind": "shift",
        "modulus": draw(counts(2, 4)),
        "height": draw(integral(height)),
        "level": draw(counts(0, height - 1)),
        "steps": draw(counts(2, 6)),
    }


# small schema-valid instances of every kind, count fields sometimes written
# as integral floats
VALID_INSTANCES = st.one_of(
    finite_instances(),
    shift_instances(),
    st.fixed_dictionaries(
        {
            "kind": st.just("qp"),
            "prime": st.sampled_from([2, 3, 4, 5]).flatmap(integral),
            "matrix": matrices(st.one_of(counts(-4, 4), fractions)),
            "steps": counts(2, 6),
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("real"),
            "matrix": matrices(st.one_of(counts(-9, 9), st.floats(-9, 9), fractions)),
        },
        optional={"tolerance": st.one_of(st.floats(1e-12, 1.0), counts(1, 2))},
    ),
)


class TestBoundaryFuzz:
    @given(VALID_INSTANCES)
    @settings(max_examples=60, deadline=None)
    def test_schema_valid_instances_never_fail_the_computation(self, tmp_path_factory, instance):
        jsonschema.validate(instance, load_schema("instance"))
        path = write_instance(tmp_path_factory.mktemp("fuzz"), instance)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", path])
        assert code in (0, 1, 2), (instance, err.getvalue())
        if code == 2:
            assert out.getvalue() == ""
            # the refusal comes from the input boundary, not from a check
            # that holds by construction
            with pytest.raises(InputError):
                verify_instance(cli._read_instance(path))
        else:
            jsonschema.validate(json.loads(out.getvalue()), load_schema("report"))


class TestSchemaCommand:
    @pytest.mark.parametrize("which", ["instance", "report"])
    def test_shipped_schema_is_valid(self, which):
        # verify checks documents through schemacheck's compiled checks and
        # words a refusal without a meta-schema check, so that check is here
        jsonschema.Draft202012Validator.check_schema(load_schema(which))

    def test_prime_cap_is_below_the_miller_rabin_bound(self):
        # every prime the schema accepts is decided by Miller-Rabin, not by
        # trial division
        prime = load_schema("instance")["$defs"]["qp"]["properties"]["prime"]
        assert prime["maximum"] == padic._MR_BOUND - 1

    @pytest.mark.parametrize("which", ["instance", "report"])
    def test_prints_schema(self, which, capsys):
        assert main(["schema", which]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["$schema"].endswith("2020-12/schema")


class TestRenderText:
    def test_pure_function(self):
        report = mismatch_report()
        first = render_text(report)
        assert render_text(report) == first
        assert "NO" in first
        assert "verdict: mismatch" in first
