"""Byte-identical reports: sha256 digests of canonical verify reports.

Each digest is sha256 of ``cli.canonical_json(verify_instance(instance))``
for ``random_instance(random.Random(seed), kind)``, seeds 0-7, for a
few hand-written instances the generators never draw, and for the
instances at the schema caps that ``conftest.capped_instances`` builds.  They pin
the whole report (index sequences, estimates, verdicts and
counterexample payloads), so a change to any computation on the report
route that alters a single byte fails here.  Regenerate them only for a
deliberate change of the report format or of the instance generators.
"""

import hashlib
import random

import pytest

from conftest import capped_instances
from entbridge.bridge import random_instance, verify_instance
from entbridge.cli import canonical_json

GOLDEN = {
    "finite": [
        "a3a86ebfccce6c5d30c3b77d43d48fe210d2226c6ecde01d19b6bacb42f20c94",
        "fc6dfa6621c04b396cb8bab616c401e8da8987df57e6fb5686ed98bb1216fb22",
        "5d47e28a3ff6eb758eddc7d631375e91728cd714427fceee40249c99a8c8371a",
        "bf80010536a8af13b974c3a2ec8dc432d7de60e99bc6db029d47a4772b3b7ba7",
        "abc7aac076b0cb4ee6b76acd5fe11bae8ccc6193b5bb1078670d3c1e016d6377",
        "0f5a2895c7c6329228ab4a30ef0c2b8e87fd64c44278052ec1f3842714f85029",
        "80d4bc3da296494bf5a51145db6ac4090a154b8c956cc5dee3e699865661f15c",
        "1b173e2f5ec8d4b5159d21adaff5ac526666e0cad3801b3fe4e8701a908f2690",
    ],
    "shift": [
        "1252b4a954265af01906acff163bcce1af5f380f4bb9f545f2a9dc2dd74a7cf2",
        "a40c40b46ede5f62f645027496d05a81a2c9b7755ee0b072edd4c3d34ab95ca1",
        "78916d63fd74da7545b5dcce59f3c134ac6d202f2dcee7f4ad1813b0f6e3e604",
        "a40c40b46ede5f62f645027496d05a81a2c9b7755ee0b072edd4c3d34ab95ca1",
        "a40c40b46ede5f62f645027496d05a81a2c9b7755ee0b072edd4c3d34ab95ca1",
        "166cd812b6a849e73f977b4686b63a57f07a2fe6837c2632fb212edcb69af85a",
        "166cd812b6a849e73f977b4686b63a57f07a2fe6837c2632fb212edcb69af85a",
        "ef362ca439694359e3fa484a9479134374f69a4672da8525a3342d82f0800318",
    ],
    "qp": [
        "2bf2ebd3ba0e8646830b5f8b7b940a8a4dbb74c76f38296d553eef9e027b37d0",
        "d23c851357b9c29d516dc89519e11cdeee8825a5a05f2a7de1ef9e122aae5edc",
        "8dd90b7909770be639c8f2d417d91fe13e225909851e292947c12279ff3a0e40",
        "244f87e5f2122a43a37cdcec1c5f454c3145b9dcd409a6d52535ca3a2b3a42e0",
        "6c3e022b6e55e4d43acfa0fd527dff4993a2df88a8db6708bdd9beb9823c82d2",
        "c3b83648be1784ef50ee93919aa4a58899acbe73a9253dd3c93380d1f4bec283",
        "c18e5abed067c54fd5389982b90722c59a35649bca620352c3ee6469d0930d2e",
        "c83416f278a1cff1deccfaff6efbc097bf6fa6aac87d9431723b90c6df9443d6",
    ],
    "real": [
        "2221a0afe111892ea59e3a3fe5f4e8d9cc27b07a52d2bebf8039b9fba80c354b",
        "a639efe442a61bcd7e783a4df7cc3543b38a9673069ef9cc8284458472bdad53",
        "d3e70e07046af2e55608d3a52bd40a75b42cd3b7596e1f2f73b057d1d8055025",
        "6b104b4128a0117fbb4ee87f90cfb2b14f4b128164fa17b6da256e79da61476e",
        "078f671bd7e324ed296ba7181dd927e275312d136fc8b7a2270faeebf7fc9b1d",
        "005715fc0cf3f8e2adf1b9dd8a39cde9103efd35e0b9a178b3a706013336a6fd",
        "44df5b1a2c1bf3c2e49b0afad4ffc651a41120c06d892a6c2dd9218758ac129d",
        "4851fd4a5f6f55d436bb6944e2ac53b94639730ea8af12e99d5d9cdd895428d9",
    ],
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_reports_match_golden_digests(kind):
    got = [
        hashlib.sha256(
            canonical_json(verify_instance(random_instance(random.Random(seed), kind))).encode()
        ).hexdigest()
        for seed in range(len(GOLDEN[kind]))
    ]
    assert got == GOLDEN[kind]


# singular qp matrices over Q_2, 8 steps: entropy log 2 (indices 2^n) and 0
# (indices 1, 2, 2, ...); the random qp generator draws invertible matrices only
HAND_WRITTEN = {
    "qp-singular-contracting": (
        {"kind": "qp", "prime": 2, "matrix": [["1/2", "0"], ["0", "0"]], "steps": 8},
        "0089bfad2ff855c737cb3a7174d1cb4bc20c1cb20c38347622046569b6dd8a1f",
    ),
    "qp-singular-projection": (
        {"kind": "qp", "prime": 2, "matrix": [["1/2", "1/2"], ["1/2", "1/2"]], "steps": 8},
        "709784aeae4fb0e2a995555e6d50fa376af554ea6df0cd583d8a6fae9b5b9dfd",
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_reports_match_golden_digests(name):
    instance, digest = HAND_WRITTEN[name]
    assert hashlib.sha256(canonical_json(verify_instance(instance)).encode()).hexdigest() == digest


# instances at the schema caps (conftest.capped_instances), where Hermite
# entries are widest; computed before the join steps, sums, images and
# annihilators moved to Hermite form modulo the relations
CAPPED = {
    "finite-2^128-rank-16": "bc2aae0d84e183a0f0c156c95ae7a766c3e9e12df17bfa52a58181aa2435b1f6",
    "finite-mixed-rank-16": "6666e18f74609d449d6ec5ed77719e7f0b0c660ae923104461a059ce401d3509",
    "shift-2^128-height-64": "2baf6655ab5aaa6f3c65615dc851fd53886ce56762527bebc846f1b4fffcc485",
    "qp-dense-3-steps-64": "bf98e9c2b9b7a763b90c9310d7354d18a3a4fb3999286cf9bad368ea6ce6f503",
    "qp-bidiagonal-2-steps-64": "5cad816e720f11c781a77bf0079c9759bc01c774329590dd3936c057570bc104",
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_capped_reports_match_golden_digests(name):
    instance = capped_instances()[name]
    assert hashlib.sha256(canonical_json(verify_instance(instance)).encode()).hexdigest() == CAPPED[name]
