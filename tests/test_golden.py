"""Byte-identical reports: sha256 digests of canonical verify reports.

Each digest is sha256 of ``cli.canonical_json(verify_instance(instance))``
for ``random_instance(random.Random(seed), kind)``, seeds 0-7, for a
few hand-written instances the generators never draw, and for the
instances at the schema caps that ``conftest.capped_instances`` builds.  They pin
the whole report (index sequences, estimates, verdicts and
counterexample payloads), so a change to any computation on the report
route that alters a single byte fails here.  Regenerate them only for a
deliberate change of the report format or of the instance generators.
``INDEX_GOLDEN`` pins the two index sequences of every exact-kind entry
on their own, so a change of the report format, which regenerates the
report digests, can be shown to leave every index as it was.
"""

import hashlib
import json
import random

import pytest

from conftest import capped_instances
from entbridge.bridge import random_instance, verify_instance
from entbridge.cli import canonical_json

GOLDEN = {
    "finite": [
        "ff1e4531424545e2031c3fcd5082ad57840404044be758acb8ea610400e3498d",
        "37c02e9b7a76c4709f3df4ca9d7d361f5af00a41e79ff64ef7deb9b6cb2276c9",
        "ed665c4043a4817f4f8aa42302a2456a7d7f2d5f4c6f7d895411648fb3a88936",
        "0f06bbafe6fbe20ee1a5c7aa60378fb0b891dc20c565298828cd8337e94c0cea",
        "a7c20bf607eea8668e0607df95cd4a59e96000354ff21e2462a2ec7caf4ffaba",
        "d90eb78054687d5a563b6e1fa2e79ed7ac2ca598e125696edc42b3f4e394af62",
        "54f96911f3a8bb743eb65e9f4ddb509ea17b31f0241dc24059bf8f4e12db941e",
        "69ec28ac5e7dee4777824dd8156d9fc73d358666417c6eeac83449b84fc560c6",
    ],
    "shift": [
        "5ced1c6f5e7b58834762aee1feed9f1ae13706851bd4dc7f15bfd0b9b3edcdf5",
        "7da65edec9c8e8939403241462b8b64db385b50eddcfe0b4361c496c8a8e0d8f",
        "1b43db183339d3c1f1883d31b49c0c31683e6f9bb5e3e1c343b0d75f95846c6d",
        "7da65edec9c8e8939403241462b8b64db385b50eddcfe0b4361c496c8a8e0d8f",
        "7da65edec9c8e8939403241462b8b64db385b50eddcfe0b4361c496c8a8e0d8f",
        "a97b9c08cbe2729dd50e024b50ea749ddcf735e09090e59e84616639d5dca450",
        "a97b9c08cbe2729dd50e024b50ea749ddcf735e09090e59e84616639d5dca450",
        "61f5817c18baff18287958eab24b655394ed61b2625a76429486e875ad87bcf1",
    ],
    "qp": [
        "877fe28b92efd8813cca87853175367c8260ca9a90aec6b80d321c83fe5f8443",
        "6b16ff39d6c53d51c1fa097fd66af08ed0514ab9a87b89396128a3d0c56aee59",
        "c1c94935111bfddbe3f8c8cfdd0409f45f3720bc8b5e2ac182f9f263510aa7da",
        "c8b2ed79ef6f7d4b86b1a5f679947f50320f3ee8b41cad0698d78bf4732c445f",
        "345a378678bf7e287c11e96b567395011309cc2005aeaba8ba062a1ffa4b0a42",
        "7ea5007589aab12092f5edad3234af539aa6914baa4ab7387349d1121394d3d2",
        "61a755775875b70998a0205413ebf7e7dc2899cb8d02760f74caa1f565dd094a",
        "7c1abdd843cc040e3ff3d12acd6d8b96e42eb9ce5c3b5509a7588ea57966b34b",
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


# finite chains that move, which only 1 of the 8 seeded finite draws does:
# the shift (x_1, ..., x_6) -> (x_2, ..., x_6, 0) of (Z/2)^6 with
# U = {x_1 = 0} doubles the index five times and stalls at 32 before step 8;
# a rank-4 group of mixed moduli grows by 6, 6, 3 and then stalls; and a
# map of (Z/27)^4 is still growing by 27 at its last step.  Their report
# and index digests were recorded before the qp report changed shape.
def _shift(n: int) -> list[list[int]]:
    return [[int(j == i + 1) for j in range(n)] for i in range(n)]


# singular qp matrices over Q_2, 8 steps: entropy log 2 (indices 2^n) and 0
# (indices 1, 2, 2, ...); the random qp generator draws invertible matrices only.
# A qp matrix over Q_3 whose ratios are 9, 9, 9 over 4 steps and drop to
# 3 = 3^1, its Newton multiple, only later: its last ratio is a multiple of
# 3, not 3 itself, and both routes agree with the closed form
HAND_WRITTEN = {
    "finite-shift-stalls": (
        {
            "kind": "finite",
            "moduli": [2] * 6,
            "endomorphism": _shift(6),
            "subgroup": _shift(6)[:5],
            "steps": 8,
        },
        "56ae33e5815a8f26b8e6be01115dbd6520a998bc181d7ec3cbf0d9776dd8ea96",
    ),
    "finite-mixed-moduli": (
        {
            "kind": "finite",
            "moduli": [12, 9, 12, 6],
            "endomorphism": [[11, 4, 10, 4], [0, 1, 0, 0], [11, 8, 11, 10], [2, 4, 1, 3]],
            "subgroup": [[6, 2, 9, 4], [6, 2, 7, 0], [1, 6, 6, 0]],
            "steps": 6,
        },
        "9edee160f89c46d36a23a476aa9ba1473bb8a741133efccfe9f5873f47044e78",
    ),
    "finite-still-moving": (
        {
            "kind": "finite",
            "moduli": [27, 27, 27, 27],
            "endomorphism": [[18, 12, 9, 22], [6, 13, 1, 1], [24, 10, 8, 12], [15, 9, 2, 10]],
            "subgroup": [[4, 1, 2, 1], [5, 26, 15, 10], [13, 23, 1, 14]],
            "steps": 4,
        },
        "244a40ebe190b9eaecffda7e3add5b7a77f57486964448b886b94dd8ce88843e",
    ),
    "qp-singular-contracting": (
        {"kind": "qp", "prime": 2, "matrix": [["1/2", "0"], ["0", "0"]], "steps": 8},
        "964183257588ae39a71c5b55809e722bc6d5c640b6b24841a73b5bf0dc5a552d",
    ),
    "qp-singular-projection": (
        {"kind": "qp", "prime": 2, "matrix": [["1/2", "1/2"], ["1/2", "1/2"]], "steps": 8},
        "fe7a4128dd7c3765861690644ee2ab114bc72f7debf0eb5167cc9302a808c994",
    ),
    "qp-ratio-law-4-steps": (
        {
            "kind": "qp",
            "prime": 3,
            "matrix": [
                ["-162", "0", "81", "-6"],
                ["1", "-6", "0", "54"],
                ["-81", "-1", "-9", "-18"],
                ["-1/9", "81", "1/9", "0"],
            ],
            "steps": 4,
        },
        "c04c051cad5be0044be4e76c699f078e097f7707866258baadaf55a60b1683f8",
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_reports_match_golden_digests(name):
    instance, digest = HAND_WRITTEN[name]
    assert hashlib.sha256(canonical_json(verify_instance(instance)).encode()).hexdigest() == digest


# instances at the schema caps (conftest.capped_instances), where Hermite
# entries are widest
CAPPED = {
    "finite-2^128-rank-16": "cbdaafe6f58ff3562c9f1ca30355f3200fdde526b8db4361561f83b4d56d5257",
    "finite-mixed-rank-16": "eb451692297eec4c5d26dc89b8cea4c65e1c39f7831b400b2c7d4ad98aa8d555",
    "shift-2^128-height-64": "8e218201362336bdcd616156c6141b980f2b7e6d7026252700df45787d85e249",
    "qp-dense-3-steps-64": "8b03ef93ed44d9012910b3197bacfcd639cd4789a6e22379bc93df72a588a119",
    "qp-bidiagonal-2-steps-64": "2db93cc021a72366ae22d70e274eb37db56a3c085903ddb46f4fda9ec1bf8fe4",
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_capped_reports_match_golden_digests(name):
    instance = capped_instances()[name]
    assert hashlib.sha256(canonical_json(verify_instance(instance)).encode()).hexdigest() == CAPPED[name]


# sha256 of the two index lists of each exact-kind entry above, serialized
# as perfbench/reference.json serializes them (json.dumps([primal, dual])
# with separators (",", ":"); that file keeps the first 16 hex digits).
# Recorded before the estimates moved to the ratio law, and not regenerated
# with the report digests then, nor when the qp report renamed its sides
# primal and dual and its Newton route closed_form.
INDEX_GOLDEN = {
    "finite": [
        "7b539d0e879307aad7cf7b94bd0b10ddcc43a207bf823e9024882e62c20f7fcf",
        "7b539d0e879307aad7cf7b94bd0b10ddcc43a207bf823e9024882e62c20f7fcf",
        "7b539d0e879307aad7cf7b94bd0b10ddcc43a207bf823e9024882e62c20f7fcf",
        "7b539d0e879307aad7cf7b94bd0b10ddcc43a207bf823e9024882e62c20f7fcf",
        "7b539d0e879307aad7cf7b94bd0b10ddcc43a207bf823e9024882e62c20f7fcf",
        "7b539d0e879307aad7cf7b94bd0b10ddcc43a207bf823e9024882e62c20f7fcf",
        "4c4936f2e70c348ec7505e67519f57521a8626a2bf30bf5da1f1316e91574b8a",
        "7b539d0e879307aad7cf7b94bd0b10ddcc43a207bf823e9024882e62c20f7fcf",
    ],
    "shift": [
        "f23cd8d17d7969ebe39ca8455ef58c18ec1e917421b4c5bf3086cfaf7146e22e",
        "476b85de91832a971dfd7a733283c5d715becc450d4e8ba400375bd871126232",
        "f7fe597eee9ed2c62d594f5ec494718be7269efe489280a6bf3ee2b9abc1d21e",
        "476b85de91832a971dfd7a733283c5d715becc450d4e8ba400375bd871126232",
        "476b85de91832a971dfd7a733283c5d715becc450d4e8ba400375bd871126232",
        "0fb6dc6bf8be5b9136147867800b8d60f8365eb128f4e95b15811c55dac739d3",
        "0fb6dc6bf8be5b9136147867800b8d60f8365eb128f4e95b15811c55dac739d3",
        "20b2953f31f766add1f53217b7883d83339953e728fbbb965e2bb73b718e8bc9",
    ],
    "qp": [
        "d7a949e85545abec93514294d4ccec88db777983590993fdd9485cb42c1816c2",
        "05026de83da702eff681fc789d0ca1aabac8acc1edc290a5b42784818cc22416",
        "05026de83da702eff681fc789d0ca1aabac8acc1edc290a5b42784818cc22416",
        "627f715416682ffe568106ead2086558fdfdfd30d4e47c48652e5b8db438a154",
        "05026de83da702eff681fc789d0ca1aabac8acc1edc290a5b42784818cc22416",
        "d7a949e85545abec93514294d4ccec88db777983590993fdd9485cb42c1816c2",
        "5c9e399d6c2d8fbf10ae4f1c3d64a56a0513887f9fdd6251774f2f166d303574",
        "d7a949e85545abec93514294d4ccec88db777983590993fdd9485cb42c1816c2",
    ],
    "finite-shift-stalls": "80314901609cd325d369c43aa109cfec04a57d20c7655d872671f509fd00fd2c",
    "finite-mixed-moduli": "d69fa100db6fee6dead7c077c811b22f5ddabbe0765c2245a05072e1e145eb9f",
    "finite-still-moving": "e9495891ab10e37609214ac348f4c28f8d04cc538fadc8d4a58055a22cbc2bbe",
    "qp-singular-contracting": "a15985085a4697582898c03454c0cd1eb70d2c79411ab371536b6e11ee8da14d",
    "qp-singular-projection": "b38ae142cea4d88ff16e3a632d6de6781da0521174b87ad20d22695eff3b8023",
    "qp-ratio-law-4-steps": "e6a9f4d42eedf9d71d694f09774f69bac025b5b7bb1eb713d0b57f7b0ed7e175",
    "finite-2^128-rank-16": "9476853b4a4f6b09d6bc42667a4baf128b15044bd1b297c4ca72a5a07cb64d59",
    "finite-mixed-rank-16": "0a4439183b1b0e8370603fc59b4c8cdfae1ba47917f4a580e3ef15e1e1b231fc",
    "shift-2^128-height-64": "0f37cf3f84c73fddd8a29b83a6fa841b6928f83fc745c6540b05667351a16c92",
    "qp-dense-3-steps-64": "5e0240c5e7b132ccb6af5b5ac962b4ec84add6d968ac73ce1d414c00e1ec3e0b",
    "qp-bidiagonal-2-steps-64": "c6844ea33230cc9bd3266baae6c6f0d2cc1d70eadb1c7f304530f55a9affa5df",
}


def _index_digest(report: dict) -> str:
    indices = [report["indices"]["primal"], report["indices"]["dual"]]
    return hashlib.sha256(json.dumps(indices, separators=(",", ":")).encode()).hexdigest()


def _index_golden_cases():
    for kind in ("finite", "shift", "qp"):
        for seed, digest in enumerate(INDEX_GOLDEN[kind]):
            yield pytest.param(lambda kind=kind, seed=seed: random_instance(random.Random(seed), kind), digest, id=f"{kind}-{seed}")
    for name, (instance, _) in HAND_WRITTEN.items():
        yield pytest.param(lambda instance=instance: instance, INDEX_GOLDEN[name], id=name)
    for name in CAPPED:
        yield pytest.param(lambda name=name: capped_instances()[name], INDEX_GOLDEN[name], id=name)


@pytest.mark.parametrize("make, digest", _index_golden_cases())
def test_index_sequences_match_index_digests(make, digest):
    assert _index_digest(verify_instance(make())) == digest
