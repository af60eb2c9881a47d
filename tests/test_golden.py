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
        "c7b3ea9d170fa6dcca17294f88686959fd5e49da1e623cbe332d19276d4a9f83",
        "99e37efb3e2997bcefcb575e6884e535a95542491f7bf043e275425937dd97ef",
        "7c4c4361d193970241bb3339d5fdd5c0f006222935b3b8478d0321b3600d00d3",
        "e056f0197acbb21f93247dc474805b8da2bbbd27565f59e80cbb2224e7d73646",
        "75b1d0ae895b971ee412cb9c0dd535dacb3a4e149b68bf9fbdc8dcf7305070fe",
        "5c04c01cc0b5d7d687ef37d9ed925fd418f66969f2b609c42409910f66c091ba",
        "432248887be72458ba7a9f20a18e3f0becf61db5d03214bf78b30830d0aed88f",
        "6311536de2c8ec85b1dd633ff03ea7d2be6183786c29e593cab26aab42f45a0e",
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
# (indices 1, 2, 2, ...); the random qp generator draws invertible matrices only.
# A qp matrix over Q_3 whose ratios are 9, 9, 9 over 4 steps and drop to
# 3 = 3^1, its Newton multiple, only later: its last ratio is a multiple of
# 3, not 3 itself, and both routes agree with the closed form
HAND_WRITTEN = {
    "qp-singular-contracting": (
        {"kind": "qp", "prime": 2, "matrix": [["1/2", "0"], ["0", "0"]], "steps": 8},
        "0c33050fc9dd534c5d439f163df71ceb84bf6515872137ed6f6f7b562ab086dd",
    ),
    "qp-singular-projection": (
        {"kind": "qp", "prime": 2, "matrix": [["1/2", "1/2"], ["1/2", "1/2"]], "steps": 8},
        "6aefbad7214756c898f2a41508e253d0edd2a3f850d0b3590936c4a5a03ee4b8",
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
        "71709aad2ddbc2de5c364b5d9eb372cc8f23296378c1474314563d76013e3e9f",
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
    "qp-dense-3-steps-64": "2b2a5e9dad3ee251ae93135fb5716c1b7fb958a8961c58649cbb3554020c1b36",
    "qp-bidiagonal-2-steps-64": "390b20b2182039c0419286436c0cec5d91a413635a8dc8ec1bca51e0427534a3",
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_capped_reports_match_golden_digests(name):
    instance = capped_instances()[name]
    assert hashlib.sha256(canonical_json(verify_instance(instance)).encode()).hexdigest() == CAPPED[name]


# sha256 of the two index lists of each exact-kind entry above, serialized
# as perfbench/reference.json serializes them (json.dumps([primal, dual])
# with separators (",", ":"); that file keeps the first 16 hex digits).
# Recorded before the estimates moved to the ratio law, and not regenerated
# with the report digests then.
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
