import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from hopfgalois import cli
from hopfgalois.cli import EXIT_INTERNAL, main
from hopfgalois.fixtures import BUNDLED, bundled_path, load_bundled


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_bundled(capsys):
    code, out = run(capsys, "validate", "qi")
    assert code == 0
    assert "descriptor-valid" in out


def test_validate_accepts_hgx_suffix(capsys):
    code, out = run(capsys, "validate", "qzeta3.hgx")
    assert code == 0


def test_missing_fixture_is_usage_error(capsys):
    code = main(["validate", "does-not-exist.hgx"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no such fixture file or bundled fixture: " \
        "does-not-exist.hgx\n"


def test_invalid_fixture_lists_all_problems(tmp_path, capsys):
    bad = tmp_path / "bad.hgx"
    bad.write_text(json.dumps({
        "name": "bad",
        "group": {"order": 2, "generators": {"s": [1, 0]}},
        "subgroup": {"generators": []},
        "field": {"min_poly": [1, 0, 1], "automorphisms": {"s": ["0", "-2"]}},
        "integral_basis": [["1", "0"], ["0", "1"]],
    }), encoding="utf-8")
    code = main(["validate", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "failed validation" in captured.err


def test_json_validation_errors_leave_stdout_empty(tmp_path, capsys):
    # a malformed descriptor under --json is a usage error like any other:
    # its problems go to stderr and stdout stays a JSON report or nothing
    bad = tmp_path / "bad.hgx"
    bad.write_text(json.dumps({"name": "bad", "group": {"order": 0}}),
                   encoding="utf-8")
    code = main(["--json", "validate", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {bad} failed validation with 1 "
                            "problem(s):\n  - group.order: a positive "
                            "integer is required\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate", "qi"]) == 2


def test_enumerate_cubic_fixture(capsys):
    code, out = run(capsys, "enumerate", "qcbrt2")
    assert code == 0
    assert "structure[0]" in out
    assert "opposite: 0" in out            # the single abelian structure
    assert "abelian: True" in out


def test_enumerate_json_schema(capsys):
    code, out = run(capsys, "enumerate", "qi", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fixture"] == "qi"
    assert payload["seed"] == 0
    assert {c["verdict"] for c in payload["checks"]} == {"PASS"}
    for check in payload["checks"]:
        assert set(check) <= {"name", "verdict", "provenance", "details"}


# sha256 of each bundled fixture's `--json det-identity` report: reports are
# deterministic, and a change of algorithm must leave these bytes alone
DET_IDENTITY_SHA256 = {
    "qi": "f1eaaed31216f1a6ad29957d16ed1f9dea36ca9e22edf6cd5e7b7634d5981f68",
    "qzeta3": "6ee95e9b1f0f4452c71ef8074a71dd851bfabec7ee61ce2a3a3972e9f0824728",
    "c4quartic": "58796f5fa99ea15c5255b6ca27783de0a422f2dfd86b29e575dbcc07dd77b8f2",
    "v4biquad": "70db484458a6a0d816219d55eba055aad7de3a31361c0b2ef5d2339ed8ff873b",
    "qcbrt2": "2eaf95c71fb4edb7a359ddfe2df320032a63a6e6fe401be497717de8c93cb307",
    "s3sextic": "2ee67e820cc59745adafc8e4faa6da343ae6be4cb08766474fdcad492616093d",
    "metacyclic21": "19ad6ba1147c3b80d7d513b12a3b8524b654fbed9b2886fa6e864b54987ae815",
    "d4": "01da0187e3cf2aa6fc13faf70c1e2b0d76e7fdb76c125bb91df8cffae6e22141",
    "q8": "58a137f92ab07ec2b4887a360c8ad7cecc257b2d1f70c9ed5ddbafcb4b58a7cf",
}


@pytest.mark.parametrize("name", DET_IDENTITY_SHA256)
def test_det_identity_emits_polynomial(capsys, name):
    code, out = run(capsys, "--json", "det-identity", name)
    assert code == 0
    for check in json.loads(out)["checks"]:
        assert check["details"]["determinant"].startswith("y0^")
    assert hashlib.sha256(out.encode()).hexdigest() == DET_IDENTITY_SHA256[name]


# sha256 and exit code of each `--json --seed 0 suite` report: a faster
# route to the same checks must leave these alone
SUITE_SHA256 = {
    "qi": ("a58995ffccac942990454dea0311203de139f94a559d983e1cbc947124df893a", 0),
    "qzeta3": ("46c6356006441baa57f0738ceec010cd3a933c29922d302673cc574c7550f0b1", 0),
    "c4quartic": ("a3fac64fce7437c7e7a92191e3d1357729260342d4a39c51b078055883ebd4ca", 0),
    "v4biquad": ("32bc68251a0f8256e56e4134f702fa47bd1d48fa68012eabb31711e1f5ccea30", 3),
    "qcbrt2": ("479b7dfaabe60e6141d94d3355a01f945fd8dd6ad8669d2db9322a0e0f9926ec", 0),
    "metacyclic21": ("a1aa62822ab787e0d8614778690a94dc979674d030597fc55e061abd90a190d4", 0),
    "s3sextic": ("f26ccaa5869289a470ff1479291550105bc5661ec41c61eed19a2f3c39221d97", 0),
    # group-only fixtures at the size bound, recorded with the whole-tuple
    # centralizer scan and the size! candidate filter
    "d4": ("d284885724613e1f8d19c656ffc1339e1566e59e7261d000dafaa2f6be3c62b5", 0),
    "q8": ("c10cdfe8640b79d2bd06efa2a261756d476202a2390dfabab1107513eaf7dc22", 0),
}


@pytest.mark.parametrize("name", SUITE_SHA256)
def test_suite_report_bytes_are_pinned(capsys, name):
    code, out = run(capsys, "--json", "--seed", "0", "suite", name)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == SUITE_SHA256[name]


# sha256 and exit code of each field fixture's `--json --seed S verify
# generators` report at seeds 0 and 1, recorded while every sample ran
# through generates: the forms route must leave them alone
GENERATORS_SHA256 = {
    ("qi", 0): ("c920e26a578f7194a63d8a266ff8cfc31806a0fc38e079788db9d93a955ec253", 0),
    ("qi", 1): ("dc7c0f9678a70d69add69ca3a7e2841a69f3e64dcaa0f4cdb90e8daedb4ccaa2", 0),
    ("qzeta3", 0): ("2024911094a27f80d3dce54dc7b7025b9b0903937317ebae4f9a9885a502ebda", 0),
    ("qzeta3", 1): ("85256291d4207fcf636804cce260db4a37c183644be2b04db254c25d89a3dd5f", 0),
    ("c4quartic", 0): ("fb203f3c6fcda9e77895528b2a2fd7401b798ba2180d57b4c297ce5cd14a0dab", 0),
    ("c4quartic", 1): ("713ea9afa7a8ddb2de27abcb627f5c165db647063125beede9f77b2e40fa82eb", 0),
    ("v4biquad", 0): ("f117856ca68ac29b24e2e4740f2eda6d0684e14baf745d14c7800bf6c76922cd", 0),
    ("v4biquad", 1): ("4361e09a3064778308cf20d114ed3f7a1e691d9aef8b642ad6abe67614775f30", 0),
    ("qcbrt2", 0): ("c1fbddef10ba0df8a989eba12d9b786de60a52f2c028a1769dd4db768bcb8c58", 0),
    ("qcbrt2", 1): ("32d004e81147ac6845bb346b38b1f8f025f757510df4d4ab2b9390a7e37d09f0", 0),
    ("s3sextic", 0): ("27ac1bb5d3efc621b5ac6d69769851793ebed7e82184c9c64eb95e8b224a106a", 0),
    ("s3sextic", 1): ("61e01bec7446c9cd5dcc48af0c624ef4b00a16f5b73fbf180873582773b6d120", 0),
}


@pytest.mark.parametrize("name,seed", GENERATORS_SHA256)
def test_generator_report_bytes_are_pinned(capsys, name, seed):
    code, out = run(capsys, "--json", "--seed", str(seed), "verify",
                    "generators", name)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == \
        GENERATORS_SHA256[name, seed]


# fixtures on which the generator tests' routes were timed, besides the
# bundled ones: the cyclic quintic (m = 5) and Q(zeta_16) (m = 8)
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("fixture, past_m_cubed, exact", [
    pytest.param(str(DATA / "c5quintic.hgx"), False, 3, id="c5quintic"),
    pytest.param("s3sextic", False, 27, id="s3sextic"),
    pytest.param(str(DATA / "zeta16.hgx"), True, 837, id="zeta16")])
def test_generator_tests_read_delta_as_a_form_up_to_m_cubed_terms(
        capsys, monkeypatch, generator_kernels, fixture, past_m_cubed, exact):
    # every m takes generator_verdicts, which reads the rank forms and the
    # transition determinants Delta_N as forms whatever their count of
    # terms: s3sextic's have at most 146 (m^3 = 216), and zeta16's
    # 810-1,279 are past m^3 = 512.  Forms are read mod p on every sample
    # at once (descent.form_residues): the coset residues first, as one
    # linear form per coset
    from hopfgalois import descent, fixtures
    calls, evaluated, built, tied = [], [], [], []
    form_residues = descent.form_residues
    transition_det_nonzero = descent.transition_det_nonzero
    signed_canonical_det = fixtures.signed_canonical_det

    def verdicts(algebras, dets, subfield, coords):
        calls.append((algebras, dets, coords))
        return descent.generator_verdicts(algebras, dets, subfield, coords)

    def building(*args):
        built.append(args)
        return signed_canonical_det(*args)

    def planning(forms, columns, p):
        evaluated.append(forms)
        return form_residues(forms, columns, p)

    def tying(n, sample):
        tied.append(n)
        return transition_det_nonzero(n, sample)
    monkeypatch.setattr(cli, "generator_verdicts", verdicts)
    monkeypatch.setattr(descent, "form_residues", planning)
    monkeypatch.setattr(descent, "transition_det_nonzero", tying)
    monkeypatch.setattr(fixtures, "signed_canonical_det", building)
    code, out = run(capsys, "--json", "--seed", "0", "verify", "generators",
                    fixture)
    checks = json.loads(out)["checks"]
    assert code == 0 and checks
    assert all(c["verdict"] == "PASS" for c in checks)
    # one driver call, which plans the coset residues, the rank forms and
    # every Delta_N, each built once
    [(algebras, dets, coords)] = calls
    m = algebras[0].subfield.space.size
    assert (max(len(d.terms) for d in dets) > m ** 3) == past_m_cubed
    assert [len(f) for f in evaluated] == [m, len(algebras), len(algebras)]
    assert evaluated[2] == dets
    assert len(built) == len(dets) == len(algebras)
    # the per-sample test ties the batch to one sample per structure, with
    # one elimination mod p each; no (sample, structure) certificate is one
    assert len(tied) == len(algebras)
    kinds = [kind for kind, _ in generator_kernels]
    assert kinds.count("mod p") == len(algebras)
    # each exact determinant over E is taken once: descend's spanning check
    # of each structure, then one per zero of a certificate (811 of
    # zeta16's 26 x 200)
    taken = [repr(rows) for kind, rows in generator_kernels if kind == "exact"]
    assert len(taken) == len(set(taken)) == exact


def test_verify_generators_takes_each_exact_determinant_once(capsys,
                                                            monkeypatch):
    # v4biquad at seed 0: 4 spanning checks in descend and 30 exact zeros
    # of the generator tests, each on its own matrix
    from hopfgalois import descent
    matrices = []
    exact = descent._packed_det

    def det(rows, modulus):
        matrices.append(repr(rows))
        return exact(rows, modulus)
    monkeypatch.setattr(descent, "_packed_det", det)
    code, _ = run(capsys, "--json", "--seed", "0", "verify", "generators",
                  "v4biquad")
    assert code == 0
    assert len(matrices) == len(set(matrices)) == 4 + 30


# sha256 and exit code of `--json` freeness and theorem11 reports on the
# boxes the suite gate leaves out, recorded with the per-candidate integer
# determinant scan: the norm-form scan must find the same witnesses
FREENESS_SHA256 = {
    "freeness s3sextic --n 0 --ideal OE --bound 3":
        ("2919feda51c32bc9e6658d48f38b15545255ee0dd2a9db28a134d6314120a904", 3),
    "freeness s3sextic --n 0 --ideal OL --bound 3":
        ("ff71f56d0992bc0d77c5d05a26a8927a005148408ad486712d5cb4b64dcabfb2", 3),
    "freeness s3sextic --n 1 --ideal OE --bound 3":
        ("b813ab41b81a84481aa69187b1ed5bbd218b3fcd75a4aece21b352a56100b10a", 0),
    "freeness s3sextic --n 1 --ideal OL --bound 3":
        ("a78468e9c5f9fd7d5fabcceb45df89d4a9401a7c23b19321390b4da4544becfa", 0),
    "freeness s3sextic --n 2 --ideal OE --bound 3":
        ("dd6e5ae5f9a83c314ce459a4bf05597b2a89626021da56263e34733039b80014", 0),
    "freeness s3sextic --n 2 --ideal OL --bound 3":
        ("8fc6d759baf19673c21a698fce76fe119af5e8bc5d6a18293d737bf3db0254dc", 0),
    "freeness s3sextic --n 3 --ideal OE --bound 3":
        ("34bc5be399888957bc4b866b886683b901dd10b3ad9db615afa04ef4999f5ec8", 3),
    "freeness s3sextic --n 3 --ideal OL --bound 3":
        ("fa3772592733bece9e04b8cc371fc423dbf644c4ac43d2ccf090459579bcf8df", 3),
    "freeness s3sextic --n 4 --ideal OE --bound 3":
        ("aef04ccb93f096e83731f8ee5166591733400abc7e4ba1a1a3c8533f0f310756", 3),
    "freeness s3sextic --n 4 --ideal OL --bound 3":
        ("61356bdcc56bd4ddd47760326b5561f1db18d23d11f2eb53ed9a7fcccdcc07d2", 3),
    "freeness v4biquad --n 0 --ideal OL --bound 6":
        ("2d1bf4e5f3ca6ffc7d5d533b1fb75068195e8115760cc6bb72e1525fe86e4cc8", 0),
    "freeness v4biquad --n 1 --ideal OL --bound 6":
        ("3d77bb59a141a8682ba742d1e88769e991856b3afe73096130395e8c6cbcdc97", 0),
    "freeness v4biquad --n 2 --ideal OL --bound 6":
        ("86215534b86c64c947d8df3539719f85ac0b2e93c88942f27e0d07626956fb51", 0),
    "freeness v4biquad --n 3 --ideal OL --bound 6":
        ("95823401b3bf39cee9104aebf5629b0161c8a7f34bf691bcc70bb83a07cae5ac", 0),
    "theorem11 s3sextic --ideal OE":
        ("3ce8c275895558cd13e58123a382ce7e63907f1e649275ab0be5976eb5322c24", 0),
    "theorem11 s3sextic --ideal OL":
        ("b861b8f13190a438e01b1b3b5e507946bf23846218cd9dbda379fe82469c9355", 0),
}


@pytest.mark.parametrize("argv", FREENESS_SHA256)
def test_freeness_report_bytes_are_pinned(capsys, argv):
    code, out = run(capsys, "--json", *argv.split())
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == FREENESS_SHA256[argv]


# sha256 and exit code of `--json` theorem11 reports on Q(zeta_16)'s four
# commuting pairs, all FREE, and of freeness reports on its structures
# that stay UNKNOWN at the default bound, recorded before the scan skipped
# the residue classes on which the norm form vanishes mod 2 or 3
ZETA16_SHA256 = {
    "theorem11 --n 2 --ideal OL":
        ("1f1e97b5b1971a2d576f999eb3279abec8da0f4fa6ec45f86584eb72457b498d", 0),
    "theorem11 --n 3 --ideal OL":
        ("c9ff7133ac18c930ec24d9bad31aa50dcec71f5cfaae129203697ca3cae50393", 0),
    "theorem11 --n 12 --ideal OL":
        ("c0e10167ad633856babf8ff23fc0581d22916a1ad4616a89699f318711a91ab9", 0),
    "theorem11 --n 13 --ideal OL":
        ("8703675032b69822cddfde762be5ae61d6acfcfb84f08bf803c3104910d13f10", 0),
    "freeness --n 8 --ideal OL":
        ("e69609733c411762e7e1c67ede9e632e117e5071fc9443193b5349bebccf7aa2", 3),
    "freeness --n 9 --ideal OL":
        ("8678c73fc7a29a2e107fb0703fae9450357afdb14791818103f6457804bfcd58", 3),
    "freeness --n 21 --ideal OL":
        ("33132b37add0afd90e34e5fdb784be2bf0e07bd46942fa42bb49bcfb97bf7d43", 3),
    "freeness --n 24 --ideal OL":
        ("4b36f8ade22fa16b40512ca3fa9c5678e2f87e6294e42c63a8a8c3dcf91ab926", 3),
}


@pytest.mark.parametrize("argv", ZETA16_SHA256)
def test_zeta16_freeness_report_bytes_are_pinned(capsys, monkeypatch, argv):
    # the report echoes the fixture path, so it is given from the repository
    monkeypatch.chdir(DATA.parent.parent)
    command, *rest = argv.split()
    code, out = run(capsys, "--json", command, "tests/data/zeta16.hgx", *rest)
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == ZETA16_SHA256[argv]


# sha256 and exit code of the `--json` descend and assoc-order reports for
# every structure and ideal of the field fixtures, recorded when both the
# subfield and the descended algebra solved for coordinates: reading them off
# the echelon basis must leave these alone
DESCENT_SHA256 = {
    "descend qi --n 0":
        ("9a94c39df750e119327b900b45e965f11b52b244c9406cd33d414e3c09588275", 0),
    "assoc-order qi --n 0 --ideal OL":
        ("f4ae46e2c56d1af8a44ce0d12952284e4ce1d68207fa5ffdafc6c0fd1f43fea7", 0),
    "descend qzeta3 --n 0":
        ("4c292e4f02b9b435646ce6bfaf0870452141b1fc96c9c0f47059a22f049c4fec", 0),
    "assoc-order qzeta3 --n 0 --ideal OL":
        ("7da416ec9ce5ae0a1de68afbe35e06c83fa8e4b73015987a314310a207d39486", 0),
    "descend c4quartic --n 0":
        ("cc11d27f8e678eb23c676bfa5544b9aabe3defb8b0f67a6cfd67dfea3cfeb77c", 0),
    "assoc-order c4quartic --n 0 --ideal OL":
        ("5e5d30e523a49b20438cec535629de86803e0155538a21177a0e1be27e3b8e97", 0),
    "descend c4quartic --n 1":
        ("3131a9e7281ff97ac5f99d2b2a279660198f765783a64cc0651b08841e358f83", 0),
    "assoc-order c4quartic --n 1 --ideal OL":
        ("f643dd0cdb79592c789ff1a84fad4ff3c1f28e52f03b488e2a2fefbe9d84f323", 0),
    "descend v4biquad --n 0":
        ("9f985686539d6fe0782903e2c933a1c600cd9b27e9a8dedb8b7b49500d57520a", 0),
    "assoc-order v4biquad --n 0 --ideal OL":
        ("2be2ac9526c4805bc3d8af9d2a5ad332ac37fa42b70dc19222111aecdea77f99", 0),
    "descend v4biquad --n 1":
        ("c442a2b55056c1e6a414d13185bf32479ecfd12c5baa87fc35298abbf9b9e1bf", 0),
    "assoc-order v4biquad --n 1 --ideal OL":
        ("ccd606aa738c9563c345a8706677543736ea01d8fe1211e05b46789032ff5e88", 0),
    "descend v4biquad --n 2":
        ("84fe27470387834945c8d407cfd35177044811d02296457d54eb337e9286b577", 0),
    "assoc-order v4biquad --n 2 --ideal OL":
        ("7b7fb0dcbd729c9273477cf6ceb12d0262c9b67f6891216615ff8ab6d196e485", 0),
    "descend v4biquad --n 3":
        ("5b55ae9601ca90fd0d9f125895b67dbb436854b0b6c5b0b43f0eca6901076228", 0),
    "assoc-order v4biquad --n 3 --ideal OL":
        ("d2f56eabe206e58f86d64075ba43ed9db80725255686f219f26ab9b663681239", 0),
    "descend qcbrt2 --n 0":
        ("d94530c92e1b605a0646dd4b05cd84fc383dbd5ec06b3378fddf2e71ae712013", 0),
    "assoc-order qcbrt2 --n 0 --ideal OL":
        ("897c9619f687d08af56265c52bc39835487cc4b344cf78e1b6cee8131f677382", 0),
    "descend s3sextic --n 0":
        ("4a61f170325a6967b94762b7bf9fb7109d0163a947d5b9e2807fd1cd9334c8db", 0),
    "assoc-order s3sextic --n 0 --ideal OE":
        ("30d2748064d233caded20a36bf490a47144243f09c0113477c44e7ed62ec7f10", 0),
    "assoc-order s3sextic --n 0 --ideal OL":
        ("f2ddde52609cd51825a13776f4752140c0b50c314812b40e08a220d7f20993a2", 0),
    "descend s3sextic --n 1":
        ("21b1ccdb909ab4b97145201a4b9a5595d471e3b71435549862cf702c9fcf314b", 0),
    "assoc-order s3sextic --n 1 --ideal OE":
        ("4f54c30bad741f457432c2d272bc5a3d9d65751c8e78cab64e9a88432054f486", 0),
    "assoc-order s3sextic --n 1 --ideal OL":
        ("fc1feb6af20c8d0c5fcb0156dc956038396772e47268b9d7c404fcb119893997", 0),
    "descend s3sextic --n 2":
        ("923c3c0483fe906c1afc964e72292d3543ee950d8cf93c652a362b459713361c", 0),
    "assoc-order s3sextic --n 2 --ideal OE":
        ("27c575323fda428226c48ddf83c53036ed36b724a02b28fb85c44a0895a49a7d", 0),
    "assoc-order s3sextic --n 2 --ideal OL":
        ("4b887975adcbea561740adb9dcbbee98b29e3d4ce4c18230affa614894f9ccb7", 0),
    "descend s3sextic --n 3":
        ("01e598d6cb17480981fbf209584040b8001b63d15d415cc3ced84d936d83b376", 0),
    "assoc-order s3sextic --n 3 --ideal OE":
        ("6f8b43b48f42826b80e5e44a9e48805b510a356cb9c00c1b6389f7d987aabcc6", 0),
    "assoc-order s3sextic --n 3 --ideal OL":
        ("80f310db21e1dce704322c7d90588d1f055e8c3ee3e3bd60d9ee44fd30cfa580", 0),
    "descend s3sextic --n 4":
        ("b1b1d5c96e410faf5f85a39a9dc7123861dc65e166b32ae6095705d7ec130299", 0),
    "assoc-order s3sextic --n 4 --ideal OE":
        ("7f174c7885fe41ad74c7061f42fb78a99893466c313736ac20fd2f26a530dd47", 0),
    "assoc-order s3sextic --n 4 --ideal OL":
        ("d2f0b971a68ff3e7fc1c4abf6314ccf202bfa43c45acc849c499d57c4c9a8398", 0),
}


@pytest.mark.parametrize("argv", DESCENT_SHA256)
def test_descent_report_bytes_are_pinned(capsys, argv):
    code, out = run(capsys, "--json", *argv.split())
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == DESCENT_SHA256[argv]


@pytest.mark.parametrize("command", ["freeness s3sextic --n 0 --ideal OE",
                                     "theorem11 s3sextic --ideal OE"])
def test_oversized_box_is_a_capability_error(capsys, command):
    code = main([*command.split(), "--bound", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: freeness box of 15^6 candidates")
    assert "5764801" in captured.err and "Traceback" not in captured.err


def test_suite_computes_each_determinant_and_opposite_once(capsys, monkeypatch):
    from hopfgalois import fixtures, perm, transition
    counts = {"det_symbolic": 0, "opposite": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(transition, "det_symbolic",
                        counting("det_symbolic", transition.det_symbolic))
    # every module that binds perm.opposite counts its calls
    wrapped = counting("opposite", perm.opposite)
    for module in (perm, fixtures, cli):
        if hasattr(module, "opposite"):
            monkeypatch.setattr(module, "opposite", wrapped)
    # one determinant per structure; one opposite per structure, which the
    # pairing, the opposite suite and its involution check share
    for name, structures in (("c4quartic", 2), ("d4", 30), ("q8", 22)):
        counts.update(det_symbolic=0, opposite=0)
        code, _ = run(capsys, "suite", name)
        assert code == 0
        assert counts == {"det_symbolic": structures,
                          "opposite": structures}, name


@pytest.mark.parametrize("name, structures, calls",
                         [("c4quartic", 2, 3), ("v4biquad", 4, 10),
                          ("s3sextic", 5, 15)])
def test_verify_commuting_runs_once_per_unordered_pair(capsys, monkeypatch,
                                                       name, structures, calls):
    pairs = []

    def counting(a1, a2):
        pairs.append((a1, a2))
        return commuting(a1, a2)
    commuting = cli.verify_commuting
    monkeypatch.setattr(cli, "verify_commuting", counting)
    code, out = run(capsys, "--json", "verify", "commuting", name)
    assert code == 0
    assert len(pairs) == calls
    assert len({frozenset(map(id, p)) for p in pairs}) == calls
    assert len(json.loads(out)["checks"]) == structures ** 2


def test_verify_commuting_builds_two_combinations_per_algebra(monkeypatch):
    # verify commuting on zeta16 tests its 351 unordered pairs of 26
    # structures; each algebra builds its two fixed combinations once, so
    # 52 in all, not two per call
    from hopfgalois import linalg
    from hopfgalois.fixtures import parse
    fx = parse(DATA / "zeta16.hgx")
    built = []
    combined = linalg.combined

    def counting(mats, rows):
        built.extend(rows)
        return combined(mats, rows)
    monkeypatch.setattr(linalg, "combined", counting)
    report = cli.Report(["verify", "commuting", fx.name], fx.name, 0)
    cli._verify_commuting(fx, report)
    assert len(built) <= 2 * len(fx.structures()) == 52
    assert len(report.checks) == 26 ** 2
    assert {c["verdict"] for c in report.checks} == {"PASS"}


def test_suite_builds_one_center_per_group(capsys, monkeypatch):
    # the enumeration and the opposite suite read each structure's one
    # center, and the center_order assertion the group's: 31 centers on d4,
    # where every query built its own (61)
    from hopfgalois.perm import FiniteGroup
    groups, centers = set(), []
    center = FiniteGroup.center

    def recording(self):
        groups.add(id(self))
        centers.append(center(self))
        return centers[-1]
    monkeypatch.setattr(FiniteGroup, "center", recording)
    code, _ = run(capsys, "--json", "suite", "d4")
    assert code == 0
    assert len(centers) == 61
    assert len({id(c) for c in centers}) == len(groups) == 31


def test_suite_builds_each_fixed_field_once(capsys, monkeypatch):
    # the load's subfield and the stabilizer fields of s3sextic's five
    # descents are four fixed fields, which the descents shared in 22 calls
    from hopfgalois import linalg
    forms = []
    fixed_space = linalg.fixed_space

    def recording(matrices, ncols):
        forms.append(repr(matrices))
        return fixed_space(matrices, ncols)
    monkeypatch.setattr(linalg, "fixed_space", recording)
    code, _ = run(capsys, "--json", "suite", "s3sextic")
    assert code == 0
    assert len(forms) == len(set(forms)) == 4


@pytest.mark.parametrize("name, calls", [("s3sextic", (2, 1, 2)),
                                         ("c4quartic", (1, 1, 1))])
def test_suite_builds_one_order_and_certificate_per_lattice(
        capsys, monkeypatch, name, calls):
    # s3sextic's ideals OE and OL are one lattice: its assoc-order and
    # theorem11 records are built once and differ only in the ideal's name
    # (4, 2 and 4 calls when each name built its own).  c4quartic's
    # classical structure is self-opposite, so its certificate is one side
    from hopfgalois import integral
    counts = dict.fromkeys(("associated_order", "freeness_certificate",
                            "freeness_search"), 0)

    def counting(fn_name):
        fn = getattr(integral, fn_name)

        def wrapper(*args):
            counts[fn_name] += 1
            return fn(*args)
        return wrapper
    for fn_name in counts:
        monkeypatch.setattr(integral, fn_name, counting(fn_name))
    code, out = run(capsys, "--json", "suite", name)
    assert code == 0
    assert tuple(counts.values()) == calls
    if name != "s3sextic":
        return
    # each ideal's records run from its assoc-order to the next one's
    checks = json.loads(out)["checks"]
    starts = [k for k, c in enumerate(checks)
              if c["name"].startswith("assoc-order")]
    assert len(starts) == 2
    oe, ol = (json.dumps(checks[start:end]).replace(ideal, "I")
              for start, end, ideal in ((starts[0], starts[1], "OE"),
                                        (starts[1], len(checks), "OL")))
    assert "theorem11:witness-transfer" in oe and oe == ol


@pytest.mark.parametrize("fixture", ["qi", "qzeta3", "c4quartic", "v4biquad",
                                     "s3sextic", str(DATA / "zeta16.hgx")])
def test_classical_index_is_the_opposite_of_the_left_translations(fixture):
    # rho(G) is the centralizer of lambda(G) in Sym(X), and the classical
    # structure theorem11 defaults to
    from hopfgalois.fixtures import parse
    from hopfgalois.perm import (FiniteGroup, centralizer_bruteforce,
                                 right_translation_subgroup)
    fx = parse(fixture) if fixture.endswith(".hgx") else load_bundled(fixture)
    space = fx.coset_space()
    rho = right_translation_subgroup(space)
    assert rho == FiniteGroup(centralizer_bruteforce(
        FiniteGroup(space.translations), space))
    assert fx.structures()[cli._classical_index(fx)] == rho


def test_classical_index_needs_the_left_translations_among_the_structures(
        monkeypatch):
    from hopfgalois.errors import ConsistencyError
    from hopfgalois.perm import FiniteGroup
    fx = load_bundled("c4quartic")
    lam = FiniteGroup(fx.coset_space().translations)
    others = [n for n in fx.structures() if n != lam]
    assert others
    monkeypatch.setattr(fx, "structures", lambda: others)
    with pytest.raises(ConsistencyError, match="left translations"):
        cli._classical_index(fx)


def _multiplication_tables(capsys, monkeypatch, *argv):
    """(reads, builds, matrices): the calls to
    Subfield.int_multiplication_matrices during a command, how many tables
    were built (one with each Subfield), and the matrices in the table."""
    from hopfgalois.numberfield import Subfield
    built, tables = [], []
    int_multiplication_matrices = Subfield.int_multiplication_matrices
    build = Subfield.__init__

    def building(self, *args):
        build(self, *args)
        built.append(self)

    def counting(self):
        tables.append(int_multiplication_matrices(self))
        return tables[-1]
    monkeypatch.setattr(Subfield, "__init__", building)
    monkeypatch.setattr(Subfield, "int_multiplication_matrices", counting)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert all(t is tables[0] for t in tables)
    return len(tables), len(built), len(tables[0][1])


@pytest.mark.parametrize("name, matrices",
                         [("s3sextic", 6), ("v4biquad", 4), ("qcbrt2", 3)])
def test_verify_hopf_galois_builds_each_multiplication_matrix_once(
        capsys, monkeypatch, name, matrices):
    # one table of the subfield basis's matrices, shared by the load's
    # integral-basis and ideal checks and every structure's canonical map
    # (matrices were once built per structure: 30, 16 and 3 of them)
    structures = len(load_bundled(name).structures())
    assert _multiplication_tables(
        capsys, monkeypatch, "--json", "verify", "hopf-galois", name) == \
        (1 + structures, 1, matrices)


def test_load_builds_the_integral_basis_matrices_once(capsys, monkeypatch):
    # s3sextic's two ideals share the integral basis's ring, combined once
    # at load from the subfield's table of six matrices
    assert _multiplication_tables(
        capsys, monkeypatch, "--json", "validate", "s3sextic") == (1, 1, 6)


def test_suite_tests_each_sample_once_and_keeps_e_matrices_out_of_linalg(
        capsys, monkeypatch):
    from hopfgalois import descent, fixtures, integral, linalg, numberfield
    from hopfgalois.numberfield import FieldElement, Subfield
    counts = {"generates": 0, "associated_order": 0, "coset_images": 0,
              "from_coords": 0, "coords": 0, "det_symbolic": 0,
              "signed_canonical_det": 0}
    det_entries = []

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    exact_det = linalg.int_det

    def det(mat):
        det_entries.append(mat[0][0])
        return exact_det(mat)
    monkeypatch.setattr(linalg, "int_det", det)
    # the generator forms tie themselves to one sample through
    # descent.generates, and the certificate runs its witness test through
    # integral.generates
    for module in (descent, integral):
        monkeypatch.setattr(module, "generates",
                            counting("generates", module.generates))
    monkeypatch.setattr(integral, "associated_order",
                        counting("associated_order", integral.associated_order))
    # the rank forms are descent's symbolic determinants, and the canonical
    # transition determinants are the fixture's
    monkeypatch.setattr(descent, "det_symbolic",
                        counting("det_symbolic", descent.det_symbolic))
    monkeypatch.setattr(fixtures, "signed_canonical_det", counting(
        "signed_canonical_det", fixtures.signed_canonical_det))
    code, _ = run(capsys, "suite", "c4quartic")
    assert code == 0
    # the trace-form determinants of the separability checks (and the
    # freeness witnesses) are over Z
    assert det_entries and not any(isinstance(e, FieldElement)
                                   for e in det_entries)
    # both structures are self-opposite and m = 4, so their 200 samples are
    # read off two forms each: one per-sample test per structure ties the
    # forms to it, plus the certificate's one witness test (401 when every
    # sample ran through generates, 802 when each pair tested both sides)
    assert counts["generates"] == 2 + 1
    # one rank form per tested structure; det-identity, det-specialization
    # and the generator tests share one canonical determinant per structure
    assert counts["det_symbolic"] == 2
    assert counts["signed_canonical_det"] == 2
    # assoc-order, whose order the certificate reuses (3 when the
    # certificate built both sides, 2 when it built its own)
    assert counts["associated_order"] == 1
    # a sample's coset values are read off the basis images under the coset
    # representatives, built once per load and shared with the descents
    monkeypatch.setattr(numberfield, "CosetImages",
                        counting("coset_images", numberfield.CosetImages))
    # a sample is drawn as subfield coordinates: it is never built as a
    # field element, and its coordinates are not solved for again.  The load
    # and the descents read theirs over Z (Subfield.int_coords); the load
    # once solved 41 (among them the 4 x 4 columns of the subfield basis's
    # multiplication matrices), and the descents 2 x 16 more
    monkeypatch.setattr(Subfield, "from_coords",
                        counting("from_coords", Subfield.from_coords))
    monkeypatch.setattr(Subfield, "coords",
                        counting("coords", Subfield.coords))
    counts.update(generates=0, coords=0, det_symbolic=0)
    code, _ = run(capsys, "verify", "generators", "c4quartic")
    assert code == 0
    # 2 * cli.GENERATOR_SAMPLES when every sample ran through generates
    assert counts["generates"] == 2
    assert counts["det_symbolic"] == 2
    assert counts["coset_images"] == 1
    assert counts["from_coords"] == 0
    assert counts["coords"] == 0


# the field-element API, which the tests and the benchmark keep using by
# name: no command reaches it, because every command works on integer forms.
# Its constructor included: the descended basis and the subfield basis are
# kept as integer forms, not built as field elements
FIELD_ELEMENT_API = {
    "FieldElement": ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
                     "__rmul__", "inverse", "__truediv__", "__pow__"),
    "NumberField": ("element",),
    "GaloisContext": ("apply", "trace"),
    "Subfield": ("coords", "contains", "from_coords"),
}


def _field_commands(name):
    """`suite` on the bundled fixture and, for a field fixture, `descend` of
    every structure and the default `theorem11` of every ideal: each
    command that reaches the descents, the subfield or the certificates."""
    yield ["--json", "suite", name]
    fx = load_bundled(name)
    if fx.has_field:
        for i in range(len(fx.structures())):
            yield ["--json", "descend", "--n", str(i), name]
        for ideal in sorted(fx.ideals):
            yield ["--json", "theorem11", "--ideal", ideal, name]


@pytest.mark.parametrize("name", BUNDLED)
def test_suite_runs_no_field_element_arithmetic(capsys, monkeypatch, name):
    # the load, the descents, every check and the certificates included
    from hopfgalois import numberfield
    calls = []

    def trap(label, fn):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)
        return wrapper
    commands = list(_field_commands(name))
    for cls_name, methods in FIELD_ELEMENT_API.items():
        cls = getattr(numberfield, cls_name)
        for method in methods:
            monkeypatch.setattr(cls, method, trap(f"{cls_name}.{method}",
                                                  getattr(cls, method)))
    for argv in commands:
        code, _ = run(capsys, *argv)
        assert code in (cli.EXIT_PASS, cli.EXIT_UNKNOWN), argv
        assert calls == [], argv


@pytest.mark.parametrize("name", BUNDLED)
def test_eliminations_receive_only_integers(capsys, monkeypatch, name):
    # fraction-free elimination divides exactly only on integers: a Fraction
    # entry would give a wrong rank, kernel or determinant, not an error
    from hopfgalois import linalg
    eliminate = linalg._eliminate
    received = []

    def guarded(rows, *args, **kwargs):
        received.append(all(type(x) is int for row in rows for x in row))
        return eliminate(rows, *args, **kwargs)
    commands = [argv for argv in _field_commands(name) if "descend" not in argv]
    has_field = load_bundled(name).has_field
    monkeypatch.setattr(linalg, "_eliminate", guarded)
    for argv in commands:
        code, _ = run(capsys, *argv)
        assert code in (cli.EXIT_PASS, cli.EXIT_UNKNOWN), argv
    assert all(received)
    # a group-only fixture runs no elimination at all
    assert bool(received) == has_field


@pytest.mark.parametrize("kind, fixture", [
    pytest.param("orbit", "v4biquad", id="int_det"),
    # the batch reads Delta_N as forms, so an elimination mod p runs only
    # in the per-sample test: on zeta16 there
    pytest.param("mod p", str(DATA / "zeta16.hgx"), id="int_det_mod_p")])
def test_a_flipped_generator_kernel_raises_consistency_error(
        capsys, monkeypatch, generator_kernels, kind, fixture):
    # descent's int_det answering the wrong way on either route, on the
    # orbits (the exact rank) or on the residue matrices (generates' mod-p
    # certificate), must make the two routes disagree on the
    # non-generators 0 and 1: on a generator, a flipped mod-p 0 only sends
    # the test to the exact determinant.  The kernel is flipped in descent
    # only: the exact determinant over E is int_det too, on packed entries.
    # On v4biquad the flipped rank also makes `verify generators` fail,
    # and main reports the ConsistencyError as an internal fault
    from types import SimpleNamespace

    from hopfgalois import descent, linalg
    from hopfgalois.errors import ConsistencyError
    fx = cli._load(fixture)
    algebras = [fx.algebra(i) for i in range(len(fx.structures()))]
    recording = descent.linalg.int_det

    def flipped(rows):
        value = recording(rows)
        return int(not value) if generator_kernels[-1][0] == kind else value
    monkeypatch.setattr(descent, "linalg", SimpleNamespace(
        **{**vars(descent.linalg), "int_det": flipped}))
    message = ("orbit rank and transition determinant disagree on a "
               "generator test")
    if kind == "orbit":
        code = main(["verify", "generators", fixture])
        captured = capsys.readouterr()
        # a failed cross-check is an internal fault (exit 4), not a usage
        # error
        assert code == EXIT_INTERNAL == 4
        assert captured.out == ""
        first, *trace = captured.err.splitlines()
        assert first == f"internal error: ConsistencyError: {message}"
        assert trace[0] == "Traceback (most recent call last):"
    sub = fx.subfield()
    one = linalg._clear_denominators([sub.coords(fx.context.field.one())])[1][0]
    for ints in ([0] * sub.dim, one):
        for algebra in algebras:
            with pytest.raises(ConsistencyError, match=message):
                descent.generates(algebra, descent.generator_sample(sub, ints))


def test_a_flipped_int_det_everywhere_raises_consistency_error(capsys,
                                                               monkeypatch):
    # flipped in linalg itself, int_det is wrong on the rank route and in
    # every exact determinant over E, so some cross-check must fail; the
    # first to run is descend's spanning check
    from hopfgalois import linalg
    exact = linalg.int_det
    monkeypatch.setattr(linalg, "int_det", lambda mat: not exact(mat))
    assert _internal_error(capsys, ["verify", "generators", "v4biquad"]) == (
        "internal error: ConsistencyError: descended basis does not span "
        "E[N] over E")


def _internal_error(capsys, argv):
    """The first stderr line of a command that must fail its cross-checks:
    exit 4 with nothing on stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    return captured.err.splitlines()[0]


def test_a_planted_rank_form_coefficient_raises_consistency_error(
        capsys, monkeypatch):
    # one coefficient of each rank form off by one: the form no longer
    # vanishes on the non-generators, where the transition determinant does
    from hopfgalois import descent
    from hopfgalois.transition import IntPolynomial
    symbolic = descent.det_symbolic

    def off_by_one(matrix):
        poly = symbolic(matrix)
        e, c = next(iter(poly.terms.items()))
        return IntPolynomial(poly.nvars, {**poly.terms, e: c + 1})
    monkeypatch.setattr(descent, "det_symbolic", off_by_one)
    assert _internal_error(capsys, ["verify", "generators", "c4quartic"]) == (
        "internal error: ConsistencyError: orbit rank and transition "
        "determinant disagree on a generator test")


@pytest.mark.parametrize("fixture", [
    pytest.param("v4biquad", id="v4biquad"),
    # past m^3 terms, read as forms all the same
    pytest.param(str(DATA / "zeta16.hgx"), id="zeta16")])
def test_a_flipped_transition_determinant_term_raises_consistency_error(
        capsys, monkeypatch, fixture):
    # one term of each canonical determinant with its sign flipped: it no
    # longer vanishes mod p on the non-generators
    from hopfgalois.fixtures import Fixture
    from hopfgalois.transition import IntPolynomial
    canonical = Fixture.transition_det

    def flipped(self, index):
        poly, sign = canonical(self, index)
        e, c = next(iter(poly.terms.items()))
        return IntPolynomial(poly.nvars, {**poly.terms, e: -c}), sign
    monkeypatch.setattr(Fixture, "transition_det", flipped)
    assert _internal_error(capsys, ["verify", "generators", fixture]) == (
        "internal error: ConsistencyError: orbit rank and transition "
        "determinant disagree on a generator test")


def test_commuting_and_assoc_order_reuse_the_integer_forms(field_fixtures,
                                                          monkeypatch):
    # once the descents have built each algebra's integer form, neither
    # command clears denominators again
    from hopfgalois import linalg
    cleared = []
    clear = linalg._clear_denominators

    def counting(rows):
        cleared.append(len(rows))
        return clear(rows)
    for fx in field_fixtures:
        count = len(fx.structures())
        for i in range(count):
            fx.algebra(i)
        for name in fx.ideals:
            fx.ideal(name)
        report = cli.Report([], fx.name, 0)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_clear_denominators", counting)
            cli.cmd_verify(fx, argparse.Namespace(property="commuting"),
                           report)
            assert cleared == []
            for i in range(count):
                for name in sorted(fx.ideals):
                    cli.cmd_assoc_order(
                        fx, argparse.Namespace(n=i, ideal=name), report)
                    # the inverses of the ideal's integer basis and of the
                    # Hermite form, and Lattice.contains on the unit's
                    # coordinates, take integers as they are (each once
                    # cleared its rows again); the algebra's action set
                    # would be m^2 rows
                    assert cleared == []
        assert {c["verdict"] for c in report.checks} == {"PASS"}


@pytest.mark.parametrize("name", ["qi", "qzeta3", "c4quartic", "v4biquad",
                                  "qcbrt2", "s3sextic"])
def test_suite_clears_no_denominators_after_the_load(monkeypatch, name):
    # the parser reads the descriptor's rationals into integer forms; from
    # there on every layer the suite runs takes integers as they are
    from hopfgalois import integral, linalg
    fx = load_bundled(name)
    cleared = []
    clear = linalg._clear_denominators

    def counting(rows):
        cleared.append(len(rows))
        return clear(rows)
    monkeypatch.setattr(linalg, "_clear_denominators", counting)
    report = cli.Report(["suite", name], fx.name, 0)
    cli.cmd_suite(fx, argparse.Namespace(bound=integral.DEFAULT_BOUND), report)
    assert report.checks and cleared == []


def _recorded_points(monkeypatch):
    """Every specialization point the command draws, in order, as (scale,
    vectors): its integer coset vectors, scale times the true values.  The
    coordinates a / c are cleared first, so rational coordinates reach
    scale = D c, D the table's denominator."""
    from hopfgalois import linalg
    from hopfgalois.numberfield import CosetImages
    points = []
    vectors = CosetImages.vectors

    def recording(table, coords):
        c, (ints,) = linalg._clear_denominators([coords])
        points.append((table.denominator * c, vectors(table, ints)))
        return points[-1][1]
    monkeypatch.setattr(CosetImages, "vectors", recording)
    return points


def _recorded_widths(monkeypatch):
    """Every slot width det-specialization packs a point at, in order."""
    widths = []
    pack_points = cli._pack_points

    def recording(vectors, m):
        packed, width = pack_points(vectors, m)
        widths.append(width)
        return packed, width
    monkeypatch.setattr(cli, "_pack_points", recording)
    return widths


def _planted_value_fault(fault, points):
    """form_evaluator, as det-specialization plans the symbolic side, with
    one planted fault: a coefficient off by one, the sign flipped, or a
    value scale^(d+1) times the true one in place of scale^d, for scale that
    of the point last drawn (as if divided by scale^(d-1) in place of
    scale^d)."""
    from hopfgalois.transition import IntPolynomial, form_evaluator

    def planted(forms):
        (form,) = forms
        if fault == "coefficient":
            exps = next(iter(form.terms))
            form = IntPolynomial(form.nvars,
                                 {**form.terms, exps: form.terms[exps] + 1})
        evaluate = form_evaluator([form])

        def faulty(packed):
            (value,) = evaluate(packed)
            if fault == "sign":
                return [-value]
            if fault == "scale":
                return [value * points[-1][0]]
            return [value]
        return faulty
    return planted


@pytest.mark.parametrize("fault", [None, "coefficient", "sign", "scale"])
def test_det_specialization_fails_on_a_planted_fault(monkeypatch, fault):
    points = _recorded_points(monkeypatch)
    monkeypatch.setattr(cli, "form_evaluator",
                        _planted_value_fault(fault, points))
    # qcbrt2's coset values have denominators, so scale > 1 occurs
    fx = load_bundled("qcbrt2")
    report = cli.Report(["suite", "qcbrt2"], fx.name, 0)
    cli._specialization_checks(fx, report)
    assert max(scale for scale, _ in points) > 1
    verdicts = {c["verdict"] for c in report.checks}
    assert verdicts == ({"PASS"} if fault is None else {"FAIL"})


def test_det_specialization_draws_until_the_first_failing_point(monkeypatch):
    # every point passes: SPECIALIZATION_POINTS draws per structure; a
    # failing third point of structure 0 ends its draws there, and the
    # later structures draw on from the same seeded stream
    from hopfgalois.transition import form_evaluator
    points = _recorded_points(monkeypatch)
    fx = load_bundled("c4quartic")
    count = len(fx.structures())
    assert count >= 2
    cli._specialization_checks(fx, cli.Report([], fx.name, 0))
    passing = list(points)
    assert len(passing) == cli.SPECIALIZATION_POINTS * count

    def failing_at_the_third_point(forms):
        evaluate = form_evaluator(forms)
        return lambda packed: [v + (len(points) == 3) for v in evaluate(packed)]
    monkeypatch.setattr(cli, "form_evaluator", failing_at_the_third_point)
    points.clear()
    report = cli.Report([], fx.name, 0)
    cli._specialization_checks(fx, report)
    assert len(points) == 3 + cli.SPECIALIZATION_POINTS * (count - 1)
    assert points == passing[:len(points)]
    assert [c["verdict"] for c in report.checks] == ["FAIL"] + ["PASS"] * (count - 1)


def test_det_specialization_fails_on_a_value_equal_only_mod_f(
        field_fixtures, monkeypatch):
    # the symbolic value plus f at the slot base packs Delta_N + f: the same
    # element of Z[t]/(f), so reducing both sides by f would pass it, but
    # another polynomial in Z[t], which the integers tell apart
    from hopfgalois.numberfield import _pack
    from hopfgalois.transition import form_evaluator
    widths = _recorded_widths(monkeypatch)

    def plus_f(forms):
        evaluate = form_evaluator(forms)
        return lambda packed: [v + _pack(modulus, widths[-1])
                               for v in evaluate(packed)]
    monkeypatch.setattr(cli, "form_evaluator", plus_f)
    for fx in field_fixtures:
        modulus = fx.context.field.modulus
        report = cli.Report(["suite", fx.name], fx.name, 0)
        cli._specialization_checks(fx, report)
        assert {c["verdict"] for c in report.checks} == {"FAIL"}, fx.name


def _coords_up_to_a_million(subfield, rng):
    """Seeded integer subfield coordinates up to 10^6 in absolute value."""
    return [rng.randint(-10 ** 6, 10 ** 6) for _ in range(subfield.dim)]


@pytest.mark.parametrize("planted", [False, True])
def test_det_specialization_slots_hold_both_sides_at_large_points(
        field_fixtures, monkeypatch, planted):
    # at coordinates up to 10^6, each side unpacked at the point's width and
    # reduced by f is the value over E that an independent packing at its
    # own width gives (_packed_det; the oracle's form evaluator), so the
    # width holds every coefficient of both; +1 on the top slot of the
    # symbolic side, that of t^(m (n - 1)), is a FAIL
    from hopfgalois.numberfield import (Subfield, _packed_det, _reduce_int,
                                        _unpack)
    from .oracles import packed_form_evaluator
    monkeypatch.setattr(Subfield, "random_coords", _coords_up_to_a_million)
    widths = _recorded_widths(monkeypatch)
    evaluator, int_det = cli.form_evaluator, cli.int_det

    def read(value, slots):
        """The packed value's coefficients, reduced by f."""
        return _reduce_int(_unpack(value, slots, widths[-1]), modulus)

    def checked_evaluator(forms):
        (form,) = forms
        evaluate, reference = evaluator(forms), packed_form_evaluator(
            form, modulus)
        slots = form.nvars * (n - 1) + 1

        def value(packed):
            (v,) = evaluate(packed)
            assert read(v, slots) == reference([read(p, n) for p in packed])
            return [v + (planted << 8 * widths[-1] * (slots - 1))]
        return value

    def checked_det(rows):
        v = int_det(rows)
        assert read(v, len(rows) * (n - 1) + 1) == _packed_det(
            [[read(e, n) for e in row] for row in rows], modulus)
        return v
    monkeypatch.setattr(cli, "form_evaluator", checked_evaluator)
    monkeypatch.setattr(cli, "int_det", checked_det)
    for fx in field_fixtures:
        modulus = fx.context.field.modulus
        n = len(modulus) - 1
        report = cli.Report(["suite", fx.name], fx.name, 0)
        cli._specialization_checks(fx, report)
        verdicts = {c["verdict"] for c in report.checks}
        assert verdicts == ({"FAIL"} if planted else {"PASS"}), fx.name


def _coords_over_2_3_6(subfield, rng):
    """Seeded subfield coordinates with the denominators 2, 3 and 6 in turn."""
    from fractions import Fraction
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), (2, 3, 6)[j % 3])
            for j in range(subfield.dim)]


def _int_det_times_the_scale(points):
    """int_det, as det-specialization takes the numeric side, with a planted
    fault: a determinant scale^(m+1) times the true one in place of
    scale^m, for scale that of the point last drawn (as if divided by
    scale^(m-1) in place of scale^m)."""
    from hopfgalois.linalg import int_det
    return lambda rows: int_det(rows) * points[-1][0]


@pytest.mark.parametrize("planted", [False, True])
def test_det_specialization_divides_by_d_to_the_m_on_every_field_fixture(
        field_fixtures, monkeypatch, planted):
    # integer subfield coordinates reach a common denominator D > 1 only on
    # qcbrt2 and s3sextic; coordinates over 2, 3 and 6, cleared by the
    # recording (_recorded_points), reach D c > 1 on all six
    from math import gcd
    from hopfgalois.numberfield import Subfield
    points = _recorded_points(monkeypatch)
    monkeypatch.setattr(Subfield, "random_coords", _coords_over_2_3_6)
    if planted:
        monkeypatch.setattr(cli, "int_det", _int_det_times_the_scale(points))
    for fx in field_fixtures:
        points.clear()
        report = cli.Report(["suite", fx.name], fx.name, 0)
        cli._specialization_checks(fx, report)
        # the values' common denominator, reduced
        assert max(scale // gcd(scale, *(v for vec in vectors for v in vec))
                   for scale, vectors in points) > 1, fx.name
        verdicts = {c["verdict"] for c in report.checks}
        assert verdicts == ({"FAIL"} if planted else {"PASS"}), fx.name


def _c4quartic_descriptor():
    return json.loads(bundled_path("c4quartic").read_text(encoding="utf-8"))


MALFORMED = {
    "field given as a list":
        (lambda doc: doc.update(field=[1, 1, 1, 1, 1]), "field: expected an object"),
    "field without min_poly":
        (lambda doc: doc["field"].pop("min_poly"), "field.min_poly: an array"),
    "min_poly given as a string":
        (lambda doc: doc["field"].update(min_poly="11111"), "field.min_poly: an array"),
    # f is monic as written: a trailing 0 is not trimmed to a lower degree
    "min_poly ending in 0":
        (lambda doc: doc["field"]["min_poly"].append(0),
         "field.min_poly: the last coefficient must be 1 (f is monic)"),
    "min_poly not monic":
        (lambda doc: doc["field"]["min_poly"].__setitem__(-1, 2),
         "field.min_poly: the last coefficient must be 1 (f is monic)"),
    "assertions given as a list":
        (lambda doc: doc.update(assertions=["coset_count"]),
         "assertions: expected an object"),
    "ideals given as a string":
        (lambda doc: doc.update(ideals="OL"), "ideals: expected an object"),
    # only a missing or null block means no ideals
    "ideals given as an empty list":
        (lambda doc: doc.update(ideals=[]), "ideals: expected an object"),
    "ideals given as false":
        (lambda doc: doc.update(ideals=False), "ideals: expected an object"),
    # irreducibility is asserted by the one value "asserted", or not at all
    "irreducibility given as a number":
        (lambda doc: doc["field"].update(irreducible=5),
         'field.irreducible: expected "asserted", not 5'),
    "irreducibility given as true":
        (lambda doc: doc["field"].update(irreducible=True),
         'field.irreducible: expected "asserted", not true'),
    # well-formed blocks whose bases are degenerate
    "dependent integral basis":
        (lambda doc: doc["integral_basis"].__setitem__(3, ["0", "2", "0", "0"]),
         "integral_basis: elements are linearly dependent"),
    "integral basis without 1":
        (lambda doc: doc["integral_basis"].__setitem__(0, ["2", "0", "0", "0"]),
         "integral_basis: 1 is not an integer combination of the basis"),
    "dependent ideal vectors":
        (lambda doc: doc["ideals"]["OL"].__setitem__(3, ["1", "1", "0", "0"]),
         "ideals.OL: basis vectors are linearly dependent"),
    # vectors the basis and the ideals share one check for
    "integral basis vector of the wrong length":
        (lambda doc: doc["integral_basis"].__setitem__(1, ["0", "1", "0"]),
         "integral_basis[1]: expected 4 coordinates"),
    "ideal vector of the wrong length":
        (lambda doc: doc["ideals"]["OL"].__setitem__(2, ["0", "0", "1"]),
         "ideals.OL[2]: expected 4 coordinates"),
    # an automorphism's image of t has n coordinates too: a longer one is
    # not reduced by f, a shorter one is no root of f by the wrong count
    "automorphism image longer than the degree":
        (lambda doc: doc["field"]["automorphisms"]["s"].append("0"),
         "field.automorphisms.s: expected 4 coordinates"),
    "automorphism image shorter than the degree":
        (lambda doc: doc["field"]["automorphisms"]["s"].pop(),
         "field.automorphisms.s: expected 4 coordinates"),
    "ideal vector given as a string":
        (lambda doc: doc["ideals"]["OL"].__setitem__(0, "1"),
         "ideals.OL[0]: expected an array of rationals"),
    # permutation images and presentation parameters are JSON integers
    "generator image given as a float":
        (lambda doc: doc["group"]["generators"].update(s=[1.0, 2, 3, 0]),
         "group.generators.s: not a bijection of 0..3: (1.0, 2, 3, 0)"),
    "stabilizer permutation given as floats":
        (lambda doc: doc["subgroup"].update(generators=[[0.0, 1, 2, 3]]),
         "subgroup.generators[0]: not a bijection of 0..3: (0.0, 1, 2, 3)"),
    # the problem names the degrees, not the images
    "stabilizer permutation of another degree":
        (lambda doc: doc["subgroup"].update(generators=[[0, 1, 2, 3, 4]]),
         "subgroup.generators[0]: a permutation of degree 5 is not an "
         "element of the group, of degree 4"),
    # a generator value is type-checked before any permutation is built:
    # Python's own error text, or the value read item by item, leaked
    "generator given as a number":
        (lambda doc: doc["group"]["generators"].update(s=5),
         "group.generators.s: expected an array of point images"),
    "generator given as an object":
        (lambda doc: doc["group"]["generators"].update(s={"0": 1, "1": 2}),
         "group.generators.s: expected an array of point images"),
    "stabilizer generator given as null":
        (lambda doc: doc["subgroup"].update(generators=[None]),
         "subgroup.generators[0]: expected a word or an array of point "
         "images"),
    "stabilizer generator given as an object":
        (lambda doc: doc["subgroup"].update(generators=[{"s": 1}]),
         "subgroup.generators[0]: expected a word or an array of point "
         "images"),
    # a word's problems quote at most 40 characters of it
    "stabilizer word with an empty factor":
        (lambda doc: doc["subgroup"].update(generators=["s**s"]),
         "subgroup.generators[0]: empty factor in word 's**s'"),
    "stabilizer word with a bad exponent":
        (lambda doc: doc["subgroup"].update(generators=["s * s^x"]),
         "subgroup.generators[0]: bad exponent in 's^x'"),
    "stabilizer word with an unknown generator":
        (lambda doc: doc["subgroup"].update(generators=["s*u"]),
         "subgroup.generators[0]: unknown generator 'u' in word 's*u'"),
    "stabilizer word past 40 characters":
        (lambda doc: doc["subgroup"].update(generators=["s*" * 20 + "u" * 41]),
         f"subgroup.generators[0]: unknown generator '{'u' * 40}'... in word "
         f"'{'s*' * 20}'..."),
    "presentation parameter given as a float":
        (lambda doc: doc.update(group={"order": 21, "presentation": {
            "kind": "metacyclic", "r": 7.5, "q": 3, "d": 2}}),
         "group.presentation: integer r, q, d are required"),
    # a JSON true is a Python int, but not an order
    "group order given as true":
        (lambda doc: doc["group"].update(order=True),
         "group.order: a positive integer is required"),
    # nor a rational coefficient, nor a count; nor is a float such as 2.0
    "min_poly coefficient given as true":
        (lambda doc: doc["field"]["min_poly"].__setitem__(0, True),
         "field.min_poly[0]: not a rational number: True"),
    "automorphism image given as false":
        (lambda doc: doc["field"]["automorphisms"]["s"].__setitem__(0, False),
         "field.automorphisms.s[0]: not a rational number: False"),
    "integral basis coordinate given as true":
        (lambda doc: doc["integral_basis"][1].__setitem__(1, True),
         "integral_basis[1][1]: not a rational number: True"),
    "ideal coordinate given as true":
        (lambda doc: doc["ideals"]["OL"][2].__setitem__(2, True),
         "ideals.OL[2][2]: not a rational number: True"),
    # a rational string is "p" or "p/q": no exponent, no decimal point
    "integral basis coordinate in exponent notation":
        (lambda doc: doc["integral_basis"][1].__setitem__(1, "1e9999999"),
         "integral_basis[1][1]: not a rational number: '1e9999999'"),
    "automorphism image in decimal notation":
        (lambda doc: doc["field"]["automorphisms"]["s"].__setitem__(0, "1.5"),
         "field.automorphisms.s[0]: not a rational number: '1.5'"),
    "asserted count given as true":
        (lambda doc: doc["assertions"].update(center_order={"value": True}),
         "assertions.center_order.value: a count must be an integer, not true"),
    "asserted orders given as floats":
        (lambda doc: doc["assertions"].update(
            nontrivial_proper_normal_orders={"value": [2, 2.0]}),
         "assertions.nontrivial_proper_normal_orders.value[1]: a count must "
         "be an integer, not 2.0"),
    # nor is anything but a nonnegative integer, which would otherwise reach
    # the report as a FAIL
    "asserted count given as a string":
        (lambda doc: doc["assertions"].update(coset_count={"value": "3"}),
         'assertions.coset_count.value: a count must be an integer, not "3"'),
    "asserted count given as null":
        (lambda doc: doc["assertions"].update(coset_count={"value": None}),
         "assertions.coset_count.value: a count must be an integer, not null"),
    "asserted count given as an array":
        (lambda doc: doc["assertions"].update(coset_count={"value": [3]}),
         "assertions.coset_count.value: a count must be an integer, not [3]"),
    "asserted count given as an object":
        (lambda doc: doc["assertions"].update(coset_count={"value": {"a": 1}}),
         'assertions.coset_count.value: a count must be an integer, '
         'not {"a": 1}'),
    "asserted count given as a negative integer":
        (lambda doc: doc["assertions"].update(coset_count={"value": -1}),
         "assertions.coset_count.value: a count must be nonnegative, not -1"),
    "asserted orders given as strings":
        (lambda doc: doc["assertions"].update(
            nontrivial_proper_normal_orders={"value": ["7"]}),
         "assertions.nontrivial_proper_normal_orders.value[0]: a count must "
         'be an integer, not "7"'),
    "asserted orders with a null":
        (lambda doc: doc["assertions"].update(
            nontrivial_proper_normal_orders={"value": [7, None]}),
         "assertions.nontrivial_proper_normal_orders.value[1]: a count must "
         "be an integer, not null"),
    "asserted orders given as one count":
        (lambda doc: doc["assertions"].update(
            nontrivial_proper_normal_orders={"value": 7}),
         "assertions.nontrivial_proper_normal_orders.value: expected an array "
         "of counts, not 7"),
    # the provenance is copied into the report
    "assertion provenance given as an array":
        (lambda doc: doc["assertions"].update(coset_count={
            "value": 4, "provenance": [5, {"x": 1}]}),
         'assertions.coset_count.provenance: expected a string, '
         'not [5, {"x": 1}]'),
    # 10^30 = 1 mod 7: the presentation is that of the cyclic group of order 21
    "presentation exponent beyond a machine word":
        (lambda doc: doc.update(group={"order": 4, "presentation": {
            "kind": "metacyclic", "r": 7, "q": 3, "d": 10 ** 30}}),
         "group.presentation: defines a group of order 21, declared 4"),
    # two names of one permutation carry one image, whichever comes first:
    # the image of the last name once replaced the other's unchecked
    "a second name of the generator with another image, listed first":
        (lambda doc: _second_name(doc, first=True),
         "field.automorphisms: generators 'u' and 's' are one permutation "
         "but have different images"),
    "a second name of the generator with another image, listed last":
        (lambda doc: _second_name(doc, first=False),
         "field.automorphisms: generators 's' and 'u' are one permutation "
         "but have different images"),
}


def _second_name(doc, first):
    """c4quartic with u, a second name of its generator s, whose image is
    t -> t, not s's t -> t^2, listed before or after s's."""
    doc["group"]["generators"]["u"] = doc["group"]["generators"]["s"]
    autos = doc["field"]["automorphisms"]
    second = {"u": ["0", "1", "0", "0"]}
    doc["field"]["automorphisms"] = ({**second, **autos} if first
                                     else {**autos, **second})


# files that are no JSON text to begin with
UNREADABLE = {
    "a directory": (lambda path: path.mkdir(), "cannot read the file: "),
    "bytes that are not UTF-8":
        (lambda path: path.write_bytes(b'{"name": "\xff"}'), "not UTF-8 text: "),
    "100,000 nested arrays":
        (lambda path: path.write_text("[" * 100_000, encoding="utf-8"),
         "syntax error: arrays or objects nested too deeply to parse"),
}


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="this interpreter converts 5,000-digit integer literals")
def test_an_integer_literal_past_the_digit_limit_is_a_validation_problem(
        tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on an
    # integer literal longer than the interpreter's digit limit
    text = bundled_path("qi").read_text(encoding="utf-8")
    planted = text.replace('"min_poly": [1, 0, 1]',
                           f'"min_poly": [{"9" * 5000}, 0, 1]')
    assert planted != text
    path = tmp_path / "bad.hgx"
    path.write_text(planted, encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "  - syntax error: an integer literal has too many digits to " \
        "parse" in captured.err


@pytest.mark.parametrize("shape", [*MALFORMED, *UNREADABLE])
def test_malformed_block_is_a_validation_problem(tmp_path, capsys, shape):
    _validate_malformed(tmp_path, capsys, shape)


def test_a_rational_in_exponent_notation_is_refused_at_once(tmp_path, capsys):
    # Fraction("1e9999999") builds a ten-million-digit integer, tens of
    # seconds of work; the parser refuses the string before any conversion
    start = time.perf_counter()
    _validate_malformed(tmp_path, capsys,
                        "integral basis coordinate in exponent notation")
    assert time.perf_counter() - start < 1


def _validate_malformed(tmp_path, capsys, shape):
    """validate on the planted shape: exit 2 naming its problem."""
    path = tmp_path / "bad.hgx"
    if shape in UNREADABLE:
        write, problem = UNREADABLE[shape]
        write(path)
    else:
        mutate, problem = MALFORMED[shape]
        doc = _c4quartic_descriptor()
        mutate(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "failed validation" in captured.err
    assert f"  - {problem}" in captured.err


TABLE = "automorphism images do not satisfy the group's multiplication table"


@pytest.mark.parametrize("images, problem", [
    (("t", "t"), f"{TABLE} at element index 0"),
    (("t", "s"), f"{TABLE} at element index 0"),
    (("s", "identity"), f"{TABLE} at element index 5"),
    (("identity", "t"), "only 2 distinct automorphisms for a group of order "
                        "6; the field is not Galois with this group"),
    (("twice t", "t"), "invalid automorphism for generator index 3: its "
                       "image of t is not a root of the minimal polynomial")])
def test_planted_automorphism_images_are_validation_problems(
        tmp_path, capsys, images, problem):
    # s3sextic's automorphism matrices have denominators, so the relations
    # are compared on reduced integer forms (d, M); an image swapped in from
    # the other generator, the identity, or 2t, which is no root, is named
    doc = json.loads(bundled_path("s3sextic").read_text(encoding="utf-8"))
    autos = doc["field"]["automorphisms"]
    planted = {**autos, "identity": ["0", "1", "0", "0", "0", "0"],
               "twice t": ["0", "2", "0", "0", "0", "0"]}
    doc["field"]["automorphisms"] = {
        name: planted[image] for name, image in zip(("s", "t"), images)}
    path = tmp_path / "bad.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[1:] == [f"  - field: {problem}"]


def test_a_fixed_subfield_of_the_wrong_dimension_is_a_validation_problem(
        tmp_path, capsys):
    # a false irreducibility assertion: f = (x^2 + 1)(x^2 + 4)(x^2 + 9) makes
    # E the ring Q(i)^3, on which S3 permutes the factors (t -> (i, 2i, 3i)
    # is sent to a permutation of them).  load_field accepts the six maps;
    # the transposition's fixed ring is {(u, u, w)}, of dimension 4, not 3
    doc = {"name": "product-ring",
           "group": {"order": 6, "generators": {"s": [1, 2, 0],
                                                "t": [1, 0, 2]}},
           "subgroup": {"generators": ["t"]},
           "field": {"min_poly": ["36", "0", "49", "0", "14", "0", "1"],
                     "irreducible": "asserted",
                     "automorphisms": {
                         "s": ["0", "32/15", "0", "1/8", "0", "-1/120"],
                         "t": ["0", "14/5", "0", "7/8", "0", "3/40"]}},
           "integral_basis": [], "ideals": {}}
    path = tmp_path / "ring.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[1:] == [
        "  - field: fixed subfield has dimension 4, expected 3; automorphism "
        "data is inconsistent"]


@pytest.mark.parametrize("names", [5, ["s"], ["s", "s"]],
                         ids=["not-a-list", "one-name", "repeated-name"])
def test_malformed_presentation_generators_are_a_validation_problem(
        tmp_path, capsys, names):
    # a repeated name used to validate, with "s" silently naming t (so this
    # stabilizer was <t>)
    doc = json.loads(bundled_path("metacyclic21").read_text(encoding="utf-8"))
    doc["group"]["presentation"]["generators"] = names
    doc["subgroup"]["generators"] = ["s"]
    path = tmp_path / "bad.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "  - group.presentation.generators: a list of two distinct names " \
        "is required" in captured.err
    assert captured.out == ""


def test_negative_presentation_exponent_validates(tmp_path, capsys):
    # d = -3 = 4 mod 7, and 4^3 = 64 = 1 mod 7
    doc = json.loads(bundled_path("metacyclic21").read_text(encoding="utf-8"))
    doc["group"]["presentation"]["d"] = -3
    path = tmp_path / "neg.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert captured.err == ""


def test_unstable_ideal_is_a_validation_problem(tmp_path, capsys):
    # 2Z + Zi is not stable under i, the second integral-basis element:
    # i * 2 = 2i lies in it, i * i = -1 does not
    doc = json.loads(bundled_path("qi").read_text(encoding="utf-8"))
    doc["ideals"]["half"] = [["2", "0"], ["0", "1"]]
    path = tmp_path / "bad.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith("failed validation with 1 problem(s):\n"
                                 "  - ideals.half: not stable under "
                                 "integral-basis element 1\n")


def test_oversize_group_exits_with_a_capability_error(tmp_path, capsys):
    path = tmp_path / "big.hgx"
    path.write_text(json.dumps({"name": "big", "group": {
        "order": 400, "presentation": {"kind": "metacyclic", "r": 400,
                                       "q": 1, "d": 1}}}), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        "error: group of order 400 exceeds the group order bound 120\n"


def test_oversize_permutation_degree_exits_with_a_capability_error(
        tmp_path, capsys):
    # a transposition on 121 points: a group of order 2, but each product
    # of its closure check is a 121-tuple; the degree is capped with the
    # order, before any permutation is built
    path = tmp_path / "wide.hgx"
    path.write_text(json.dumps({"name": "wide", "group": {
        "order": 2, "generators": {"s": [1, 0, *range(2, 121)]}}}),
        encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: generator of degree 121 exceeds the " \
        "group order bound 120\n"


def test_oversize_subgroup_generator_exits_with_a_capability_error(
        tmp_path, capsys):
    # the identity on 1,000,000 points as the stabilizer's generator: it is
    # refused before it is built, with the degree in place of its images
    # (the whole array was echoed, a 7.9 MB message)
    path = tmp_path / "wide.hgx"
    path.write_text(json.dumps({
        "name": "wide", "group": {"order": 2, "generators": {"s": [1, 0]}},
        "subgroup": {"generators": [list(range(10 ** 6))]}}), encoding="utf-8")
    start = time.perf_counter()
    code = main(["validate", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: subgroup generator of degree 1000000 " \
        "exceeds the group order bound 120\n"
    assert elapsed < 1


@pytest.mark.parametrize("group, subgroup", [
    pytest.param({"s": "x" * 10 ** 6}, [], id="generator string"),
    pytest.param({"s": [1, 0]}, ["s*" * 10 ** 5 + "u" * 8 * 10 ** 5],
                 id="stabilizer word")])
def test_an_oversize_string_gives_a_short_problem(tmp_path, capsys, group,
                                                  subgroup):
    # 1,000,000 characters: as a group generator it was read character by
    # character (a 5 MB problem), as an unknown word quoted twice (2 MB)
    path = tmp_path / "long.hgx"
    path.write_text(json.dumps({"name": "long", "group": {
        "order": 2, "generators": group},
        "subgroup": {"generators": subgroup}}), encoding="utf-8")
    start = time.perf_counter()
    code = main(["validate", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [problem] = [line for line in captured.err.splitlines()
                 if line.startswith("  - ")]
    assert problem.startswith("  - group.generators.s: expected an array"
                              if isinstance(group["s"], str) else
                              "  - subgroup.generators[0]: unknown generator")
    assert len(captured.err) < 300
    assert elapsed < 1


def test_redundant_generators_are_kept_once(tmp_path, capsys):
    # an order-8 cyclic group given by 3,000 copies of its 8-cycle: the
    # translations' conjugation in the enumeration once ran over every copy
    # (4.4 s); one kept generator index makes it the one-generator report
    cycle = [1, 2, 3, 4, 5, 6, 7, 0]
    path = tmp_path / "c8.hgx"
    reports = []
    for copies in (1, 3000):
        path.write_text(json.dumps({"name": "c8", "group": {
            "order": 8, "generators": {f"g{k}": cycle
                                       for k in range(copies)}}}),
            encoding="utf-8")
        start = time.perf_counter()
        code, out = run(capsys, "--json", "enumerate", str(path))
        assert code == 0
        reports.append(out)
    assert time.perf_counter() - start < 1
    assert reports[1] == reports[0]


def test_huge_constant_term_exits_at_the_rational_root_bound(tmp_path,
                                                             capsys):
    # the rational-root test divides a0 by every d <= sqrt|a0|, which takes
    # seconds from 10^14 on and never ends for 30 digits: it is refused
    from hopfgalois.numberfield import RATIONAL_ROOT_BOUND
    doc = json.loads(bundled_path("qi").read_text(encoding="utf-8"))
    for a0 in (10 ** 14 + 1, 10 ** 30 + 1):
        doc["field"]["min_poly"] = [a0, 0, 1]
        path = tmp_path / "big.hgx"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.monotonic()
        code = main(["validate", str(path)])
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.endswith(
            "failed validation with 1 problem(s):\n  - field: constant term "
            "of the minimal polynomial exceeds the rational-root search bound "
            f"{RATIONAL_ROOT_BOUND} in absolute value\n")
        assert elapsed < 1


@pytest.mark.parametrize("block, problem", [
    ("integral_basis", "integral_basis[1]: element is not fixed by the stabilizer"),
    ("ideals", "ideals.OL[1]: element is not fixed by the stabilizer")])
def test_unfixed_vector_is_a_validation_problem(tmp_path, capsys, block, problem):
    doc = json.loads(bundled_path("qcbrt2").read_text(encoding="utf-8"))
    vectors = doc[block] if block == "integral_basis" else doc[block]["OL"]
    vectors[1] = ["0", "1", "0", "0", "0", "0"]  # t: moved by the stabilizer
    path = tmp_path / "bad.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"  - {problem}" in captured.err
    assert captured.out == ""


# one invocation of each subcommand, in the parser's order
SUBCOMMANDS = {
    "validate": ["validate", "qi"],
    "enumerate": ["enumerate", "qi"],
    "det-identity": ["det-identity", "qi"],
    "descend": ["descend", "qi", "--n", "0"],
    "verify": ["verify", "commuting", "qi"],
    "assoc-order": ["assoc-order", "qi", "--n", "0", "--ideal", "OL"],
    "freeness": ["freeness", "qi", "--n", "0", "--ideal", "OL"],
    "theorem11": ["theorem11", "qi", "--ideal", "OL"],
    "suite": ["suite", "qi"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_internal_error_has_its_own_exit_code(capsys, monkeypatch, command):
    # main looks each handler up when it runs: the patched cmd_<command> is
    # the one run, on the fixture, the parsed arguments and the report
    from hopfgalois.fixtures import Fixture
    calls = []

    def broken(*args):
        calls.append(args)
        raise RuntimeError("planted")
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), broken)
    code = main(SUBCOMMANDS[command])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError: planted\n")
    [(fx, args, report)] = calls
    assert isinstance(fx, Fixture) and fx.name == "qi"
    assert isinstance(args, argparse.Namespace) and args.command == command
    assert isinstance(report, cli.Report) and report.checks == []


@pytest.mark.parametrize("argv", [
    ["freeness", "qi", "--n", "0", "--ideal", "OL"],
    ["theorem11", "qi", "--ideal", "OL"],
    ["suite", "qi"]], ids=lambda argv: argv[0])
def test_a_negative_bound_is_a_usage_error(capsys, argv):
    code = main(argv + ["--bound", "-1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --bound: must be at least 0, got -1\n")
    # bound 0 is the empty box: a search in it finds nothing
    code, out = run(capsys, "--json", *argv, "--bound", "0")
    assert code == cli.EXIT_UNKNOWN
    assert '"bound": 0' in out


def test_descend_emits_basis_and_matrices(capsys):
    code, out = run(capsys, "descend", "qi", "--n", "0")
    assert code == 0
    assert "action_matrices" in out
    assert "basis" in out


def test_verify_subcommands(capsys):
    for prop in ("commuting", "hopf-galois", "separable"):
        code, out = run(capsys, "verify", prop, "qzeta3")
        assert code == 0, (prop, out)


def test_the_command_and_property_tables_drive_parser_and_suite():
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(SUBCOMMANDS)
    [prop] = [a for a in commands.choices["verify"]._actions
              if a.dest == "property"]
    assert prop.choices == sorted(cli.VERIFY) == [
        "commuting", "generators", "hopf-galois", "separable"]
    assert list(cli.VERIFY) == [
        "hopf-galois", "separable", "commuting", "generators"]


def test_verify_reports_what_the_suite_reports(capsys):
    # generators draws its samples after the suite's det-specialization
    # points, so only the other three properties match record for record
    _, out = run(capsys, "--json", "suite", "s3sextic")
    suite = json.loads(out)["checks"]
    for prop in ("hopf-galois", "separable", "commuting"):
        code, out = run(capsys, "--json", "verify", prop, "s3sextic")
        checks = json.loads(out)["checks"]
        assert code == 0 and checks
        assert checks == [c for c in suite
                          if c["name"].startswith(prop + "[")]


def test_validate_checks_the_assertions(capsys):
    code, out = run(capsys, "--json", "validate", "d4")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert code == 0
    assert names == ["descriptor-valid", "assertion:center_order",
                     "assertion:coset_count",
                     "assertion:nontrivial_proper_normal_orders",
                     "assertion:structure_count"]


def test_every_assertion_the_parser_accepts_is_computed_by_validate(
        tmp_path, capsys):
    from hopfgalois.fixtures import _ASSERTED
    from hopfgalois.fixtures import _LISTED
    doc = _c4quartic_descriptor()
    # well-formed values that no fixture has: counts past the group order
    doc["assertions"] = {key: {"value": [99] if key in _LISTED else 99}
                         for key in _ASSERTED}
    path = tmp_path / "asserted.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "--json", "validate", str(path))
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    for key in _ASSERTED:
        check = checks[f"assertion:{key}"]
        assert check["verdict"] == "FAIL"
        assert check["details"]["actual"] is not None
    doc["assertions"] = {"unknown_key": {"value": 1}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "assertions.unknown_key: unknown assertion" in \
        captured.out + captured.err


def test_commands_leave_no_package_function_in_a_reference_cycle(capsys):
    # a nested function that calls itself is a cycle through its closure:
    # the collector, not reference counting, frees it and all it holds
    import gc
    import types
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in (["freeness", "s3sextic", "--n", "0", "--ideal", "OL"],
                     ["enumerate", "metacyclic21"], ["suite", "c4quartic"]):
            main(argv)
        gc.collect()
        cyclic = sorted({f"{f.__module__}.{f.__qualname__}" for f in gc.garbage
                         if isinstance(f, types.FunctionType)
                         and f.__module__.startswith("hopfgalois")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic == []


def test_assoc_order_prints_hnf_with_denominator(capsys):
    code, out = run(capsys, "assoc-order", "qi", "--n", "0", "--ideal", "OL")
    assert code == 0
    assert "denominator: 2" in out
    assert "[[1, 1], [0, 2]]" in out


def test_freeness_unknown_exit_code(capsys):
    code, out = run(capsys, "freeness", "qzeta3", "--n", "0", "--ideal", "OL",
                    "--bound", "0")
    assert code == 3
    assert "UNKNOWN" in out


def test_freeness_found(capsys):
    code, out = run(capsys, "freeness", "qzeta3", "--n", "0", "--ideal", "OL")
    assert code == 0
    assert "FREE" in out


def test_theorem11_quadratic(capsys):
    code, out = run(capsys, "theorem11", "qi", "--ideal", "OL")
    assert code == 0
    assert "witness-transfer" in out


def test_theorem11_with_the_reduction_prime_in_the_ideal_scale(
        tmp_path, capsys, monkeypatch):
    # (1/p) O_L for qi's reduction prime p: the certificate's witness has
    # coordinates over p, and its generator sample is taken on their
    # integer numerators, those of the witness on O_L, so it has the same
    # residues; the verdicts and the witness are those on O_L
    from hopfgalois import integral
    p = load_bundled("qi").context.field.reduction_root()[0]
    assert p == 10009
    doc = json.loads(bundled_path("qi").read_text(encoding="utf-8"))
    doc["ideals"]["P"] = [[f"1/{p}", "0"], ["0", f"1/{p}"]]
    path = tmp_path / "qi_over_p.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    samples = []
    sample_of = integral.generator_sample

    def recording(*args):
        samples.append(sample_of(*args))
        return samples[-1]
    monkeypatch.setattr(integral, "generator_sample", recording)
    reports, sampled = {}, {}
    for ideal in ("OL", "P"):
        samples.clear()
        code, out = run(capsys, "--json", "theorem11", str(path),
                        "--ideal", ideal)
        reports[ideal] = code, [
            (c["name"].replace(f"[{ideal}]", ""), c["verdict"],
             c.get("details")) for c in json.loads(out)["checks"]]
        sampled[ideal] = [(s.coords, s.residues) for s in samples]
    assert reports["P"] == reports["OL"]
    code, checks = reports["OL"]
    assert code == 0 and {verdict for _, verdict, _ in checks} == {"PASS"}
    assert [d["witness"] for _, _, d in checks if d] == ["[-1, -1]"] * 2
    assert len(sampled["OL"]) == 1 and sampled["P"] == sampled["OL"]


def test_suite_group_only_fixture(capsys):
    code, out = run(capsys, "suite", "metacyclic21", "--quiet")
    assert code == 0
    assert "0 fail" in out


# A4 on the six cosets of <(01)(23)>: no regular subgroup of Perm(X) is
# normalized by lambda(G), so the descriptor has no structure
A4_COSETS = {"name": "a4cosets", "group": {"order": 12, "generators": {
    "s": [1, 2, 0, 3], "t": [1, 0, 3, 2]}}, "subgroup": {"generators": ["t"]}}


def test_a_fixture_without_structures_passes_its_group_checks(tmp_path,
                                                              capsys):
    path = tmp_path / "a4cosets.hgx"
    path.write_text(json.dumps(A4_COSETS), encoding="utf-8")
    for command in ("validate", "enumerate", "suite"):
        code, out = run(capsys, "--json", command, str(path))
        checks = json.loads(out)["checks"]
        assert code == 0, command
        assert [c["name"] for c in checks] == \
            (["descriptor-valid"] if command == "validate" else []), command


@pytest.mark.parametrize("name", ["qi", "qcbrt2"])
def test_a_field_fixture_without_structures_runs_no_freeness_check(
        tmp_path, capsys, monkeypatch, name):
    # a field whose Galois closure has no Hopf-Galois structure on it (A4 on
    # six cosets needs a degree-12 closure): a bundled field with its
    # structures taken away
    doc = json.loads(bundled_path(name).read_text(encoding="utf-8"))
    del doc["assertions"]["structure_count"]
    path = tmp_path / f"{name}.hgx"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(cli.Fixture, "structures", lambda self: [])
    code, out = run(capsys, "--json", "suite", str(path))
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert code == 0
    assert names and not any(n.startswith(("assoc-order", "theorem11"))
                             for n in names)
    code = main(["theorem11", str(path), "--ideal", "OL"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == \
        f"error: fixture {name!r} has 0 structure(s); theorem11 needs one\n"


def test_suite_deterministic_json(capsys):
    code1, out1 = run(capsys, "suite", "qzeta3", "--json", "--seed", "7")
    code2, out2 = run(capsys, "suite", "qzeta3", "--json", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_changes_are_reflected_in_the_report(capsys):
    _, out1 = run(capsys, "suite", "qi", "--json", "--seed", "1")
    payload = json.loads(out1)
    assert payload["seed"] == 1


def test_missing_field_block_is_an_error(capsys):
    code, _ = run(capsys, "verify", "separable", "metacyclic21")
    assert code == 2
