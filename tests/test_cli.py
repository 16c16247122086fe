import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kromatic
from kromatic import BUNDLED_GRAPHS, BUNDLED_MODELS, bundled_graph, core
from kromatic.cli import (build_checks, main, make_parser, positive_int,
                          rational)
from kromatic.numbers import QPoly
from kromatic.symfunc import Expansion, SymPoly, basis_element

from helpers import clear_caches, twice

GOLDEN_K2 = {
    (2,): "-1", (1, 1): "1",
    (3,): "2", (2, 1): "-2",
    (4,): "-4", (3, 1): "4", (2, 2): "1", (2, 1, 1): "-1",
    (5,): "6", (4, 1): "-8", (3, 2): "-2", (3, 1, 1): "2", (2, 2, 1): "2",
}


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_expand_golden_table(capsys):
    rc, data = run_json(capsys, ["expand", "--graph", "k2", "--basis",
                                 "pbar", "--degree", "5"])
    assert rc == 0
    assert data["basis"] == "pbar" and data["N"] == 5 and data["M"] == 5
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    assert got == GOLDEN_K2


def test_expand_deterministic(capsys):
    argv = ["expand", "--graph", "p3", "--degree", "4"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_expand_jobs_flag_does_not_change_output(capsys):
    main(["expand", "--graph", "p3", "--degree", "4"])
    base = capsys.readouterr().out
    main(["expand", "--graph", "p3", "--degree", "4", "--jobs", "4"])
    assert capsys.readouterr().out == base


def test_expand_omega_p_basis(capsys):
    rc, data = run_json(capsys, ["expand", "--graph", "k2", "--basis", "p",
                                 "--omega", "--degree", "2"])
    assert rc == 0
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    # omega image, classical p-basis: lowest slice is the h-positive side
    assert got == {(1, 1): "1", (2,): "1"}


def test_qexpand_model(capsys):
    rc, data = run_json(capsys, ["qexpand", "--model", "ui-k2", "--basis",
                                 "pbarprime", "--degree", "4"])
    assert rc == 0
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    assert got[(2,)] == ["-1/2", "-1/2"]  # -(1+q)/2, exact
    assert got[(1, 1)] == ["1/2", "1/2"]


def test_qexpand_q_specialization(capsys):
    rc, data = run_json(capsys, ["qexpand", "--model", "ui-k2", "--basis",
                                 "pbar", "--omega", "--degree", "3",
                                 "--q", "1"])
    assert rc == 0
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    # at q=1 these are the distinct-cover counts; zero terms are dropped
    assert got == {(2,): "1", (1, 1): "1", (3,): "2", (2, 1): "4"}


@pytest.mark.parametrize("model", BUNDLED_MODELS)
@pytest.mark.parametrize("options", [(), ("--basis", "pbar", "--omega")])
def test_qexpand_model_and_graph_give_the_same_series(capsys, model,
                                                      options):
    # each bundled model ui-x is the bundled graph x under the same labels
    rc, by_model = run_json(capsys, ["qexpand", "--model", model,
                                     "--degree", "5", *options])
    assert rc == 0
    rc, by_graph = run_json(capsys, ["qexpand", "--graph", model[3:],
                                     "--degree", "5", *options])
    assert rc == 0
    assert by_model["graph"] == model
    assert {**by_graph, "graph": model} == by_model


def test_qexpand_rejects_non_unit_interval(capsys):
    with pytest.raises(SystemExit) as e:
        main(["qexpand", "--graph", "c4", "--degree", "4"])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: graph C4 has no natural unit-interval model; "
        "its q-refined series is not symmetric\n")


def test_lyndon_words(capsys):
    rc, data = run_json(capsys, ["lyndon", "--graph", "k2", "--degree", "5"])
    assert rc == 0
    assert data["counts"] == {"1": 2, "2": 1, "3": 2, "4": 3, "5": 6}
    assert len(data["words"]["5"]) == 6
    assert data["words"]["2"] == ["12"]


@pytest.mark.parametrize("graph, degree, digest", [
    ("paw", 7,
     "55816d8041ca505de0b93d0b8754d408c23600b1c712b3e0a2627ea1a2848ec0"),
    ("c4", 6,
     "55448474d43108855cc1d7d072927c8925c265cd45d076579b4b6cfc5842d739"),
    ("paw", 8,
     "8330ecc20866b4f865e315b4b774ae85f86779471d19ba49670c5f9128fabea4"),
    ("k1", 8,
     "ba3f099a85a6e4954933bbc868dc4933f680e6ca0402b32bad9fdc165d279e29"),
    ("k2", 8,
     "d3652699debaaae2f66a880d5e297d4ca8498965097dcced31df76185f6edfeb"),
    ("k3", 8,
     "9bd27e06a5d4852fd746c605e9b7c233bde46451f49b8267c138bdbce3b792a2"),
    ("p3", 8,
     "7c1ece3606d9739ef507a48fa0473b53e88c86609defa507a62f7741e5fd3a58"),
    ("p4", 8,
     "f982e73a3086cb0df5325e7762d2068a850fe168a6013972af617776c9a23983"),
    ("c4", 8,
     "27e46b1fe1b80e6e8a27b71562aee4653707936fd05b108d59e3f80f726cd725"),
])
def test_lyndon_stdout_digest(capsys, graph, degree, digest):
    # sha256 of the full stdout (counts and every canonical word), recorded
    # from filters over all heaps: the per-pyramid is_lyndon filter for paw
    # and c4 at degree 6-8, the Lyndon word test on each pyramid for the rest
    assert main(["lyndon", "--graph", graph, "--degree", str(degree)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full stdout of every expand job at degree 8 (bundled graph x
# basis x direct/--omega) and every qexpand job at degree 5 (bundled model x
# basis x direct/--omega), recorded from the monomial-basis implementation.
EXPAND_DIGESTS = dict([
    ("k1 p", "424efe112cc22645ae60c7b3cca6cdf6c565f7c87d6bbb2c02f926a4085539a9"),
    ("k1 p --omega", "08f9d200cc4a8ee7cd5fc4b50d4db77a1b6b9b1e2fd4e9ce9b41df0f7f539cfb"),
    ("k1 pbar", "b8e4f5b5337ea34b1b5399ca80ceef4b195e3b151b23c7676a71e2175257a4c0"),
    ("k1 pbar --omega", "5a8db043cfe6b774e2f49a98dd9a1f9ba578ef0b80a7a2dde8ab9ec4154128ae"),
    ("k1 pbarprime", "358fbd7b8e96636fcdee226f2b658e8117003b2f53c62b229cde090054795aac"),
    ("k1 pbarprime --omega", "c8e500b8eaead4b04e6d76c2f6e0b52a6630a91bf948dbb10a186a6ef76f7708"),
    ("k2 p", "77341511cc5b20f196b956fa1d52b407d595c818280e963d0b90a2556f346b62"),
    ("k2 p --omega", "2c55bf3122f7deac4ebe4d5edf8a97914202cb53aba584597885441a87b94aa1"),
    ("k2 pbar", "1fae4910fb7506e2ffbcfd7411645879c493618a08611dea16575bc15557a569"),
    ("k2 pbar --omega", "815e74e6e879d389d52fd25cc30dc01a201f77003b47c2af3910516c0a0fefff"),
    ("k2 pbarprime", "8f53b9433c784cd0a556ab198c5feb35439cac746ca56d66fb0499e1b5354131"),
    ("k2 pbarprime --omega", "4cbe5993bdbf5f4c25de6a1cef551e0d9e24f4f5ea4eeb037466b27d01296069"),
    ("k3 p", "4410bf718d8537c63b683ed322f2c5514f54128e012632436bfa87a2eacceb22"),
    ("k3 p --omega", "44a6b0457280662447f8356440127f63091c751aaf326f2d9ae681a491a5fd16"),
    ("k3 pbar", "7688e088cdf1540956a0680dcfaae3e0b341f6b580023e6c8631fc768c6b8128"),
    ("k3 pbar --omega", "0a2bc67dde1f1b432b8568c401ee386c43065a3a63131d2b035f303805604a9c"),
    ("k3 pbarprime", "67fb20e4ef44af5b506baa1039e8457b1991f49d0a40be6a217160093fa30581"),
    ("k3 pbarprime --omega", "23e3d2895309816bcba9c4fea9e5b7526b12a74b20ff8b6ed10e26b92390dd33"),
    ("p3 p", "519ee0a53963f132e75dbd7bb0091133f0ee0d1317ef7b1f8f9c16d7d3379b62"),
    ("p3 p --omega", "37a4b107d66d054025bf9717664e82f2f76993956c46f427e445ece1e4ad8248"),
    ("p3 pbar", "9b87f80bbc9bde96403b4046ac8f8ccf9045931869f9e512810d6df0b0baf57a"),
    ("p3 pbar --omega", "4af850ba132537c8d86453c91f3defe8d1d7ecea36d9316bced08fbb43833360"),
    ("p3 pbarprime", "797118d557e385b366d39fbe8ee0697d55dbbcf4e254c3aa9157c5c0830e0589"),
    ("p3 pbarprime --omega", "eda03008d7686a48f63916fb7936592797b2839feb0255b91407d61e54d09871"),
    ("p4 p", "a1ec3fecd5e02d7dd9c906db5122b72d84e4ac8d5e23b123995c63adb6474cef"),
    ("p4 p --omega", "6fcc9d992b8fd05f96877668364cbcdc4bd77878fd9e1078a3d45fa97eb49c09"),
    ("p4 pbar", "90f22e190ab640ff1444082c5feb2ceb8999d47ea5a7148ccf6ad3a9b51228dc"),
    ("p4 pbar --omega", "e844087547764c42a21ba5e708ba2c3963767276c34c725cd78676b5279f2c08"),
    ("p4 pbarprime", "59ec624a23de17bf2f562be4ed3bc652d7850855200a5a5f043de67a6d7f2dc8"),
    ("p4 pbarprime --omega", "fc13a12cb81bb958b534c7c8662e1c3c586e2ed7027eb6ba9d4e69eafcf1df77"),
    ("c4 p", "7bc65e1c36d9aae61225be7ce0b1e5553f27ed0d4aa84cfdbb2a8d3f25d5b63c"),
    ("c4 p --omega", "c75e11dc2ffb1d8877e2ca85a38c6c328bd826b973af1bbe63e06ec4cf2d9f68"),
    ("c4 pbar", "7efdc256b39a662e71de4b675956c669a10396e50ef7dad0b8be144d8260cb3d"),
    ("c4 pbar --omega", "c9ab3fa932847c2329d7067c3cdbf9fc113322d16e1a0fa60c93622646c19946"),
    ("c4 pbarprime", "64286bdfda44a8e53e312f399ee81330a6681d81c0f431279db2155da2fc811a"),
    ("c4 pbarprime --omega", "7fd2ce82f9023224f602617ab8cff0ed64da2ced05acfabf4ffaefa742de10a9"),
    ("paw p", "9e67c48fe689d60635350cc2b7567f95d5b882a2be0a5e60e9cebed43cef8027"),
    ("paw p --omega", "a8b445ef1d4783944f9359f24ad68ad2eea7f605cf2981c0b980ebd909885912"),
    ("paw pbar", "fc41c766fbf464799b70d5257b88a24f5d30c3dd032b74bbe502d51f3ee48704"),
    ("paw pbar --omega", "49aac37a88511a8b50e328b4195671fb0f20b9653350ee5e18de3b1f4346361e"),
    ("paw pbarprime", "9ad7523fc6d76e14c40ba1dddfb98ba434e18f485f0497728d44563e40e391c6"),
    ("paw pbarprime --omega", "accfc6a159f9fd3b5d801feb012ef6b7130be43f0b05a651a5e8287ecffa0b93"),
])

QEXPAND_DIGESTS = dict([
    ("ui-k2 p", "cdf078ec806868fcb341c69ae48246cbfd6c82cfcd02b05d33880d4257f87766"),
    ("ui-k2 p --omega", "5647a0aecd2e70d016d506e4544c6ec7d3af5fc8c5d37f44b9863350e66212e0"),
    ("ui-k2 pbar", "0b3d8c4ded5f69fb2b641bd9f6ca61b1333c7ec44ec10241f14f871965510f5f"),
    ("ui-k2 pbar --omega", "0ecda6d57334e33c2c4b7a5cf33c060a9bfbabf42806d1b69479cbcdcd020c4c"),
    ("ui-k2 pbarprime", "27183216b3f247dde81bb2841d0854ec059d4c9067855da63f1e7302a06fdec7"),
    ("ui-k2 pbarprime --omega", "912e43301e839b4efff7011283eba0eead3af419503a98226ccbc1d1bc6509ab"),
    ("ui-k3 p", "638e956754cb0234927e69b348ee60a338c7671283b39d716101501d14504f27"),
    ("ui-k3 p --omega", "44d165dfeb96332aa091b4df9142d32390814e7f8f625b7388731d87a9971395"),
    ("ui-k3 pbar", "fd84ad4f0913d5f2ab3b06e1a3e74e59eacd45998a764111f06e6afad7c11b2c"),
    ("ui-k3 pbar --omega", "da00e19b9ad9cad9a87a00cac708483fad6325bae8d0feb43ea80db9be71372f"),
    ("ui-k3 pbarprime", "86b4ae163bbd95b6cdb16cc47cb840bc8eb8864ca4a5ebb15a16cc8e193b36f0"),
    ("ui-k3 pbarprime --omega", "f188b7417edaa08461c9b485b43f7654350b1364245688b5cae1de24ac6fd39c"),
    ("ui-p3 p", "2c43e61f77a42985af2ec9a4d29b57f7697c02bc970991f2606937074f7a2b6e"),
    ("ui-p3 p --omega", "9c2592d58419b218d2accbcd8bdf97d9eca31519edc0c5f38b1fca0aa0e980a3"),
    ("ui-p3 pbar", "20247f1f01be6287da4556bf13443702d33fc2c4f11409233f3f194278d4e714"),
    ("ui-p3 pbar --omega", "b0950ddfdb23f2e7ddf9178460e46f921c72fd34dd4a3cdb15f762c2ba3b38bc"),
    ("ui-p3 pbarprime", "1425ede4fa912c36cd8e7a49ada4700bad8dba070543c74ada4d5e7ae7c11cfc"),
    ("ui-p3 pbarprime --omega", "1b59c420d66b5ff253629543c8f70ef83b4c5cb9c140b95d4224a32e9e76001e"),
    ("ui-p4 p", "251e99e9a83c5a55b05727e89f36822c8f3876c9bdf8cfed7444807ed54a70fc"),
    ("ui-p4 p --omega", "8e67b3f98c1a85ca860d4f7034040b4a7fe5643d3436c0f393482e6250072ad1"),
    ("ui-p4 pbar", "dfb63d90484757f81d0880b166db593cf0912a4d39d4883924f16c9408ed9e7a"),
    ("ui-p4 pbar --omega", "1cf288f3c564e52b1461dba54802d222b7298c82cc4d2835c2c7608417741bb9"),
    ("ui-p4 pbarprime", "ad238d0eb6b06f31fa0ca316aa7b778435066f97c4594022774cd7c969fc33b8"),
    ("ui-p4 pbarprime --omega", "ed54fbd30471b926071ae60bbdd214f9116319141b651a4d16d3c6609f4e859d"),
    ("ui-paw p", "034752cfb6e1996c984aac0a93530de596ccd5eab8686baf63391af4ce5cdade"),
    ("ui-paw p --omega", "c9e84722fee4c25a8ff05d12e41c908bd4235be23ffce0f2c0cb4c69035db855"),
    ("ui-paw pbar", "a1b68372626fa909c0b51a3e87a0e6dabaa43768dbd3722331337233f8481549"),
    ("ui-paw pbar --omega", "98293bd251591fc7c3d46da4032c23d6ceab6076b3ddbe1c77ddd76bb9b96caf"),
    ("ui-paw pbarprime", "9e3c3c461bdcc9eba79adb4eb3714cb17d9de228840bb8d2f611d42d5e86cd06"),
    ("ui-paw pbarprime --omega", "9a51fbad75fb0b0807a72c218d930c8fa598c6a649fad98075305cffee268d12"),
])

QEXPAND_Q1_DIGEST = \
    "b0d4b3f16c2bef17a7a7aa4a16550ec73e9a468ef52dc172122a3dba0fd8bccd"

# the same for q values whose expansions are not integral, recorded while
# every power-sum coefficient was still a Fraction
QEXPAND_NONINTEGRAL_DIGESTS = {
    ("ui-p3", "pbar", "--degree", "5", "--q", "1/3"):
        "3feec43398777e37b1b28638c4a01763781175c36f828d06718219ebd63b2123",
    ("ui-p4", "pbarprime", "--omega", "--degree", "5", "--q=-2/3"):
        "42bc549071fdecf765f36ae0b27613ac29a22e5b6d23820cb25559d0dfad63c0",
}


def _stdout_digest(capsys, argv):
    assert main(argv) == 0, argv
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _sweep(capsys, mode, flag, names, degree):
    got = {}
    for name in names:
        for basis in ("p", "pbar", "pbarprime"):
            for omega in ((), ("--omega",)):
                key = " ".join((name, basis) + omega)
                got[key] = _stdout_digest(
                    capsys, [mode, flag, name, "--basis", basis, *omega,
                             "--degree", str(degree)])
    return got


def test_expand_stdout_digests(capsys):
    assert _sweep(capsys, "expand", "--graph", BUNDLED_GRAPHS, 8) == \
        EXPAND_DIGESTS


# sha256 of the stdout of two expand jobs at high degree, recorded while
# expand still extracted by peeling products of basis elements
EXPAND_HIGH_DEGREE_DIGESTS = {
    ("paw", "pbar", "--omega", "--degree", "18"):
        "b5ab480dcb36293b985b8a02f5db1ef06f88693ab5d90afa90f7fb754aea20c5",
    ("c4", "pbarprime", "--degree", "16"):
        "ef79e637b6244de8847efde045a14d6b652dda3f6e97bee705c7933184cf06e8",
}


def test_expand_stdout_digests_high_degree(capsys):
    for (graph, basis, *rest), digest in EXPAND_HIGH_DEGREE_DIGESTS.items():
        assert _stdout_digest(capsys, [
            "expand", "--graph", graph, "--basis", basis, *rest]) == digest


def _refuse_heap_layer(monkeypatch, mode):
    """Make every heap-layer function that a kromatic module holds raise,
    and empty the caches that could answer for it."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{mode} called the heap layer")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "kromatic":
            for attr, f in list(vars(module).items()):
                if callable(f) and getattr(f, "__module__", None) == \
                        "kromatic.heaps":
                    monkeypatch.setattr(module, attr, refuse)
    clear_caches()


def test_expand_stays_off_heaps_and_builds_no_basis_element(capsys,
                                                            monkeypatch):
    # nor does it multiply series or list the partitions in core: one
    # family_sums walk gives every coefficient
    import kromatic.symfunc as symfunc
    _refuse_heap_layer(monkeypatch, "expand")

    def refuse(*args, **kwargs):
        raise AssertionError("expand did SymPoly arithmetic, built a basis "
                             "element or listed partitions in core")

    monkeypatch.setattr(SymPoly, "__mul__", refuse)
    monkeypatch.setattr(symfunc, "basis_element", refuse)
    monkeypatch.setattr(core, "partitions_up_to", refuse, raising=False)
    for basis in ("p", "pbar", "pbarprime"):
        for omega in ((), ("--omega",)):
            assert main(["expand", "--graph", "paw", "--basis", basis,
                         *omega, "--degree", "9"]) == 0
    capsys.readouterr()
    assert basis_element.cache_info().misses == 0


def test_qexpand_stays_off_heaps(capsys, monkeypatch):
    # qexpand goes through the transfer matrix over colors; pyramids enter
    # only the pyramid-expansion-* and prop-* checks of verify
    _refuse_heap_layer(monkeypatch, "qexpand")
    for model in BUNDLED_MODELS:
        for basis in ("p", "pbar", "pbarprime"):
            assert main(["qexpand", "--model", model, "--basis", basis,
                         "--omega", "--degree", "6"]) == 0
    capsys.readouterr()


def test_qexpand_does_no_qpoly_arithmetic(capsys, monkeypatch):
    # both q peels run on packed ints, decoded once into QPolys: no QPoly
    # is added or multiplied, in the monomial conversion or the extraction
    def refuse(*args):
        raise AssertionError("qexpand added or multiplied QPolys")

    for op in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(QPoly, op, refuse)
    clear_caches()
    for model in BUNDLED_MODELS:
        for basis in ("p", "pbar", "pbarprime"):
            for omega in ((), ("--omega",)):
                assert main(["qexpand", "--model", model, "--basis", basis,
                             *omega, "--degree", "8"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("shrunk", [0, 1], ids=["monomials", "extraction"])
def test_qexpand_refuses_a_too_small_bound(capsys, monkeypatch, shrunk):
    # the decode refuses a q-coefficient above the bound, so a bound that
    # is wrong ends the run with the error and no expansion.  At this degree
    # the largest output coefficient has 43 bits in the monomial conversion
    # and 72 in the extraction, and their bounds 69 and 79 bits; 32 bits
    # less is too small for both
    import kromatic.symfunc as symfunc
    bound, calls = symfunc._peel_bound, []

    def small(*args):
        calls.append(bound(*args))
        return calls[-1] >> 32 if len(calls) == shrunk + 1 else calls[-1]

    monkeypatch.setattr(symfunc, "_peel_bound", small)
    assert main(["qexpand", "--model", "ui-paw", "--basis", "pbar",
                 "--degree", "12"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceeds its bound" in err
    assert len(calls) == shrunk + 1


def test_qexpand_stdout_digests(capsys):
    assert _sweep(capsys, "qexpand", "--model", BUNDLED_MODELS, 5) == \
        QEXPAND_DIGESTS
    assert _stdout_digest(capsys, [
        "qexpand", "--model", "ui-p3", "--basis", "pbar", "--omega",
        "--degree", "5", "--q", "1"]) == QEXPAND_Q1_DIGEST
    for (model, basis, *rest), digest in QEXPAND_NONINTEGRAL_DIGESTS.items():
        assert _stdout_digest(capsys, [
            "qexpand", "--model", model, "--basis", basis, *rest]) == digest


# sha256 of the stdout of two qexpand jobs at high degree, recorded while
# both q peels still ran on QPoly values
QEXPAND_HIGH_DEGREE_DIGESTS = {
    ("ui-paw", "pbar", "--degree", "14"):
        "286f7be60cffb1eebf4ee1ffd0fa4c7ce23da1a38b95166ef193357a3ca0a25c",
    ("ui-paw", "pbarprime", "--omega", "--degree", "14"):
        "34f586709e531f7583c91c9b5184b8e0acf102e6cec665f69a2ba3d91fbe4401",
}


def test_qexpand_stdout_digests_high_degree(capsys):
    for (model, basis, *rest), digest in QEXPAND_HIGH_DEGREE_DIGESTS.items():
        assert _stdout_digest(capsys, [
            "qexpand", "--model", model, "--basis", basis, *rest]) == digest


def test_qexpand_negative_q_needs_equals_sign(capsys):
    # argparse reads "-2/3" after a space as an option, not as the value
    assert main(["qexpand", "--model", "ui-k2", "--degree", "3",
                 "--q=-2/3"]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == "-2/3"
    with pytest.raises(SystemExit) as e:
        main(["qexpand", "--model", "ui-k2", "--degree", "3", "--q", "-2/3"])
    assert e.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_verify_stdout_digest(capsys):
    # sha256 of the full stdout of `verify --suite all --degree 5` (683 PASS
    # lines and the summary), recorded before the signed subset sums were
    # merged into one helper
    assert _stdout_digest(capsys, ["verify", "--suite", "all",
                                   "--degree", "5"]) == \
        "b5111498f92d33ed2817c5690eaa7d20cdf69a8a494f15ea8647b30491f37858"


def test_verify_stdout_digest_degree_6(capsys):
    # the same at degree 6 (991 PASS lines), recorded before the q layer was
    # cut down to one coloring walker
    assert _stdout_digest(capsys, ["verify", "--suite", "all",
                                   "--degree", "6"]) == \
        "fdcf0a97a6d7ade4dcb2d5d7ee7a687d1dce9d5a30b5f61734c981c76a5173b7"


def test_verify_stdout_digest_degree_8(capsys):
    # the same at degree 8 (2027 PASS lines), recorded while Lyndon heaps
    # were still found by sweeping rotation classes
    assert _stdout_digest(capsys, ["verify", "--suite", "all",
                                   "--degree", "8"]) == \
        "4a7b69df622e702af10f093933505a8870d48fed3febb58abe2af5df523cfcfb"


def test_verify_stdout_digest_degree_9(capsys):
    # the same at degree 9 (2867 PASS lines), recorded while the theorem
    # counts still enumerated every product of heap selections
    assert _stdout_digest(capsys, ["verify", "--suite", "all",
                                   "--degree", "9"]) == \
        "45ecb7ac7480f2bac40cd6b1ef40cfae493e1bdacda7d2f8dbea56be6fb07a6c"


def test_verify_stdout_digest_degree_10(capsys):
    # the same at degree 10 (4043 PASS lines), recorded while independence
    # polynomials were still counted over a walk of the independent sets
    assert _stdout_digest(capsys, ["verify", "--suite", "all",
                                   "--degree", "10"]) == \
        "932da0e482a6990e7919c3e759733f8b4a1de387af8f9177888d15bbc0e8d9e4"


def test_independence_dump(capsys):
    rc, data = run_json(capsys, ["independence", "--graph", "k2"])
    assert rc == 0
    assert [e["independence"] for e in data["entries"]] == \
        [[1], [1, 1], [1, 1], [1, 2]]
    assert [e["size"] for e in data["entries"]] == [0, 1, 1, 2]


INDEPENDENCE_DIGESTS = {
    "k1": "754f96ef868febe91c5de74f4ab0b98070e583846e5844589019fde3cfacdccb",
    "k2": "8e6d322b1281acbd29b5e3539048ab11d12b902c20f82b3deb6d519035cc028a",
    "k3": "9ec717dd56055e0b0b1867f932aaaec501273be1cb5642089292dbfcf78b7ff0",
    "p3": "ed48856f5475295316e441f45b2c877f1099cd2e8aacd665d0fe30703277d66f",
    "p4": "8ac990e4b90cec6962c7327a36946cb295c640d941d1ae3a34b854a7e2c1e942",
    "c4": "0993a35bdc4a2c9fb1c066d3fc3770c8ea310dd54f44706d38ee7e54d31ce5d9",
    "paw": "5e26b2aa9c86269ea5f8297d01ea9c110743d279f191d0be8e699fd2461f4e4f",
}


def test_independence_stdout_digests(capsys):
    # sha256 of the full stdout of `independence --graph <g>` for every
    # bundled graph, recorded while the multiset was a class with its own n
    got = {g: _stdout_digest(capsys, ["independence", "--graph", g])
           for g in BUNDLED_GRAPHS}
    assert got == INDEPENDENCE_DIGESTS


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "exp.json"
    rc = main(["expand", "--graph", "k2", "--degree", "3",
               "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    main(["expand", "--graph", "k2", "--degree", "3"])
    assert target.read_text() == capsys.readouterr().out


def run_fresh(args, **kwargs):
    """Run `python args` in a fresh interpreter that imports kromatic from
    this tree and writes no bytecode into it."""
    env = dict(os.environ, PYTHONPATH=str(Path(kromatic.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], env=env, timeout=120,
                          **kwargs)


def test_main_freezes_the_heap_and_loses_nothing_at_exit(tmp_path):
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    argv = ["expand", "--graph", "paw", "--basis", "pbar", "--degree", "6"]
    script = ("import gc, sys\n"
              "from kromatic.cli import main\n"
              f"code = main({[*argv, '--out', str(fresh)]!r})\n"
              "print(gc.get_freeze_count())\n"
              "sys.exit(code)\n")
    run = run_fresh(["-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) > 0
    assert main([*argv, "--out", str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


def test_closed_stdout_exits_one_without_usage():
    # the reader is gone before the child writes, as in `kromatic ... | head`
    read, write = os.pipe()
    os.close(read)
    try:
        run = run_fresh(["-m", "kromatic.cli", "verify", "--suite",
                         "numbers"], stdout=write, stderr=subprocess.PIPE,
                        text=True)
    finally:
        os.close(write)
    assert run.returncode == 1
    assert run.stderr == ""


def test_custom_graph_file(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
    rc, data = run_json(capsys, ["expand", "--graph", str(path),
                                 "--degree", "3"])
    assert rc == 0
    assert data["graph"] == "edge"
    got = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    assert got[(2,)] == "-1" and got[(3,)] == "2"


def test_malformed_input_file_exits_two(tmp_path, capsys):
    graph = tmp_path / "bad-graph.json"
    graph.write_text(json.dumps({"n": 2, "edges": [[1, "2"]]}))
    assert main(["expand", "--graph", str(graph), "--degree", "3"]) == 2
    model = tmp_path / "bad-model.json"
    model.write_text(json.dumps({"n": 2, "bounds": [2, "2"]}))
    assert main(["qexpand", "--model", str(model), "--degree", "3"]) == 2
    # a vertex count too large to index a list
    huge = tmp_path / "huge-graph.json"
    huge.write_text(json.dumps({"n": 10 ** 20, "edges": []}))
    assert main(["expand", "--graph", str(huge), "--degree", "3"]) == 2
    # one that fits an index but is refused by list repetition before any
    # memory is allocated
    huge.write_text(json.dumps({"n": sys.maxsize // 4, "edges": []}))
    assert main(["expand", "--graph", str(huge), "--degree", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: vertex count") == 2
    assert "must be an integer" in err
    assert "vertex count" in err


def test_internal_key_error_is_not_a_configuration_error(monkeypatch):
    # exit code 2 is for bad configuration, which raises ValueError only;
    # a KeyError from inside the computation is a fault and propagates
    import kromatic.cli as cli

    def broken(g):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "independence_multiset", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["expand", "--graph", "k2"])


@pytest.mark.parametrize("n, bounds, message", [
    (3, [3, 2, 3], "bounds must be nondecreasing"),
    (2, [0, 2], "bound h[1]=0 outside [1, 2]"),
    (2, [2], "bounds length must equal n"),
])
def test_invalid_model_bounds_exit_two(tmp_path, capsys, n, bounds, message):
    model = tmp_path / "bad-model.json"
    model.write_text(json.dumps({"n": n, "bounds": bounds}))
    assert main(["qexpand", "--model", str(model), "--degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("mode, option, obj, message", [
    ("expand", "--graph", {"n": -1, "edges": []},
     "vertex count must be nonnegative"),
    ("expand", "--graph", {"n": 2, "edges": {"1": 2}},
     "graph json 'edges' must be a list"),
    ("expand", "--graph", {"n": 3, "edges": [[1, 2, 3]]},
     "edge [1, 2, 3] must be a list of two vertices"),
    ("qexpand", "--model", {"n": 2},
     "model json must have keys 'n' and 'bounds'"),
    ("qexpand", "--model", {"n": 2, "bounds": 2},
     "model json 'bounds' must be a list"),
])
def test_malformed_json_shape_exits_two(tmp_path, capsys, mode, option, obj,
                                        message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main([mode, option, str(path), "--degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_graph_directory_exits_two(tmp_path, capsys):
    # a directory as the input graph, and one as the --out file
    for argv in (["verify", "--graph", str(tmp_path), "--suite", "heaps"],
                 ["expand", "--graph", "k2", "--degree", "3",
                  "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
        assert "cannot access file" in capsys.readouterr().err


def test_verify_numbers_suite(capsys):
    rc = main(["verify", "--suite", "numbers"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS dirichlet-inverse-64" in out
    assert out.strip().endswith("2/2 checks passed")


def test_omega_basis_check_sees_doubled_pbar_4(capsys, monkeypatch):
    # b_4^2 starts at degree 8, so a doubled pbar_4 is only seen there
    import kromatic.symfunc as symfunc
    element = symfunc.basis_element

    def wrong_pbar_4(basis, lam, N):
        F = element(basis, lam, N)
        return twice(F) if (basis, lam) == ("pbar", (4,)) else F

    monkeypatch.setattr(symfunc, "basis_element", wrong_pbar_4)
    assert main(["verify", "--suite", "numbers"]) == 1
    out = capsys.readouterr().out
    # a wrong value, and not a crash, is what the check sees
    assert "FAIL omega-basis-rules-k4 (AssertionError: " in out
    assert "PASS dirichlet-inverse-64" in out


def test_verify_single_graph_heaps(capsys):
    rc = main(["verify", "--graph", "k2", "--suite", "heaps", "--degree", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS rotation-example-P3-2311" in out
    assert "PASS lyndon-counts-K2" in out
    assert "PASS canonical-invariance-K2" in out


def test_verify_empty_graph_file(tmp_path, capsys):
    # no vertices: the pyramid expansion is the constant 1 and the only
    # word to canonicalize is the empty one
    graph = tmp_path / "empty.json"
    graph.write_text(json.dumps({"n": 0, "edges": []}))
    rc = main(["verify", "--graph", str(graph), "--suite", "all",
               "--degree", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("133/133 checks passed")


def test_verify_check_names_mirror_anchors(capsys):
    rc = main(["verify", "--graph", "k2", "--suite", "theorems",
               "--degree", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS thm-1.2-K2-lambda-41" in out
    assert "FAIL" not in out


def test_check_names_split_parts_of_ten_and_more():
    names = {name for _, name, _ in build_checks(
        [("K1", bundled_graph("k1"))], 11, "theorems")}
    assert "thm-1.2-K1-lambda-11" in names
    assert "thm-1.2-K1-lambda-10-1" in names


def test_verify_report_out(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(["verify", "--suite", "numbers", "--out", str(target)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(target.read_text())
    assert report["failed"] == 0 and report["passed"] == 2
    assert all(c["ok"] for c in report["checks"])


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    import kromatic.cli as cli

    def fake_checks(named, N, selection):
        return [("numbers", "always-true", lambda: True),
                ("numbers", "always-false", lambda: False),
                ("numbers", "raises", lambda: 1 / 0)]

    monkeypatch.setattr(cli, "build_checks", fake_checks)
    rc = main(["verify", "--suite", "numbers"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "PASS always-true" in out
    assert "FAIL always-false" in out
    assert "FAIL raises (ZeroDivisionError" in out
    assert "1/3 checks passed" in out


def test_verify_fail_lines_show_values(capsys, monkeypatch):
    import kromatic.cli as cli

    monkeypatch.setattr(cli, "theorem_coefficient", lambda g, lam, rule: 99)
    rc = main(["verify", "--graph", "k2", "--suite", "theorems",
               "--degree", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert ("FAIL thm-1.2-K2-lambda-2 (AssertionError: counted 99, "
            "subsets 1, extracted 1, expanded 1)") in out
    assert "0/12 checks passed" in out

    monkeypatch.setattr(cli, "power_sum_coefficient_q",
                        lambda g, lam, rule: 7)
    rc = main(["verify", "--graph", "k2", "--suite", "q", "--degree", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL prop-5.1-K2-lambda-1 (AssertionError: counted 7, " \
        "extracted " in out
    assert "PASS clans-vs-brute-K2" in out

    exponent = core.exponent
    monkeypatch.setattr(core, "exponent", lambda g, k, rule, support=None:
                        exponent(g, k, rule, support) + (k == 2))
    rc = main(["verify", "--graph", "k2", "--suite", "factorization",
               "--degree", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert ("FAIL claim-a-K2-N3 (AssertionError: factorization variant 'a' "
            "fails on Graph(n=2, edges=[(1, 2)]) at N=3: at t^2, the series "
            "gives e(2) = -1 but the Lyndon heap count gives 0)") in out


def test_thm_checks_hold_expand_to_the_counts(capsys, monkeypatch):
    # expand's own route is one side of every thm-* check
    import kromatic.cli as cli
    expansion = cli.kromatic_expansion

    def off_by_one(ms, N, image, basis):
        exp = expansion(ms, N, image, basis)
        return Expansion(basis, N, {**exp.coeffs, (2,): exp.coeff((2,)) + 1})

    monkeypatch.setattr(cli, "kromatic_expansion", off_by_one)
    rc = main(["verify", "--graph", "k2", "--suite", "theorems",
               "--degree", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert ("FAIL thm-1.2-K2-lambda-2 (AssertionError: counted 1, "
            "subsets 1, extracted 1, expanded 0)") in out
    assert "PASS thm-1.2-K2-lambda-11" in out


def test_multiset_roundtrip_fails_on_either_side(capsys, monkeypatch):
    # the brute-force set colorings and the independence multiset are two
    # routes: perturbing either one fails multiset-roundtrip-*
    import kromatic.cli as cli
    argv = ["verify", "--graph", "p3", "--suite", "recovery"]
    assert main(argv) == 0
    assert "PASS multiset-roundtrip-P3" in capsys.readouterr().out

    vectors, from_multiset = cli.kromatic_q_vectors, cli.kromatic_from_multiset

    def dropping(vec):
        # sympoly_from_vector_counts reads by complete orbits, so a missing
        # rearrangement fails as a missing nonincreasing vector does
        def fake(g, N, M):
            out = vectors(g, N, M)
            del out[vec]
            return out
        return fake

    def doubled(ms, N, image="direct"):
        return twice(from_multiset(ms, N, image))

    for name, fake in (("kromatic_q_vectors", dropping((2, 1, 1, 0))),
                       ("kromatic_q_vectors", dropping((0, 0, 1, 2))),
                       ("kromatic_from_multiset", doubled)):
        with monkeypatch.context() as m:
            m.setattr(cli, name, fake)
            rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 1, name
        assert "FAIL multiset-roundtrip-P3" in out, name
        # a wrong value, and not a crash of the fake, fails the check
        assert "(AttributeError" not in out and "(TypeError" not in out, name


def test_recover_k4_checks_build_no_partition(monkeypatch):
    # the k4 forward map and the peel work on multiplicity vectors: with
    # the partition walks and Expansion made to raise wherever the package
    # binds them, and every cache emptied, both checks still pass
    from kromatic import numbers, symfunc

    def refuse(*args, **kwargs):
        raise AssertionError("a recover-*-k4 check built a partition")

    checks = {name: fn for _, name, fn in build_checks([], 6, "recovery")}
    clear_caches()
    refused = (numbers.family_sums, numbers.partitions_of, symfunc.Expansion)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "kromatic":
            for attr, value in list(vars(module).items()):
                if any(value is f for f in refused):
                    monkeypatch.setattr(module, attr, refuse)
    assert checks["recover-K2-k4"]() and checks["recover-P3-k4"]()


COMMON_OPTIONS = {"-h/--help": (None, argparse.SUPPRESS, False),
                  "--degree": (positive_int, 5, False),
                  "--out": (None, None, False),
                  "--jobs": (positive_int, 1, False)}
BASIS_OPTIONS = {"--omega": (None, False, False)}
MODE_OPTIONS = {
    "expand": {**COMMON_OPTIONS, **BASIS_OPTIONS,
               "--graph": (None, None, True),
               "--basis": (None, "pbar", False)},
    "qexpand": {**COMMON_OPTIONS, **BASIS_OPTIONS,
                "--graph": (None, None, False),
                "--model": (None, None, False),
                "--basis": (None, "pbarprime", False),
                "--q": (rational, None, False)},
    "verify": {**COMMON_OPTIONS, "--graph": (None, None, False),
               "--suite": (None, "all", False)},
    "lyndon": {**COMMON_OPTIONS, "--graph": (None, None, True)},
    "independence": {**COMMON_OPTIONS, "--graph": (None, None, True)},
}


def test_each_mode_keeps_its_options():
    # (type, default, required) of every option string of every mode: an
    # added, dropped or changed option fails here
    modes = next(a for a in make_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    got = {mode: {"/".join(a.option_strings): (a.type, a.default, a.required)
                  for a in p._actions}
           for mode, p in modes.items()}
    assert got == MODE_OPTIONS


def test_config_errors_exit_two():
    for argv in (["expand", "--degree", "3"],
                 ["expand", "--graph", "k2", "--degree", "0"],
                 ["expand", "--graph", "k2", "--degree", "5", "--vars", "3"],
                 ["expand", "--graph", "nosuch"],
                 ["qexpand", "--model", "ui-k2", "--q", "1/0"],
                 ["qexpand", "--degree", "3"],
                 ["qexpand", "--model", "ui-k2", "--graph", "k2",
                  "--degree", "3"],
                 ["verify", "--suite", "nosuchsuite"],
                 ["verify", "--degree", "0"],
                 ["verify", "--graph", "k2", "--degree", "-1"],
                 ["expand", "--graph", "k2", "--jobs", "0"],
                 ["lyndon", "--degree", "3"],
                 ["independence"],
                 ["verify", "--jobs", "0"],
                 ["expand", "--graph", "k2", "--degree", "x"],
                 ["qexpand", "--model", "ui-k2", "--q", "abc"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
