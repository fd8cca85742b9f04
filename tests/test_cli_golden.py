"""Golden pin of the command line: the stdout bytes and the exit code of
every verb, in text and ``--json`` mode, over passing, failing and
unusable inputs.

Each case is one invocation of ``chainbench.cli.main`` in process.  Its
digest is the sha256 of the exit code, a newline, and stdout with the
temporary input directory replaced by ``<tmp>`` (an OSError message
names the file it could not open).  The digests were recorded before
the verb handlers were restructured to return their verdicts to
``main``; a report that moves by one byte fails its case.
"""

import hashlib
import random

import pytest

from chainbench.chains import ChainComplex, GradedMap
from chainbench.cli import main
from chainbench.diagrams import Bimodule, DComplex, preset_diagram
from chainbench.exact_linalg import QQ, ZZ, Matrix
from chainbench.fuzz import random_kernel_tower, random_reduced_ladder
from chainbench.ladder import D0Morphism, constant_tower
from chainbench.ladder import test_object as probe
from chainbench.serialize import (
    dump_complex,
    dump_d0complex,
    dump_d0morphism,
    dump_dcomplex,
    dump_graded_map,
    dump_scenario,
    dumps,
)


def _moore(k: int) -> ChainComplex:
    return ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[k]])})


def _loop(entries) -> DComplex:
    c = ChainComplex.build(ZZ, {0: len(entries)}, {})
    edge = GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, entries)})
    return DComplex.build(preset_diagram("D1", ZZ), {"v": c}, {"x": edge})


def _payloads() -> dict:
    unit = ChainComplex.build(ZZ, {0: 1}, {})
    m2 = dump_complex(_moore(2))
    const = constant_tower(_moore(1), 2, Bimodule(ZZ, 1))
    zero = D0Morphism.build(
        const, const, [GradedMap.zero(const.level(i), const.level(i)) for i in range(3)]
    )
    rng = random.Random(2)
    acyclic = ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[1]])})
    good = random_kernel_tower(rng, ZZ, n_levels=2, twist=False, scramble=False, kernel=acyclic)
    stuck = random_kernel_tower(rng, ZZ, n_levels=2, twist=False, scramble=False, kernel=_moore(2))
    rng = random.Random(0)
    target = random_kernel_tower(rng, ZZ, n_levels=3, twist=True, scramble=True).complex
    probe_tower = random_reduced_ladder(
        rng, ZZ, n_levels=3, s_rank=1, acyclic_levels={1, 2, 3}, scramble=True
    ).complex
    return {
        "m2": m2,
        "unit_moore": dump_complex(_moore(1)),
        "free": dump_complex(unit),
        "q": dump_complex(ChainComplex.build(QQ, {0: 1}, {})),
        "z4": {"ring": "Z/4", "ranks": {"0": "1", "1": "1"}, "differentials": {"1": [["2"]]}},
        "broken": {
            "ring": "Z",
            "ranks": {"0": "1", "1": "1", "2": "1"},
            "differentials": {"1": [["1"]], "2": [["1"]]},
        },
        "junk": {"nonsense": "1"},
        "doubled": dump_graded_map(GradedMap.identity(_moore(2)).scale(2)),
        "id_m2": dump_graded_map(GradedMap.identity(_moore(2))),
        "identity": dump_graded_map(GradedMap.identity(unit)),
        "zero_map": dump_graded_map(GradedMap.zero(unit, unit)),
        "non_chain": {"blocks": {"0": [["1"]]}, "degree": "0", "source": m2, "target": m2},
        "jordan": dump_dcomplex(_loop([[0, 1], [0, 0]])),
        "loop": dump_dcomplex(_loop([[1]])),
        "probe": dump_d0complex(probe("g_m", 1, 2, Bimodule(ZZ, 1))),
        "const": dump_d0complex(const),
        "good": dump_d0complex(good.complex),
        "stuck": dump_d0complex(stuck.complex),
        "ladder5": dump_d0complex(
            random_reduced_ladder(random.Random(5), ZZ, n_levels=3, acyclic_levels={1, 2, 3}).complex
        ),
        "ladder9": dump_d0complex(
            random_reduced_ladder(random.Random(9), ZZ, n_levels=3, acyclic_levels=()).complex
        ),
        "zero_morphism": dump_d0morphism(zero),
        "scenario": dump_scenario(probe_tower, target),
    }


# label: (argv with {name} for an input file, expected exit code)
CASES = {
    "verify-complex": (["verify", "{m2}"], 0),
    "verify-map": (["verify", "{doubled}"], 0),
    "verify-dcomplex": (["verify", "{jordan}"], 0),
    "verify-d0complex": (["verify", "{probe}"], 0),
    "verify-morphism": (["verify", "{zero_morphism}"], 0),
    "verify-scenario": (["verify", "{scenario}"], 0),
    "verify-invalid": (["verify", "{broken}"], 1),
    "verify-no-marker": (["verify", "{junk}"], 2),
    "verify-malformed-json": (["verify", "{garbage}"], 2),
    "verify-not-utf8": (["verify", "{latin1}"], 2),
    "verify-missing-file": (["verify", "{missing}"], 2),
    "homology-torsion": (["homology", "{m2}"], 0),
    "homology-acyclic": (["homology", "{unit_moore}"], 0),
    "homology-z4": (["homology", "{z4}"], 0),
    "homology-q": (["homology", "{q}"], 0),
    "homology-invalid-object": (["homology", "{broken}"], 2),
    "homology-assertion": (["homology", "{m2}"], 1),
    "homotopy-yes": (["homotopy", "{doubled}"], 0),
    "homotopy-no": (["homotopy", "{identity}"], 1),
    "homotopy-not-a-chain-map": (["homotopy", "{non_chain}"], 2),
    "cone-acyclic": (["cone", "{id_m2}"], 0),
    "cone-nonzero": (["cone", "{zero_map}"], 1),
    "cone-not-a-chain-map": (["cone", "{non_chain}"], 2),
    "nilpotency-degree": (["nilpotency", "{jordan}", "--max-n", "4"], 0),
    "nilpotency-none": (["nilpotency", "{loop}", "--max-n", "3"], 1),
    "nilpotency-wrong-kind": (["nilpotency", "{m2}"], 2),
    "classify-cut": (["classify", "{const}", "--n", "0"], 0),
    "classify-top": (["classify", "{probe}"], 0),
    "classify-cut-out-of-range": (["classify", "{const}", "--n", "9"], 2),
    "bn-local-holds": (["bn-local", "{good}"], 0),
    "bn-local-fails": (["bn-local", "{stuck}", "--n", "1"], 1),
    "an-local-holds": (["an-local", "{ladder5}", "--n", "2"], 0),
    "an-local-fails": (["an-local", "{ladder9}", "--n", "2", "--bound", "inclusive"], 1),
    "an-local-strict-default": (["an-local", "{ladder5}", "--bound", "strict"], 0),
    "an-local-negative-bound": (["an-local", "{ladder5}", "--n", "-7"], 2),
    "factor": (["factor", "{zero_morphism}", "--n", "0"], 0),
    "tp-check": (["tp-check", "{scenario}", "--max-n", "2"], 0),
    "delta-check": (["delta-check", "{scenario}", "--seed", "3"], 0),
    "invert": (["invert", "{scenario}", "--seed", "1"], 0),
    "order-finite": (["order", "{m2}"], 0),
    "order-infinite": (["order", "{free}"], 1),
    "order-over-q": (["order", "{q}"], 2),
    "annihilator-finite": (["annihilator", "{m2}"], 0),
    "annihilator-infinite": (["annihilator", "{free}"], 1),
    "q-acyclic-yes": (["q-acyclic", "{m2}"], 0),
    "q-acyclic-no": (["q-acyclic", "{free}"], 1),
    "fuzz": (["fuzz", "--seed", "5", "--n", "3"], 0),
    "fuzz-composite": (["fuzz", "--seed", "2", "--n", "3", "--ring", "Z/4"], 0),
    "fuzz-bad-ring": (["fuzz", "--ring", "Z/1"], 2),
}

PINNED = {
    ("an-local-fails", False): "d1a6c18d82b0df610b79c183464ba2c9c162503b8ba8e326298dc3b51829b9df",
    ("an-local-fails", True): "42373e8a5d56d95efecbd8583359beddd5899656f2dd831617f1ae96738af663",
    ("an-local-holds", False): "3200f0ed3405da0546e8a328af2b0c8194bd9702c1be77411c3807b9983ed471",
    ("an-local-holds", True): "fc6558d1d3181723ba445e2ef1900abd833785101ed37fae2a918968987c355d",
    ("an-local-negative-bound", False): "4cca744eb09d8714a406f1b84cafdd7c853bc59ca8aeb5033ce657256b880100",
    ("an-local-negative-bound", True): "a91a6d604c5335787cc2bd5ca4b70d5654c5e57d1671b54542b3b97218ca9814",
    ("an-local-strict-default", False): "3384096fb5249de821709a1a1a95c30881c4daa83d72e6835cf5c652849493fa",
    ("an-local-strict-default", True): "61022e210bd0e3464114c48b1272b5a9e2cf35b95748a6839177203645e5d5fd",
    ("annihilator-finite", False): "51bdeec4b24758df0d159621c921400af916441f9b1b10d11cc7b010bdf8d482",
    ("annihilator-finite", True): "5133cb2394ef8b1c94f565e3b16d823d696a37b2d629629bcefba240900594f8",
    ("annihilator-infinite", False): "0bdcfc614b0e58b1c74c55110c034625ee4e51c4566ff30eec218c463b08e5a6",
    ("annihilator-infinite", True): "59f73cb700d2290f3ea4e877fd74d08e4af1b8bd44832c300f8eb8ee9e321255",
    ("bn-local-fails", False): "b8435c9066b52b225c6a82639539ba0b06db9f290ad3d9f66b748a2d6ae3daf6",
    ("bn-local-fails", True): "50fc82c42972cd3b604a74eeb72c7fc8c303afd1fdb60471bf107990fa57fe5d",
    ("bn-local-holds", False): "e9bb57e18e75c478d5297946ab2fb9a4b1a0db72cf5a90d501883e3a7f6cc348",
    ("bn-local-holds", True): "4eed1c02b2bebba1a7dc17032b15036e76fb2d87d64f4906941e34cf799f9941",
    ("classify-cut", False): "82af0ad555cad3f02a85aa39bc4718a44162144083febe008e6a1f9149ce7a04",
    ("classify-cut", True): "e3223bd09f0b39d598400ebf34c98b734c6c7c6f71a93cb5a10436c2ae989a61",
    ("classify-cut-out-of-range", False): "820d5ac74663c89a9f418d52fcf642c6d84b6075b50e44e2a0ea220fadb09980",
    ("classify-cut-out-of-range", True): "499a2b639166d1f7ae52b1bbd8d2f656d0197090fcbd8021231e11d3fef3ed3b",
    ("classify-top", False): "6dddeafb93f7c3245edf740a228e3dc3adaf51a4c0b422ef9f419185f20a4d52",
    ("classify-top", True): "8c2051111f38c08cb8b177d8ee41ab5bc9e971ad541305802da817167651121a",
    ("cone-acyclic", False): "c13d5a20d1fc0a0628230e72dc90594c0bfb13fc3fc0a251c99665562722f273",
    ("cone-acyclic", True): "daca7910f578d8f42472441d16f0be3c6117871744a51e4b7373389e4c124731",
    ("cone-nonzero", False): "605aa26b07cbde767ea723045b527dcf942de9131e7e6ece8ef5f1a802596558",
    ("cone-nonzero", True): "28b7c000f5f209efa19f41c5f0b5f25d51c1cf3ce1aac1681b6ed23e75caf528",
    ("cone-not-a-chain-map", False): "928c4b84c8192ef601ac77ce80e2ee063562d43df747988b198116cbcd611f4a",
    ("cone-not-a-chain-map", True): "a41036747c74f1d86a97e0cd59e000616deeb18bdf3fc6d2f88059bec913000b",
    ("delta-check", False): "ff6e72dc39f598c6af378af8b1882bf02d547dd371ff2edbff533da95f9bee49",
    ("delta-check", True): "33ff82a731fbe6248d0fffcb577e0762daa0a21d8bcd48d3036d61447b47b2e6",
    ("factor", False): "cac22c82a767c8bf06eca4d64486eb0fc695f8d25d3d8d0b4ccb0b3c1bd6f5b3",
    ("factor", True): "599b0564705839dd659bdd77db896d9ef9d08ceeca0c6db9b7ceb20549aa2cc5",
    ("fuzz", False): "881bac5c42bd635d0a224aa5dc94b521cae295ad74195672bc481d4384016793",
    ("fuzz", True): "fbed1514aa5cc395e846c5695590696d6e3be63bdd7860624ee7958c19112414",
    ("fuzz-bad-ring", False): "48386a3ec67a7f40e5e66d04cf6e300259c8d0ca4004a4667d64acf7e5b26ce7",
    ("fuzz-bad-ring", True): "3ca46b972d2f4a404642e5485ca96dd22dde07a35dcfee83aff0a83d3ddc85c0",
    ("fuzz-composite", False): "564e868c226b7b2b1694cdf5dc5480da28c007a22ce8b43cf0a3c1077d9dc056",
    ("fuzz-composite", True): "701b5079cbbdca39193fa20902c8546d89c149faee35ca773ca2e116208a37d5",
    ("homology-acyclic", False): "ccbff0e523e27635dc1c3e6cad00ebf36159e729d9da75f37b7adaf8a60535bc",
    ("homology-acyclic", True): "51cc938b6ec5f13e59872f384158d33198018da806621855b903ae2e5339bfec",
    ("homology-assertion", False): "f79a4463b8c6e5458a5f1ed1164793c167dfcb6c65c6740d6acdc8b5143b5d6a",
    ("homology-assertion", True): "da3c2a35a502fe7a3c1631e97b8750369980002f9b196f02a50c8d47413e5e1c",
    ("homology-invalid-object", False): "0951f778f883b0938792cd4fa3965c49ecafcad2f9134b819e2b4569fbd12f6d",
    ("homology-invalid-object", True): "29aa26c411b0b474bbfcdd49a07b0b6391479be3f185e6764dfa07d05870fc13",
    ("homology-q", False): "c9ce4ba225d6eafd7bc198b52551cc77afd4f98573aaf7b995362c216b99f76f",
    ("homology-q", True): "30830fdde08160cb4f7648ef74b50e76eab517b8321fcbfedc4f818ac7055654",
    ("homology-torsion", False): "bb93da387c75301bb8d43e4feb203f76f72937e73388c26e9a73eb038f8188b3",
    ("homology-torsion", True): "240acfc194f00cada9075fddd1f00d3cc8be5705e7c3067da9cfd04bcdb43f6e",
    ("homology-z4", False): "e88406105730b451d0f670f0789f277835a4b1c85ed9596327c3d5fb57b20375",
    ("homology-z4", True): "4d64da30fed7c4d289b7839d84b4ee0416d4f544d8c3bb57b97b0f6ce0fcd0f3",
    ("homotopy-no", False): "f40f20674c373fdcd1642cc18f7c3040311bad07e4640c1f2de3e4de7a4b124a",
    ("homotopy-no", True): "ce11fdedfe9d2181adbc6639878adbaccedcd9bacae1f3d0d0bacff4ce187766",
    ("homotopy-not-a-chain-map", False): "0159e5b3d1260e3c7723a7a6b2037cd8655fbed5f24e5965fa0a44467400df0c",
    ("homotopy-not-a-chain-map", True): "522d357221b8855866ed8dcb41c34e45f14a96b096e77d10f2730cd742e7b997",
    ("homotopy-yes", False): "a179166b6c6a5a65316c715ad71516ad4c098d014435929c89fc4e27fb00251e",
    ("homotopy-yes", True): "1545a8ac79d47057d35b17ff2d69e8a770c44c8cffdf791b09474bc9c44a329b",
    ("invert", False): "7e2b6356cd9a7619b1024e0391fb9964a719e02bacb4923f52808e597cbd24d6",
    ("invert", True): "b78784ff9d851dd489857df85e62e2e0574f5f6095b8cc9a8e302b2053a4d44b",
    ("nilpotency-degree", False): "14a68972739375aff299143e536b5cb750ceb8af5c786f328ece0d1a4fa1d40f",
    ("nilpotency-degree", True): "f428283d7003e7fc903e6ae66996b307ceebcc23aae4f10740445da85f7c5ca2",
    ("nilpotency-none", False): "df42807cf0da487b425599a76092eb03f413298ea6f70609f9edc80c3552d2b9",
    ("nilpotency-none", True): "4235ca41cb57994cd0fcd61b378732988b56f2ff54f41f0f444dbe4fc483d471",
    ("nilpotency-wrong-kind", False): "7cad772fd03989c0664fe6faf68095139a4a4a0bc37e508ba2dd02cf053dccbd",
    ("nilpotency-wrong-kind", True): "153ac0b64881a3047123449b159a1f0a1a0393dc62c137084871684498da1729",
    ("order-finite", False): "aa219233a557a5822710e1f4b7500df34586d1e4d3a322ce2cb6d3c3460c57eb",
    ("order-finite", True): "753ea33efebdb47a6b2af85302e2c3b074b7e359ce633d4b658732a56c9e11db",
    ("order-infinite", False): "690aae50d616d1c81a5658ce3d270d7285f66be75211b276bba79c5b1a0a66ef",
    ("order-infinite", True): "03e591c3290b04098f5a3e0b7617a5e7d68aa90787830f34621c2c7386111246",
    ("order-over-q", False): "b6ef4de6ef88f8dd948c495b3f7b8828df162eb9e9db4fb25ccc510d2c0e2a78",
    ("order-over-q", True): "05a607a759f57e98e266cdb97c6af068896753ac4e9922eff590c759f2e44096",
    ("q-acyclic-no", False): "ed3b05d2df61fb016fda6a5e5e8f9597e96de585bf5fef0a9ac2fda81c59af58",
    ("q-acyclic-no", True): "0ebba007c1de318c5a7184041eec574576072dea5ce069e4de30a4bc4c66fecb",
    ("q-acyclic-yes", False): "651a3923598aa7277a59a7c8bc8f6e478b54ee82c50a004115724ed68bda8dc9",
    ("q-acyclic-yes", True): "46cadd8cd30c3ebab5f3df15c81ceb099658d720c465ca7d2c9e3f146f42fba2",
    ("tp-check", False): "a2ec750140fa9ff6fe7e0818fb3c09e2e68327179de2407cd249ddcf40d6867b",
    ("tp-check", True): "cf01a8f0f9356e42283d9fac10fbdb8d2d8e05d2a1813eb648cdf3d279fdcd7c",
    ("verify-complex", False): "7f68b059b4e04296062046b3651ed25ba3b9350a145b1ea531dd3f7b4862070f",
    ("verify-complex", True): "8eced299b38f778d640e50804d55de358c22b9f09de7d63d80ec46cdd931b2ac",
    ("verify-d0complex", False): "9a3f11f7f3a2519e65a865b1223cc5b79af52cb3d12be8471364aadfeecc32ed",
    ("verify-d0complex", True): "0d48c406767ec292ed13e3c19a700e2d0decd5810bf6b74d474726369ab54912",
    ("verify-dcomplex", False): "05ecc7141823e404179b2f317a08c35615eb117f6813618d8f0b31f543c468a8",
    ("verify-dcomplex", True): "c0124d507ecbc0236b0b8223c5d455bff3a3e59fb14a1e2f7391bdf6ee7ab215",
    ("verify-invalid", False): "a40d616145d8354b8725e68742aa644a71228ac4d2341c7d3fb023c7413386ae",
    ("verify-invalid", True): "c10ea8cfdab41b86ab5da74ed4fe2a433e5f78a45f0b68105cd1285392e59acd",
    ("verify-malformed-json", False): "210f3a09077c47b2ee87484b686ade2ee195ac28794d11f5b496b0b1d3173400",
    ("verify-malformed-json", True): "94fa525d5165a658d4ce2d0e693c78dafcd120a6f8c0bdd6e742cd0965b1656f",
    ("verify-map", False): "f7e8ddda305364ede16aedc1d1a3f6a8dfb8faa598e6d059ae60b557b3b4f7b6",
    ("verify-map", True): "4d82372a07c0d2334ea315540310d4bac0c1c418c174f18c640e1242cda661c1",
    ("verify-missing-file", False): "0e54da476333c2222b465142895435f5dec293e6f2a8d1de69ab36f85d52511a",
    ("verify-missing-file", True): "9ea67cf16c2ebc14c25b2e9a4ec91225f9f9cb0d4fb76b9e2d29114b4fb22c62",
    ("verify-morphism", False): "80b329f7532ee5f5a5ae5904b19f8699c6b3cb5e988e78e5e444c44b9a021161",
    ("verify-morphism", True): "05e35f9f1f43c702af6d20340b8611f933b1a10b5719f97504c3929307bca229",
    ("verify-no-marker", False): "61f83638dcbcf56d1547c0a3d577531474da2d81bcb2feb22b2e0d814c75fee9",
    ("verify-no-marker", True): "885c1ee8bb8bab59ff25215b0c6285d6930c725cfc9dc25b4a60492540c5f048",
    ("verify-not-utf8", False): "2bc7086e6acd1b31ca6265cf3aa3a382371488fa25c9ac6e776b1b2323cf7173",
    ("verify-not-utf8", True): "1fc6f01ddcaee907dfb9eeb5b662f3a1e5a9f0b2f26b707880be0277ca546918",
    ("verify-scenario", False): "eb21f7c6cc8159b44b7fc63ed8cb797c947e50adb58148c755a92d2ec37631ce",
    ("verify-scenario", True): "452d7aaeb771ccfcdf443294a372954ca91f01c3c8e1ab31ef52021019a1131d",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, payload in _payloads().items():
        path = root / f"{name}.json"
        path.write_text(dumps(payload), encoding="utf-8")
        paths[name] = str(path)
    (root / "garbage.json").write_text("{oops", encoding="utf-8")
    paths["garbage"] = str(root / "garbage.json")
    (root / "latin1.json").write_bytes('{"ring": "\xe9"}'.encode("latin-1"))
    paths["latin1"] = str(root / "latin1.json")
    paths["missing"] = str(root / "missing.json")
    return str(root), paths


def _outcome(label, inputs, capsys, monkeypatch, json_mode):
    root, paths = inputs
    argv, want = CASES[label]
    argv = [arg.format(**paths) for arg in argv] + (["--json"] if json_mode else [])
    if label.endswith("-assertion"):
        import chainbench.chains as chains

        def broken(c):
            raise AssertionError("pivot pass repeated")

        monkeypatch.setattr(chains, "homology", broken)
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out.replace(root, "<tmp>")
    return code, want, hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_cli_output_is_pinned(label, json_mode, inputs, capsys, monkeypatch):
    code, want, digest = _outcome(label, inputs, capsys, monkeypatch, json_mode)
    assert code == want
    assert digest == PINNED[label, json_mode]
