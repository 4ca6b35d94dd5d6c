"""Byte-identity of the CLI on the demo documents: the sha256 of stdout and the
exit code of one command per CLI mode, recorded before the point-set layer
moved to arrays; the two `tb_end` commands at the default 101-level grid were
recorded before the prefix unions and nets became incremental; the four
`converge` commands at `--alpha-grid 7 --window 3` were recorded before the
level and gamma series were batched over the members; the two `gen` commands
on demo/finite.json and demo/plane.json were recorded before `gen` stopped
calling json.dumps and before the random members were built from one
deduplicated support; the twelve `metrics`, `oracle`, `compact closedness`
and `converge` commands on demo/finite.json and demo/plane.json were
recorded before the pairwise tables became one metric matrix and every
verdict one Certificate; the four commands that name generated members as a
limit, a candidate or a sequence member were recorded before generated
families were built on first read; the three Γ and level commands on
demo/finite.json (limit ß) and demo/plane.json (sequence cloud) were
recorded at commit ddcf732 (before the finite branch of the kernel read one
symmetric matrix). The sha256 of the `--emit-json` report file of twelve
`converge` (gamma, level, send, end) and `compact` (tb_end, erc) commands,
with their exit codes, were recorded at commit 3ca16ca (before the level and
Γ series were read from one cut-id table). A change to any number, verdict,
row order or JSON byte shows here."""

import hashlib
from pathlib import Path

import pytest

from fuzzymetrics.cli import main

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"
DOCS = {"DOC": "demo.json", "FINITE": "finite.json", "PLANE": "plane.json"}

GOLDEN = [
    (["metrics", "DOC", "--kind", "end"], 0, "463bdcf3184f033bfb240d11d28c08107a7b37bfe7ff805b2039ee75537ec887"),
    (["metrics", "DOC", "--kind", "send"], 0, "adae269c3db6eabf2b363b01adbab7564cc1ea8b4170eb5a23c367f1954eed7a"),
    (["metrics", "DOC", "--kind", "level:0.5"], 0, "adae269c3db6eabf2b363b01adbab7564cc1ea8b4170eb5a23c367f1954eed7a"),
    (["oracle", "DOC", "--resolution", "0.01"], 0, "c97f7fe854870840507d8927c87a49e6bae61fbadfcfed42fb2a85c119e9ac6c"),
    (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "gamma"], 0, "990b0387d4032163185bcf3ad1b24844084294e3c67f13b7826f41c080afa116"),
    (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "level"], 0, "46b315c396032f9ac5b36e7146ed61d4d452ee60705c8a5de0b9c6014b2d7187"),
    (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "send", "--tol", "0.01"], 1, "e9b65da25e1138baee677789ad15e0021dc8efd1f91382270fc5ba454334c4ab"),
    (["converge", "DOC", "--sequence", "alternating", "--limit", "origin", "--mode", "end"], 1, "77107fb0ee3ade1e4966a0167378d0ddf9914dbfb8b8c171644f559ca6350beb"),
    (["converge", "DOC", "--sequence", "cloud", "--limit", "ramp", "--mode", "gamma"], 1, "b1449d8d1757c5067d52ff8ea8d51f01dbd20822c0971672bbcf52e2a0336d52"),
    (["compact", "DOC", "--family", "iv", "--mode", "tb_end", "--eps", "0.05", "--alpha-grid", "11"], 1, "690d65b8e34b692c0d4e3da32aa86fcfa9bf8a99dd32a8c33fba2efb02663540"),
    (["compact", "DOC", "--family", "cloud", "--mode", "tb_end", "--eps", "0.1", "--alpha-grid", "11"], 0, "0c40333545c9160c81b3774d1fa8c9daf23abc833c764aab933564f1c412825e"),
    (["compact", "DOC", "--family", "iv", "--mode", "tb_end", "--eps", "0.05"], 1, "86b01fb879205c44fde440990568a2e40cc7b691286447d7ca32fa2a1abdc5be"),
    (["compact", "DOC", "--family", "cloud", "--mode", "tb_end", "--eps", "0.1"], 0, "79e3095150cd438db5566e34a9f58f7e3454821372edf9084f453b0d9995e7d8"),
    (["compact", "DOC", "--family", "tr", "--mode", "tb_send", "--eps", "0.4"], 1, "c07e4d1abc281d80b5099b8878dbeea4eb1015b6fe9a4cfb1b538c72b9b24f1f"),
    (["compact", "DOC", "--family", "col", "--mode", "tb_send", "--eps", "0.5"], 0, "34a96dd36f68b83033ce440851f4cb9813422d2787c26c6ecab266df772c79fa"),
    (["compact", "DOC", "--family", "col", "--mode", "erc", "--eps", "0.5"], 1, "47684ffb5ba7fc8696f3180317bc848a9477ef8e730b3d08a67e484979123ca8"),
    (["compact", "DOC", "--family", "cloud", "--mode", "rel_send", "--eps", "0.1"], 1, "aa3388233192db1102f5f416bc0cb8ae55900d26af19b7ed320e5340f17b73cf"),
    (["compact", "DOC", "--family", "tr", "--mode", "closedness", "--candidate", "three"], 0, "6c8f7e0b21d476c285a847ab00e3a91ca668ef64e48326191becc93c4806932b"),
    (["gen", "DOC"], 0, "86734f75fa2cdc81a660c759d94642f64351b47275ffc6e0dcb05c0abbcfcfdf"),
    (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "level", "--alpha-grid", "7", "--window", "3"], 0, "8d424b71d510bd69f4376b4b55602b45221725979f10f4132f8b20e6525b7423"),
    (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "gamma", "--alpha-grid", "7", "--window", "3"], 0, "21520386c6d16b32a539373b3452232e9a6bb44aa83968086cd0dd2dad722e0e"),
    (["converge", "DOC", "--sequence", "cloud", "--limit", "ramp", "--mode", "level", "--alpha-grid", "7", "--window", "3"], 1, "198aa44ea6630240e0df28642028ae0e1730bcc8d0292376e3e7532fec59aed0"),
    (["converge", "DOC", "--sequence", "cloud", "--limit", "ramp", "--mode", "gamma", "--alpha-grid", "7", "--window", "3"], 1, "9f28caa6514a29a4fd1281a9e930153ac9b6c09b3c5487f0565518f3f53ab90f"),
    (["gen", "FINITE"], 0, "7a2c21f7e95802ec5603f8f5903f5d97a13d378ac0fdfc73d94fb530bf39ff9a"),
    (["gen", "PLANE"], 0, "e7dc39be57340a8f6773df10ead5c9683c7dbca77a4b4992de5dcb06277e5a41"),
    (["metrics", "FINITE", "--kind", "end"], 0, "2b9bcd5c83f6ff630d952bdc03922109cf50c89fbe9eb7104e154c0816cd3dee"),
    (["metrics", "FINITE", "--kind", "send"], 0, "ca00ed72c1e8dcaa0ca09732cef3fa7b9c1fc2eab9f39c2fe6d92eb57d0483be"),
    (["metrics", "FINITE", "--kind", "level:0.5"], 0, "822e0f278840ac81b0383a83964e4742382fa0a99d6090a5a7f813f82916c37f"),
    (["oracle", "FINITE", "--resolution", "0.01"], 0, "0336ab6f336a0875947e3f4d9d61e39789b9b86d4cf61b72cdb51ec55db57777"),
    (["metrics", "PLANE", "--kind", "end"], 0, "c0f5a3353dbee4278652552612a8090499b753f8c238f23dd0740ed3cba7e422"),
    (["metrics", "PLANE", "--kind", "send"], 0, "c3165647a17a25dc4029f7b57b167a2a17a82fca85a4fa04363a51fbf591e482"),
    (["metrics", "PLANE", "--kind", "level:0.6"], 0, "1371dcbe13fb202ef71dc661861fa51070e266e2353ee41efbb0d9a7ff5d9079"),
    (["oracle", "PLANE", "--resolution", "0.01"], 0, "accd35ad66af96174e64d155ffedaacb1b608b78acd090a320107ccf8c59a5e8"),
    (["compact", "PLANE", "--family", "cloud", "--mode", "closedness", "--candidate", "origin"], 0, "66eb7fae7946857a96dad8319fbee5444627a7c434ea870369c206386d901aa8"),
    (["compact", "FINITE", "--family", "fam", "--mode", "closedness", "--candidate", "a"], 0, "4c47643038a60a8b68c1adb2bc2711be6e12f9a0412e40e6d17d7055b97a610e"),
    (["converge", "FINITE", "--sequence", "seq", "--limit", "a", "--mode", "send", "--window", "2"], 0, "f3b0615af641eabf4f62a82be73584337b6a9bab2eae0616383ccd5344040f47"),
    (["converge", "PLANE", "--sequence", "cloud", "--limit", "origin", "--mode", "end"], 1, "b1cef7cb31d3389854ea05d5b7c655222f9a532c8739131aada095ae3df3aa1c"),
    (["converge", "PLANE", "--sequence", "to origin", "--limit", "origin", "--mode", "send"], 1, "a9e4ee325aa29ffe91e9036a407f6f692512833d72ef4a3c4e44733e0ab69a01"),
    (["converge", "PLANE", "--sequence", "to origin", "--limit", "col[5]", "--mode", "level", "--alpha-grid", "7"], 1, "8638d729fa6b52eeb77f97c4a733f94f1bb2def637172010805eecc99c277fca"),
    (["converge", "DOC", "--sequence", "col", "--limit", "tr[1]", "--mode", "end"], 1, "4efdd3b31bb792a6f60223eee47211e7b41ab1618713592c0c93fa783dd24b0e"),
    (["compact", "PLANE", "--family", "tr", "--mode", "closedness", "--candidate", "col[1]"], 0, "34fdbe58429d0e2e7035c2117160a39e5e82ba4a14511eff4c093e269457cc84"),
    (["converge", "FINITE", "--sequence", "seq", "--limit", "ß", "--mode", "gamma", "--alpha-grid", "7", "--window", "4"], 1, "d4aa281f6e31bd7372f137b2490f42999ca30114e73a2eee059e1c1103001a5f"),
    (["converge", "FINITE", "--sequence", "seq", "--limit", "ß", "--mode", "level", "--alpha-grid", "7", "--window", "4"], 1, "71e2a5c5b7487c9ef4cd8552aed9302effd42a9f07b099ec07b8060b698cdbd2"),
    (["converge", "PLANE", "--sequence", "cloud", "--limit", "origin", "--mode", "gamma", "--alpha-grid", "7"], 1, "c0e349260d6de9bf8fb0fea15fd4b1f5a431b4c8dcaa3213f60d816c047abb5e"),
]


@pytest.mark.parametrize("argv,exit_code,sha256", GOLDEN, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_demo_output_is_byte_identical(capsys, argv, exit_code, sha256):
    code = main([str(DEMO_DIR / DOCS[a]) if a in DOCS else a for a in argv])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (exit_code, sha256)


GOLDEN_JSON = [
    (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "gamma", "--alpha-grid", "7"], 0, "5727dfa7a26cce596f8d854549b967556e3b0dd2d7583c838fe3b43a31e10670"),
    (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "level", "--alpha-grid", "7"], 0, "3bc6a961f2f7be554b5ed2a8d5d76709c8496c253c3ca05a3b5e29619bdbd4be"),
    (["converge", "DOC", "--sequence", "cloud", "--limit", "ramp", "--mode", "gamma"], 1, "aca840ea0f85f81f685ab3f4be2e7cacb4cfcb4a0c7253708e687a2b54cf707d"),
    (["converge", "DOC", "--sequence", "cloud", "--limit", "ramp", "--mode", "level"], 1, "149ec9a0d9d2cf1515aac2ace72dbb253e4470ee6603acb0034d359b4ea30969"),
    (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "send", "--tol", "0.01"], 1, "cbed4a6a913b9804f4dc18bb7513dadcb1e1b37d09b50198e8a5203e75053542"),
    (["converge", "DOC", "--sequence", "alternating", "--limit", "origin", "--mode", "end"], 1, "7fc8b0b79bae0b9f1809c24ec01cbf3ae5b1066a015075b7f0c0e0dd5f1da866"),
    (["converge", "FINITE", "--sequence", "seq", "--limit", "ß", "--mode", "gamma", "--alpha-grid", "7", "--window", "4"], 1, "7b261772a524e5e182c779df5562b894cb699a194c89594d25e2cdfcb015f182"),
    (["converge", "FINITE", "--sequence", "seq", "--limit", "ß", "--mode", "level", "--alpha-grid", "7", "--window", "4"], 1, "ab655cb399da1fd9550238bea291c0c2a257ccc9cfac63b13b92c64972378ee3"),
    (["compact", "DOC", "--family", "iv", "--mode", "tb_end", "--eps", "0.05", "--alpha-grid", "11"], 1, "4f97e14755013068383588ba2b4d05e09e526be7679b1a56c19f029b6254d49d"),
    (["compact", "DOC", "--family", "cloud", "--mode", "tb_end", "--eps", "0.1"], 0, "a5703efd8ae5a74b15e7fd68d3abf579cf87f1345a620e964753a410056a4135"),
    (["compact", "DOC", "--family", "col", "--mode", "erc", "--eps", "0.5"], 1, "ba9df3e004ca7c2398507ba05095f5f1175bdc88f807b5fcff1f34951809bb29"),
    (["compact", "DOC", "--family", "cloud", "--mode", "erc", "--eps", "0.1"], 1, "8aac345c28d62e971084f47ba4c2847c6244935ac2150f9ce2b6fd26eae5bbb2"),
]


@pytest.mark.parametrize("argv,exit_code,sha256", GOLDEN_JSON,
                         ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_emitted_json_report_is_byte_identical(capsys, tmp_path, argv, exit_code, sha256):
    report = tmp_path / "report.json"
    code = main([str(DEMO_DIR / DOCS[a]) if a in DOCS else a for a in argv] + ["--emit-json", str(report)])
    capsys.readouterr()
    assert (code, hashlib.sha256(report.read_bytes()).hexdigest()) == (exit_code, sha256)
