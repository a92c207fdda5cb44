"""Byte-level pins of the CLI reports on the shared fixtures.

Each case runs one `carpetauto` command in-process on a fixture written
to a file and hashes its exit code, stdout and stderr.  The digests were
recorded before the oracle and the topology automaton were built from
the digit-difference index (the `gmap` ones before the segment readers
of `gmap` became one), so any drift in a report, however small,
changes a digest here.  Regenerate them only for a deliberate change of
a report: `PYTHONPATH=src:tests python tests/test_reports.py`.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from carpetauto.cli import run

from conftest import (
    BARANSKI_RATIO,
    CARPET_8,
    CHAIN2_CARPET,
    DISTORTION_CARPETS,
    EXTENDED_9,
    SQUARE_TOP_5,
    SQUARE_VSEP_5,
    TOP_ISOLATED_11,
    VSEP_11,
)

CARPETS = {
    "TOP_ISOLATED_11": TOP_ISOLATED_11,
    "VSEP_11": VSEP_11,
    "SQUARE_VSEP_5": SQUARE_VSEP_5,
    "SQUARE_TOP_5": SQUARE_TOP_5,
    "CHAIN2_CARPET": CHAIN2_CARPET,
    "BARANSKI_RATIO": BARANSKI_RATIO,
    **{f"DISTORTION_{k}": spec for k, spec in enumerate(DISTORTION_CARPETS)},
}
CROSS = {"EXTENDED_9": EXTENDED_9, "CARPET_8": CARPET_8}
WORD_PAIRS = (("(1)", "(2)"), ("2.1(3)", "1.2(3)"), ("4(1)", "3.4(2)"))
GMAP_CONTEXTS = ("1,2,3,4", "1,2,3,2")  # the second has tau = lambda
GMAP_WORDS = (
    "4.1.1.1(3)",
    "4.1.1(3)",
    "3.3.1(3)",
    "3.2.3.1.1.5(3)",
    "4.1.1.1.5.3.2.3.1(3)",
    "5.2.4(3)",
)
EQUIV_PAIRS = (
    ("SQUARE_VSEP_5", "SQUARE_TOP_5"),
    ("TOP_ISOLATED_11", "VSEP_11"),
    ("SQUARE_TOP_5", "TOP_ISOLATED_11"),
    ("DISTORTION_0", "DISTORTION_1"),
    ("CHAIN2_CARPET", "DISTORTION_6"),
    ("BARANSKI_RATIO", "SQUARE_TOP_5"),
)


def cases():
    """Case name -> argv, with fixture names standing for their files."""
    out = {}
    for name in CARPETS:
        out[f"analyze {name}"] = ["analyze", name]
    for name in (*CARPETS, *CROSS):
        out[f"automaton-json {name}"] = ["automaton", name]
        out[f"automaton-dot {name}"] = ["automaton", name, "--format", "dot"]
        out[f"simplify {name}"] = ["simplify", name]
        for k, (x, y) in enumerate(WORD_PAIRS):
            out[f"survive{k} {name}"] = ["survive", name, x, y]
    out["survive-xi SQUARE_TOP_5"] = ["survive", "SQUARE_TOP_5", "--xi", "0.3", "(1)", "(2)"]
    for e, f in EQUIV_PAIRS:
        out[f"equiv {e} {f}"] = ["equiv", e, f]
    for ctx in GMAP_CONTEXTS:
        for word in GMAP_WORDS:
            out[f"gmap {ctx} {word}"] = ["gmap", "--ctx", ctx, word]
    out["gmap bad-context"] = ["gmap", "--ctx", "1,1,3,4", "4.1.1(3)"]
    return out


def write_fixtures(directory):
    """Write every fixture as JSON; fixture name -> path."""
    files = {}
    for name, source in {**CARPETS, **CROSS}.items():
        path = directory / f"{name}.json"
        path.write_text(source.to_json())
        files[name] = str(path)
    return files


def report_digest(argv, files) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run([files.get(a, a) for a in argv])
    blob = f"{code}\n{stdout.getvalue()}\0{stderr.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


EXPECTED = {
    "analyze BARANSKI_RATIO": "045e01e66a112eda213203e33c09dcc9bcb4b98d99cfb83dec5d3136eb8b1a7b",
    "analyze CHAIN2_CARPET": "ae783e88339a665173a5712d8d768182e64488ae5e0c5b7085d0b925c1c9f989",
    "analyze DISTORTION_0": "e877a972eb3e2f97b89bda981e849136ab4cd336dc2b18a2c8b1ac8ec2a6db72",
    "analyze DISTORTION_1": "eaeae8ad19b5f99f0bc29af6e9c9649bea7ea9c41c9b3869670c692ab8e596e3",
    "analyze DISTORTION_2": "fe265043ac30030075d2a8bc7264c1523fc081694d8a2e1f52af3ff407128769",
    "analyze DISTORTION_3": "595c79fdb803d6d41f60dcf2d356d00b4ac12c31f7b56f1b3648950e9e7ffea8",
    "analyze DISTORTION_4": "cb98d821bb3bfe0f079c2da0e22849708fedd548866e4604aac1f308322fca03",
    "analyze DISTORTION_5": "b3cea7bdfddb86621adfe48fd21a188b33cb0b2a30848b664dd686088f4e3859",
    "analyze DISTORTION_6": "454c5fa553d210805a64bc05edda31587b68d0bbbac564413209e56cf82d9fa1",
    "analyze DISTORTION_7": "cb003aa94a9b2dee620c1f678eb7735a6f5a1814e963d75952c355746e8c6603",
    "analyze DISTORTION_8": "5ba381c4781383bb3327330382d5ba3783dbd6cf3a706b2b312035868708baec",
    "analyze DISTORTION_9": "f9f99937e902696c53773d5e99879844540c9403e2f2287225eb4748f88c7dcb",
    "analyze SQUARE_TOP_5": "d058372c1c9907e46fbb0a3f5332dcabd36bc9eed499d52e2a1d4d2e1ca04e6b",
    "analyze SQUARE_VSEP_5": "8679004ae5491ca07e7c3a1cab7933798b39629a27bd756f59b1b65f38ce8b30",
    "analyze TOP_ISOLATED_11": "6f1e9fb28c194e6655205b1ee64deab8898dbd7f8013619af7db8a700806bfee",
    "analyze VSEP_11": "31217f22a258093c434c951341b01cce5f7ea99d5cdda4aa170db35fc3e45a4f",
    "automaton-dot BARANSKI_RATIO": "f9d2dc0a21f830bfbab1cc8f5620e678b799e2b341c48fba76d2d5333951ed5b",
    "automaton-dot CARPET_8": "391cd6aedf7a8ba9b2103377cbda39380ccc494bc45a8133669022f934bd1d69",
    "automaton-dot CHAIN2_CARPET": "22f024f880b5dc11e754427cc97a094d7b71b6507ac68ec3306c2f275b67a7f7",
    "automaton-dot DISTORTION_0": "2c7e639601e200a3d84c5e2064696c1e5b05422be18b795c4dd0b20efec9fab5",
    "automaton-dot DISTORTION_1": "2c7e639601e200a3d84c5e2064696c1e5b05422be18b795c4dd0b20efec9fab5",
    "automaton-dot DISTORTION_2": "13a6452815007240ceb998b8df59b1da01568a819ee36c95d56edee8c9a99142",
    "automaton-dot DISTORTION_3": "2c7e639601e200a3d84c5e2064696c1e5b05422be18b795c4dd0b20efec9fab5",
    "automaton-dot DISTORTION_4": "13a6452815007240ceb998b8df59b1da01568a819ee36c95d56edee8c9a99142",
    "automaton-dot DISTORTION_5": "13a6452815007240ceb998b8df59b1da01568a819ee36c95d56edee8c9a99142",
    "automaton-dot DISTORTION_6": "51014558ef4bf54c6a693e06ef30399f77fb666c7104f7fad63eedb960bb7566",
    "automaton-dot DISTORTION_7": "92a62587817fc35f01c723964e6e2efc1cc74f669d0c3899d0daef1a95747288",
    "automaton-dot DISTORTION_8": "92a62587817fc35f01c723964e6e2efc1cc74f669d0c3899d0daef1a95747288",
    "automaton-dot DISTORTION_9": "51014558ef4bf54c6a693e06ef30399f77fb666c7104f7fad63eedb960bb7566",
    "automaton-dot EXTENDED_9": "143d8af0e1d380a7d90166dd1082c1ed7ca029d0a16c71825799c776ff003f4c",
    "automaton-dot SQUARE_TOP_5": "a5fa68de4b41c03b7c1f091066d3605322bf414447b46edb4b28f07badeb083f",
    "automaton-dot SQUARE_VSEP_5": "25838865ebc89e48eaede419d29f748ef5fdbfcac754b41e1a61dfba83c3dca4",
    "automaton-dot TOP_ISOLATED_11": "2436ece94d44f0f46de133284dfa5869649d2c2668106e365454648d97d7f875",
    "automaton-dot VSEP_11": "8cbe9d9eff60728decee9393e8df93467e66dcd1fcc0ed9e6ad165cb4f974ba8",
    "automaton-json BARANSKI_RATIO": "d9ab6c672cebe82e61128b3b986ffe5a7ab15759ff68c4e7193d0251da5692d7",
    "automaton-json CARPET_8": "bf6b1a49f1624d68acf380f0842634214c97e1b7cccf7a9193a073a379627f77",
    "automaton-json CHAIN2_CARPET": "7d960fb536c191f0205d1c77dcce5fab747f7b0610020ff2f96ff44411d42579",
    "automaton-json DISTORTION_0": "0762f0948df65e34793ccc62b2104421aa7ab3dec7d4b065aa7ff0ef6ebbbfef",
    "automaton-json DISTORTION_1": "0762f0948df65e34793ccc62b2104421aa7ab3dec7d4b065aa7ff0ef6ebbbfef",
    "automaton-json DISTORTION_2": "983ea3bb13ae91885f645e6591e2275f4f52a4ed84b6a68047c3ca133ac989fc",
    "automaton-json DISTORTION_3": "0762f0948df65e34793ccc62b2104421aa7ab3dec7d4b065aa7ff0ef6ebbbfef",
    "automaton-json DISTORTION_4": "983ea3bb13ae91885f645e6591e2275f4f52a4ed84b6a68047c3ca133ac989fc",
    "automaton-json DISTORTION_5": "983ea3bb13ae91885f645e6591e2275f4f52a4ed84b6a68047c3ca133ac989fc",
    "automaton-json DISTORTION_6": "1c104edb32a03985f00229a5faf14aea18202fc7c231988084e43e88e5aed340",
    "automaton-json DISTORTION_7": "74800866fe457b7453285be6979efb6e245e470a0b037816180250126b980cd5",
    "automaton-json DISTORTION_8": "74800866fe457b7453285be6979efb6e245e470a0b037816180250126b980cd5",
    "automaton-json DISTORTION_9": "1c104edb32a03985f00229a5faf14aea18202fc7c231988084e43e88e5aed340",
    "automaton-json EXTENDED_9": "8a0da06c59867190da7e191505c900ffef95425c387cf1539af69748a1bf5bc6",
    "automaton-json SQUARE_TOP_5": "bc67aad8f2891525eb539708946c5bee690080887407714124ccc67ee013c71b",
    "automaton-json SQUARE_VSEP_5": "4397e3b2810d9cc2ed1e8703ec6fd02354d1b36ee88a8d52af0d4a8f4262b549",
    "automaton-json TOP_ISOLATED_11": "00bb6fa8e2732cd417b0b6be827126ad64d1b01d0f0212ad0d88848d473211b7",
    "automaton-json VSEP_11": "556fc961c82bc01e9566bef2b227cc09610a4dbcad3fe8ce9622cddfbcdca8b3",
    "equiv BARANSKI_RATIO SQUARE_TOP_5": "63491c774db83591ea69a9827a7d9a6a58dcdfee427923c81b51726a81ed6073",
    "equiv CHAIN2_CARPET DISTORTION_6": "158e89c4c4cab841ec332d5a3ce8b165b4b4b1ba5d330bf33d28cd12b88e10fc",
    "equiv DISTORTION_0 DISTORTION_1": "13381205b0f830d2b57c3d9ce2fae7b6770dca21aef1662df3b74440c6068935",
    "equiv SQUARE_TOP_5 TOP_ISOLATED_11": "43703b670b8147fcd00829556cf7067b0456915016956dde5ad1b6abfad9d060",
    "equiv SQUARE_VSEP_5 SQUARE_TOP_5": "bd7924f38d2b74406d74a6a31eba272135378ace67ad5afa39d21714b6dbaa37",
    "equiv TOP_ISOLATED_11 VSEP_11": "ef0560181ceb6b388012c3d3e800510b4d93e7821a242b42a858cddba194490f",
    "gmap 1,2,3,2 3.2.3.1.1.5(3)": "2cdd006951cabfde8446475bf0f25b3cd52e88a301c7902eba855a2a161e7da5",
    "gmap 1,2,3,2 3.3.1(3)": "6f302db8b75179c0da9ad97afa9f4d051419d62264c3e64b37252c023616c737",
    "gmap 1,2,3,2 4.1.1(3)": "904771e7c67eaaaf7df5f96cc8b86e387385042e0649872093dbafa597ae999a",
    "gmap 1,2,3,2 4.1.1.1(3)": "bccfbfbf2597250b7ddbf5d9f2bc0320dcfa467b3dc0312dcd476adfa21df76a",
    "gmap 1,2,3,2 4.1.1.1.5.3.2.3.1(3)": "7c6c2b88b245c96bc7bbe64f99d43b91a5cf84d2ba7b72ea747ef7db92d44b38",
    "gmap 1,2,3,2 5.2.4(3)": "652b919da65a4bd75979c522baf7bfdfa8d695e742a71c0bbddc3fe0f0db9267",
    "gmap 1,2,3,4 3.2.3.1.1.5(3)": "2cdd006951cabfde8446475bf0f25b3cd52e88a301c7902eba855a2a161e7da5",
    "gmap 1,2,3,4 3.3.1(3)": "c96059d248ac2ddcf487fdfd12e0100f527a8802a1f588aea77661002582c56d",
    "gmap 1,2,3,4 4.1.1(3)": "7f8a440bc010a7c62cd088c73326c4b6cfba7c7b0474499861a39f8b8bdcb7ca",
    "gmap 1,2,3,4 4.1.1.1(3)": "e3190553f801bb8c260b0a82ab13c632d257b661c67e2b0a2ad542ac4287f458",
    "gmap 1,2,3,4 4.1.1.1.5.3.2.3.1(3)": "46cdb5cae4ab654103f2b57dbd766ca4b77102695590b4e1dcfc2eb794bc9f13",
    "gmap 1,2,3,4 5.2.4(3)": "652b919da65a4bd75979c522baf7bfdfa8d695e742a71c0bbddc3fe0f0db9267",
    "gmap bad-context": "0682839c04c4c7649db30f20637a70aff4ec176458439ffda6ac6f85aaa7cf1e",
    "simplify BARANSKI_RATIO": "592b39bb49ac4dc149339f103487dd741083d8b45be7465b3747fde79f9ee520",
    "simplify CARPET_8": "838f5373c3b4ff8f609e8ef7566b26001d57144932905a76ec28d17038aafadd",
    "simplify CHAIN2_CARPET": "fb1420d4bfda789fe8aa4e268572e19aa56b94566a9a1c1ca3ad9a882cf8fa92",
    "simplify DISTORTION_0": "ccbb078ebb9665b28e78d69ec8b960a11755ef3ec57227b55d1a86662d7c0526",
    "simplify DISTORTION_1": "ccbb078ebb9665b28e78d69ec8b960a11755ef3ec57227b55d1a86662d7c0526",
    "simplify DISTORTION_2": "89e9fe8fe1e331d6d505e47b4c9443bd22c937052aaad3ea68eeb73fac419fec",
    "simplify DISTORTION_3": "ccbb078ebb9665b28e78d69ec8b960a11755ef3ec57227b55d1a86662d7c0526",
    "simplify DISTORTION_4": "89e9fe8fe1e331d6d505e47b4c9443bd22c937052aaad3ea68eeb73fac419fec",
    "simplify DISTORTION_5": "89e9fe8fe1e331d6d505e47b4c9443bd22c937052aaad3ea68eeb73fac419fec",
    "simplify DISTORTION_6": "f1df69596221f5c67bb4cde39817af9c61c9b1179c0ad81d6f039c41501b9381",
    "simplify DISTORTION_7": "967aa05469b599f5febd6a83948b29fc6c3e4fd57ad7ac16433e4d96ac60630a",
    "simplify DISTORTION_8": "967aa05469b599f5febd6a83948b29fc6c3e4fd57ad7ac16433e4d96ac60630a",
    "simplify DISTORTION_9": "f1df69596221f5c67bb4cde39817af9c61c9b1179c0ad81d6f039c41501b9381",
    "simplify EXTENDED_9": "d58766d065c70355a4786b4fcd118e5024ae982ec0faefc4ae60874341d22f97",
    "simplify SQUARE_TOP_5": "a9e60cd9f0c1b3954b630de517e4c4c84d3d204285a340e589aafadd9ba64f27",
    "simplify SQUARE_VSEP_5": "2539f1cc34c47c1378e5f07142477885b14c3a74eceb8b3d97c07b9a681292ae",
    "simplify TOP_ISOLATED_11": "5778be6401155d336461a8047d74f209bb4ae41cf95af9f7ad7d5d91302d5a2a",
    "simplify VSEP_11": "2539f1cc34c47c1378e5f07142477885b14c3a74eceb8b3d97c07b9a681292ae",
    "survive-xi SQUARE_TOP_5": "ca713c29419f25004b2de5a5547f7e50eb8275cf2a0b6102207d72fcaae4a082",
    "survive0 BARANSKI_RATIO": "b4f5ff880f7e1062ba3d161223f5ec8bb444783599209875d2f073e2f618c511",
    "survive0 CARPET_8": "dbe9e100273d65d10a6e8392f7e0a382df7c1d05a5304f7d62a9d3cf667bbe98",
    "survive0 CHAIN2_CARPET": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive0 DISTORTION_0": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive0 DISTORTION_1": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive0 DISTORTION_2": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive0 DISTORTION_3": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive0 DISTORTION_4": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive0 DISTORTION_5": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive0 DISTORTION_6": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive0 DISTORTION_7": "28c0cd99edc1ac6e45b1599fb1a671a6e5e1c6a2f372b80de470fb0112f9ac60",
    "survive0 DISTORTION_8": "28c0cd99edc1ac6e45b1599fb1a671a6e5e1c6a2f372b80de470fb0112f9ac60",
    "survive0 DISTORTION_9": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive0 EXTENDED_9": "dbe9e100273d65d10a6e8392f7e0a382df7c1d05a5304f7d62a9d3cf667bbe98",
    "survive0 SQUARE_TOP_5": "361f6e1c63472022645f2f2c946daa7d17cdb30101fe3d7325f7b4b36f0c4e35",
    "survive0 SQUARE_VSEP_5": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive0 TOP_ISOLATED_11": "ece51651e609542f69f87cca0ec9b5742e2e7fef5325e002bdab946937a14128",
    "survive0 VSEP_11": "48a9be50942754dc7142ddd3d8e33ec53adc6919919aa04390b9cddd79b1728d",
    "survive1 BARANSKI_RATIO": "110dc6f80112fce6ed28485afce01a7db297c906f8e9f6ace8af40a1b45cbc18",
    "survive1 CARPET_8": "dbe9e100273d65d10a6e8392f7e0a382df7c1d05a5304f7d62a9d3cf667bbe98",
    "survive1 CHAIN2_CARPET": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive1 DISTORTION_0": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive1 DISTORTION_1": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive1 DISTORTION_2": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive1 DISTORTION_3": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive1 DISTORTION_4": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive1 DISTORTION_5": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive1 DISTORTION_6": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive1 DISTORTION_7": "28c0cd99edc1ac6e45b1599fb1a671a6e5e1c6a2f372b80de470fb0112f9ac60",
    "survive1 DISTORTION_8": "28c0cd99edc1ac6e45b1599fb1a671a6e5e1c6a2f372b80de470fb0112f9ac60",
    "survive1 DISTORTION_9": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive1 EXTENDED_9": "dbe9e100273d65d10a6e8392f7e0a382df7c1d05a5304f7d62a9d3cf667bbe98",
    "survive1 SQUARE_TOP_5": "361f6e1c63472022645f2f2c946daa7d17cdb30101fe3d7325f7b4b36f0c4e35",
    "survive1 SQUARE_VSEP_5": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive1 TOP_ISOLATED_11": "ece51651e609542f69f87cca0ec9b5742e2e7fef5325e002bdab946937a14128",
    "survive1 VSEP_11": "48a9be50942754dc7142ddd3d8e33ec53adc6919919aa04390b9cddd79b1728d",
    "survive2 BARANSKI_RATIO": "110dc6f80112fce6ed28485afce01a7db297c906f8e9f6ace8af40a1b45cbc18",
    "survive2 CARPET_8": "dbe9e100273d65d10a6e8392f7e0a382df7c1d05a5304f7d62a9d3cf667bbe98",
    "survive2 CHAIN2_CARPET": "28c0cd99edc1ac6e45b1599fb1a671a6e5e1c6a2f372b80de470fb0112f9ac60",
    "survive2 DISTORTION_0": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive2 DISTORTION_1": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive2 DISTORTION_2": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive2 DISTORTION_3": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive2 DISTORTION_4": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive2 DISTORTION_5": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive2 DISTORTION_6": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive2 DISTORTION_7": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive2 DISTORTION_8": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive2 DISTORTION_9": "7cde1e2a2142a789359576fe2c91364815ea25e77d9ed93ce37c55fc354d5d7c",
    "survive2 EXTENDED_9": "dbe9e100273d65d10a6e8392f7e0a382df7c1d05a5304f7d62a9d3cf667bbe98",
    "survive2 SQUARE_TOP_5": "47d20e3a8c39d9992640d9acd4a3b49dd5d8af77158810f8e8eefdc92cad0116",
    "survive2 SQUARE_VSEP_5": "361f6e1c63472022645f2f2c946daa7d17cdb30101fe3d7325f7b4b36f0c4e35",
    "survive2 TOP_ISOLATED_11": "ece51651e609542f69f87cca0ec9b5742e2e7fef5325e002bdab946937a14128",
    "survive2 VSEP_11": "48a9be50942754dc7142ddd3d8e33ec53adc6919919aa04390b9cddd79b1728d",
}


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    return write_fixtures(tmp_path_factory.mktemp("fixtures"))


@pytest.mark.parametrize("case", sorted(cases()))
def test_report_is_byte_identical(case, fixture_files):
    assert report_digest(cases()[case], fixture_files) == EXPECTED[case]


def test_every_case_is_pinned():
    assert set(EXPECTED) == set(cases())


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = write_fixtures(pathlib.Path(tmp))
        print("EXPECTED = {")
        for case, argv in sorted(cases().items()):
            print(f'    "{case}": "{report_digest(argv, files)}",')
        print("}")
