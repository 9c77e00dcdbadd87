"""Byte pins for the writers: the sha256 of the stdout of a fixed list of
`bounds`, `phenomenon` and `verify` invocations, and of the SVG files that
`figure` writes.  The table digests were recorded from the writers before the
bounds columns were filled from the two half renumbering tables, the
`--digits 640` ones before the formatters took a whole column, the `verify`
ones before each report was written as it was made (the N = 6 ones before the
simplex pivoted in integers), and the `figure` ones before each SVG element
was written from one template, so any change to a byte of any output shows
here.  The `--format table` digests for N <= 3 were
recorded again when the rows' value columns were aligned under the header's,
and the `table-digits640` and N >= 10 `table-exact` ones when each value column
widened to fit the longest text it can hold."""

import contextlib
import hashlib
import io
import json

import pytest

from halfrare.cli import main

#: Marginal sets: N = 1, 2, 3, 10 and 11, general and half-rare, with the
#: probabilities 0, 1/2 and 1 and with ties.
SETS = {
    "n1-general": "0.7",
    "n1-half-rare": "1/2",
    "n2-general": "1,0",
    "n2-half-rare": "0.45,0.40",
    "n3-general": "0.9,1/2,0.9",
    "n3-half-rare": "1/3,1/3,0",
    "n10-general": "0.45,0.7,1/3,1/3,0,1,0.5,2/3,0.9,0.2",
    "n10-half-rare": "0.5,0.45,0.45,0.3,0.3,0.2,0.1,0.1,0.05,0",
    "n11-general": "0.9,0.1,0.5,1,0,2/3,1/3,0.75,0.25,0.6,0.6",
    "n11-half-rare": "1/2,1/2,0.4,0.4,1/3,0.25,0.2,0.2,0.1,1/7,0",
}

MODES = {
    f"{fmt}{name}": ["--format", fmt, *extra]
    for fmt in ("table", "json", "csv")
    for name, extra in (("", []), ("-exact", ["--exact"]), ("-digits0", ["--digits", "0"]),
                        ("-digits640", ["--digits", "640"]))
}

#: Labels the writers must quote or escape: empty, a comma, a quote, non-ASCII.
LABELLED = {"events": ["", "a,b", '"', "é", "x"],
            "probabilities": ["0.7", "1/2", "0.2", "0", "1/3"]}

#: `verify` reports: one input set, and K random sets, general and half-rare;
#: then the same at the LP cap N = 6, the input set tied and holding 0 and 1.
VERIFY = {
    "verify-p": ["verify", "-p", "0.45,0.40"],
    "verify-random": ["verify", "--random", "3", "--n", "3", "--seed", "7"],
    "verify-random-half-rare": ["verify", "--random", "2", "--n", "2", "--half-rare"],
    "verify-p-n6": ["verify", "-p", "0,1/2,1,1/2,0,1"],
    "verify-random-n6": ["verify", "--random", "2", "--n", "6", "--seed", "1"],
    "verify-random-half-rare-n6": ["verify", "--random", "2", "--n", "6", "--half-rare"],
}

#: `figure` charts: the penta-plet, and a general N=8 set at the figure cap.
FIGURES = {
    "figure-pentaplet": "0.45,0.40,0.35,0.30,0.25",
    "figure-n8-general": "0.9,0.1,0.5,1,0,2/3,1/3,0.75",
}

DIGESTS = {
    "n1-general/table": "b44e1e2fd561910069630122fee2862cefe899c0407659ad2d4feeec51e5e5bb",
    "n1-general/table-exact": "59f7d65ea7e56bb79c7f896bbddfddc6dadc287b770ad7dbff6ad4f690d58956",
    "n1-general/table-digits0": "304d01c5349aac57e4698af2c3e554397433cf48914b81ad6e5964c6e77e0e12",
    "n1-general/table-digits640": "e851e4771ad4e3d2b3f5d0514c0e37bdf1a5e59240ff172e0d2ad0cc35da3f94",
    "n1-general/json": "c033f88a41baab3e9704b5369b99ac0ff5200736e9ee157d04cf75601259da34",
    "n1-general/json-exact": "4c7d3ac5656ee8de2531d5089ae0ff252970e965647b40150b8a966dfaa94948",
    "n1-general/json-digits0": "0a5c8c67626a279c8f059e85e859a43f6a2209b7a84607556a984921d4804b64",
    "n1-general/json-digits640": "c033f88a41baab3e9704b5369b99ac0ff5200736e9ee157d04cf75601259da34",
    "n1-general/csv": "d530c838a89eb48c86691fe0cbed71e903c009660aeb3299d5640a0543435867",
    "n1-general/csv-exact": "b57a783deaf93365b52e94f0db69d2211e80b6afaa71021d71c88996d5dda8c4",
    "n1-general/csv-digits0": "6af205dd0c538266def8794ca3cdf800845d2a0843b52a91df55a1340d428b48",
    "n1-general/csv-digits640": "d530c838a89eb48c86691fe0cbed71e903c009660aeb3299d5640a0543435867",
    "n1-half-rare/table": "77b43996d93462b3f030597f7647da597b274ee5097b9db60b7a41300c04b0aa",
    "n1-half-rare/table-exact": "cba95292dad68dd13bf8b42d1b68a4da0457fdf23448e635efd04920211b5da8",
    "n1-half-rare/table-digits0": "1cf5f75272dd5f4c4d0db4e8b26142d19ea2cca57afa4a9b321e360c1c7c37ab",
    "n1-half-rare/table-digits640": "f8bc74aff009ef4db0f2973b038f221f4c83310e6a6b340f84b1c555395cf68d",
    "n1-half-rare/json": "2cec384192df472cbeb66ed91e68a478b4c3a4611aeba80d857ed699910f94f2",
    "n1-half-rare/json-exact": "eabe887fc720d7fe1b6a6ff03bf05bef6f14b69e11b7a8ea67fd1163836d0827",
    "n1-half-rare/json-digits0": "f570eb36ffcc60ffbd119c43c09403ccb8b76292ab330a21f4bbf1b885bbd9e5",
    "n1-half-rare/json-digits640": "2cec384192df472cbeb66ed91e68a478b4c3a4611aeba80d857ed699910f94f2",
    "n1-half-rare/csv": "16d59515e47080ba46716b378d92093eea63b78894ef9ff72461f7f99c19068d",
    "n1-half-rare/csv-exact": "4b790019d468779b91c7b222de95fdb11cc5e956cb6f305acacc1ec1d79eb0f6",
    "n1-half-rare/csv-digits0": "7e2ce1e63630cb9283cc30ef4e6c898729452d2748d32fc613f78a8c2cdd87d4",
    "n1-half-rare/csv-digits640": "16d59515e47080ba46716b378d92093eea63b78894ef9ff72461f7f99c19068d",
    "n2-general/table": "86c6e4dc011f6ef7ea904f0664834928a14b26745f4d81920c6f10d24c1edd52",
    "n2-general/table-exact": "86c6e4dc011f6ef7ea904f0664834928a14b26745f4d81920c6f10d24c1edd52",
    "n2-general/table-digits0": "86c6e4dc011f6ef7ea904f0664834928a14b26745f4d81920c6f10d24c1edd52",
    "n2-general/table-digits640": "e342d67848970743f23ce2e9e50a23ac8d2049e2be56c26d57fe64ca8f3cc3c8",
    "n2-general/json": "e373f7e22a3389eecd2bb3878cc808b02bef156a30f3f37d4dad16bbbe56eb15",
    "n2-general/json-exact": "e373f7e22a3389eecd2bb3878cc808b02bef156a30f3f37d4dad16bbbe56eb15",
    "n2-general/json-digits0": "e373f7e22a3389eecd2bb3878cc808b02bef156a30f3f37d4dad16bbbe56eb15",
    "n2-general/json-digits640": "e373f7e22a3389eecd2bb3878cc808b02bef156a30f3f37d4dad16bbbe56eb15",
    "n2-general/csv": "4fb4c4f24ed400ee6e68b23b2dd5f041323fb0a21a22534279bae04541c523ab",
    "n2-general/csv-exact": "4fb4c4f24ed400ee6e68b23b2dd5f041323fb0a21a22534279bae04541c523ab",
    "n2-general/csv-digits0": "4fb4c4f24ed400ee6e68b23b2dd5f041323fb0a21a22534279bae04541c523ab",
    "n2-general/csv-digits640": "4fb4c4f24ed400ee6e68b23b2dd5f041323fb0a21a22534279bae04541c523ab",
    "n2-half-rare/table": "65dbb38e67c6c0eec1533aa28fe6b74e19fa096cff821ee2410f5201da7c9b7b",
    "n2-half-rare/table-exact": "09945e2f302ff1142949068109cdd8421159186caf56c4a6657a1603a204573c",
    "n2-half-rare/table-digits0": "54fdf3a6d13f01daed017b04281e64b0813f99fda6c9016d3180d4a020d06b05",
    "n2-half-rare/table-digits640": "6f08496fb5a1826ac299f757a7f31e01cb00ce05f2fd008e885c9ae40038f5e3",
    "n2-half-rare/json": "dcd23b77364def394bedcf5cd532a8cb1866cc257b72152f2c68f20100622251",
    "n2-half-rare/json-exact": "d4d5c851ba578c51c065753abac894e6e7dd159cdabd9fc630923b1839e31fbf",
    "n2-half-rare/json-digits0": "f95d8b7207529ded2a35e1b9f0e796458ff7813d8e8b177b0a1879a47db856b3",
    "n2-half-rare/json-digits640": "dcd23b77364def394bedcf5cd532a8cb1866cc257b72152f2c68f20100622251",
    "n2-half-rare/csv": "67b187cf3eb6de1ed42a89d5ad1ced649422d96a162712b15a0cadefa9d710b6",
    "n2-half-rare/csv-exact": "61dbf27ebab9fb43739d75f71bd09d49ac8284f434bd100fd5622689b6eeffb7",
    "n2-half-rare/csv-digits0": "c50277fdaff701c6af25ccbc7530f7b3a27eb5677ec823be87b7d91c8251e439",
    "n2-half-rare/csv-digits640": "67b187cf3eb6de1ed42a89d5ad1ced649422d96a162712b15a0cadefa9d710b6",
    "n3-general/table": "5066c2d05e9dadcef2e3a42accbd0018e67be6f39e6e906ce506f8db6b7b5814",
    "n3-general/table-exact": "7a28943e486fb54d1e088694fd760b6d9430bede74d0ead8d8e0af99f0c233e3",
    "n3-general/table-digits0": "319e58a7d95d521732afe160b19e3c53784252be17d361b3a7d6b7482568cff3",
    "n3-general/table-digits640": "7573b7aff5983a0cd2a16600136e7cee65648b00de70af670ca10d6a92dc7df6",
    "n3-general/json": "f75e9d63e5d1a1336f9b3b115a50a355564f051952ddb486d7273228ba9f1a3a",
    "n3-general/json-exact": "c7e85056b4db54e22a3049e270148a944c696e859196a042c8f020e4432be1ff",
    "n3-general/json-digits0": "ed818eb2aa566df5b053847c8e7110f069f3b9393d51a584b04cd679ff33df29",
    "n3-general/json-digits640": "f75e9d63e5d1a1336f9b3b115a50a355564f051952ddb486d7273228ba9f1a3a",
    "n3-general/csv": "fe5b313a2487c5210350f86c597da1e51be27688e3e3670ce1676bd6aac5d332",
    "n3-general/csv-exact": "385fab3766c978370ac9a2152fe9d7b0ef3d9315839c2bef9b8f81dba6217b07",
    "n3-general/csv-digits0": "2d2c11cfd02d2abd15cd95ea5caf9bf0d9e1cee28c2be3052dec79c03b37a3d7",
    "n3-general/csv-digits640": "fe5b313a2487c5210350f86c597da1e51be27688e3e3670ce1676bd6aac5d332",
    "n3-half-rare/table": "003b984ef1e7bd91f956c7fb5087f60244a759584e1603832705798953f92501",
    "n3-half-rare/table-exact": "5009c5408b569d44cc3c8932a7f2e913369eebc9e08d9401fa8f22b42653b6da",
    "n3-half-rare/table-digits0": "c6f6f2789510aee4056e42156df08688c7c04bd9db68438c30584cdf795c14e0",
    "n3-half-rare/table-digits640": "d05b5aaab48cf5db5f3aea8e2c6c8c9d74eea0eb4f5c354843fb6762865d1886",
    "n3-half-rare/json": "c6617bff58f361f81291b129ae629f98b02fe44f314a2b68fe1161e267df682a",
    "n3-half-rare/json-exact": "a52e94bcbdb3914fa0a42786b53b3d22e076e01685fd35c98d67896beb8c33e7",
    "n3-half-rare/json-digits0": "32f2443d6f5b7f06860d3f7eb5170fdb433b9ecd727f0bbeeaa2689e66af3889",
    "n3-half-rare/json-digits640": "a86c83ee36e2549bb5d328b708c90c9b3954d42125472826adb535ba10eda2d4",
    "n3-half-rare/csv": "d11bc5235043707804cb5258332bf4403b8e9c173603027d063f47b934015db1",
    "n3-half-rare/csv-exact": "565fe58e62267722322be5ef5ef6f2a6bcc855ed3a8c0a3d0102aedf672e3e2b",
    "n3-half-rare/csv-digits0": "3bf7241f88bd6d04d7a684ca63020f5a0eb97438917b7874b4df59743a360914",
    "n3-half-rare/csv-digits640": "6fd2a87671e92e174b77a83a15d40cedcc3ba9c96718b49ae37c9d1d17ba9e66",
    "n10-general/table": "9dcf4e1b26b759a5c8174248af12888a9815a40bdbdeb4d8fd3af9c9cf8ea382",
    "n10-general/table-exact": "18c09e08939354436e613d3c4e4ee6f160df45778dd0149391bc05858650911a",
    "n10-general/table-digits0": "47ca33f67bf5b627d01174f241da66183dc3bdf64d0e254d5c52f0e69742ec2e",
    "n10-general/table-digits640": "f3dc7129e9ac3519a56cffcc09aa8bfb1d3c365356d4b7d0397cc9d5447fd1dd",
    "n10-general/json": "6a8cfbedf41fc666152920ce99d287d517ceef5c0c520abf63fc9908b1d87f4e",
    "n10-general/json-exact": "607a681efc3880e46ea09d75cdbc34f504d48a965f13b56999b2ede387cd157b",
    "n10-general/json-digits0": "09306994116ff291c6639bf97212ebaa6c8376550a01670e84daf5d041fc4c37",
    "n10-general/json-digits640": "98447de24acd25ef6a0dd598e131f8c2679a1c1b0d08ce53fb717f9301b82c4c",
    "n10-general/csv": "ba42a1092673879fc4880c7b5f8126a95eb4a2dbcf7cea4cff2537ed01f0a871",
    "n10-general/csv-exact": "c256439628dcd81d40b79846435f481ba1e4fb781d491e7c563c33e274041ee1",
    "n10-general/csv-digits0": "d965296037ecd05bc0830251748773c84de31352ce50918b1d97cd22476ad627",
    "n10-general/csv-digits640": "529f4892c030a285c1b95573d15a1538f9f23e16d57cfa3f249d8638bf52543d",
    "n10-half-rare/table": "d8fef5cf8dfe1fe0bb8232d244509518597d9f6f42e75dd9918c7118b0e1fcf0",
    "n10-half-rare/table-exact": "19357fe59137d239571d61279f3ac281e54d5f29886d4f0bb242dad94aff82e7",
    "n10-half-rare/table-digits0": "47ca33f67bf5b627d01174f241da66183dc3bdf64d0e254d5c52f0e69742ec2e",
    "n10-half-rare/table-digits640": "8b806b7fb9d4361d0e1d2155d536f62149cc944d3e6fe31af3be5019318b4adc",
    "n10-half-rare/json": "5b8254a45f897553963d02a3f0e9076a1a23b0c31f48a3282e039baf4c9b918a",
    "n10-half-rare/json-exact": "9d8088acd148e1ad9d6e5adb2977c6478007de9bb4bb445b188e275acc2936b3",
    "n10-half-rare/json-digits0": "09306994116ff291c6639bf97212ebaa6c8376550a01670e84daf5d041fc4c37",
    "n10-half-rare/json-digits640": "d3deee3a88053d44517e203afbe52a866db55bf96e6805b0f779960921a2b8e0",
    "n10-half-rare/csv": "412cac194494001523049043ad22dc9971d7b49fe589be638fd4fa9bfb6ba734",
    "n10-half-rare/csv-exact": "6ed37b3b4d25e9792ead32ba3c8d70e745a8ab99fc0237486204113ccef5e3e1",
    "n10-half-rare/csv-digits0": "d965296037ecd05bc0830251748773c84de31352ce50918b1d97cd22476ad627",
    "n10-half-rare/csv-digits640": "1b7b1637a7b39d0cf02e7f5c6ea1b3a8cfa3cde07761a5a0c15b57d99367f39d",
    "n11-general/table": "59ab533c11ee2a70df153970c37ecf0da4933edc59ee1ca087180ce61f3e49d7",
    "n11-general/table-exact": "76d12a8cf331d3f95c6a142faddaa1402949026b7194c5e946149f7dd9f97db9",
    "n11-general/table-digits0": "87892595f0306ea9f7d0b2672aea797741493bd49aa04cba9646505d76566909",
    "n11-general/table-digits640": "207028a25fec57edbcd35b10599e9881a29918de0a2767d09a5b1e8616232ae9",
    "n11-general/json": "baf2df1442c11bf3f8c4b423ee753acf7384c4351ab01583ca361eeee9da5fac",
    "n11-general/json-exact": "4089ad302ade12147b317df40e84e7de5352a80abcf1ca46e42baab93eee3199",
    "n11-general/json-digits0": "585666ef43c4569072dd42dc957b19550dfd9cdbc464009cc196b90ee3480119",
    "n11-general/json-digits640": "09f7b07f1dc24ff36f7f561c9566ea84b2d0975543b0eb6c3084c99a6576fcf2",
    "n11-general/csv": "c992b0b2bf1b519a66085c38ca24bafc6af5b2b0548dd74932aedd4d40e28e56",
    "n11-general/csv-exact": "552c4ff9e5d6001ca3c3e9780097ce366a62c6f502c374a35f136d723b2aa636",
    "n11-general/csv-digits0": "590c22ea70ab19be606050d72a038a049844353179d9cb65a490ef9027ec04f9",
    "n11-general/csv-digits640": "89c8cc838b55cf000342ffb6e5812a2ec50a2b4a24a017f275f5e6ced33f64c9",
    "n11-half-rare/table": "7ecf27738bd765d6d4671d1705adfaaa8faeaa99737810b858361ea3b0652345",
    "n11-half-rare/table-exact": "1c8f79251371d29323f0152b4ff8a759c19385a543d0bea4667e503d31593ec7",
    "n11-half-rare/table-digits0": "87892595f0306ea9f7d0b2672aea797741493bd49aa04cba9646505d76566909",
    "n11-half-rare/table-digits640": "143eeed01aaa67f8c00143a2a65a908a42c337f52349e20791b640a39ccbd830",
    "n11-half-rare/json": "d0b7d8eb0e54c3f97f80a7673e5a7a2c9dd8d67f671dbfc6d404e5e0f7e24845",
    "n11-half-rare/json-exact": "881fe28b1d065846021bab85ab4c789b9ed5c4e3ca0f6b69faf771255d9d0e9a",
    "n11-half-rare/json-digits0": "585666ef43c4569072dd42dc957b19550dfd9cdbc464009cc196b90ee3480119",
    "n11-half-rare/json-digits640": "3edfd3da65ddbd5dc6d522b4f964a256ae5c051809b35946b335185c4e5b9c97",
    "n11-half-rare/csv": "a64d675f0fd23690a0745a093afdefdf5967ba9ed1c221cc87eeba1830276ce0",
    "n11-half-rare/csv-exact": "98290930429da046c89fdabad70cac5851833289eb157198f79f32d40ebafd43",
    "n11-half-rare/csv-digits0": "590c22ea70ab19be606050d72a038a049844353179d9cb65a490ef9027ec04f9",
    "n11-half-rare/csv-digits640": "74efec0bf66e0cdc9ff0398780550e978f52f7cb8750f06f54771ad74053d63f",
    "n5-labelled/table": "37a450109ecb3bac08a5e2b63819ac6ea2bb32dfd4803247cf8bc238939001c4",
    "n5-labelled/table-exact": "9bf3b08bec41179e44a64cf26c0dfee1163b439d9dbea3b6fdd89c482c83d632",
    "n5-labelled/table-digits0": "eb042458c89877002c60bb3492d1db57f275f0778c6f33101d060c5458d5dffd",
    "n5-labelled/table-digits640": "00ed6a6942c3c08f0cce185ee761a5bc069915e409c8f997352ebb757d15d62a",
    "n5-labelled/json": "30dcbfffa453e9b2d622290bcae34a6bca2bd4cc612caa1e98dbec6ba12fe6c0",
    "n5-labelled/json-exact": "373a4fb8de24098fc363983edfbb47ae691ab22d0e08c6e201ce9433e029ef52",
    "n5-labelled/json-digits0": "20c316c14d9128ed95777579e72b8169727fedb09a7b44bb1c3dc1e6c07623bd",
    "n5-labelled/json-digits640": "112688353e0f59d1f12882709682bd178514098bf86efc6873ea01245f5932aa",
    "n5-labelled/csv": "0faeffd079dbc15590dbea7ed35dfbfe3e1e067f6b117b22a59b21f579a1ba89",
    "n5-labelled/csv-exact": "8c24bb3f2adfad618f1fb6b021626daec3f6cc16437f4eb9ec4dc4e3024a44b7",
    "n5-labelled/csv-digits0": "76780557e9bae004163b5ef0981894dba7f604e5291daded9f1d1f28b1cb4b78",
    "n5-labelled/csv-digits640": "c35a449316bdd837bdfc56f9261a9f2e4dbda13b0eb174743feb0d3b713d4260",
    "phenomenon-n7": "5333b79631067d2ac048ea82dbda9aa5f577c9c2b5ad044947e8d2668c5ed148",
    "verify-p": "d8f35ad2a43aadfe275ceeda556052dd7704cb3b3a6c03f7ef6a80ec3a6dad27",
    "verify-random": "6e2a751a090a113bcaee2aeb42b8cfd0e02f534c8d3d5e854d115497ba03c4d5",
    "verify-random-half-rare": "d7bc339c0a28780a5377c4b0cacc791083d5773648869c0f8251b4141c8042f4",
    "verify-p-n6": "82cd238b58b7fc232e421730d4c9e74fffa2a25eb6600cba44c6055817b2a96e",
    "verify-random-n6": "1a1be76a68dbf5c8b5938ebdc730be3ad6bb57558a43356c81be11e1a0bff25d",
    "verify-random-half-rare-n6": "fa39ca20144dab63b0bd8196e57166f54b5860f4a31b8c74fd02f20046b8e64d",
    "figure-pentaplet": "ad9088b7035255359ee49680799b100e8d2ff28fae3b5e73e635659b5f715b11",
    "figure-n8-general": "57ab38a9452d2c37761e88645a713d40abd5ce34678573a7cc3621ca23349872",
}


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def invocations(document_path):
    """(name, argv) of every pinned invocation."""
    for set_name, probs in SETS.items():
        for mode, extra in MODES.items():
            yield f"{set_name}/{mode}", ["bounds", "-p", probs, *extra]
    for mode, extra in MODES.items():
        yield f"n5-labelled/{mode}", ["bounds", "-i", document_path, *extra]
    yield "phenomenon-n7", ["phenomenon", "-p", "0.8,0.3,1/2,0,1,0.3,2/3",
                            "--kept", "x1,x3,x6"]
    yield from VERIFY.items()


@pytest.mark.parametrize("set_name", [*SETS, "n5-labelled", "phenomenon-n7", *VERIFY])
def test_table_bytes_pinned(tmp_path, set_name):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(LABELLED), encoding="utf-8")
    got = {
        name: _digest(argv)
        for name, argv in invocations(str(path))
        if name.split("/")[0] == set_name
    }
    assert got and got == {name: DIGESTS[name] for name in got}


@pytest.mark.parametrize("name", FIGURES)
def test_figure_bytes_pinned(tmp_path, name):
    path = tmp_path / "figure.svg"
    assert main(["figure", "-p", FIGURES[name], "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
