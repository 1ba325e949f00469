"""Golden CLI runs: stdout SHA-256 and exit code of a fixed set of invocations.

The expected digests were captured from the CLI before its record builders
were merged into one method table; any change to what a subcommand prints
shows up here.  Four digests pin ``Generator.beta`` output, because they
print de Finetti estimates: ``simulate --b 5 --w 3 --method definetti
--samples 2000 --seed 11 --format json`` and the three ``_SWEEP_ALL``
cases (CSV by default, ``--format text`` and ``--format json``).  They were
re-captured when the de Finetti route moved from order statistics of
uniforms to one Beta draw per sample; every other digest is unchanged.
"""

import hashlib
from typing import get_args

import pytest

from polya_urn import cli
from polya_urn.output import Method, load_output_schema

_SIM = ("--samples", "2000", "--seed", "11")
_SWEEP_ALL = (
    "sweep", "--b-range", "2:9", "--w-range", "1:8",
    "--methods", "exact,binomial,complement,dp,mc,definetti,normal,chernoff",
    "--horizon", "30", "--samples", "200", "--seed", "4", "--streams", "2",
)

# (argv, exit code, stdout SHA-256)
GOLDEN = [
    (("exact", "--b", "7", "--w", "3", "--form", "theorem", "--format", "text"), 0,
     "2b9056d6a48f047f499006c83679e1a915efb467c845bf724a9d18148bdd7193"),
    (("exact", "--b", "7", "--w", "3", "--form", "theorem", "--format", "csv"), 0,
     "10527fba14abd5113db4f3c6095ce72dd04c16b4443c83dde7d313ae9de05020"),
    (("exact", "--b", "7", "--w", "3", "--form", "theorem", "--format", "json"), 0,
     "2cd907809f97a6b24cb9aa92b3eb2a0045c8595b4808a53378bd6f30bf8e13b7"),
    (("exact", "--b", "7", "--w", "3", "--form", "binomial", "--format", "text"), 0,
     "a9114898068bea861207563ce8a7d70ced257f4d72f9e80e9a62e40e04171a1c"),
    (("exact", "--b", "7", "--w", "3", "--form", "binomial", "--format", "csv"), 0,
     "a5734e504c6452a7c90bc1b7574272f01b34b3c2821102d68efa9cb01fcfc453"),
    (("exact", "--b", "7", "--w", "3", "--form", "binomial", "--format", "json"), 0,
     "1e1432a7485ef96d91b3c2d8db4738665e1d44c77863c928afce1a75e8f34956"),
    (("exact", "--b", "7", "--w", "3", "--form", "complement", "--format", "text"), 0,
     "c575138169be0cdbd7441ecf3f8e8e507ff012f6609e52983d47cd98e076ae50"),
    (("exact", "--b", "7", "--w", "3", "--form", "complement", "--format", "csv"), 0,
     "81cb2e12c79b3fe8ed1170f5fc30cae8eac64722a79990e84f9ae64a557fddf8"),
    (("exact", "--b", "7", "--w", "3", "--form", "complement", "--format", "json"), 0,
     "2a4f515b81c5c9e9530c82289c9a4076357360af931e9b57ae380902ac21ac65"),
    (("exact", "--b", "7", "--w", "3", "--form", "all", "--format", "text"), 0,
     "da21a943635239d09f27b9a1b8dfbd37906323f00e3d146d4fca9f00903027a2"),
    (("exact", "--b", "7", "--w", "3", "--form", "all", "--format", "csv"), 0,
     "8f12372d19593a8a694ac30e7b9bd8ed421710ea3dd63bebd5f70d22cc1291e2"),
    (("exact", "--b", "7", "--w", "3", "--form", "all", "--format", "json"), 0,
     "62da0b067005c3218f3d02da2f656400bca8009017cbea9bd4f3b692677482a3"),
    (("exact", "--b", "5", "--w", "5"), 0,
     "f8d14cb6ca0fa39cb2ce15d2df7b2eac346dbef4f498a7d669ed0883789ac2c2"),
    (("exact", "--b", "2", "--w", "3"), 0,
     "a006eaba9a1599aa6d23b2c80e9788fea286cd83df7006d31ba6334cfc13189e"),
    (("exact", "--b", "3", "--w", "3", "--form", "all"), 0,
     "72a4410ac3898df12ddc2f583e14979c7f138470c55bca5fde731b4b62156b14"),
    (("exact", "--b", "2", "--w", "3", "--form", "all", "--format", "json"), 0,
     "94d16e8040d86bf8a2faf1eecd3181a6df4e360bb1afff7fb8d7a0d8b749b9ba"),
    (("dp", "--b", "2", "--w", "1", "--horizon", "50"), 0,
     "b93325387ec68865b719e646bd8fed3618e078d4ec45bdbe6dfbf8c8ed93f741"),
    (("dp", "--b", "2", "--w", "1", "--horizon", "20", "--emit-pmf"), 0,
     "8186fbe17f95a68e565a87f2e7b7425fe4ef220e6d46ff0a3eaf82d092ee23fa"),
    (("dp", "--b", "3", "--w", "2", "--target", "-2", "--horizon", "40", "--format", "json"), 0,
     "52a77c99a8d5cfc8d756161fd01d9d33b675e15e1db701411aeeb16c8f3b542f"),
    (("dp", "--b", "3", "--w", "2", "--target", "3", "--horizon", "40", "--format", "csv"), 0,
     "9ac4189584ed53b9342e62da0b13a666b08d04766fb8d20edb550ff2b22eb309"),
    (("dp", "--b", "2000", "--w", "1999", "--horizon", "3000", "--format", "csv"), 0,
     "69c922ff0542655efe88723ec21baf48a2a098a57b6c7c18961300dc8e3c5d08"),
    (("simulate", "--b", "5", "--w", "3", "--streams", "2", *_SIM), 0,
     "830eb4f3b2ab53e63652fed3db0f4609a0d7dc73366c4474470b02b26a647ad7"),
    (("simulate", "--b", "5", "--w", "3", "--method", "definetti", *_SIM, "--format", "json"), 0,
     "5cf4bfa66cece9c5a279b00d5e09d56659c0355cf46afa8423e16423ba9663fa"),
    (("simulate", "--b", "2", "--w", "1", "--samples", "20", "--horizon", "20001"), 0,
     "8a409c5c1c72d0cf6253f39b4f5a74fff59e17968013182481d561beec86d1f4"),
    (("simulate", "--b", "500001", "--w", "500000", "--horizon", "20000", "--samples", "1",
      "--seed", "11", "--format", "csv"), 0,
     "9d9d6de6e04ceedbdf424ac4a776b5086cd52c708c201a64e47366352283b1e7"),
    (("simulate", "--b", "2", "--w", "1", "--samples", "1", "--seed", "1"), 0,
     "a2f96d14ed4b0143cfa2a5ef94965d7ac66d3b4631708542545bc731ab1533f1"),
    (("approx", "--b", "5", "--w", "3"), 0,
     "6d0273ee1ec3c7725977edad2d066fc8babb400836c2b52b01e8db00626d24ac"),
    (("approx", "--b", "9", "--w", "1", "--method", "normal", "--format", "csv"), 0,
     "a3dbe4806ae12bb845eeda75c033b22edb62b4f3555582f3407c92ba04dc0904"),
    (("approx", "--b", "40", "--w", "12", "--method", "chernoff", "--format", "json"), 0,
     "93242bd0db593924872322e8e5ab17892514163bef9b18b7d5e2e2b2e8197588"),
    (_SWEEP_ALL, 0,
     "cf1b8cdee7d6c681f40e35743cd59485af1bef7db5f1b1e016858d86c626d72f"),
    ((*_SWEEP_ALL, "--format", "text"), 0,
     "343f11136bb481746b2c1f98a3925bcea08fa5d3365e3958057333afd5e62083"),
    ((*_SWEEP_ALL, "--format", "json"), 0,
     "ab5f3fd449f648b148f38d6290f046de51c6ef3f744bd388a86b59678d0e752b"),
    (("identity-check", "--max-total", "40"), 0,
     "095988ae244c5f1f9da9f19201bed1fac474a9f90780b3cebbc9989db06560b0"),
    (("exact", "--b", "2", "--w", "3", "--form", "binomial"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("exact", "--b", "4", "--w", "4", "--form", "complement"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("exact", "--b", "0", "--w", "1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("dp", "--b", "2", "--w", "1", "--horizon", "10000000"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("simulate", "--b", "2", "--w", "2", "--method", "definetti"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("approx", "--b", "3", "--w", "3"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("sweep", "--b-range", "2:3", "--w-range", "1:1", "--methods", "magic"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("sweep", "--b-range", "2:3", "--w-range", "1:1", "--methods", ","), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("sweep", "--b-range", "2:3", "--w-range", "5:6"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("sweep", "--b-range", "3:2", "--w-range", "1:1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(capsys, argv) -> tuple[int, str]:
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code, sha256", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN]
)
def test_golden_invocation(capsys, argv, code, sha256):
    got_code, out = _run(capsys, argv)
    assert (got_code, _digest(out)) == (code, sha256)



def test_method_names_agree_across_schema_type_and_cli_table():
    schema = load_output_schema()
    enum = schema["properties"]["records"]["items"]["properties"]["method"]["enum"]
    assert enum == list(get_args(Method)) == list(cli.METHODS)
