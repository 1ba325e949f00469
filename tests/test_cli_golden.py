"""Golden CLI runs: stdout SHA-256 and exit code of a fixed set of invocations.

The expected digests were captured from the CLI before its record builders
were merged into one method table; any change to what a subcommand prints
shows up here.  Four digests pin ``Generator.beta`` output, because they
print de Finetti estimates: ``simulate --b 5 --w 3 --method definetti
--samples 2000 --seed 11 --format json`` and the three ``_SWEEP_ALL``
cases (CSV by default, ``--format text`` and ``--format json``).  They were
re-captured when the de Finetti route moved from order statistics of
uniforms to one Beta draw per sample; every other digest is unchanged.

The nine CSV digests (``--format csv`` of ``exact`` theorem, binomial,
complement and all, of ``dp`` at (3, 2) target 3 and at (2000, 1999), of
``simulate`` at (500001, 500000), of ``approx`` at (9, 1), and the default
CSV ``_SWEEP_ALL`` case) were re-captured when the never-set ``stream_id``
column left the records: each new output equals the old one with that
column cut out.  Text and JSON output did not change, as JSON and text
already dropped unset fields.

Seven direct-simulation digests were re-captured when both Monte Carlo
routes moved to one sample-variance standard error, which for 0/1 hits is
sqrt(p(1-p)/(n-1)) instead of sqrt(p(1-p)/n): ``simulate --b 5 --w 3
--streams 2 --samples 2000 --seed 11``, ``simulate --b 2 --w 1 --samples 20
--horizon 20001``, ``simulate --b 500001 --w 500000 --horizon 20000
--samples 1 --seed 11 --format csv``, ``simulate --b 2 --w 1 --samples 1
--seed 1`` and the three ``_SWEEP_ALL`` cases.  Only the direct rows'
``std_err``, ``ci_lo``, ``ci_hi`` and ``z_score`` digits moved, and the two
1-sample runs, whose effective sample size is their hit count (1 and 0),
gained the note "effective sample size ... < 10: out of MC reach"; every
estimate and every de Finetti row is unchanged.

Five direct-simulation digests were re-captured when the direct route
moved to 32-bit halves of raw Philox words and stopped stepping paths that
can no longer reach the target: ``simulate --b 5 --w 3 --streams 2
--samples 2000 --seed 11``, ``simulate --b 2 --w 1 --samples 20 --horizon
20001`` and the three ``_SWEEP_ALL`` cases.  Only the ``mc`` rows moved;
every exact, dp and de Finetti row is byte-identical.  The other direct
runs (one sample each) drew the same outcome on the new stream.

Four direct-simulation digests were re-captured when the direct route
moved to level counts, one binomial draw per live level: ``simulate --b 5
--w 3 --streams 2 --samples 2000 --seed 11`` and the three ``_SWEEP_ALL``
cases.  Only the ``mc`` rows moved; every exact, dp and de Finetti row is
byte-identical.  ``simulate --b 2 --w 1 --samples 20 --horizon 20001`` and
the one-sample runs step at most ``_FEW_PATHS`` paths, all in the
unchanged list stage, so their digests stand.

Five direct-simulation digests were re-captured when the list stage moved
from 32-bit halves of raw Philox words to one ``Generator.random`` double a
path-step: ``simulate --b 5 --w 3 --streams 2 --samples 2000 --seed 11``,
``simulate --b 2 --w 1 --samples 20 --horizon 20001`` and the three
``_SWEEP_ALL`` cases.  Only the ``mc`` rows' ``value``, ``std_err``,
``ci_lo``, ``ci_hi``, ``z_score`` and ``note`` fields moved; the
one-sample runs drew the same outcome on the new stream.  The
``_WINDOW_ONLY`` digest was captured before that change; its run never
enters the list stage, so it pins the window's draws across it.

The two ``_SWEEP_MID`` digests (JSON and text) and the one-pair ``sweep
--b-range 5:5 --w-range 3:3 --methods exact`` were captured before ``sweep``
took its closed forms from the w-column recurrence and streamed its rows;
they pin streamed JSON and text, and columns that start mid-range.

``simulate --b 2 --w 2 --method definetti`` was re-captured when the de
Finetti route stopped refusing b <= w: it exited 2 with no output, and now
prints the tie's estimate, exactly 1 with a degenerate CI.  Every de Finetti
run at b > w is byte-identical.
"""

import hashlib
from typing import get_args

import pytest

from polya_urn import cli, simulate
from polya_urn.output import Method, load_output_schema

_SIM = ("--samples", "2000", "--seed", "11")
# the mc workload's direct run at the default seed: its two streams of 5 * 10^5
# paths never fall to _FEW_PATHS live paths, so it draws in the window alone
_WINDOW_ONLY = (
    "simulate", "--b", "5", "--w", "3", "--samples", "1000000", "--streams", "2",
    "--horizon", "200", "--seed", "20110426",
)
_SWEEP_ALL = (
    "sweep", "--b-range", "2:9", "--w-range", "1:8",
    "--methods", "exact,binomial,complement,dp,mc,definetti,normal,chernoff",
    "--horizon", "30", "--samples", "200", "--seed", "4", "--streams", "2",
)
# w columns that start mid-range: at b = 30 for w < 30, at b = w + 1 above
_SWEEP_MID = (
    "sweep", "--b-range", "30:45", "--w-range", "7:50",
    "--methods", "binomial,complement,normal,chernoff",
)

# (argv, exit code, stdout SHA-256)
GOLDEN = [
    (("exact", "--b", "7", "--w", "3", "--form", "theorem", "--format", "text"), 0,
     "2b9056d6a48f047f499006c83679e1a915efb467c845bf724a9d18148bdd7193"),
    (("exact", "--b", "7", "--w", "3", "--form", "theorem", "--format", "csv"), 0,
     "286d8dff78f8ee61431ae6c4c73b51fc884fe8ee0c84c0a4af6148c427bd7af2"),
    (("exact", "--b", "7", "--w", "3", "--form", "theorem", "--format", "json"), 0,
     "2cd907809f97a6b24cb9aa92b3eb2a0045c8595b4808a53378bd6f30bf8e13b7"),
    (("exact", "--b", "7", "--w", "3", "--form", "binomial", "--format", "text"), 0,
     "a9114898068bea861207563ce8a7d70ced257f4d72f9e80e9a62e40e04171a1c"),
    (("exact", "--b", "7", "--w", "3", "--form", "binomial", "--format", "csv"), 0,
     "902a4a1c2b750efdee005c4a23060f3b7cbf214a20750e489516dd0375a64886"),
    (("exact", "--b", "7", "--w", "3", "--form", "binomial", "--format", "json"), 0,
     "1e1432a7485ef96d91b3c2d8db4738665e1d44c77863c928afce1a75e8f34956"),
    (("exact", "--b", "7", "--w", "3", "--form", "complement", "--format", "text"), 0,
     "c575138169be0cdbd7441ecf3f8e8e507ff012f6609e52983d47cd98e076ae50"),
    (("exact", "--b", "7", "--w", "3", "--form", "complement", "--format", "csv"), 0,
     "5018a45d8a90b6fbd1dde7bc9373a37e3a3493006c2b67a05cc273b5ea57ab8f"),
    (("exact", "--b", "7", "--w", "3", "--form", "complement", "--format", "json"), 0,
     "2a4f515b81c5c9e9530c82289c9a4076357360af931e9b57ae380902ac21ac65"),
    (("exact", "--b", "7", "--w", "3", "--form", "all", "--format", "text"), 0,
     "da21a943635239d09f27b9a1b8dfbd37906323f00e3d146d4fca9f00903027a2"),
    (("exact", "--b", "7", "--w", "3", "--form", "all", "--format", "csv"), 0,
     "790cc0573151a3ba8dbf9ccaa8e41e8b6d05c8a258747797528f5c15b1a3c901"),
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
     "70eb9b9f0397639c3ad51a149e191472ef470713506b7695dc0d69e02ab138b2"),
    (("dp", "--b", "2000", "--w", "1999", "--horizon", "3000", "--format", "csv"), 0,
     "caaaa41b6735c2cea4512ef750cfb1675f3469f5ba83d2bbe240650e30c07255"),
    (("simulate", "--b", "5", "--w", "3", "--streams", "2", *_SIM), 0,
     "dd3f7c9db4c5c7a27598082eec9cb8e985a5de5a8f156faeed8ef107cb0330e6"),
    (("simulate", "--b", "5", "--w", "3", "--method", "definetti", *_SIM, "--format", "json"), 0,
     "5cf4bfa66cece9c5a279b00d5e09d56659c0355cf46afa8423e16423ba9663fa"),
    (("simulate", "--b", "2", "--w", "1", "--samples", "20", "--horizon", "20001"), 0,
     "dbca15e3b53560750b3bc8d0d351197eaf8ff92c907d261cd60f969660a3f866"),
    (("simulate", "--b", "500001", "--w", "500000", "--horizon", "20000", "--samples", "1",
      "--seed", "11", "--format", "csv"), 0,
     "aaa524db4caf0496affb2b7b5bb64099d26dbf565e31fc2aa2ff2086225d74a3"),
    (("simulate", "--b", "2", "--w", "1", "--samples", "1", "--seed", "1"), 0,
     "b5a661921e5fec6800fc64c7b5358f23997208fd4198cc68390779f4f50036a7"),
    (_WINDOW_ONLY, 0,
     "954877014ecacac4017a0739604f4007375ee9d54d7b786f76a99d26d96d6568"),
    (("approx", "--b", "5", "--w", "3"), 0,
     "6d0273ee1ec3c7725977edad2d066fc8babb400836c2b52b01e8db00626d24ac"),
    (("approx", "--b", "9", "--w", "1", "--method", "normal", "--format", "csv"), 0,
     "dda4e706cb46c311c8bed32b5765169458d820a44baeac3ed4ae1a080f48677b"),
    (("approx", "--b", "40", "--w", "12", "--method", "chernoff", "--format", "json"), 0,
     "93242bd0db593924872322e8e5ab17892514163bef9b18b7d5e2e2b2e8197588"),
    (_SWEEP_ALL, 0,
     "34e371dd6eb0c8fc06edce334c14fa733b7bf4ffcc8361b4b9b865273393000c"),
    ((*_SWEEP_ALL, "--format", "text"), 0,
     "88d42f693dc5b852c6456643d1b0189221b802bc1c5aab4c48bf9930d7f9cd67"),
    ((*_SWEEP_ALL, "--format", "json"), 0,
     "7b0ae960e1551426281bbfab973f5e6ed5a55cb45300819cb8986ab595e53fc6"),
    ((*_SWEEP_MID, "--format", "json"), 0,
     "45d8a714ac37a276a678a1daf295a654fa91c4775984f642cc976f35c302f268"),
    ((*_SWEEP_MID, "--format", "text"), 0,
     "df1f37aa7a030680b28ce8b876adb56e736ea7fdae3b820ad7e49671119929a5"),
    (("sweep", "--b-range", "5:5", "--w-range", "3:3", "--methods", "exact"), 0,
     "37fdfd1befee0235a57340167c62bf60b4c4dbce5d0a58e752d11c948be0f55e"),
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
    (("simulate", "--b", "2", "--w", "2", "--method", "definetti"), 0,
     "063711620df5aa43d8607db2a19f9cab18cc3a5c07aaaf3cf855fcbb8dc026ba"),
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


def test_window_only_golden_never_enters_the_list_stage(capsys, monkeypatch):
    """``_WINDOW_ONLY``'s digest comes from level-count window draws alone."""

    def list_steps(*args):
        raise AssertionError("entered the list stage")

    monkeypatch.setattr(simulate, "_list_steps", list_steps)
    expected = next(sha256 for argv, _, sha256 in GOLDEN if argv == _WINDOW_ONLY)
    code, out = _run(capsys, _WINDOW_ONLY)
    assert (code, _digest(out)) == (0, expected)


def test_method_names_agree_across_schema_type_and_cli_table():
    schema = load_output_schema()
    enum = schema["properties"]["records"]["items"]["properties"]["method"]["enum"]
    assert enum == list(get_args(Method)) == list(cli.METHODS)
