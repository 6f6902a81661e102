"""Byte-level pins of the CLI reports.

sha256 digests of ``to_json()`` for the three case studies, the eleven
``reduce`` reports, ``verify`` for every case at seeds 0 and 1 (or the
typed error name and message that run ends in), and ``classify`` for ten
potentials that cover the structural and the sampled classifier.  A refactor
must keep every one of them; a change that moves a digest on purpose says why.

The digests depend on the floating-point results of numpy, scipy and the C
math library.  They were recorded with Python 3.11, numpy 2.4 and scipy 1.17
on x86-64 Linux.
"""

import hashlib
import shlex

import pytest

from liesolve import cli
from liesolve.errors import LiesolveError

# the double-cev and expvol pins, and expvol's in ARGV, were re-recorded for
# the Gauss-Kronrod lane rule of omega, which agrees with the adaptive
# quadrature it replaced to about 1 ulp: the one value that moved is the
# relative FD pricing residual of the price chain, a documented discrepancy
# on both sides, 277.5972384954853 -> 277.5972384972203 (+6.2e-12 relative)
# in double-cev and 1.1412955468935588 -> 1.1412955467798496 (-1.0e-10) in
# expvol; cev's and every verdict are unchanged
CASE_STUDY = {
    "double-cev": (0, "2264eded7f57654347c96e461c7d84236f2f2c76a72ba5fb00206cdc71c4c2e7"),
    "cev": (0, "374651e8af11b9e66bb50abcb78f220016791b741a770fe80971d1793794ed5e"),
    "expvol": (0, "ec65c3eaa718ef6796607daac32b4fe31807f1b509e1156f472b98d321e19dfb"),
}

REDUCE = {
    "1.1a": (0, "da6bc3d8048dced9684b9efa0b6e457e79a3309567b1984a6e283ac5d89d3bb6"),
    "1.1b": (0, "cf2a242bf75e72d4839736978c90df2fdf9a59351c38f9e52ecd43cff92e2e09"),
    "1.2a": (0, "532a092df1656a06f4a4f395768db1b0b55437800286e8c9cfeccd4ce6d3e97d"),
    "1.2b": (0, "a96a104ce468dfae765bd026f1c3c32bae0fbf97c7943df8d6ad4c29b96c4b11"),
    "1.3": (0, "77877e096fe35f973da5b5eac55cdf2c90a4b95577ae2c0d0f286a62e5e40c4a"),
    "1.4a": (0, "7758643bd04d4d3795580a27eca17ff9cb42b3c36e73b3af8b6e98944dcac990"),
    "1.4b": (0, "07cad875409956ea38f357e4c31fc360be1fe08c747ba8b43217eeb9e1fb529e"),
    "1.5a": (0, "fa421573fb51df3404aa0b45f431d0e928fb773cf37fec7286b23dffb224dad4"),
    "1.6": (0, "28d1ff463d938436dbd6ed9f3b1bd401d01a70d79f1a2e6820d36bb14af0e976"),
    "1.8a": (0, "fe0e9457f13b8699568b209b30968aa5f3b5c67b14fe476afd7b4ae915d034d4"),
    "1.8b": (0, "2655629ffc4e48a6810f0689188df24ad1576b86e273a63e5419bcbe0f9f7a26"),
}

# (case, seed) -> (exit code, report digest) or (typed error, message); the
# 1.2a, 1.2b, 1.8a and 1.8b pins, double-cev's in CASE_STUDY and ARGV, were
# re-recorded for the spectral ODE factor: their reconstruction FD residuals
# fell from 1.7e-8..3.3e-7 to 7.0e-11..7.3e-9 (double-cev: 4.3e-7 to 9.8e-10),
# the other values moved at rounding level, and no verdict changed.  1.1b's
# were re-recorded for its real Frobenius factor: the checks are relative to
# the size of P, so only its reduced residual (1.5e-10 -> 1.2e-13 at seed 0,
# 9.9e-12 -> 8.9e-15 at seed 1) and its FD residual (5.9050631954e-07 ->
# 5.9050631949e-07, 7.86e-09 -> 7.48e-09) moved, to the values that psi from
# mpmath at 40 digits gives: the complex series cancelled more
VERIFY = {
    ("1.1a", 0): ("DivergenceError", "1F1 arguments outside the supported box"),
    ("1.1a", 1): (0, "f08cf8dc5bf0e8045f05820d63e816e88bd083e8a8085310d8af61c459e147de"),
    ("1.1b", 0): (0, "37e9b597352a196572cdf9446c1611363b4163ed5ef1ff47322a0536a76e04ed"),
    ("1.1b", 1): (0, "5794932a3116cd146d1c00a7015c6aba9d8b84fa285217a4aba08f11f254a3d0"),
    ("1.2a", 0): (0, "a0710e262987e445932937b2e9d70cb1945de6e167e5566bf965cf47752acf5c"),
    ("1.2a", 1): (0, "11e8e652de55585988327a10ac87841b4b7f2850d8d9dc93bfa0c1e421ae6be5"),
    ("1.2b", 0): (0, "e50c6f7075dd7ae7312dc3857d63b774e8d617dbfa366d536269a910820c997a"),
    ("1.2b", 1): (0, "cd8768fcb55c0b8c2b03f524a8eb15bb9b9ef6e4f9a2e099483f67f8b89bb6e8"),
    ("1.3", 0): (0, "fceb888fa5a50218b7a2dd53171c1fb8cf9e883a29da3af30cfb96158302b425"),
    ("1.3", 1): (0, "db5c13ee5e18a84399dac5ddc2d9ed3b1e6188950afa0bdfd6cc94900a330e83"),
    ("1.4a", 0): ("SpecfunDomain", "angular frequency requires c1 >= 2 C0"),
    ("1.4a", 1): ("SpecfunDomain", "angular frequency requires c1 >= 2 C0"),
    ("1.4b", 0): ("SpecfunDomain", "angular frequency requires c1 >= 2 C0"),
    ("1.4b", 1): ("SpecfunDomain", "angular frequency requires c1 >= 2 C0"),
    ("1.5a", 0): ("DivergenceError", "1F1 arguments outside the supported box"),
    ("1.5a", 1): (0, "1b19fbf643e770b7140d59fd7bd5bec6ee221424f7c214fc55472cc7582cde93"),
    ("1.6", 0): (0, "d74867f3bc2f538476c635902a933e71d04f3ef5d3344ca306dd7a1cf585b487"),
    ("1.6", 1): (0, "9dd896ca62df771e5c9a607f7614c73e67ce04119c89bc17057e776d19f0c170"),
    ("1.8a", 0): (0, "9def84e2b1449b9bebc0cf0fb245a5e2d998b96cd2b5956c7bb08c9bfa34217d"),
    ("1.8a", 1): (0, "9d3e98176f9318bdfba4d4ac9b4f50d7efc5fa607df92046b7682dd61db63cc7"),
    ("1.8b", 0): (0, "64db3aa6cb0b489f447edebc60334ace7cc5f87b85646766148215060474b068"),
    ("1.8b", 1): (0, "effa35d5e6a1331b8b454806febe138ed66cd20e921374c2220ed952b113e213"),
}


# potential -> (exit code, report digest): two structural matches, six sampled
# ones (1.4b, 1.8a, 1.8b, 1.2a, 1.3, 1.6), a no-match, and the two-asset study
# potential (sampled 1.2b), read with STUDY_PARAMS
STUDY_POTENTIAL = "48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r"
STUDY_PARAMS = {"r": 0.05}
CLASSIFY = {
    "1/x^2 + 2*y + 3": (0, "1138617dfe2f08ba4f0473d058c5b3195d5edeb203e69e94181bdc611ada99f6"),
    "1/r_polar^2 + x": (0, "3062055ed756180bc6729c92f55d1ce0eb0841f750743f1d273c85ca1ecd7f92"),
    "x^2 + y^2": (0, "3e0fcb4757e528a6305df391691875b8ba560229b5caefc8d601fc5c46bbe8c6"),
    "sin(x) + y": (0, "17cdcf0121de8f8fa0bcdd0f5131424d99a1e6aaecf7562afdd931cd21326f57"),
    "sin(x) + y^2 + y": (0, "5813c3046f56e7793abbf24ea46766399511e5c121592e5c12aca2d0a6777121"),
    "cos(theta)^2/r_polar^2 + 2": (0, "5ebefac6ec18ff15c15447b949257618ec3ad58b30b4cc819a57abb680a043d2"),
    "(2+sin(ln(r_polar)*0.7+theta))/r_polar^2 + 1": (0, "91365552e9efb46c1e37efc21741153a836512b923a883e15e2199ef8971cc76"),
    "exp(-r_polar) + 0.5*theta": (0, "a0a97991ee6c12c72d97bdf6a9ba08958dcfbf91b583f4b9e5708bfe1aaaafc2"),
    "exp(x)*y": (0, "1699bf1c493848ca85fa0518630acad87d71604c341afaada2810676d665c92d"),
    STUDY_POTENTIAL: (0, "9977886c8a745238c69556cd767c999f77b22125b39273693488e3de00d5128f"),
}


def _run(**config):
    code, rep = cli.run(dict(config, version=cli.SCHEMA_VERSION))
    return code, hashlib.sha256(rep.to_json().encode()).hexdigest()


@pytest.mark.parametrize("study", sorted(CASE_STUDY))
def test_case_study_report_bytes(study):
    assert _run(command="case-study", study=study) == CASE_STUDY[study]


@pytest.mark.parametrize("cid", sorted(REDUCE))
def test_reduce_report_bytes(cid):
    assert _run(command="reduce", case=cid) == REDUCE[cid]


@pytest.mark.parametrize("cid, seed", sorted(VERIFY))
def test_verify_report_bytes(cid, seed):
    try:
        got = _run(command="verify", case=cid, seed=seed)
    except LiesolveError as exc:
        got = (type(exc).__name__, str(exc))
    assert got == VERIFY[(cid, seed)]


@pytest.mark.parametrize("potential", list(CLASSIFY))
def test_classify_report_bytes(potential):
    params = STUDY_PARAMS if potential == STUDY_POTENTIAL else {}
    got = _run(command="classify", potential=potential, potential_params=params)
    assert got == CLASSIFY[potential]


# argv of ``liesolve`` -> (exit code, sha256 of stdout followed by the bytes of
# ``report.json`` when the run writes one).  Every flag appears, the common
# ones on both sides of the verb; ``run.json`` is RUN_JSON.
P14B = "--params delta1=1,delta2=1,c=0.5,C0=1"
RUN_JSON = '{"version": 1, "command": "verify", "case": "1.3", "seed": 1}'
ARGV = {
    'classify --potential "1/x^2 + 2*y + 3"': (
        0, "3d3466ed4efca8536912e2351a13034493aae1b9cd87d17a49d7359ca416745e"),
    'classify --potential "a/x^2 + b*y" --param a=1 --param b=2': (
        0, "7210811c1bbfd9a5ae5aae2a90bedb08910d79ce6a0f0efe909a7a87499c252c"),
    'classify --potential "a/x^2 + b*y" --param a=1,b=2 --param a=3 --seed 4': (
        0, "e8f3349d3bd64da9899a68022c214af73d11e43dce2c63b9c662ceb2b7d58126"),
    '--seed 4 --json report.json classify --potential "x^2 + y^2"': (
        0, "7b4d8442deeb2b9b27f00e6450a1f38982cdfd42dc799bd0706ea8d0bf4a279c"),
    "--json report.json --text report.txt reduce --case 1.6": (
        0, "da9fe0a69b07b5380cff8e9c5eb356f8f5625832f720175f3cc38bc0abd7b394"),
    "reduce --case 1.6 --json report.json --text report.txt": (
        0, "da9fe0a69b07b5380cff8e9c5eb356f8f5625832f720175f3cc38bc0abd7b394"),
    "verify --case 1.3 --seed 1": (
        0, "8d4130fa83ff8dc4796910b74b383b00ee0a7e9a8994b31969d6631ea8e2a198"),
    "--seed 1 verify --case 1.3 --json report.json": (
        0, "82a03715eee996a944bea297ae644d3a4701c146f470a92e054d399de35d9aa0"),
    f"verify --case 1.4b {P14B} --c1 4": (
        0, "fb9620fe1268363e044114304184aeff81df86f01303199a46176fa852cedca6"),
    f"verify --case 1.4b {P14B} --constants c1=4 --json report.json": (
        0, "cf90ce7bad1ce24e6b7d69a9ab64c9909393a00880d398ee4b908c46451ddc64"),
    f"verify --case 1.4b {P14B} --constants c1=3 --c1 4": (
        0, "fb9620fe1268363e044114304184aeff81df86f01303199a46176fa852cedca6"),
    "verify --case 1.4a": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    f"solve --case 1.4b {P14B} --c1 4 --samples samples.csv --json report.json": (
        0, "5ac5582ffc743e3680a3f80defe53eb6f1535d02b4a1adaa73eb574ded0a27d0"),
    "solve --case 1.2b --allow-unverified --samples samples.csv": (
        0, "7aae4f8be6e7640822e4a9c0c3c82c33521b6d018182665a638b72a1ecc7a56c"),
    "solve --case 1.6 --allow-unverified": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "transform --index 5 --eps 0.7": (
        0, "dc7e5579aecf62fad911032f50959d94bdb15d6d623e622844414304c668ea75"),
    "transform --index 2": (
        0, "6cc2921f3c4379153f8b2c37c09408966e48f6d2602278a238eb2f2ee69c01dc"),
    "transform --index 2 --eps 0.3 --delta 0.5 --json report.json": (
        0, "054f829795532c67f33a3ab049dcbf22c95c4352aed34908460f3ab0f9189356"),
    "case-study cev --sigma 1 --alpha 2 --r 0.1": (
        0, "257ccd31c6c893bc63b03aa981b7ab3f0b905491b7cf46fe3065eadba79720cd"),
    "case-study expvol --json report.json": (
        0, "960ef13455ac47a1203edbb2b9a71915f89cfe537bc69bb53b616566d26e184e"),
    "case-study double-cev --r 0.04 --sigma 1 1 --alpha 2 2 --seed 2": (
        0, "2cc121b2218e5643ef08f2274de66beb86ebb9bb05f7e96eb145c3529c958484"),
    "case-study double-cev --rho 0.3": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--config run.json --seed 5 --json report.json reduce --case 1.6": (
        0, "82a03715eee996a944bea297ae644d3a4701c146f470a92e054d399de35d9aa0"),
    "": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("argv", list(ARGV))
def test_main_argv_bytes(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(RUN_JSON)
    code = cli.main(shlex.split(argv))
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    if (tmp_path / "report.json").exists():
        digest.update((tmp_path / "report.json").read_bytes())
    assert (code, digest.hexdigest()) == ARGV[argv]
