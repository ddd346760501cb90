"""Golden outputs: stdout sha256 and exit code of fixed CLI commands.

Each command runs in-process through ``cli.main`` and must reproduce the
recorded exit code and the sha256 of its stdout byte for byte.  The list
covers the average-error experiments at k = 0 and 1 with sharp and smooth
weights, gamma(theta) evaluation (exact Fraction input, the excluded right
endpoint, the default table), a 111-row F table, a w table across the
u = 3 switch from the closed form to the march, w and f tables and the
thm3 certificate marched at steps other than the default (coarser and
finer), a Buchstab table lookup,
the C(beta) curve, prime-power moduli that need Hensel-lifted roots, the
window experiments and surveys at X = 2e4 (A_d also with gcd(d, ell) > 1,
bt also at theta = 0.9), bt at X = 1e5 and Q_ell with its oracle at
X = 3e5 under smooth weights, the Chebyshev decomposition and
two surveys at X = 3e5 (large enough that the batched strike pass spans
several chunks), the Chebyshev decomposition at the smallest valid window
X = 650, at X = 100003 under both smooth weights (one at vartheta = 0.6)
and at X = 1000003 (plateau, vartheta = 0.6), where the batched pass
reaches deeper levels,
the exhaustive Weil scan, literal Jacobi-symbol sums at
pq near 1e5 (one with gcd(m, pq) > 1) and at pq = 15 with m = -1 and
m = 10^30, and ``verify all``.

The digests pin floating-point output of numpy 2.4 on x86-64.  A change
that alters any of these outputs on purpose must re-record the digests and
list the affected commands in CHANGES.md.
"""

import hashlib

import pytest

from sievekit import cli

GOLDEN = [
    ("empirical bv --X 200000 --k 0", 0,
     "018e8150fbe0ccef6eacc6a8a621c90d177068f42004c1d078c13a2977882a72"),
    ("empirical bv --X 200000 --k 1", 0,
     "237a819e5877969c2d4193cc621de9759fc9b635672d46a0c25d1160ca0b3b4a"),
    ("empirical bv --X 200000 --k 1 --weight bump", 0,
     "8b8e27645027d0347a653aaf762ebd30ee77dbbf1fb899f0822749d9df336021"),
    ("empirical wolke --X 200000 --k 0", 0,
     "6244382a451a76007d25065f67a3e795d42ee2f6375ead5c5e2fd2cbfa5b2993"),
    ("empirical wolke --X 200000 --k 1", 0,
     "318deda3f6fcc5c129df09d54dd848c09f5127778fcd023a4f7206dc70c3815d"),
    ("empirical wolke --X 200000 --k 1 --weight plateau", 0,
     "3098460b0d96042278e5530ef5ea57e7ae651ae010971b8c332df75da9fc6007"),
    ("functions eval gamma_theta 7/10", 0,
     "ff89efa3cbb9ef48803701a62d8eb1fd121ed764f440cd1d6300bff3db1be824"),
    ("functions eval gamma_theta 16/17", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("functions table gamma_theta", 0,
     "9c9d02b553b9d6650f85da693bcb9d33fed177f8ecf557a0952d75ddb179ef13"),
    ("functions table F --max 12 --step 0.1", 0,
     "4c555c550b5484381efacc4b602eeabddbe5b98e7eede4e5b98947eeccf7c1dd"),
    ("functions table w --min 2.5 --max 3.5 --step 0.01", 0,
     "b33f0d310f19106c77f882cb4b482303b167d8c98bb4bc3bd10b230f6b420f07"),
    ("functions table w --min 3 --max 14 --step 0.25 --table-step 0.005", 0,
     "adaba06cbbcc8e2915f4d5ddc31740f38fe1276f4c44cc35c4af66058bab4022"),
    ("functions table f --min 4 --max 14 --step 0.5 --table-step 0.001", 0,
     "f7e28c0303d9a8d2ffc551a52a276b8fcd369bb17e09de63ce1ec05344617fbc"),
    ("verify thm3 --u 11.5 --table-step 5e-5", 0,
     "32d2bc1e20b4aceaf973836aecb000abdcf8227433bff3b91a212939ff75e44f"),
    ("functions eval w 6.5", 0,
     "9b41534d8d04a0d23e73416bfb20981b221ce2508c8791c177684395107baa3b"),
    ("plot-data c-beta --beta-step 0.01", 0,
     "1363dc19e9ccc95af6c1d9438705e9fcf3f5537dee95ab97f1e41dd622f764f5"),
    ("empirical q-ell-u --X 20000 --ell 125", 0,
     "0c2b5d6f25bc046033e6c3f89caa57cd7da72f7128d265c0a149e8ce1f179cd6"),
    ("empirical a-d --X 20000 --ell 325 --d 6", 0,
     "e81a9dc826409c640b8b754dd0ceb07396a097dd637ff0b4826d46485964b692"),
    ("empirical q-ell --X 20000 --ell 1105 --oracle", 0,
     "075e55541f94b9facbfb512cedcc08d343cac6cd0ce429f8b20141471711658f"),
    ("empirical chebyshev --X 20000", 0,
     "b7c165dbb6b8f312719d092e55e7d57538f49aa3add6943e0a9c3d37bfe3ee1d"),
    ("empirical weighted --X 20000", 0,
     "d7cc9dd57415c49183d2f7036f82343797303ad32e52daf08a333412bdbdcf31"),
    ("empirical bt --X 20000", 0,
     "35f3a1aedfaf2ffd058436878f604a81d69a35e71b2700315f18de2726554475"),
    ("empirical bt --X 20000 --theta 0.9 --weight plateau", 0,
     "97eed869cb34485e4bba2d547b8e8a3e5cd644eae707186a0f585375c8d84194"),
    ("empirical bt --X 100000 --theta 0.7 --weight bump", 0,
     "f5902284c351e3c0f4dc4e4a372ff12e5d191564b6d2fec0c73cf215ded396b0"),
    ("empirical q-ell --X 300000 --ell 5 --weight bump --oracle", 0,
     "2df5385f3e02eba8f6553fba009212ff27c78a109ea875c14abcbf1f3c4100d0"),
    ("empirical a-d --X 20000 --ell 65 --d 13", 0,
     "05b9e9f32db05cc4c4817fdff5b48051fd7bd3040ec859f848ccb91d4880cf97"),
    ("empirical a-d --X 20000 --ell 65 --d 6 --weight plateau", 0,
     "ee152df336a6b44a7eb90ef9184b375e31ee1a0231142e887c9eea9c203ccc30"),
    ("empirical almost-prime --X 20000", 0,
     "f59a97cbd72f9e26577c116a1c5f18b9015679400504fb3ffd683ed9e015fd6b"),
    ("empirical gpf --X 20000", 0,
     "464d236363353a58d97a6add7dcc50921eddb6eea09e40b9d5883b4925f44a1f"),
    ("empirical dartyge --X 20000", 0,
     "1b0cf8c83b82729675b27b26182de19435b322131146333d55930dd89e476866"),
    ("empirical chebyshev --X 300000", 0,
     "5da0d7a0578616e2978f97391e5e2b102c6d0c762a770972be8f4d970ce0c552"),
    ("empirical chebyshev --X 650", 0,
     "96ef6fb97e695ac081b6567b74304061ba88a9dfb5655a4125d616e63dd99935"),
    ("empirical chebyshev --X 100003 --weight plateau", 0,
     "c9f19d332b39014660a5ba0955544da170ea93d178010ff556cdeb1acf6e087b"),
    ("empirical chebyshev --X 100003 --weight bump --vartheta 0.6", 0,
     "0ae15fd79f58a05db3f89d1a5f67e11e549a36809c2bc3697ea9cb6ef97d4d02"),
    ("empirical chebyshev --X 1000003 --weight plateau --vartheta 0.6", 0,
     "c3a24a6b9984fbfa887afb235a07636d7c1c314a7fb2d1325be6be54afb72e53"),
    ("empirical dartyge --X 300000", 0,
     "f42974fe6b5a631ea4135d3318a43b5c9c04ae2250aa7135a386b076b2cd17b4"),
    ("empirical almost-prime --X 300000", 0,
     "94df54354d067ac9af890259ac18df3b90cb48479844b9ca276098dc8f5d7e71"),
    ("empirical weil --max-pq 5005", 0,
     "e4b5585139b17857e2f0cafb7c886f816e03aa7b1d7d3685a51d3cfb25f09170"),
    ("empirical weil --p 241 --q 409 --m 60898", 0,
     "37791cf8c142260f295664917c3d4b41ad5c0d8bd41431bc0a655d86e4a40625"),
    ("empirical weil --p 251 --q 347 --m 29167", 0,
     "7922bcdefc43ae517cbf9b82b7c8ea14d20e3f42d720ebeeea6be8827f69509c"),
    ("empirical weil --p 251 --q 347 --m 1255", 0,
     "3627cba9f46805b2501643241158f1d0aa43bdd0991f7be9ee105730579691e5"),
    ("empirical weil --p 3 --q 5 --m -1", 0,
     "649bc8439f12b28a8911b5ffaaa6fa3aa76088448d63b803b1f5295825fcb5af"),
    ("empirical weil --p 3 --q 5 --m 100000000000000000000000000000", 0,
     "1931a7cf8bec434f23b1ae11de99e130db17e822dcf0f9540dbb15c8ae66aa4a"),
    ("verify all", 0,
     "2242d8e2072dde54193e80cef89542c1399ff954d7b0c0894e39e68f9bef96fb"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN,
                         ids=[c for c, _, _ in GOLDEN])
def test_cli_golden_output(command, code, digest, capsys):
    assert cli.main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
