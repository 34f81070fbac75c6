"""Golden corpus for the command line.

Each entry runs one ``bredim`` command line in process and compares the
sha256 of its stdout and its exit status with values recorded before the
one-source-of-truth refactor of the lattice, dims, homology, gog and oracle
code; the three seeded graphs were recorded before the bitset clique search
and the zero-aware matrix kernels, and the larger derive-zn replays, the
flagless twins of the flag-carrying commands and ``verify dims --seed 7``
before the derivation walkers visited each shared node once; the
benchmark-scale lattices and the completion digest before the lattice layer
moved to transform-free Hermite bases; the clique counts of the three dense
graphs before ``raag cliques`` counted by pivoting.  Any change to a byte of
stdout fails here.  One command per group also runs as ``python -m bredim``
in a fresh interpreter.  Two verify suites are also pinned check by
check, so the seeded random streams behind them (and with them every
instance count) stay the same.
"""

import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import bredim
from bredim import cli, lattice, verify


def _seeded_graph(seed, vertices, density):
    """Edge-list text of a uniform graph with ``round(density * V(V-1)/2)`` edges."""
    pairs = list(combinations(range(vertices), 2))
    edges = sorted(random.Random(seed).sample(pairs, round(density * len(pairs))))
    return f"{vertices} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _triangular_product(rng, n, diag):
    """Lower unitriangular times upper triangular with diagonal from ``diag``."""
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[rng.choice(diag) if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    return _matmul(lower, upper)


def _saturated_rows(rng, n, r):
    """``r`` rows of a unimodular matrix: a direct summand of Z^n.

    The rows are taken from the bottom and the columns shuffled, so every
    coordinate is used.
    """
    rows = _triangular_product(rng, n, (1, -1))[n - r :]
    order = rng.sample(range(n), n)
    return [[row[j] for j in order] for row in rows]


def _lattice_text(n, rows):
    return f"{n} {len(rows)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _seeded_lattices():
    """Benchmark-scale lattice inputs in Z^10..Z^16, drawn without bredim."""
    rng = random.Random(2024)
    files = {}
    files["sat12.txt"] = _lattice_text(12, _matmul(_triangular_product(rng, 7, (1, 2, 3)), _saturated_rows(rng, 12, 7)))
    files["sat16.txt"] = _lattice_text(16, _matmul(_triangular_product(rng, 9, (1, 2, 3)), _saturated_rows(rng, 16, 9)))
    files["comp10.txt"] = _lattice_text(10, _saturated_rows(rng, 10, 4))
    files["comp16.txt"] = _lattice_text(16, _saturated_rows(rng, 16, 11))
    files["auto14a.txt"] = _lattice_text(14, _saturated_rows(rng, 14, 6))
    files["auto14b.txt"] = _lattice_text(14, _saturated_rows(rng, 14, 6))
    files["auto16a.txt"] = _lattice_text(16, _saturated_rows(rng, 16, 10))
    files["auto16b.txt"] = _lattice_text(16, _saturated_rows(rng, 16, 10))
    sup = [[rng.randint(-5, 5) for _ in range(13)] for _ in range(8)]
    files["sup13.txt"] = _lattice_text(13, sup)
    files["sub13.txt"] = _lattice_text(13, _matmul(_triangular_product(rng, 8, (1, 2, 3)), sup))
    a = [[rng.randint(-5, 5) for _ in range(15)] for _ in range(9)]
    b = _matmul(_triangular_product(rng, 9, (1, 2, 3)), a)
    files["comm15a.txt"] = _lattice_text(15, a)
    files["comm15b.txt"] = _lattice_text(15, b)
    b[4] = [rng.randint(-5, 5) for _ in range(15)]
    files["comm15c.txt"] = _lattice_text(15, b)
    return files


FILES = {
    "matrix.txt": "3 3\n2 4 4\n-6 6 12\n10 -4 -16\n",
    "lat.txt": "2 1\n2 4\n",
    "plane.txt": "3 2\n1 2 3\n0 1 1\n",
    "plane2.txt": "3 2\n1 0 0\n0 0 1\n",
    "line.txt": "3 1\n1 2 3\n",
    "line2.txt": "3 1\n0 1 1\n",
    "nonsat.txt": "3 2\n2 0 0\n0 1 0\n",
    "sub.txt": "2 2\n2 0\n0 2\n",
    "sup.txt": "2 2\n1 0\n0 1\n",
    "k4.graph": "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "c5.graph": "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
    "split.gog": "vertex A rank=2\nvertex B rank=3\nedge A B finite\nacylindrical = true\n",
    "weak.gog": "vertex A rank=2\nvertex B rank=2\nedge A B rank=2\nacylindrical = true\n",
    # At scale: the listing pins the lexicographic order of 798 cliques, the
    # Salvetti complex has 404 cells, and the 45-vertex graph has a 9-clique.
    "v30.graph": _seeded_graph(30, 30, 0.45),
    "v12.graph": _seeded_graph(12, 12, 0.8),
    "v45.graph": _seeded_graph(45, 45, 0.6),
    "v60.graph": _seeded_graph(60, 60, 0.5),
    "v80.graph": _seeded_graph(80, 80, 0.4),
    # Seeded lattices in Z^10..Z^16, at the sizes the benchmark streams.
    **_seeded_lattices(),
}

# (command line with FILES keys as file arguments, exit status,
#  stdout sha256 per --format)
CORPUS = [
    ("lattice hnf matrix.txt", 0, {
        "human": "e4b5277a92fd2797a061716d1593bf03e472bd4eb1c1ab920c06d3721414ddfe",
        "structured": "d0cb63921a0cde2104cba58d1044f66239a30b938f346d59fe28f2f3eb31525f",
    }),
    ("lattice snf matrix.txt", 0, {
        "human": "cf55f5ad6e587e02eb98b94fb22ebf99c6694b9b86e6b20c1ca25530fb7987ec",
        "structured": "4524c5982c645b4c8a76ce988a726eb363c8a4695291a2db2272654167c45f5e",
    }),
    ("lattice saturate lat.txt", 0, {
        "human": "7c1826a0dc55add14b08700f4354960b2d52a346bf761f7a6a1d37a4ee2ffffe",
        "structured": "c07f087a15fd72c523aa0f4313f680b6a1cbba6f60596d1c0120076a74c31cf6",
    }),
    ("lattice complement plane.txt", 0, {
        "human": "9b52ba225550158f06b4450ed4ff9d986931641bdc682c19d368344d1b809d37",
        "structured": "1f8c2ffaf7614e03c674416be44aa4f58b1122d6a361308d799a65602b2c7552",
    }),
    ("lattice complement line.txt", 0, {
        "human": "337b223e13fc4752f92d3c314f6c84dfae7716df059ae770ea7d71d5f422967a",
        "structured": "91cfb2eeadb615cae3212d8c07d9cb86ccfb08ab4744b0288d26f6774ea23f73",
    }),
    ("lattice index sub.txt sup.txt", 0, {
        "human": "ac0a289910483ad86d012543978b1d420b9f94da144f854554275424648c67bd",
        "structured": "358cd2f9c62cfdd742cc1c4a81514039a7f005176478d36d371c9615e4e6153d",
    }),
    ("lattice commensurable sub.txt sup.txt", 0, {
        "human": "a15890c5d00e5c418322897c5a8d370a70b486d81046f4741e5939cee9e07156",
        "structured": "0cd027755bd3fd1b5df1891c8db5fe15f044148d55e66240f526c76d55bb7b2d",
    }),
    ("lattice map-auto plane.txt plane2.txt", 0, {
        "human": "61d155a0b2cc20b245bc7b084ca6c8f4116255f513289aac2103668860105280",
        "structured": "3ca31846bc773a032feb8a8e1ee3be169187e55a4a430a213ec93d19f941637b",
    }),
    ("lattice map-auto line.txt line2.txt", 0, {
        "human": "4ebb090dfab37d284d7ba94da60e33d7d4c87a397d731a27602e3ad637c18abe",
        "structured": "8062f1be91c93779de4ac607de2d98f6910c4f630babc50385b690f18ca4b3c0",
    }),
    # Benchmark-scale lattices: saturation, complements and automorphisms
    # pin the transform-free Hermite bases and the completion transform.
    ("lattice saturate sat12.txt", 0, {
        "human": "5ae3f6c2b44dfe56c3448a9aad496af89cd643356c8c3926db1e125aeb6db06d",
        "structured": "b5f32d765c1d25171d25d96868c4c85b854638d15d152cbd31713b16ce7750ba",
    }),
    ("lattice saturate sat16.txt", 0, {
        "human": "df0f6304eed4e319ca10bd63aba0c92de028765201de79adc6b7263df2116ddd",
        "structured": "4718d3300fbae5f49607c25e4463384f0e6a4867571e690bfdf42caa6ba0ff71",
    }),
    ("lattice complement comp10.txt", 0, {
        "human": "15bfce5d85343b01ff82d03ce2713235c8243bf2aae205f1d22747d72d14f1d1",
        "structured": "fee34a6587bba6002d132af20de30613a274bf3fca8821cb1ee9cc0a86de3392",
    }),
    ("lattice complement comp16.txt", 0, {
        "human": "1e3df6704758abbefad6bcd367326a225a0a9c8d2bed5b4ec49772b6de8e852d",
        "structured": "053aa5bdb917d2fe6d239a6cee4e53ae645222fdaa230c3c60bdb9d65d2eb6ea",
    }),
    ("lattice map-auto auto14a.txt auto14b.txt", 0, {
        "human": "12759830394bc6956de5348fc1f2531828af65d40cecbd4df39e21c8e94921f1",
        "structured": "a18d1691bf3d9bee580f17ed6c2eca02bcd53224f60ce28a70f01bfa2f3d52e3",
    }),
    ("lattice map-auto auto16a.txt auto16b.txt", 0, {
        "human": "11f60afa8dba10d8707b2e40aa8c694d009629defdc1a424f57b1f5104093c21",
        "structured": "cd5a7b70524efd9dcd99190d43973d39f048c4978c495b559c8cbedf328f4848",
    }),
    ("lattice index sub13.txt sup13.txt", 0, {
        "human": "402991a28c464e07e831fd2e8f1ca3a1b54f997b5c9831a6c4d7c66fabf6b8bf",
        "structured": "25c2429a93cf74d515846a468ae2d751eaf5edab29278c7ee3ab77aa2a4c9210",
    }),
    ("lattice index comm15b.txt comm15a.txt", 0, {
        "human": "a3d5e503d09d70172e59356bcd8fe725074484db0c26dbb4b5d63bcea217dbc8",
        "structured": "709131e59cd37965c44520ca543c0be14c98d80d93e4e7566435cac2d5955ab9",
    }),
    ("lattice commensurable sub13.txt sup13.txt", 0, {
        "human": "a9a8f91bfb0a92e7b565bc3653786454f71840b836acee6ceb46aab1e76d49a0",
        "structured": "f5e28883724944787d3ac99a3475dd4f85d3eb53684b7249c06062fc7faf5cf6",
    }),
    ("lattice commensurable comm15a.txt comm15b.txt", 0, {
        "human": "a0795b7c2016164ef2ce2898732a70d578c719213b8b68cdcaf45ce884565bf5",
        "structured": "10e67a5950c9b148e483b1f3a83edeb8ee66988cc80a0c3a2e7025aac15d2410",
    }),
    ("lattice commensurable comm15a.txt comm15c.txt", 0, {
        "human": "66612cad961ee8587cc03dcf9ffb9af36ec14fe66463a2d17b76d7c2bf1cb1a4",
        "structured": "92faad39ecd4940fd152b5dc8ee047b19c6955750d88b04b56f539f2402edc08",
    }),
    ("raag cliques k4.graph --list", 0, {
        "human": "e617f8d523635b366ab5fbd44fbe74caaf4324c8f6876870b73c627e175281a3",
        "structured": "f326517102b4c6c37d23d34aa3b1aa8e105b93d48f793f0be62714af833c3080",
    }),
    ("raag cliques c5.graph", 0, {
        "human": "f942709dc63e4012fd9e302e7b364b1541aca94940946303330d8ad7af527e9d",
        "structured": "2d54f3b0d4f284c317170f83647feeef8b6ef984d8f9a5dba7f09d6e71e5b53b",
    }),
    ("raag cd k4.graph", 0, {
        "human": "8287473cc785746873cd9cdf0baa04c6d2598b9e1b9c34acb48daa1552810474",
        "structured": "087dccf4164616c63193bc22ebbda95b7322466684eda8893a8d2bcdc8097f0a",
    }),
    ("raag gd k4.graph --k 1", 0, {
        "human": "5b1d65c0b065bd4b8b2b09b6dbd3f8f08a8b1ea8eeb9f9961417e58188a88884",
        "structured": "866727542581f07ab005f1c816b2b48e486955ed3bc8292f7f815306252f2012",
    }),
    ("raag salvetti k4.graph --cohomology", 0, {
        "human": "9a03f2e50b26f7131d57ecc6f74d8451db7eb9d6c175956bb8edcee6edd02967",
        "structured": "162a5289795299b0fbb9f45fbce61e8942a256100f2faeca3f0ba4210f50cff3",
    }),
    ("raag salvetti c5.graph", 0, {
        "human": "18313a8cbe0ff1ea5f9b87154435842f115643fb77978686999f72495f1afecf",
        "structured": "39e16a151b61f08ae5ee1348477ffd8678a0d969758bdff4b184afda6b2840ed",
    }),
    ("raag cliques v30.graph --list", 0, {
        "human": "589b647fc03cfcc6777905282a45bf45ac5e8c90b93febcf9b6842fdc3af2e32",
        "structured": "717cc1a75dec68de201a66a7f54179f21b07b634c4b2b0f51cdc46c4b818a235",
    }),
    ("raag salvetti v12.graph --cohomology", 0, {
        "human": "e07af5cc2954e4de64b573ce034a1142e5d09d61e90b93f35bde48252d4ba4d8",
        "structured": "0578a51598924d9bfcd1ab020f297c830e3dbedebe6694690c4c86a1add84066",
    }),
    ("raag gd v45.graph --k 2", 0, {
        "human": "dc2bd9188ba615015148c25b9e73f164581695a1e7827814b4dae4749e439fc3",
        "structured": "745621971e532b17a5bcdd144b0405f0263b49f2caeb61920896eb53652c3f05",
    }),
    # Counted without listing: 27,517, 18,515 and 16,292 cliques.
    ("raag cliques v45.graph", 0, {
        "human": "280eb07be57a0f287ce9b04a81b5f7737ae3c68131566eea91ef5c153a7d934c",
        "structured": "12297445cf36eec39143ef9dd73dddc1a18c3ab80b72b15ec660df163b9722fe",
    }),
    ("raag cliques v60.graph", 0, {
        "human": "a2d9118bbcf90877d8a75e23d2c220959eed91c022321f6d78678f9b5ed1610c",
        "structured": "b9187797b5d9c125904a8a01a48f5f6b9cf72db95681d81f473aa068d85b9a0b",
    }),
    ("raag cliques v80.graph", 0, {
        "human": "6dcc6155a5cf239d8ca2f105524319ed247a10ab37245ed5da6cbe34f8381a86",
        "structured": "b128e25850018d80f176a1def139a60abd6a3671bb6f19c200e3772e9b61a20f",
    }),
    ("dims vab --n 3 --k 1", 0, {
        "human": "fd2bfc82401e97299e86becffeb42b3c52dc7e4d568430640d7b9a1273454615",
        "structured": "fe71a763d20b92abc0ebcf18aed6792d127c5aae4399ab7b78e264b0e6d0ffc0",
    }),
    ("dims braid --n 4 --k 1 --pure", 0, {
        "human": "f06d1ca630a2b156961c4391354e5592ad32cd34cf5c938125cf0f06b5ed3270",
        "structured": "b25753b0b9458157f89eadd8fea673348ce7c1af3792112e603a11b77971c7a3",
    }),
    ("dims out-fn --n 3 --k 1", 0, {
        "human": "1ca79646814c7890162f02f83c7a006be550c864e5ef9ab4bff1e89bddb98aee",
        "structured": "6c75752186ccbdf249d75fa93a5dffac0606b26bd35fab433fbdab4686bd5061",
    }),
    ("dims out-diamonds --d 2 --k 1", 0, {
        "human": "c3e34016e7ef4d3f674a2212539a8c77f3cc8fac3e8816ed1f80862e7db9516f",
        "structured": "b2c8a8c2efdc44273d26c17a37d86796857fb3e8e07c20d4458bc04567160c48",
    }),
    ("dims derive-zn --n 4 --k 2 --tree", 0, {
        "human": "2547b4f6c96f7e191d3a77945baf00d5723c41344efd2e51dbd44f75f66b4637",
        "structured": "448c1a92d6e9e2b5d37d264b8125b19e86ec00f92d69ffd11e9c1ebf0553c1dd",
    }),
    # The derivation shares premises: 7 * 2^k - 6 rendered nodes stand for
    # 5k + 1 distinct ones.
    ("dims derive-zn --n 8 --k 6 --tree", 0, {
        "human": "7bbad4ddc3fe196ae2bf995cac54d47a389c0bc531b7a597f5a15bafd049502b",
        "structured": "dfc6d497db1803da43f0f8f17b840089a519a1f1addbcd7265964a8c6c7a2467",
    }),
    ("dims derive-zn --n 12 --k 10 --tree", 0, {
        "human": "399e4c21568d719ea39d5d78384274829fff67a559caa39711da844bfff6fcb4",
        "structured": "46d57255c2bdf5918a0d2dd659de5ba87b30ff3f917eefe4705e869dbd74b878",
    }),
    ("dims derive-zn --n 12 --k 11", 0, {
        "human": "5aa50e8084014c75dbbd46adeec8c7e028a346bb4e1587e7bf775178f3b8358c",
        "structured": "6cd53b207886c1415a91dd790fafa934ab702f2caabd978d24614263917f76d0",
    }),
    # The flag-carrying commands above and below, without their flag.
    ("raag cliques k4.graph", 0, {
        "human": "fcb9a424b3e4f8a3fc08d54fb4d1b8616dc2f3acfcfd811dde79322c48e0dde8",
        "structured": "259897e13e6f50d2faeef5cb94c86578eedb79bfa337bb2f4061e7acffc4035e",
    }),
    ("dims braid --n 4 --k 1", 0, {
        "human": "e0b130bfffb7c580c4da3f16b7a6bff9c141107cc0926ba3dc5b0f98b7ebc680",
        "structured": "51a383767f33eba5d1a43305f0aece0d7b908dfbbcc7c12cf55711cc55f52068",
    }),
    ("raag salvetti k4.graph", 0, {
        "human": "5c1fb53896905d7212cd9f3d6e2aa783fa92bf24fdcd915a538c0829c28d4e90",
        "structured": "f8b4fc99dd44e95438cb600b482ddddd42f3f5f366224f8a458a77e314691c50",
    }),
    ("dims derive-zn --n 4 --k 2", 0, {
        "human": "2622f28cf1a0722110209acb88c0f5e732c4610aff47c8f757242be32233950c",
        "structured": "49fe1dc0435361a49d293b9a68d8803fa4104b6e772e0565cfe9d0e4492b3e08",
    }),
    ("gog gd --k 2 split.gog", 0, {
        "human": "fff8581fd6258f1e5b7b550809006f35ba4fbb9a72c14a88eb944a9de930e4e8",
        "structured": "ba914e41f0edd88d0a7a41ff3a56be545fdb40ffd645caa3e16ed941df043ded",
    }),
    ("gog gd --k 1 weak.gog", 0, {
        "human": "b6b7ffdd57509a1b42de71f5c5da383fdb654531cee9a0743d9b25085a04d8dc",
        "structured": "7df6b70f3f470e4123d97ed7117bf0252df30b258df613c5c984ee92a375e746",
    }),
    ("gog bounds --k 1 split.gog", 0, {
        "human": "acec0f0f00d0e8aa6dbe07b0bf030a6ae1c66361147f725cd6f220af319d08f1",
        "structured": "94bf1515eb19be1d526accb04efc6ba7445db4523b9154c9e2d862f741755c5b",
    }),
    ("gog census --k 1 split.gog", 0, {
        "human": "238a0f5af90888386111f892631b0e8f88392f472c47f640a0571511626759ab",
        "structured": "43d32d804dc442103b49812ffc09eabe46c363d5d92a4fbcff096ad38a5d90fa",
    }),
    ("verify dims", 0, {
        "human": "c77ee692a362f6bed31a8787edc3a35f0e4a38776e62aaf85c9f0dc2ee46ea88",
        "structured": "ca324fa5c297201e96e46d3c510116e4bf8c95c1a5fd583b51eee5adb749b8ac",
    }),
    ("verify homology", 0, {
        "human": "cbdb03efb8fc600a7ee3653c78b025948e8bd52cc4d70bf82263671d837cdfac",
        "structured": "bf06c88a59bee0dc8456c3e5b30060c0b0dbd6598bd456eda67a7bdc4557bf47",
    }),
    ("verify dims --seed 7", 0, {
        "human": "9f4743b23681a93ce1e97959c66b211a2cce83bde6ca8e627e356b5a04d48e0a",
        "structured": "5678569f4a93ace7d3f54e9ce81c44464aac962a451beebc68f1efbf01552c25",
    }),
]

# Every command above is pinned in both output formats.
FORMATTED = [
    (f"{line} --format {fmt}", code, digests[fmt])
    for line, code, digests in CORPUS
    for fmt in ("human", "structured")
]

# Refusals print nothing on stdout.
REFUSALS = [
    ("dims vab --n 2 --k 2", 3),
    ("dims braid --n 3 --k 2", 3),
    ("raag gd k4.graph --k 4", 3),
    ("gog census --k 0 split.gog", 3),
    ("lattice complement nonsat.txt", 2),
    ("lattice map-auto nonsat.txt plane.txt", 2),
]

COMPLETION_DIGEST = "d8d546a86fb9dc5033fba5e841890b2f7ef09b6dfd935dbc1e7cc8ca6b71e83a"

VERIFY_LATTICE = [
    ("lattice.hnf-canonical", 60, True),
    ("lattice.snf-sound", 60, True),
    ("lattice.saturation-closure", 80, True),
    ("lattice.saturation-box-oracle", 60, True),
    ("lattice.index-coset-oracle", 60, True),
    ("lattice.commensurability-saturation", 60, True),
    ("lattice.saturation-uniqueness", 59, True),
    ("lattice.automorphism-postconditions", 20, True),
    ("lattice.intersection-box-oracle", 60, True),
    ("lattice.index-multiplicativity", 60, True),
    ("lattice.sum-intersection-index", 60, True),
]

VERIFY_RAAG = [
    ("raag.clique-oracle", 40, True),
    ("raag.dimension-formulas", 20, True),
    ("raag.salvetti-cohomology", 20, True),
    ("raag.torus-cohomology", 6, True),
]


def _argv(tmp_path, line):
    argv = []
    for token in line.split():
        if token in FILES:
            path = tmp_path / token
            path.write_text(FILES[token])
            token = str(path)
        argv.append(token)
    return argv


def _run(capsys, tmp_path, line):
    code = cli.main(_argv(tmp_path, line))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("line,code,digest", FORMATTED, ids=[entry[0] for entry in FORMATTED])
def test_golden_stdout(capsys, tmp_path, line, code, digest):
    got_code, out, _ = _run(capsys, tmp_path, line)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("line,code", REFUSALS, ids=[entry[0] for entry in REFUSALS])
def test_golden_refusals(capsys, tmp_path, line, code):
    got_code, out, err = _run(capsys, tmp_path, line)
    assert got_code == code
    assert out == ""
    assert err.startswith("error: ")
    if code == 2:
        assert "saturated" in err


# A command with a flag, then the same command without it, through one parser.
FLAG_PAIRS = [
    ("raag cliques k4.graph --list", "raag cliques k4.graph"),
    ("dims derive-zn --n 4 --k 2 --tree", "dims derive-zn --n 4 --k 2"),
    ("dims braid --n 4 --k 1 --pure", "dims braid --n 4 --k 1"),
    ("raag salvetti k4.graph --cohomology", "raag salvetti k4.graph"),
    ("dims vab --n 3 --k 1 --format structured", "dims vab --n 3 --k 1"),
    ("verify dims --seed 7", "verify dims"),
]


def _golden(line):
    """The pinned digest of a corpus line; without --format it prints human."""
    fmt = "human"
    if line.endswith(" --format structured"):
        line, fmt = line[: -len(" --format structured")], "structured"
    return next(digests[fmt] for entry, _, digests in CORPUS if entry == line)


# One command per group, each run as ``python -m bredim`` in a fresh
# interpreter: in process, earlier tests have already loaded every layer, so
# a layer bound wrongly at start-up shows only in a fresh interpreter.
FRESH = [
    "lattice index sub.txt sup.txt",
    "raag cd k4.graph",
    "dims vab --n 3 --k 1",
    "gog gd --k 2 split.gog",
    "verify dims --seed 7",
]


@pytest.mark.parametrize("line", FRESH)
def test_golden_stdout_fresh_interpreter(tmp_path, line):
    env = {key: value for key, value in os.environ.items() if key != "BREDIM_SEED"}
    env["PYTHONPATH"] = str(Path(bredim.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "bredim", *_argv(tmp_path, line)],
        capture_output=True, env=env, timeout=60,
    )
    code = next(code for entry, code, _ in CORPUS if entry == line)
    assert (done.returncode, done.stderr) == (code, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == _golden(line)


def test_cached_parser_keeps_no_state_between_commands(tmp_path, monkeypatch):
    monkeypatch.delenv("BREDIM_SEED", raising=False)
    assert cli._build_parser() is cli._build_parser()
    for pair in FLAG_PAIRS:
        for line in pair:
            code, report = cli.run(_argv(tmp_path, line))
            assert code == 0, line
            out = report.render()
            assert hashlib.sha256(out.encode()).hexdigest() == _golden(line), line


def test_completion_outputs_pinned():
    """Complements and automorphisms of 40 seeded saturated pairs, n <= 16.

    Both answers are read off the Hermite transform of the transposed basis,
    which is not unique, so this pins that transform's operation sequence.
    """
    rng = random.Random(40)
    digest = hashlib.sha256()
    for i in range(40):
        n = 4 + i % 13
        r = rng.randint(1, n - 1)
        src = lattice.sublattice_from_generators(n, _saturated_rows(rng, n, r))
        dst = lattice.sublattice_from_generators(n, _saturated_rows(rng, n, r))
        complement = lattice.direct_complement(src)
        auto = lattice.mapping_automorphism(src, dst)
        digest.update(f"{complement.basis.to_rows()} {auto.to_rows()}\n".encode())
    assert digest.hexdigest() == COMPLETION_DIGEST


def _summary(results):
    return [(check.name, check.instances, check.ok) for check in results]


def test_verify_lattice_stream_pinned():
    results = verify.verify_lattice(
        verify.DEFAULT_SEED, oracle_instances=60, automorphism_pairs=20
    )
    assert _summary(results) == VERIFY_LATTICE


def test_verify_raag_stream_pinned():
    results = verify.verify_raag(verify.DEFAULT_SEED, graphs=40)
    assert _summary(results) == VERIFY_RAAG
