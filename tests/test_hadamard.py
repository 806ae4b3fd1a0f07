import hashlib
import json

import numpy as np
import pytest

from umebkit import hadamard
from umebkit.cli import artifact_from_json, artifact_to_json, main
from umebkit.errors import BadResidueClass, MalformedArtifact, NotPrime, UnsupportedOrder
from umebkit.hadamard import (
    HadamardMatrix,
    construct,
    kronecker,
    paley_one,
    paley_two,
    sylvester,
)
from umebkit.numth import is_prime, validate_prime

from oracles import legendre

# the order-4 matrix [[1,1],[1,-1]] tensored with itself
H4 = np.array(
    [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]
)


def assert_exact_hadamard(h):
    n = h.order
    assert h.entries.shape == (n, n)
    assert np.all(np.abs(h.entries) == 1)
    assert np.array_equal(h.entries @ h.entries.T, n * np.eye(n, dtype=np.int64))
    assert np.array_equal(h.entries.T @ h.entries, n * np.eye(n, dtype=np.int64))


def test_sylvester_order_one():
    h = sylvester(0)
    assert h.order == 1
    assert np.array_equal(h.entries, [[1]])


def test_sylvester_order_four_matches_reference():
    assert np.array_equal(sylvester(2).entries, H4)


def test_sylvester_order_eight():
    h = sylvester(3)
    assert h.order == 8
    assert_exact_hadamard(h)


@pytest.mark.parametrize("q", [3, 11, 19, 23])
def test_paley_one(q):
    h = paley_one(q)
    assert h.order == q + 1
    assert_exact_hadamard(h)


def test_paley_one_errors():
    with pytest.raises(NotPrime):
        paley_one(9)
    with pytest.raises(BadResidueClass):
        paley_one(5)


@pytest.mark.parametrize("q", [5, 13, 17])
def test_paley_two(q):
    h = paley_two(q)
    assert h.order == 2 * (q + 1)
    assert_exact_hadamard(h)


def test_paley_two_errors():
    with pytest.raises(NotPrime):
        paley_two(15)
    with pytest.raises(BadResidueClass):
        paley_two(7)


def test_kronecker_identity():
    h = paley_one(11)
    assert np.array_equal(kronecker(sylvester(0), h).entries, h.entries)


def test_kronecker_two_by_two_gives_reference():
    assert np.array_equal(kronecker(sylvester(1), sylvester(1)).entries, H4)


def test_kronecker_order_24():
    h = kronecker(sylvester(1), paley_one(11))
    assert h.order == 24
    assert_exact_hadamard(h)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 16, 20, 24, 36, 40])
def test_construct_supported_orders(n):
    h = construct(n)
    assert h.order == n
    assert_exact_hadamard(h)


def test_construct_four_matches_reference():
    assert np.array_equal(construct(4).entries, H4)


def test_the_smallest_powers_of_two_are_sylvester_matrices():
    # orders 1 and 2 go through the one power-of-two branch, entry for entry the matrices they were
    # always built as, and 0, -4, 3 and 6 are refused with the message they always had
    assert construct(1).entries.tolist() == [[1]]
    assert construct(2).entries.tolist() == [[1, 1], [1, -1]]
    assert construct(4).entries.tolist() == [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    for n in (1, 2, 4):
        assert construct(n).entries.dtype == np.int64 and construct(n).entries.tobytes() == sylvester(n.bit_length() - 1).entries.tobytes()
    for n in (0, -4, 3, 6):
        with pytest.raises(UnsupportedOrder, match=f"^Hadamard order must be 1, 2 or a multiple of 4, got {n}$"):
            construct(n)


def test_construct_deterministic():
    for n in (12, 24, 36, 40):
        assert np.array_equal(construct(n).entries, construct(n).entries)


@pytest.mark.parametrize("n", [0, 3, 5, 6, 10, 92])
def test_construct_unsupported(n):
    # 92 = 4*23 has no strategy here: 91 = 7*13, 45 composite, factors 4/23 with
    # 23 unreachable (22 = 2*11 not a Hadamard order for these constructions)
    with pytest.raises(UnsupportedOrder):
        construct(n)


def test_row_inner_products():
    h = construct(12)
    gram = h.entries @ h.entries.T
    assert np.array_equal(np.diag(gram), np.full(12, 12))
    assert np.all(gram[~np.eye(12, dtype=bool)] == 0)


def _read_h(had, p=3):
    """H of the artifact of p and its default k that holds had, read by cli.artifact_from_json."""
    return artifact_from_json({"p": p, "k": validate_prime(p).k, "hadamard": had})[1]


def test_json_round_trip(tmp_path):
    # `hadamard --out` writes {"order", "rows"}: construct's matrix, entry for entry
    for n in (1, 2, 12, 20):
        out = tmp_path / f"h{n}.json"
        assert main(["hadamard", "--order", str(n), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"order": n, "rows": construct(n).entries.tolist()}
    # an artifact holds the same form, and reads it back as int64, for p = 3, 7, 23 and 79
    for p in (3, 7, 23, 79):
        h = construct((p + 1) // 2)
        again = _read_h(json.loads(json.dumps(artifact_to_json(validate_prime(p), h)["hadamard"])), p)
        assert again.order == h.order
        assert again.entries.dtype == np.int64 and again.entries.tobytes() == h.entries.tobytes()
    # any Hadamard matrix of the order reads back, not only construct's: columns negated, rows permuted
    made = construct(12).entries * np.where(np.arange(12) % 3 == 0, -1, 1)
    made = made[np.random.default_rng(1).permutation(12)]
    assert _read_h({"order": 12, "rows": made.tolist()}, 23).entries.tolist() == made.tolist()


def test_json_import_rejects_corrupt():
    obj = {"order": 4, "rows": construct(4).entries.tolist()}
    obj["rows"][0][0] = -obj["rows"][0][0]
    with pytest.raises(UnsupportedOrder):
        HadamardMatrix(order=obj["order"], entries=obj["rows"])
    with pytest.raises(UnsupportedOrder):  # every entry +-1, but no longer orthogonal rows
        _read_h(obj, 7)
    for rows in ([[1, 1], [1, 2]], [[1, 1], [1, 0]]):
        with pytest.raises(UnsupportedOrder):
            _read_h({"order": 2, "rows": rows})
    for bad in (
        {"order": 2, "rows": [[1, 1], [1, True]]},  # true would read as 1
        {"order": 2, "rows": [[1, 1], [1, -1.0]]},
        {"order": 2, "rows": [[1, 1], [1]]},
        {"order": 2.0, "rows": [[1, 1], [1, -1]]},
        {"order": 2, "rows": [[1, 1], [1, -1]], "im": [[0, 0], [0, 0]]},
        [[1, 1], [1, -1]],
    ):
        with pytest.raises(MalformedArtifact):
            _read_h(bad)


def test_direct_construction_rejects_bad_matrix():
    with pytest.raises(UnsupportedOrder):
        HadamardMatrix(order=2, entries=np.array([[1, 1], [1, 1]]))
    with pytest.raises(UnsupportedOrder):
        HadamardMatrix(order=2, entries=np.array([[1, 0], [0, 1]]))


@pytest.mark.parametrize(
    "entries",
    [
        [[1.7, 1], [1, -1.2]],  # truncates to [[1, 1], [1, -1]] under an int64 cast
        [[1, 1], [1, -1 + 1e-9]],
        [[1, 1j], [1, -1]],  # a complex entry: under a cast, its imaginary part dropped with a warning
        [[1 + 0j, 1], [1, -1]],  # complex, though its value is real
        [["1", "1"], ["1", "-1"]],
        [[1, None], [1, -1]],
        [[True, True], [True, False]],
        [[1, float("nan")], [1, -1]],
    ],
    ids=["fractions", "near-one", "complex", "complex-dtype", "text", "none", "bool", "nan"],
)
def test_a_non_integral_complex_or_non_numeric_entry_is_rejected_without_a_warning(entries):
    # pytest turns every warning into an error here, so a ComplexWarning fails the test too
    with pytest.raises(UnsupportedOrder):
        HadamardMatrix(order=2, entries=entries)


def test_integral_float_entries_are_kept_as_integers():
    h = HadamardMatrix(order=2, entries=[[1.0, 1.0], [1.0, -1.0]])
    assert h.entries.dtype == np.int64 and h.entries.tolist() == [[1, 1], [1, -1]]
    assert not h.entries.flags.writeable


def _double_loop_jacobsthal(q):
    """The Jacobsthal matrix as defined: one Legendre symbol of i - j per entry."""
    return np.array([[legendre(i - j, q) for j in range(q)] for i in range(q)], dtype=np.int64)


def test_jacobsthal_is_the_double_loop_for_every_prime_below_400():
    for q in filter(is_prime, range(2, 400)):
        table = hadamard._jacobsthal(q)
        assert table.dtype == np.int64 and np.array_equal(table, _double_loop_jacobsthal(q)), q


def _entries_or_none(n):
    try:
        return construct(n).entries
    except UnsupportedOrder:
        return None


def test_construct_is_unchanged_for_every_order_of_a_supported_prime(monkeypatch):
    # p = 3 or p = 7 (mod 8) needs order (p + 1)/2; 103, 199 and 311 have no construction
    orders = sorted({(p + 1) // 2 for p in filter(is_prime, range(3, 312)) if p == 3 or p % 8 == 7})
    built = {n: _entries_or_none(n) for n in orders}
    monkeypatch.setattr(hadamard, "_jacobsthal", _double_loop_jacobsthal)
    for n in orders:
        expected = _entries_or_none(n)
        assert (built[n] is None) == (expected is None), n
        assert built[n] is None or np.array_equal(built[n], expected), n
    assert [n for n in orders if built[n] is None] == [52, 100, 156]


# sha256 of construct(n).entries as little-endian int64 in C order, for every constructible n <= 256:
# the matrices downstream artifacts were built from, so a build that moves any entry changes a digest
ENTRY_DIGESTS = {
    1: "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    2: "44e41c721ef7ad53582de3a2470e7bf6e74ea4471f54c42469817ef5844da195",
    4: "aa60fb6df530078eac7046de94dd6acfaf67c83ac155f77ae6b06e308b528d22",
    8: "5d6b6ffc8a5aca0cce07fe3aa8a0722a8bef21e28805479246232aa17a5c2abb",
    12: "5e4d2b05efe67b6ee340aa3f73839533615ed0d29a44c3c62c1c55e465172085",
    16: "a5d51a9007b290d37bd4ccd9a09e3c26c630bc5b0d5ee68ae24aa231d34af08e",
    20: "4cedcba251153465b5c094d7e0288bd9c6f4f527ca8693374fd5390bc58e1bdb",
    24: "7b9dc1068a003cb660509697e8a2ff88e8e26c594c278a9a06f0e7b1d27202fb",
    28: "3c8276f2e18d5b1a49cdd2d02ae636959b937cff5ba5852daf8325fd55ace46a",
    32: "9d00b9c44ffc2bdd4ca515c288c0d35792ff13ba8079da005eea47945b528e3c",
    36: "eb3b8bd9c9367ee76766e21ab7b893c6c38dd1e59c39bf3759d3be1a928256dd",
    40: "e457cce720a34c488437688aeac4b7c1c5b40eb77d4254209df8912f5ff60ef3",
    44: "0e43d334363e16a07fb2fba753bb1efe4e4eaa5cded3455016c20e860f08e9b8",
    48: "51f4a1147d9abd62a8f325718bdf74eec1ee10c49165ae4ddfd51bffeb24d455",
    56: "7f1ecd6e616b65019a829f5daa46070a4bd16dfafe43047e5a7e9bf5ea8ac887",
    60: "fa90bdc779983daf18677c4f459ddcfd7d57d6c508979987d3a833a40d89b1a1",
    64: "67fe2a14a770214051e461d29c2f444256ea9f5208f251ce70b8a506fc851299",
    68: "2657fffc8f77a644982922eafd5c96df755819bc6f78ea3f2eccc40b39ee24c6",
    72: "02c8f1be25fefcf69530d9aadbadf9fe7b25949626023918c3e978aea8f75abb",
    76: "c7487e6f2fb835fc4129f41ab91a79cb1c213550517d632d518f8f2f8d52fadf",
    80: "5c5fdd54ce7a51cdef313c1276bac41d573acf3d9ed49db2f79d22905c747cb6",
    84: "a2a158f009d71d02e1ab243808e5f3e1c1438d839cfb411cd3ef9793feec529d",
    88: "0c74daa4f2066b81bb6c21f91e92c1723d692a8ef10be185e7247bee2780dd71",
    96: "bcb5c959177a19ab4ff937c3b69acd9e4016e71963012a494a3354e5204243ec",
    104: "0adc6047dab77090024b138fa3fd588e96c85e26c4c18d48cd3c645427c35579",
    108: "26f6a36bf1ac74acaae2880022af7bfcdeab46d103c76a9b5c8298c673e01be6",
    112: "341ed81d1eca2a4a5308e39c58b63e4cfac2a9f4c2a997590a33e13861f1428e",
    120: "faea367f56e0dfd41cdbf4c35fbd2933159a1e5486271d60f5c21dda63c75786",
    124: "72f314904f062ea883fbefec4d4f9841e1642296fed9375a31fbcd4a535716a0",
    128: "6b31409aba25a3616864f856e0b474898afba9b97cee7461e56479b239c12342",
    132: "1db36fcb1ed85dc28630a0c0a721a9b69c522f5a259075c75c0e4326dfe05a77",
    136: "4fb596e9284510b169642f10ebf352e72092925402552cbde4bdb8f1499bebb9",
    140: "88ad3abaacc94c04b6b0b8e6e45de360cb86323e02b965baa34d0f3d6de656da",
    144: "4759b118cecbcc014a67a007986a2691e2b95b02b9e14fbe7fb0d05d24a0b0c2",
    148: "4a9ff6b4f9d83c7134b42a293a4308f2e191e8803a94c0364866b2ec8c990ad6",
    152: "28b6e124de99b6c0a29cbce25568bd108c53f877ff78543e4b7058cbe7f37659",
    160: "697e1e3216ec9d1332452b7394f22932261a335d159a82d56d7bf33058b2c617",
    164: "78f97c5583cea8765d9c55cf33a99449d652331f448eb9ef8f647d018b9c2667",
    168: "5af95887b7e17fc7feb67e9961621d9eabbd2dc3c2540c11a4ee3650aee0d845",
    176: "2f79dcb0a31f9d329fc0c61908d619fe4d1d4ae7a1e5a241f39d9eee2ff2a3bb",
    180: "a473d9deadd5e49263406d66e88a221fa993a1bd61aff225ab39ebac62f198b5",
    192: "e6e28ce8f25791a5e66ea327d02a20222458566a70ffa1315a0bf1f92cb2aab6",
    196: "e90e7a0c1d8bf1c50d3276657c93659373cfc333e667f674ff629ed707d20bc1",
    200: "ab5285d6b7647156a9e2f9ada7ad6804c2b34104e6f217dd9ab4f263d3d7d018",
    204: "90a51ee1b5bb475a13258bdd008fb84926817af3cc2da5674aedf7c35aa6a144",
    208: "7adb163fd9af9c9cba0e0ac17b118a28492a27e68beb0b68a1d6fb622de78790",
    212: "a1c4cebbef33ba711d506e8ca746de4aac9ad5d11d59194c96440e8ec7acd56a",
    216: "749c7446f193de23286c84307580e811c1487840b9e08ca426c5b9a84b3418bd",
    220: "bd6af72e2a3422463cca9fd811fe44369bdbf202eae3fc49cb8932ac5825fae4",
    224: "6bf67f1db5383ba1df87d3bf1be5c9f48afb1ad68d01cf77a5d1b9eced17c0e3",
    228: "2f4b4899689eb2eb82753e94e9771cc366baa9c28330de657088e4539611cf53",
    240: "cf12427174f49ee62494496d206f90269ca47a0ba1016d76ab3009aa4a23b7f2",
    248: "269f2ad47a4f70e951b3cf5a18cb20d171b00c8a089d282f210985322bd2a8f8",
    252: "b73cf6d03f6df7dddb4aae245ec36e195101ddb3bb50e448f51c0ee045af068f",
    256: "772001dfd891fd7d34e191d82cc0ec5303bceda2860790b1399eb550aa9e061b",
}


def test_construct_gives_the_recorded_entries_for_every_order_up_to_256():
    built = {}
    for n in range(1, 257):
        h = _entries_or_none(n)
        if h is not None:
            assert h.dtype == np.int64 and h.shape == (n, n), n
            built[n] = hashlib.sha256(h.astype("<i8").tobytes()).hexdigest()
    assert built == ENTRY_DIGESTS


def _with_row(h, i, row):
    out = h.copy()
    out[i] = row
    return out


@pytest.mark.parametrize("n", [2, 4, 12, 20, 36, 40, 256])
def test_the_float_gram_check_rejects_every_near_miss(n):
    # order 1 has no near miss of this kind: [[-1]] is a Hadamard matrix too
    h = construct(n).entries
    near_misses = [
        _with_row(h, n - 1, h[n - 1] * np.where(np.arange(n) == n // 2, -1, 1)),  # one entry's sign flipped
        _with_row(h, 0, np.where(np.arange(n) == 0, 0, h[0])),  # a 0 entry
        _with_row(h, 0, np.where(np.arange(n) == n - 1, 2 * h[0, -1], h[0])),  # a 2 entry
        h[:, : n - 1],  # a wrong shape
        _with_row(h, n - 1, h[0]),  # row 0 duplicated in place of row n - 1
    ]
    for entries in near_misses:
        with pytest.raises(UnsupportedOrder):
            HadamardMatrix(order=n, entries=entries)
    assert np.array_equal(HadamardMatrix(order=n, entries=h).entries, h)
