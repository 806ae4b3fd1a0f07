import pytest

from umebkit.errors import NotPrime, OutOfRange, WrongResidueClass
from umebkit.numth import is_prime, is_quadratic_residue, validate_prime

from oracles import legendre


def brute_force_residues(p):
    """Independent oracle: exhaustive squaring over 1..p-1."""
    return sorted({x * x % p for x in range(1, p)})


def test_validate_prime_7():
    prime = validate_prime(7)
    assert prime.residues == (1, 2, 4)
    assert prime.nonresidues == (3, 5, 6)
    assert prime.k == 3


def test_validate_prime_3():
    prime = validate_prime(3)
    assert prime.residues == (1,)
    assert prime.nonresidues == (2,)
    assert prime.k == 2


def test_validate_prime_23():
    # frozen from brute-force squaring mod 23
    prime = validate_prime(23)
    assert prime.residues == (1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18)
    assert prime.nonresidues == (5, 7, 10, 11, 14, 15, 17, 19, 20, 21, 22)
    assert prime.k == 5
    assert list(prime.residues) == brute_force_residues(23)


def test_validate_prime_wrong_class():
    with pytest.raises(WrongResidueClass):
        validate_prime(5)
    with pytest.raises(WrongResidueClass):
        validate_prime(11)  # 11 mod 8 = 3
    with pytest.raises(WrongResidueClass):
        validate_prime(17)


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 49])
def test_validate_prime_rejects_nonprimes(p):
    with pytest.raises(NotPrime):
        validate_prime(p)


def test_k_override():
    prime = validate_prime(7, k=5)
    assert prime.k == 5
    with pytest.raises(OutOfRange):
        validate_prime(7, k=4)  # 4 = 2^2 is a residue
    with pytest.raises(OutOfRange):
        validate_prime(7, k=0)
    with pytest.raises(OutOfRange):
        validate_prime(7, k=9)


def test_is_quadratic_residue_examples():
    assert is_quadratic_residue(4, 7)
    assert not is_quadratic_residue(5, 23)
    for p in (3, 7, 23, 31):
        assert is_quadratic_residue(1, p)


def test_is_quadratic_residue_range():
    with pytest.raises(OutOfRange):
        is_quadratic_residue(0, 7)
    with pytest.raises(OutOfRange):
        is_quadratic_residue(7, 7)


@pytest.mark.parametrize("p", [7, 23, 31, 47])
def test_euler_criterion_matches_exhaustive_squaring(p):
    squares = set(brute_force_residues(p))
    for a in range(1, p):
        assert is_quadratic_residue(a, p) == (a in squares)


@pytest.mark.parametrize("p", [7, 23, 31, 47, 71])
def test_residue_structure_for_7_mod_8(p):
    prime = validate_prime(p)
    half = (p - 1) // 2
    assert len(prime.residues) == half
    assert len(prime.nonresidues) == half
    assert sorted(prime.residues + prime.nonresidues) == list(range(1, p))
    # -1 is a non-residue and 2 is a residue; hence q in Q iff p - q in R
    assert p - 1 in prime.nonresidues
    assert 2 in prime.residues
    for q in prime.residues:
        assert p - q in prime.nonresidues


@pytest.mark.parametrize("p", [7, 23, 31])
def test_k_times_residue_is_nonresidue(p):
    prime = validate_prime(p)
    for q in prime.residues:
        assert prime.k * q % p in prime.nonresidues


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


SUPPORTED = [p for p in range(3, 1101) if is_prime(p) and (p == 3 or p % 8 == 7)]


def euler_lists(p):
    """The residues and the non-residues of p, each ascending, by Euler's criterion."""
    return (
        tuple(a for a in range(1, p) if legendre(a, p) == 1),
        tuple(a for a in range(1, p) if legendre(a, p) == -1),
    )


def test_residues_are_the_euler_lists_for_every_supported_p_below_1100():
    assert len(SUPPORTED) == 48 and SUPPORTED[:4] == [3, 7, 23, 31] and SUPPORTED[-1] == 1087
    for p in SUPPORTED:
        residues, nonresidues = euler_lists(p)
        prime = validate_prime(p)
        assert (prime.residues, prime.nonresidues, prime.k) == (residues, nonresidues, nonresidues[0]), p


@pytest.mark.parametrize("p", [p for p in SUPPORTED if p <= 79])
def test_every_explicit_k_is_kept_or_rejected_by_euler_s_criterion(p):
    residues, nonresidues = euler_lists(p)
    for k in range(-1, p + 2):
        if k in nonresidues:
            prime = validate_prime(p, k)
            assert (prime.residues, prime.nonresidues, prime.k) == (residues, nonresidues, k)
        else:
            with pytest.raises(OutOfRange, match=f"k={k} is not a quadratic non-residue modulo {p}"):
                validate_prime(p, k)
