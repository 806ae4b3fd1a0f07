import numpy as np
import pytest

from oracles import asymmetry, dense_gram, gram_spectrum, orbit_stack, spectral_rank, support_columns, support_stack
from test_matcore import _random_bases, _residue_bases, _tampered_p79, _unequal_rows, gram_of  # the bases the matcore tests build


def test_support_columns_put_each_rows_entries_first():
    on = np.zeros((4, 4), dtype=bool)
    on[0, [1, 3]] = True
    on[2, 2] = True
    on[3] = True
    assert support_columns(on).tolist() == [[1, 3, 0, 2], [0, 1, 2, 3], [2, 0, 1, 3], [0, 1, 2, 3]]
    on[3, 1:] = False  # the longest row holds two entries: two columns a row
    assert support_columns(on).tolist() == [[1, 3], [0, 1], [2, 0], [0, 1]]
    assert support_columns(np.zeros((3, 3), dtype=bool)).tolist() == [[0], [0], [0]]  # at least one column


def test_support_columns_are_each_rows_columns_then_the_rest_on_random_masks():
    rng = np.random.default_rng(29)
    for _ in range(300):
        d = int(rng.integers(1, 9))
        on = rng.random((d, d)) < rng.random()  # from empty rows to full ones
        s = max(1, int(on.sum(axis=1).max()))
        direct = [([j for j in range(d) if row[j]] + [j for j in range(d) if not row[j]])[:s] for row in on]
        assert support_columns(on).tolist() == direct


SPECTRUM_CASES = {
    # d = 6 is even: the shift d/2 is its own mirror
    **{f"random-d{d}": (lambda d=d: _random_bases(d, 40 + d)) for d in (5, 6)},
    "zero-base": lambda: _random_bases(5, 47, zero=True),
    "shifts-1": lambda: _random_bases(1, 48),  # d = 1: one shift, so one block
    **{f"{kind}-p{p}": (lambda p=p, kind=kind: _residue_bases(p, kind)) for p in (7, 23) for kind in ("P", "U", "dual")},
}


@pytest.mark.parametrize("name", SPECTRUM_CASES)
def test_gram_spectrum_is_the_spectrum_of_the_whole_gram(name, monkeypatch):
    bases = SPECTRUM_CASES[name]()
    d = bases.shape[-1]
    gram = gram_of(bases)
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    spectrum = gram_spectrum(gram)
    monkeypatch.undo()
    expected = np.linalg.eigvalsh(dense_gram(orbit_stack(bases)))
    assert spectrum.shape == expected.shape == (len(bases) * d,)
    assert np.max(np.abs(spectrum - expected)) <= 1e-12 * d * d
    # one batched eigensolve on the shift blocks
    assert [a.shape for a in calls] == [(d, len(bases), len(bases))]



@pytest.mark.parametrize("name", ["unequal-rows", "dense-complex", "U-p23", "tampered-U-p79"])
def test_asymmetry_is_the_dense_sum_over_every_entry(name):
    # a stored value whose mirror is not stored stands for the mirror too; dense bases store both
    bases = {
        "unequal-rows": _unequal_rows,
        "dense-complex": lambda: _random_bases(5, 63),
        "U-p23": lambda: _residue_bases(23, "U"),
        "tampered-U-p79": lambda: _tampered_p79("U"),
    }[name]()
    gap = np.abs(bases - bases.transpose(0, 2, 1))
    worst, sq = asymmetry(support_stack(bases, bases.shape[-1]))
    assert worst == np.max(gap)
    assert sq == pytest.approx(float(np.sum(gap**2)), rel=1e-12, abs=0.0)



def test_spectral_rank_counts_above_the_relative_threshold():
    assert spectral_rank(np.array([1e-9, 5e-4, 0.5, 1.0]), 1e-3) == (2, 0.5)
    assert spectral_rank(np.array([1e-4, 2e-3, 1.0]), 1e-3) == (2, 2e-3)
    assert spectral_rank(np.array([-1.0, 0.0]), 1e-3) == (0, 0.0)
    assert spectral_rank(np.array([5e-8, 2e-7, 1.0])) == (2, 2e-7)  # RANK_EPS = 1e-7 by default
