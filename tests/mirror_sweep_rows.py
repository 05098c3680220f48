"""Check the rows of `ipr-sweep --mirror` and `concurrence-sweep --mirror` against eigendecompose.

    python tests/mirror_sweep_rows.py IPR_CSV C12_CSV N [--j J] [--h H]

The two files hold every state 1..N of the mirror chain of N sites at each
alpha of a grid without alpha = 0, as the sweeps read them from the phase
equation.  Each row must match the eigenvectors of the full solve within
1e-10 relative (1e-13 absolute below 1e-14).  Inside a pair of levels closer
than GAP_MIN (max|E| + 1), the two bound states of each end beyond
alpha = sqrt 2, LAPACK returns an arbitrary basis of the pair: the reference
turns it onto the eigenstates of the reflection n -> N + 1 - n, which the
rows describe, and compares the pair as a set.
"""

import argparse
import csv
import warnings

import numpy as np

from xxchain.chain import build_hamiltonian, mirror_impurities
from xxchain.measures import ipr_of_rows
from xxchain.spectral import eigendecompose

GAP_MIN = 1e-4


def reference(n, alpha, chain):
    """IPR and C_12 of every state, and the mask of the levels i whose pair (i, i + 1) is close."""
    dec = eigendecompose(build_hamiltonian(mirror_impurities(n, alpha, **chain)))
    vectors = dec.vectors.copy()
    close = np.diff(dec.energies) < GAP_MIN * (np.abs(dec.energies).max() + 1.0)
    assert not (close[1:] & close[:-1]).any(), "three levels in one cluster"
    for i in np.flatnonzero(close):
        pair = vectors[i : i + 2]
        _, turn = np.linalg.eigh(pair @ pair[:, ::-1].T)  # the reflection within the pair
        vectors[i : i + 2] = turn.T @ pair
    return ipr_of_rows(vectors), 2.0 * np.abs(vectors[:, 0] * vectors[:, 1]), close


def sort_pairs(values, close):
    """values with each close pair in ascending order."""
    values = values.copy()
    for i in np.flatnonzero(close):
        values[i : i + 2] = np.sort(values[i : i + 2])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ipr_csv")
    parser.add_argument("c12_csv")
    parser.add_argument("n", type=int)
    parser.add_argument("--j", type=float, default=-1.0)
    parser.add_argument("--h", type=float, default=0.0)
    args = parser.parse_args()
    chain = {"exchange_j": args.j, "field_h": args.h}
    warnings.simplefilter("ignore")  # the J > 0 sign warning

    tables = [list(csv.DictReader(open(path))) for path in (args.ipr_csv, args.c12_csv)]
    n = args.n
    assert len(tables[0]) == len(tables[1]) and len(tables[0]) % n == 0 and tables[0]
    pairs = 0
    for start in range(0, len(tables[0]), n):
        alpha = float(tables[0][start]["alpha"])
        ipr, c12, close = reference(n, alpha, chain)
        pairs += int(close.sum())
        for rows, want in zip(tables, (ipr, c12)):
            assert [(float(row["alpha"]), int(row["j"])) for row in rows[start : start + n]] == \
                [(alpha, j) for j in range(1, n + 1)]
            got = sort_pairs(np.array([float(row["value"]) for row in rows[start : start + n]]), close)
            want = sort_pairs(want, close)
            large = np.minimum(got, want) >= 1e-14
            error = np.abs(got - want)
            assert np.all(error[large] <= 1e-10 * want[large]) and np.all(error[~large] <= 1e-13), \
                (alpha, np.flatnonzero(large & (error > 1e-10 * want)))
    print(f"{len(tables[0]) // n} alphas, {pairs} close pairs")


if __name__ == "__main__":
    main()
