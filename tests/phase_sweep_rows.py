"""Check the rows of bond-1 `ipr-sweep` and `concurrence-sweep` against eigendecompose.

    python tests/phase_sweep_rows.py IPR_CSV C12_CSV [--j J] [--h H]

The two files hold every state 1..200 of the bond-1 chain of 200 sites at
each of the 601 alphas of 0:3:0.005, as the sweeps read them from the phase
equation.  The rows of alpha = 0 depend on LAPACK's basis of a degenerate
pair and are skipped; every other row must match the eigenvectors of the
full solve within 1e-10 relative (1e-13 absolute below 1e-14).
"""

import argparse
import csv

import numpy as np

from xxchain.chain import build_hamiltonian, single_impurity
from xxchain.measures import ipr_of_rows
from xxchain.spectral import eigendecompose

N = 200
ALPHAS = 601


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ipr_csv")
    parser.add_argument("c12_csv")
    parser.add_argument("--j", type=float, default=-1.0)
    parser.add_argument("--h", type=float, default=0.0)
    args = parser.parse_args()

    tables = [list(csv.DictReader(open(path))) for path in (args.ipr_csv, args.c12_csv)]
    assert all(len(rows) == ALPHAS * N for rows in tables)
    reads = (ipr_of_rows, lambda vectors: 2.0 * np.abs(vectors[:, 0] * vectors[:, 1]))
    pairs = 0
    for start in range(N, ALPHAS * N, N):
        alpha = float(tables[0][start]["alpha"])
        spec = single_impurity(N, alpha, exchange_j=args.j, field_h=args.h)
        vectors = eigendecompose(build_hamiltonian(spec)).vectors
        for rows, read in zip(tables, reads):
            for row, want in zip(rows[start : start + N], read(vectors)):
                got = float(row["value"])
                assert abs(got - want) <= (1e-10 * want if min(got, want) >= 1e-14 else 1e-13), \
                    (alpha, row["j"], got, want)
                pairs += 1
    assert pairs == 2 * (ALPHAS - 1) * N
    print(f"{ALPHAS - 1} alphas, {pairs} rows")


if __name__ == "__main__":
    main()
