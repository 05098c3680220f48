"""Check the f_N rows of `evolve --mirror --kind amplitude` against the full eigenvector sum.

    python tests/mirror_transfer_rows.py DIR [--j J] [--h H]

DIR holds mirror_{N}_{alpha}.csv for N = 200, 201 and alpha = 0.05, 0.4, 1,
1.42, 1.46, 3: the 601 rows of --t-range 0:300:0.5, as evolve reads f_N from
the phase equation.  Every amplitude must be within 1e-12 of
sum_j exp(-i E_j t) psi_1^(j) psi_N^(j) over the eigenpairs of the full solve.
"""

import argparse
import csv

import numpy as np

from xxchain.chain import build_hamiltonian, mirror_impurities
from xxchain.spectral import eigendecompose

SIZES = (200, 201)
ALPHAS = ("0.05", "0.4", "1", "1.42", "1.46", "3")
ROWS = 601


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir")
    parser.add_argument("--j", type=float, default=-1.0)
    parser.add_argument("--h", type=float, default=0.0)
    args = parser.parse_args()

    errors = []
    for n in SIZES:
        for alpha in ALPHAS:
            rows = np.array([[float(x) for x in row]
                             for row in list(csv.reader(open(f"{args.dir}/mirror_{n}_{alpha}.csv")))[1:]])
            assert len(rows) == ROWS
            spec = mirror_impurities(n, float(alpha), exchange_j=args.j, field_h=args.h)
            dec = eigendecompose(build_hamiltonian(spec))
            want = np.exp(-1j * np.outer(rows[:, 0], dec.energies)) @ (dec.vectors[:, 0] * dec.vectors[:, -1])
            errors.append(np.abs(rows[:, 1] + 1j * rows[:, 2] - want).max())
    assert max(errors) <= 1e-12, errors
    print(f"{len(errors)} files, max error {max(errors):.2e}")


if __name__ == "__main__":
    main()
