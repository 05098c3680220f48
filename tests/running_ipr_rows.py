"""Check the streamed running IPR of `evolve --kind ipr` against the full eigenvector sum.

    python tests/running_ipr_rows.py DIR

DIR holds ipr_blocks_{N}_{alpha}.csv of bond-1 chains: N = 50 at alpha = 1
over --t-range 0:500:0.05 (10,001 rows), N = 200 at alpha = 1 over
0:100:0.05 (2,001 rows) and N = 201 at alpha = 0 over 0:500:0.05 (10,001
rows).  Every value must match the IPR of the amplitudes
sum_j exp(-i E_j t) psi_1^(j) psi^(j) of the full solve within 1e-12
relative, beyond half a unit of the 12th printed digit.
"""

import argparse
import csv

import numpy as np

from xxchain.chain import build_hamiltonian, single_impurity
from xxchain.measures import ipr_of_rows
from xxchain.spectral import eigendecompose

CASES = {(50, 1): 10001, (200, 1): 2001, (201, 0): 10001}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir")
    args = parser.parse_args()

    errors = []
    for (n, alpha), count in CASES.items():
        rows = np.array([[float(x) for x in row]
                         for row in list(csv.reader(open(f"{args.dir}/ipr_blocks_{n}_{alpha}.csv")))[1:]])
        assert len(rows) == count
        dec = eigendecompose(build_hamiltonian(single_impurity(n, alpha)))
        want = ipr_of_rows(np.exp(-1j * np.outer(rows[:, 0], dec.energies)) * dec.vectors[:, 0] @ dec.vectors)
        digit = 0.5 * 10.0 ** (np.floor(np.log10(rows[:, 1])) - 11)  # half a unit of the 12th digit
        errors.append((np.abs(rows[:, 1] / want - 1) - digit / rows[:, 1]).max())
    assert max(errors) <= 1e-12, errors
    print(f"{len(errors)} files, max error {max(errors):.2e}")


if __name__ == "__main__":
    main()
