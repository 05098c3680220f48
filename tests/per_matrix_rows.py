"""Rows of spectrum, ipr-sweep, concurrence-sweep and landscape built one matrix at a time.

    python tests/per_matrix_rows.py OUT_DIR [--j J] [--h H]

writes spectrum_single.csv, ipr_single.csv, c12_single.csv,
landscape_single.csv, config_ipr_single.csv and config_c12_single.csv into
OUT_DIR: the rows of `spectrum --n 40 --alpha-range 0:3:0.01`, of
`ipr-sweep` and `concurrence-sweep --states 1:200` at --n 200 --alpha-range
0:3:0.005, of `landscape --n 31 --alpha-range 0.1:1.5:0.02 --t-range
0:40:0.1`, and of `ipr-sweep` and `concurrence-sweep --states 1:40` at
--alpha-range 0:3:0.01 on a `--config` chain of 40 sites with impurities
on bonds 2 and 5.  That chain takes the dense route at every alpha but 1,
where it is uniform, and the commands solve it ten matrices per eigh call.
Each alpha is solved on its own by the per-matrix entry points
(eigendecompose and classify_band, eigenstate_ipr, first_bond_c12,
transfer_spectrum and fidelity) and written through the row writer, where
the commands solve the grid in batches and write it as a grid, so the files
must equal the command output byte for byte.
"""

import argparse
import warnings

from xxchain.chain import ChainSpec, build_hamiltonian, mirror_impurities, single_impurity, with_alpha
from xxchain.cli import _parse_range, emit_csv
from xxchain.dynamics import fidelity
from xxchain.spectral import classify_band, eigendecompose, eigenstate_ipr, first_bond_c12, transfer_spectrum


def state_rows(template, alphas, observable):
    n = template.n_sites
    rows = []
    for alpha in alphas.tolist():
        values = observable(build_hamiltonian(with_alpha(template, alpha)), (1, n))
        rows.extend(zip([alpha] * n, range(1, n + 1), values.tolist()))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--j", type=float, default=-1.0)
    parser.add_argument("--h", type=float, default=0.0)
    args = parser.parse_args()
    chain = {"exchange_j": args.j, "field_h": args.h}
    warnings.simplefilter("ignore")  # the J > 0 sign warning

    bond1 = single_impurity(40, 1.0, **chain)
    rows = []
    for alpha in _parse_range("0:3:0.01", "--alpha-range").tolist():
        dec = eigendecompose(build_hamiltonian(with_alpha(bond1, alpha)))
        labels = [label.value for label in classify_band(dec, bond1)]
        rows.extend(zip([alpha] * 40, range(1, 41), dec.energies.tolist(), labels))
    emit_csv(rows, ["alpha", "j", "energy", "label"], f"{args.out_dir}/spectrum_single.csv")

    alphas = _parse_range("0:3:0.005", "--alpha-range")
    bond1 = single_impurity(200, 1.0, **chain)
    for name, observable in (("ipr", eigenstate_ipr), ("c12", first_bond_c12)):
        emit_csv(state_rows(bond1, alphas, observable), ["alpha", "j", "value"],
                 f"{args.out_dir}/{name}_single.csv")

    alphas = _parse_range("0:3:0.01", "--alpha-range")
    config = ChainSpec(40, args.j, args.h, ((2, 1.0), (5, 1.0)))
    for name, observable in (("config_ipr", eigenstate_ipr), ("config_c12", first_bond_c12)):
        emit_csv(state_rows(config, alphas, observable), ["alpha", "j", "value"],
                 f"{args.out_dir}/{name}_single.csv")

    mirror = mirror_impurities(31, 1.0, **chain)
    times = _parse_range("0:40:0.1", "--t-range")
    rows = []
    for alpha in _parse_range("0.1:1.5:0.02", "--alpha-range").tolist():
        values = fidelity(transfer_spectrum(build_hamiltonian(with_alpha(mirror, alpha))), times)
        rows.extend(zip([alpha] * times.size, times.tolist(), values.tolist()))
    emit_csv(rows, ["alpha", "t", "fidelity"], f"{args.out_dir}/landscape_single.csv")


if __name__ == "__main__":
    main()
