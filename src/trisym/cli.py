"""Command-line front end.

Thin delegation layer: every subcommand parses flags, calls the library and
formats the result; no physics is computed here.  Exit codes: 0 success,
2 usage error (from argparse), 1 computation error with a one-line
diagnostic on stderr.

Importing this module loads no numpy: ``classify``, ``molecules``, ``group
--show table`` and usage errors run without it.  ``energies``, ``linelist``
and the matrix views of ``group`` import it, and ``spectrum``, in their own
handlers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import group_algebra as ga
from .classify import InversionSpecies, classify_state
from .molecules import _check_species, dump_molecule, get_molecule, shipped_molecules

__all__ = ["main", "run"]

#: ``spectrum`` functions readable as attributes of this module, for
#: perfbench's ``cli_cold`` trace, which rebinds them here.
_SPECTRUM = ("rot_energy", "line_list", "linelist_csv", "linelist_json")


def __getattr__(name: str):
    """One of ``_SPECTRUM``, read from ``spectrum`` on access (PEP 562)."""
    if name not in _SPECTRUM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import spectrum

    return getattr(spectrum, name)


def _complex_repr(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"


def _matrix_lines(mat) -> list[str]:
    return ["  ".join(f"{_complex_repr(z):>12s}" for z in row) for row in mat]


def _complex_json(z: complex):
    return [z.real, z.imag]


def _print_matrices(mats: dict, as_json: bool):
    """Print named matrices, as a JSON object or as labelled text blocks."""
    if as_json:
        payload = {
            name: [[_complex_json(z) for z in row] for row in mat]
            for name, mat in mats.items()
        }
        print(json.dumps(payload, indent=2))
    else:
        out = []
        for name, mat in mats.items():
            out.append(f"{name}:")
            out.extend(_matrix_lines(mat))
            out.append("")
        print("\n".join(out).rstrip())


def _cmd_group(args) -> int:
    out = []
    as_json = args.format == "json"
    if args.show == "table":
        table = ga.multiplication_table()
        if as_json:
            payload = {
                "elements": [repr(p) for p in ga.ELEMENTS],
                "table": [[repr(p) for p in row] for row in table],
            }
            print(json.dumps(payload, indent=2))
        else:
            names = [repr(p) for p in ga.ELEMENTS]
            out.append("        " + "  ".join(f"{n:>6s}" for n in names))
            for name, row in zip(names, table):
                out.append(
                    f"{name:>6s}  " + "  ".join(f"{p!r:>6s}" for p in row)
                )
            print("\n".join(out))
    elif args.show == "matrices":
        _print_matrices({repr(p): ga.regular_rep(p) for p in ga.ELEMENTS}, as_json)
    elif args.show == "eigenbasis":
        basis = ga.cycle_eigenbasis()
        names = ["s", "a", "v1", "v2", "v3", "v4"]
        if as_json:
            payload = [
                {
                    "name": n,
                    "eigenvalue": _complex_json(lam),
                    "components": [_complex_json(z) for z in vec],
                }
                for n, (vec, lam) in zip(names, basis)
            ]
            print(json.dumps(payload, indent=2))
        else:
            for n, (vec, lam) in zip(names, basis):
                comps = ", ".join(_complex_repr(z) for z in vec)
                out.append(f"{n:>2s}  (eigenvalue {_complex_repr(lam)}):  [{comps}]")
            print("\n".join(out))
    else:  # projectors
        p1, p2 = ga.invariant_projectors()
        mats = {"S": ga.symmetrizer(), "A": ga.antisymmetrizer(), "P1": p1, "P2": p2}
        _print_matrices(mats, as_json)
    return 0


def _parse_spin_i(text: str) -> Fraction:
    if text not in ("1/2", "3/2"):
        raise ValueError(f"--I: must be the literal 1/2 or 3/2, got {text!r}")
    return Fraction(text)


def _cmd_classify(args) -> int:
    molecule = get_molecule(args.molecule)
    species = InversionSpecies(args.species or "none")
    _check_species(molecule, species, "--species")
    i_value = _parse_spin_i(args.I) if args.I is not None else None
    assignment = classify_state(
        args.J, args.K, molecule.nuclear_spin, species, i_value
    )
    labels = sorted(s.value for s in assignment.subspaces)
    forbidden = (
        "None"
        if not (assignment.sp_forbidden or assignment.ss_forbidden)
        else assignment.forbidden_by.value
    )
    if args.format == "json":
        print(
            json.dumps(
                {"subspaces": labels, "forbidden_by": forbidden}, indent=2
            )
        )
    else:
        print(f"{', '.join(labels)}; forbidden by: {forbidden}")
    return 0


def _cmd_energies(args) -> int:
    import numpy as np

    from .spectrum import _NONE, _check_jmax, _levels

    molecule = get_molecule(args.molecule)
    _check_jmax(args.jmax)
    J, K = np.tril_indices(args.jmax + 1)  # J, then K <= J, in row order
    _, energy, _ = _levels(molecule, J, K, _NONE)
    grid = list(zip(J.tolist(), K.tolist(), energy.tolist()))
    if args.format == "json":
        print(
            json.dumps(
                [{"J": j, "K": k, "energy_cm1": e} for j, k, e in grid], indent=2
            )
        )
    elif args.format == "csv":
        rows = ["J,K,energy_cm1"] + [f"{j},{k},{e:.10g}" for j, k, e in grid]
        print("\n".join(rows))
    else:
        for j, k, e in grid:
            print(f"J={j:<3d} K={k:<3d} E={e:.10g} cm-1")
    return 0


def _cmd_linelist(args) -> int:
    from . import spectrum as sp

    molecule = get_molecule(args.molecule)
    lines = sp.line_list(
        molecule,
        args.band,
        sp.ThermalEnsemble(temperature=args.temp, jmax=args.jmax),
        sp.ViolationModel(beta=args.beta),
        normalization=args.normalization,
    )
    writer = {
        "json": sp.linelist_json, "csv": sp.linelist_csv, "text": sp.linelist_text
    }
    text = writer[args.format](lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_molecules(args) -> int:
    if args.dump:
        sys.stdout.write(dump_molecule(get_molecule(args.dump)))
    else:
        for name in shipped_molecules():
            print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisym",
        description=(
            "Permutation-symmetry classification and synthetic infrared "
            "line lists for molecules with three identical nuclei."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="inspect the S3 group machinery")
    p_group.add_argument(
        "--show",
        required=True,
        choices=["table", "matrices", "eigenbasis", "projectors"],
    )
    p_group.add_argument("--format", choices=["text", "json"], default="text")
    p_group.set_defaults(func=_cmd_group)

    p_cls = sub.add_parser("classify", help="classify one rotational state")
    p_cls.add_argument("--molecule", required=True)
    p_cls.add_argument("--J", type=int, required=True)
    p_cls.add_argument("--K", type=int, required=True)
    p_cls.add_argument("--I", default=None, metavar="1/2|3/2")
    p_cls.add_argument("--species", choices=["s", "a"], default=None)
    p_cls.add_argument("--format", choices=["text", "json"], default="text")
    p_cls.set_defaults(func=_cmd_classify)

    p_en = sub.add_parser("energies", help="print the rigid-rotor E(J,K) grid")
    p_en.add_argument("--molecule", required=True)
    p_en.add_argument("--jmax", type=int, required=True)
    p_en.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_en.set_defaults(func=_cmd_energies)

    p_ll = sub.add_parser("linelist", help="generate a vibrational-band line list")
    p_ll.add_argument("--molecule", required=True)
    p_ll.add_argument("--band", required=True)
    p_ll.add_argument("--jmax", type=int, default=30)
    p_ll.add_argument("--temp", type=float, default=296.0)
    p_ll.add_argument("--beta", type=float, default=0.0)
    p_ll.add_argument("--format", choices=["text", "csv", "json"], default="csv")
    p_ll.add_argument(
        "--normalization", choices=["max", "total", "none"], default="max"
    )
    p_ll.add_argument("--out", default=None)
    p_ll.set_defaults(func=_cmd_linelist)

    p_mol = sub.add_parser("molecules", help="list or dump shipped configs")
    p_mol.add_argument("--dump", default=None, metavar="NAME")
    p_mol.set_defaults(func=_cmd_molecules)

    return parser


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() would quote a KeyError's message; an OSError's args[0] is its errno
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
