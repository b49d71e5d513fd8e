"""Command-line front end.

Subcommands: family list, solve, run, table1, tomo, synth, qasm, grover.
Each computes one answer, deterministic given its full flag set (sampling
commands take --seed, default 0), and `main` prints it: `--output json`
prints the answer itself, and `table` or `csv` are views of it.

Exit codes: 0 success, 2 usage error, 3 validation error (an out-of-range
--shots among them), 4 synthesis failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import family, grover, linsys, qasm, sim, synth, tomo
from .errors import QlinsysError, SynthesisNotFoundError, ValidationError, check_finite

#: The eight circuits of the published comparison table, in row order, with
#: outcome percentages from a 1024-shot hardware run of each on a 5-qubit
#: device, as published (outcomes 0000..0011).  Row B_1342 is reproduced
#: verbatim even though it sums to 97%, apparently a misprint of 27.832 in
#: the second column.  Display-only: tests never use these as oracles for
#: simulated counts.
REFERENCE_PERCENT = {
    "A_1324": (21.875, 24.805, 27.051, 26.27),
    "A_2413": (24.023, 25.781, 23.926, 26.27),
    "A_3124": (24.414, 24.609, 25.684, 25.293),
    "A_4213": (24.316, 24.121, 26.563, 25.0),
    "B_1342": (24.707, 24.832, 24.219, 23.242),
    "B_2413": (24.902, 26.66, 23.047, 25.391),
    "B_3142": (24.805, 25.977, 24.707, 24.512),
    "B_4213": (26.758, 25.098, 25.195, 22.949),
}

#: The outcomes zero-padded to the four-character display width.
_PADDED = ("0000", "0001", "0010", "0011")


def _label_arg(text: str) -> family.FamilyLabel:
    try:
        return family.FamilyLabel.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_system_flags(parser: argparse.ArgumentParser):
    """Add the required --label | --matrix choice and return its group."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--label", type=_label_arg, metavar="NAME", help="catalog label like A_1234")
    group.add_argument("--matrix", metavar="FILE", help="CSV file holding the matrix")
    return group


def _resolve_system(args) -> tuple[str, np.ndarray]:
    if args.label is not None:
        return str(args.label), family.matrix_for(args.label)
    name = os.path.splitext(os.path.basename(args.matrix))[0]
    return name, linsys.load_matrix(args.matrix)


def _vector_arg(text: str, expected: int) -> np.ndarray:
    """Parse --y: either a CSV file path or an inline comma-separated vector."""
    if os.path.exists(text):
        vec = linsys.load_vector(text)
    else:
        try:
            vec = np.array([float(part) for part in text.split(",")], dtype=float)
        except ValueError:
            raise ValidationError(f"could not parse {text!r} as a vector or file path")
    check_finite(vec, f"y must be finite, got {text!r}")
    if vec.size != expected:
        raise ValidationError(f"y has length {vec.size}, expected {expected}")
    return vec


def _fmt_vec(vec) -> str:
    return " ".join(f"{v:+.6f}" for v in vec)


def _json(answer) -> str:
    return json.dumps(answer, indent=2) + "\n"


def cmd_family_list(args) -> list[dict]:
    return [
        {
            "label": str(spec.label),
            "subset": spec.label.subset,
            "matrix": spec.matrix.tolist(),
            "y": spec.y.tolist(),
            "equations": family.equations_for(spec.label),
        }
        for spec in family.enumerate_family()
        if args.klass in (None, spec.label.kind)
    ]


def _family_table(rows: list[dict]) -> str:
    return "".join(f"{row['label']}  {row['subset']}  {' | '.join(row['equations'])}\n" for row in rows)


def cmd_solve(args) -> dict:
    name, matrix = _resolve_system(args)
    y = np.eye(matrix.shape[0])[0] if args.y is None else _vector_arg(args.y, matrix.shape[0])
    x = linsys.solve(matrix, y)
    probs = np.abs(x) ** 2
    return {
        "label": name,
        "y": y.tolist(),
        "x": x.tolist(),
        "probabilities": probs.tolist(),
        "readout_magnitudes": np.sqrt(probs).tolist(),
        "note": "readout magnitudes are square roots of probabilities; solution signs are not observable",
    }


def _solve_table(answer: dict) -> str:
    return (
        f"label: {answer['label']}\n"
        f"y:             {_fmt_vec(answer['y'])}\n"
        f"x:             {_fmt_vec(answer['x'])}\n"
        f"probabilities: {_fmt_vec(answer['probabilities'])}\n"
        f"sqrt readout:  {_fmt_vec(answer['readout_magnitudes'])}   (signs lost)\n"
    )


def _distribution(matrix: np.ndarray, basis: int, noise: float = 0.0) -> np.ndarray:
    """Synthesize the solution circuit, run it on a basis state, and return the measured distribution.

    That is the diagonal of the depolarized solution state; at noise 0 it is
    exactly the noiseless one.
    """
    result = synth.synthesize(linsys.inverse_operator(matrix))
    state = sim.run(result.circuit, basis)
    rho = tomo.apply_depolarizing(tomo.density_from_state(state), noise)
    return np.real(np.diag(rho))


def _counts_payload(name: str, table: sim.ShotTable) -> dict:
    return {
        "label": name,
        "shots": table.shots,
        "seed": table.seed,
        "counts": table.counts,
        "frequencies": table.frequencies,
    }


def cmd_run(args) -> dict:
    name, matrix = _resolve_system(args)
    table = sim.sample_distribution(_distribution(matrix, args.basis, args.noise), args.shots, args.seed)
    return _counts_payload(name, table)


def _percent_row(answer: dict, field: str = "{:.3f}", sep: str = ",") -> str:
    """The answer's outcome percentages, each formatted by `field`, joined by `sep`."""
    return sep.join(field.format(100.0 * f) for f in answer["frequencies"].values())


def _run_table(answer: dict) -> str:
    header = f"{'circuit':<10}" + "".join(f"{p[2:] + '/' + p:>12}" for p in _PADDED)
    return f"{header}\n{answer['label']:<10}{_percent_row(answer, '{:>11.3f}%', '')}\n"


def _run_csv(answer: dict) -> str:
    return f"circuit,{','.join(_PADDED)}\n{answer['label']},{_percent_row(answer)}\n"


def cmd_table1(args) -> list[dict]:
    labels = [family.FamilyLabel.parse(name) for name in REFERENCE_PERCENT]
    block = np.stack([_distribution(family.matrix_for(label), 0) for label in labels])
    keys = [sim.bitstring(i, 2) for i in range(4)]
    counts = sim.sample_counts(block, args.shots, args.seed).tolist()
    tables = [sim.ShotTable(args.shots, args.seed, dict(zip(keys, row))) for row in counts]
    return [
        {**_counts_payload(name, table), "reference_percent": REFERENCE_PERCENT[name]}
        for name, table in zip(REFERENCE_PERCENT, tables)
    ]


def _table1_csv(rows: list[dict]) -> str:
    lines = ["circuit," + ",".join(_PADDED) + "," + ",".join(f"ref_{p}" for p in _PADDED)]
    for row in rows:
        reference = ",".join(f"{v:g}" for v in row["reference_percent"])
        lines.append(f"{row['label']},{_percent_row(row)},{reference}")
    return "\n".join(lines) + "\n"


def cmd_tomo(args) -> dict:
    name, matrix = _resolve_system(args)
    x = linsys.solve(matrix, np.eye(matrix.shape[0])[0])
    rho = tomo.apply_depolarizing(tomo.density_from_state(x), args.noise)
    mode = "analytic" if args.analytic else "sampled"
    table = tomo.pauli_expectations(rho, mode=mode, shots=args.shots, seed=args.seed)
    reconstructed = tomo.reconstruct(table)
    fid = tomo.fidelity(reconstructed, x)
    if args.sqrt_fidelity:
        fid = math.sqrt(fid)
    answer = {
        "label": name,
        "mode": mode,
        "noise_p": args.noise,
        "fidelity": fid,
        "fidelity_convention": "sqrt_overlap" if args.sqrt_fidelity else "overlap",
        "density": {
            "dim": reconstructed.shape[0],
            "re": reconstructed.real.tolist(),
            "im": reconstructed.imag.tolist(),
        },
    }
    if mode == "sampled":
        answer["shots"] = args.shots
        answer["seed"] = args.seed
    return answer


def _tomo_csv(answer: dict) -> str:
    header = f"# label={answer['label']} mode={answer['mode']} fidelity={answer['fidelity']:.6f}"
    if answer["mode"] == "sampled":
        header += f" shots={answer['shots']} seed={answer['seed']}"
    cells = [
        f"{i},{j},{re:.12f},{im:.12f}"
        for i, (re_row, im_row) in enumerate(zip(answer["density"]["re"], answer["density"]["im"]))
        for j, (re, im) in enumerate(zip(re_row, im_row))
    ]
    return "\n".join([header, "row,col,re,im", *cells]) + "\n"


def _synth_payload(name: str, matrix: np.ndarray) -> dict:
    result = synth.synthesize(linsys.inverse_operator(matrix))
    return {
        "label": name,
        "gate_count": result.gate_count,
        "matched_sign": result.matched_sign,
        "max_deviation": result.max_deviation,
        "gates": [{"kind": gate.kind, "targets": gate.targets} for gate in result.circuit.ops],
    }


def cmd_synth(args) -> dict | list[dict]:
    if args.all:
        return [_synth_payload(str(spec.label), spec.matrix) for spec in family.enumerate_family()]
    return _synth_payload(*_resolve_system(args))


def cmd_qasm(args) -> str:
    _, matrix = _resolve_system(args)
    return qasm.circuit_to_qasm(synth.synthesize(linsys.inverse_operator(matrix)).circuit)


def cmd_grover(args) -> dict:
    try:
        marked = sorted({int(part) for part in args.marked.split(",")})
    except ValueError:
        raise ValidationError(f"--marked must be comma-separated integers, got {args.marked!r}") from None
    # A zero-iteration build checks --qubits and --marked in their own terms before
    # 2**qubits is formed; `grover.theta` would word them as n_states and n_marked.
    grover.build_grover_circuit(args.qubits, marked, 0)
    theta = grover.theta(2**args.qubits, len(marked))
    iterations = args.iterations if args.iterations is not None else grover.optimal_iterations(theta)
    circuit = grover.build_grover_circuit(args.qubits, marked, iterations)
    probs = sim.probabilities(sim.run(circuit, 0))
    simulated = float(sum(probs[m] for m in marked))
    return {
        "n": args.qubits,
        "marked": marked,
        "k": iterations,
        "theta": theta,
        "predicted": grover.success_probability(theta, iterations),
        "simulated": simulated,
    }


def _answers(parser: argparse.ArgumentParser, func, **views) -> None:
    """Bind `func` and the views of its answer; with two or more, --output picks one, the first by default."""
    parser.set_defaults(func=func, views=views, output=next(iter(views)))
    if len(views) > 1:
        parser.add_argument("--output", choices=tuple(views))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlinsys",
        description="Solve sign-matrix linear systems on a 2-qubit simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, each declared once and attached
    # through `parents`.
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--shots", type=int, default=1024)
    sampling.add_argument("--seed", type=int, default=0, help="sampling seed")
    noisy = argparse.ArgumentParser(add_help=False)
    noisy.add_argument("--noise", type=float, default=0.0, help="depolarizing strength in [0, 1]")

    p_family = sub.add_parser("family", help="browse the 48-matrix catalog")
    family_sub = p_family.add_subparsers(dest="action", required=True)
    p_list = family_sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--class", dest="klass", choices=("A", "B"), help="restrict to one column class")
    _answers(p_list, cmd_family_list, table=_family_table, json=_json)

    p_solve = sub.add_parser("solve", help="solve A x = y by the transpose")
    _add_system_flags(p_solve)
    p_solve.add_argument("--y", metavar="VEC", help="right-hand side: inline CSV or a file (default e1)")
    _answers(p_solve, cmd_solve, table=_solve_table, json=_json)

    p_run = sub.add_parser("run", help="synthesize, simulate, and sample a circuit", parents=[sampling, noisy])
    _add_system_flags(p_run)
    p_run.add_argument(
        "--basis", type=int, default=0, help="initial basis index b, for the right-hand side y = e_b (default 0)"
    )
    _answers(p_run, cmd_run, table=_run_table, json=_json, csv=_run_csv)

    p_table1 = sub.add_parser("table1", help="reproduce the published 8-circuit table", parents=[sampling])
    _answers(p_table1, cmd_table1, csv=_table1_csv, json=_json)

    p_tomo = sub.add_parser("tomo", help="tomography report for a solution state", parents=[sampling, noisy])
    _add_system_flags(p_tomo)
    p_tomo.add_argument("--analytic", action="store_true", help="exact expectations instead of sampling")
    p_tomo.add_argument("--sqrt-fidelity", action="store_true", help="report sqrt(<psi|rho|psi>)")
    _answers(p_tomo, cmd_tomo, json=_json, csv=_tomo_csv)

    p_synth = sub.add_parser("synth", help="find a minimal circuit for the solution operator, as JSON")
    _add_system_flags(p_synth).add_argument("--all", action="store_true", help="synthesize the whole catalog")
    _answers(p_synth, cmd_synth, json=_json)

    p_qasm = sub.add_parser("qasm", help="export the synthesized circuit as OpenQASM 2.0")
    _add_system_flags(p_qasm)
    _answers(p_qasm, cmd_qasm, qasm=str)

    p_grover = sub.add_parser("grover", help="amplitude-amplification demo")
    p_grover.add_argument("--qubits", type=int, default=2)
    p_grover.add_argument("--marked", default="3", help="comma-separated basis indices")
    p_grover.add_argument("--iterations", type=int, default=None, help="default: the optimal count")
    _answers(p_grover, cmd_grover, json=_json)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sys.stdout.write(args.views[args.output](args.func(args)))
    except (QlinsysError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, SynthesisNotFoundError) else 3
    return 0


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
