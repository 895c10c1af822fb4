"""sha256 of every result file a fixed list of CLI commands writes.

Runs each command of COMMANDS as `python -m qutritlab.cli_harness ...`
with `--out` into its own folder of a temporary directory, one process per
command, against the `src` tree next to this script. Then prints one
`sha256  path` line per result JSON and figure CSV, sorted by path. The
receipts on stdout are left out, as they hold absolute paths.

    python tools/cli_digests.py > digests.txt

Two listings diff clean when the runs wrote the same bytes, for example
two checkouts, or two BLAS thread counts:

    diff <(OPENBLAS_NUM_THREADS=1 python tools/cli_digests.py | grep -v device_) \\
         <(OPENBLAS_NUM_THREADS=2 python tools/cli_digests.py | grep -v device_)

Device spectra still move in their last digits with the thread count, so
the device_* lines are compared at one thread count only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

GATES = ("I", "H", "Hdag", "X", "Xsq", "Z", "Zsq")
SIM_MODES = {
    "exact": [],
    "sampled": ["--shots", "2000", "--seed", "3"],
    "noisy": ["--noisy"],
    "mitigated": ["--noisy", "--mitigate", "--shots", "20000", "--seed", "5"],
}
# counts for `mitigate`, in label order 00 ... 22; the small ones sit below the sqrt(N) floor
COUNTS = (9000, 12, 3, 400, 25, 0, 160, 7, 393)

# (output folder, arguments); {inputs} is the folder of the input files written below
COMMANDS = [
    *((f"sim_{mode}", ["sim", algorithm, *flags])
      for mode, flags in SIM_MODES.items() for algorithm in ("dj", "bv", "grover")),
    *((f"tomo_{gate}{qutrit}", ["tomo", "process", "--gate", gate, "--qutrit", str(qutrit)])
      for gate in GATES for qutrit in (1, 2)),
    *((f"sweep_n{n}", ["device", "sweep", "--from", "0", "--to", "0.3", "--steps", "13",
                       "--config", f"{{inputs}}/n{n}.yaml"]) for n in (6, 8, 10)),
    ("compile", ["compile", "cphase", "--theta", "1.0", "--target", "21"]),
    ("mitigate", ["mitigate", "--counts", "{inputs}/counts.txt", "--matrix", "{inputs}/matrix.txt"]),
]

SAVE_MATRIX = ("import sys; from qutritlab.readout_mitigation import save_confusion, synthetic_confusion; "
               "save_confusion(synthetic_confusion(), sys.argv[1])")


def _run(args: list[str], env: dict) -> None:
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")


def listing(root: Path) -> list[str]:
    """Run every command with its output under root; the `sha256  path` lines of what they wrote."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    inputs = root / "inputs"
    inputs.mkdir()
    for n in (6, 8, 10):
        (inputs / f"n{n}.yaml").write_text(f"device:\n  n_levels: {n}\n")
    labels = [f"{a}{b}" for a in range(3) for b in range(3)]
    (inputs / "counts.txt").write_text("".join(f"{label} {count}\n" for label, count in zip(labels, COUNTS)))
    _run(["-c", SAVE_MATRIX, str(inputs / "matrix.txt")], env)
    for folder, args in COMMANDS:
        args = [arg.format(inputs=inputs) for arg in args]
        _run(["-m", "qutritlab.cli_harness", *args, "--out", str(root / folder)], env)
    files = sorted(p for p in root.rglob("*") if p.is_file() and inputs not in p.parents)
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}" for p in files]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(listing(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
