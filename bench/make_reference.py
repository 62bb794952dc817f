"""Recompute the output digests in reference.py and print them.

    python3 bench/make_reference.py > /tmp/digests.txt

Run it from the repository root at a commit whose outputs are trusted; it
takes several minutes (the Fano slice runs once per labelled Fano plane).
Only the digests are recomputed; the published rows stay as the paper gives
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    run.import_program(os.getcwd())
    from qmatroid.cli import main as cli_main
    from qmatroid.groebner import EngineConfig, buchberger
    from qmatroid.matroids import decode_revlex, encode_revlex, relabel, uniform
    from qmatroid.quantum import decide_commutativity, quantum_aut_spec

    with tempfile.TemporaryDirectory(dir=os.getcwd()) as outdir:
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["tables", "4", "--out", outdir])
        print("TABLES4_DIGESTS = {")
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                print(f'    "{name[:-4]}": "{hashlib.sha256(fh.read()).hexdigest()}",')
        print("}")

    u25 = decide_commutativity(quantum_aut_spec(uniform(2, 5), "bases"), shortcuts=False)
    print(f'U25_BASIS_DIGEST = "{workloads.basis_digest(u25.gb, "3ff", 5, 2)}"')

    fano = decode_revlex(workloads.FANO_HEX, 7, 3)
    labelled = {}
    for image in itertools.permutations(range(1, 8)):
        m = relabel(fano, dict(zip(range(1, 8), image)))
        labelled.setdefault(encode_revlex(m).hex, m)
    print("FANO_BASIS_DIGESTS = {")
    for hexcode, m in sorted(labelled.items()):
        gens = workloads.feed_slice(quantum_aut_spec(m, "bases").generators, workloads.FANO_SLICE)
        gb = buchberger(gens, EngineConfig(degree_bound=workloads.FANO_DEGREE_BOUND))
        print(f'    "{hexcode}": "{workloads.basis_digest(gb, hexcode, 7, 3)}",', flush=True)
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
