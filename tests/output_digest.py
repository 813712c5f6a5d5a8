"""Digests of every benchmark op's output, to check that a change leaves all outputs byte-identical.

    python3 tests/output_digest.py --seeds 1 3 --save ref.json    # on the commit compared against
    python3 tests/output_digest.py --seeds 1 3 --reference ref.json

Run from the repository root.  Every op of ``bench/workloads.py`` runs once,
in-process, as the benchmark runs it, and one sha256 per workload and seed is
printed over each op's exit code and standard output, in op order.  With
``--save`` the per-op digests are written to a file; with ``--reference`` the
first op whose output differs from that file's is named, and the exit code is
1 when any output differs.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("classify_plain", "classify_all", "lemma")


def op_digests(workload, seed):
    """[(op key, sha256 of its exit code and standard output)] for every op of the workload at the seed."""
    from nipr import cli
    from workloads import BUILDERS

    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for op in BUILDERS[workload](seed, Path(workdir)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(op.argv))
            out.append((op.key, hashlib.sha256(f"{rc}\n{buf.getvalue()}".encode()).hexdigest()))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 3])
    ap.add_argument("--save", help="write the per-op digests to this file")
    ap.add_argument("--reference", help="compare with the per-op digests saved in this file")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    reference = json.loads(Path(args.reference).read_text()) if args.reference else None
    saved, differ = {}, False
    for seed in args.seeds:
        for workload in WORKLOADS:
            key = f"{workload}:{seed}"
            ops = op_digests(workload, seed)
            total = hashlib.sha256("".join(d for _, d in ops).encode()).hexdigest()
            saved[key] = {"digest": total, "ops": ops}
            line = f"{workload} seed {seed}: {total} ({len(ops)} ops)"
            if reference is not None:
                ref = reference.get(key)
                if ref is None:
                    line += ", not in the reference"
                elif ref["digest"] != total:
                    differ = True
                    first = next((k for (k, d), (rk, rd) in zip(ops, ref["ops"]) if (k, d) != (rk, rd)),
                                 f"op {min(len(ops), len(ref['ops']))} (the op lists differ in length)")
                    line += f", DIFFERS from the reference; first at {first}"
                else:
                    line += ", same as the reference"
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
