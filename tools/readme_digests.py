"""Digest every output of the README workflow at seed 1.

    python3 tools/readme_digests.py OUT

Runs the README commands at README sizes as `python -m eprsim` children of
this interpreter, with this checkout's `src` first on PYTHONPATH, from
inside OUT (created if missing; it must be empty).  Every `--out` and
`--input` path is relative, so the manifests do not depend on OUT.  Prints
one `sha256  path` line per written file, sorted by path, then one line per
command with its exit code and the sha256 of its stdout and stderr.  Exits
1 if a command failed.  Two checkouts that give the same bytes print the
same text, so `diff` of two runs' output checks a change that should keep
every output byte.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = [
    "single-sweep --zeta 0.44 --eta 0.52 --samples 200000 --window 2000 --seed 1 --out single --write-dataset",
    "epr-sweep --zeta 0.44 --eta 0.50 --samples 400000 --window 10000 --seed 1 --out epr --write-dataset",
    "tomography --input epr/epr_data.csv --cutoff 4 --ref-zeta 0.44 --ref-eta 0.5 --out tomo",
    "tomography --input single/single_data.csv --cutoff 4 --out tomo1",
    "fit --kind epr --trace-sum epr/epr_sum_trace.csv --trace-diff epr/epr_difference_trace.csv --out refit",
    "design walkoff --length 1mm --preset ppktp --out design",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/readme_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"readme_digests: {out} is not empty", file=sys.stderr)
        return 2
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    children = [
        subprocess.run([sys.executable, "-m", "eprsim", *command.split()], cwd=out, env=env, capture_output=True)
        for command in COMMANDS
    ]
    for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
        print(f"{sha256((out / path).read_bytes())}  {path}")
    for command, child in zip(COMMANDS, children):
        print(f"exit {child.returncode}  stdout {sha256(child.stdout)}  stderr {sha256(child.stderr)}  {command}")
    return 1 if any(child.returncode for child in children) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
