"""Run the shell steps of the tier-1 CI workflow on this machine.

    python3 tools/ci_local.py

Reads .github/workflows/tier1.yml (with PyYAML, which CI itself does not
need), skips the `uses:` steps and "Install dependencies", and runs every
other step's `run:` block as a script under `bash -e`, as a runner does,
from the repository root.  Each step sees a fresh temporary RUNNER_TEMP,
PYTHONPATH=src and an `eprsim` command that runs `python3 -m eprsim`, so
nothing needs installing.  Prints each step's name, exit code and wall time,
and exits 1 if any step failed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SKIPPED = {"Install dependencies"}


def main() -> int:
    steps = [step for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values() for step in job["steps"]]
    results = []
    with tempfile.TemporaryDirectory(prefix="ci_local_") as tmp:
        bin_dir, runner_temp = Path(tmp, "bin"), Path(tmp, "runner_temp")
        bin_dir.mkdir()
        runner_temp.mkdir()
        shim = bin_dir / "eprsim"
        shim.write_text('#!/bin/sh\nexec python3 -m eprsim "$@"\n')
        shim.chmod(0o755)
        env = os.environ | {
            "RUNNER_TEMP": str(runner_temp),
            "PYTHONPATH": "src",
            "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        }
        for number, step in enumerate(steps):
            name = step.get("name") or step.get("uses") or f"step {number + 1}"
            if "uses" in step or name in SKIPPED:
                results.append((name, None, 0.0))
                continue
            script = Path(tmp, f"step{number}.sh")
            script.write_text(step["run"])
            print(f"== {name}", flush=True)
            start = time.perf_counter()
            code = subprocess.run(["bash", "-e", str(script)], cwd=ROOT, env=env).returncode
            results.append((name, code, time.perf_counter() - start))
    print()
    for name, code, seconds in results:
        print(f"{name}: skipped" if code is None else f"{name}: exit {code}, {seconds:.1f} s")
    return 1 if any(code for _, code, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
