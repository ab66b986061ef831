"""Run every demo and compare its stdout with demos/expected, byte for byte. From
the repository root:

    PYTHONPATH=src python tests/check_demos.py

A demo whose stdout depends on the BLAS kernel (see conftest.py) is compared with
demos/expected/<demo>.<kernel>.txt where that file exists, and every other demo
with demos/expected/<demo>.txt. The demos run with this process's environment and
CPU affinity, so `OPENBLAS_CORETYPE` and `taskset` reach them. Exits 1 at the first
demo that fails or differs.
"""

import subprocess
import sys
from pathlib import Path

from conftest import blas_kernel

REPO = Path(__file__).resolve().parent.parent
EXPECTED = REPO / "demos" / "expected"


def demos() -> list[Path]:
    return sorted((REPO / "demos").glob("*.py"))


def demo_stdout(demo: Path) -> bytes:
    """The demo's stdout, run from the repository root; its stderr passes through."""
    return subprocess.run([sys.executable, str(demo)], cwd=REPO, stdout=subprocess.PIPE,
                          check=True).stdout


def kernel_expected(demo: Path, kernel: str) -> Path:
    """Where the demo's stdout on `kernel` is kept when it differs from <demo>.txt."""
    return EXPECTED / f"{demo.stem}.{kernel}.txt"


def expected_path(demo: Path, kernel: str) -> Path:
    own = kernel_expected(demo, kernel)
    return own if own.is_file() else EXPECTED / f"{demo.stem}.txt"


def main() -> int:
    kernel = blas_kernel()
    for demo in demos():
        expected = expected_path(demo, kernel)
        print(f"== {kernel}: {demo.relative_to(REPO)} against {expected.relative_to(REPO)}",
              flush=True)
        try:
            same = demo_stdout(demo) == expected.read_bytes()
        except subprocess.CalledProcessError as exc:
            print(f"error: {demo.name} exited with status {exc.returncode}", file=sys.stderr)
            return 1
        if not same:
            print(f"error: the stdout of {demo.name} differs from "
                  f"{expected.relative_to(REPO)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
