"""Record the pins of the BLAS kernel this process computes on, for a kernel no
pin map names yet (see conftest.py). From the repository root:

    PYTHONPATH=src python tests/record_pins.py                  # the CPU's own kernel
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/record_pins.py

Each golden chain that differs from the SkylakeX file is written beside it as
<stem>.<kernel>.jsonl, and each demo whose stdout differs from
demos/expected/<demo>.txt as demos/expected/<demo>.<kernel>.txt. The entries to
add to test_cli.py's GOLDEN_CHAIN, GOLDEN_TMC_CHAIN and BENCHMARK_CHAINS are
printed. Check the new values with tier-1 under the same kernel.
"""

import sys
import tempfile
from pathlib import Path

from check_demos import REPO, demo_stdout, demos, expected_path, kernel_expected
from conftest import blas_kernel
from test_cli import (BENCHMARK, BENCHMARK_CHAINS, GOLDEN_CHAIN, GOLDEN_TMC_CHAIN,
                      contribution_chain, tmc_chain, workload_chain_digest)


def main() -> int:
    kernel = blas_kernel()
    pinned = {*GOLDEN_CHAIN, *GOLDEN_TMC_CHAIN,
              *(k for pins in BENCHMARK_CHAINS.values() for k in pins)}
    if kernel == "unknown" or kernel in pinned:
        print(f"BLAS kernel {kernel!r}: "
              f"{'has no name to pin under' if kernel == 'unknown' else 'already pinned'}",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        chains = {"GOLDEN_CHAIN": (GOLDEN_CHAIN, contribution_chain(Path(tmp) / "toy")),
                  "GOLDEN_TMC_CHAIN": (GOLDEN_TMC_CHAIN, tmc_chain(Path(tmp) / "tmc"))}
        for name, (pins, got) in chains.items():
            path = pins["SkylakeX"]
            if got != path.read_bytes():
                path = path.with_suffix(f".{kernel}.jsonl")
                path.write_bytes(got)
            print(f"{name}: {kernel!r}: TESTS / {path.name!r}")
    for name in BENCHMARK.WORKLOADS:
        print(f"BENCHMARK_CHAINS[{name!r}]: {kernel!r}: {workload_chain_digest(name)!r}")
    for demo in demos():
        out = demo_stdout(demo)
        # no kernel_expected file exists yet, so this compares with <demo>.txt
        if out != expected_path(demo, kernel).read_bytes():
            path = kernel_expected(demo, kernel)
            path.write_bytes(out)
            print(f"wrote {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
