"""Record `reference.json`: the outputs of every banked input of every
workload, computed in-process.

    python3 bench/record.py

Run it only at a commit whose outputs are known to be right: every later
benchmark run is checked against what it writes. For grid_n50 it also
checks that `runner.sweep` writes the same files as the in-process path.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402


def main() -> int:
    reference = {}
    for name, workload in harness.WORKLOADS.items():
        t0 = time.perf_counter()
        entries = {}
        for seed in workload.bank:
            entries[str(seed)] = harness.reference_entry(name, seed)
            if name == "grid_n50":
                out = Path(tempfile.mkdtemp(prefix="record-", dir=harness.OUT))
                try:
                    swept = harness.sweeps(seed, out).observed["digest"]
                finally:
                    shutil.rmtree(out, ignore_errors=True)
                if swept != entries[str(seed)]["digest"]:
                    raise SystemExit(f"grid_n50 seed {seed}: sweep and "
                                     "in-process result files differ")
        reference[name] = entries
        print(f"{name}: {len(entries)} inputs in {time.perf_counter() - t0:.1f} s",
              flush=True)
    lines = ["{"]
    for i, (name, entries) in enumerate(reference.items()):
        lines.append(f' "{name}": {{')
        rows = [f'  "{seed}": {json.dumps(entry, sort_keys=True)}'
                for seed, entry in entries.items()]
        lines.append(",\n".join(rows))
        lines.append(" }" + ("," if i < len(reference) - 1 else ""))
    lines.append("}")
    harness.REFERENCE.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
