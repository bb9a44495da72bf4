"""Regenerate the golden walk records: the README's `trace` and `sample` runs.

Run from a source checkout::

    PYTHONPATH=src python tests/golden/regenerate.py

Every command goes through ``orthopair.cli.main`` in a fresh temporary
directory, after the README's ``hadamard --fourier 6 --swap34 --out
f6.json``.  ``manifest.json`` records, for each run, its argv, exit code,
stdout JSON and the name of the file it wrote, which is kept here byte for
byte; and the start frame, the kernel basis both walks are taken in.
``tests/test_golden.py`` compares a fresh run with these records.  A change
that moves a record says which records moved and why; never regenerate the
records to make a defect disappear.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from orthopair import cli, config, continuation

GOLDEN = Path(__file__).resolve().parent
SETUP = ["hadamard", "--fourier", "6", "--swap34", "--out", "f6.json"]
RUNS = {
    "trace": ["trace", "--start", "f6.json", "--direction", "0", "--steps", "50", "--step", "1e-2",
              "--out", "trace.jsonl"],
    "sample": ["sample", "--start", "f6.json", "--count", "100", "--seed", "42", "--out", "sample.jsonl"],
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_walks(workdir: Path) -> tuple[dict, dict[str, str]]:
    """The manifest of the runs, made in ``workdir``, and the text of each
    file they wrote, by file name."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        code, _ = _run(SETUP)
        if code != 0:
            raise RuntimeError(f"{' '.join(SETUP)} exited {code}")
        frame, _ = continuation.tangent_frame(config.load_hadamard("f6.json"))
        manifest = {"setup": SETUP, "start_frame": frame.tolist(), "runs": {}}
        files = {}
        for name, argv in RUNS.items():
            code, stdout = _run(argv)
            out = argv[argv.index("--out") + 1]
            manifest["runs"][name] = {"argv": argv, "exit": code, "stdout": json.loads(stdout), "out": out}
            files[out] = Path(out).read_text()
        return manifest, files
    finally:
        os.chdir(here)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest, files = run_walks(Path(tmp))
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    for name, text in files.items():
        (GOLDEN / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
