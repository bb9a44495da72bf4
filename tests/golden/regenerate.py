"""Regenerate the golden records: the README's `trace`, `sample`,
`tangent`, `invariants`, `membership`, `identity` and `defect` runs.

Run from a source checkout::

    PYTHONPATH=src python tests/golden/regenerate.py

Every command goes through ``orthopair.cli.main`` in a fresh temporary
directory.  The walks run after the README's ``hadamard --fourier 6
--swap34 --out f6.json``: ``manifest.json`` records, for each run, its
argv, exit code, stdout JSON and the name of the file it wrote, which is
kept here byte for byte; and the start frame, the kernel basis both walks
are taken in.  The moduli tangent report runs after the README's
``standard-pair --n 6 --swap34 --out pair.json``: ``tangent.json`` records
its setup, argv, exit code and stdout JSON.  ``commands.json`` records
the setup and, for each run, the argv, exit code and stdout JSON of the
README's ``invariants``, ``membership`` and ``identity`` runs on that pair
and ``defect`` on ``h.json``, which ``hadamard --from-pair`` writes from
it; and of ``defect f6.json`` after the walks' setup.  ``tests/test_golden.py``
compares a fresh run with these records.  A change that moves a record
says which records moved and why; never regenerate the records to make a
defect disappear.
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
PAIR_SETUP = ["standard-pair", "--n", "6", "--swap34", "--out", "pair.json"]
TANGENT = ["tangent", "pair.json"]
COMMANDS = {
    "pair": (PAIR_SETUP, {
        "invariants": ["invariants", "pair.json", "--p-subset", "1,2,3", "--q-subset", "1,2,3"],
        "membership": ["membership", "pair.json"],
        "identity": ["identity", "pair.json", "--p-subset", "1,2,3", "--q-subset", "1,2,3"],
        "hadamard": ["hadamard", "--from-pair", "pair.json", "--out", "h.json"],
        "defect": ["defect", "h.json"],
    }),
    "f6": (SETUP, {"defect": ["defect", "f6.json"]}),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@contextlib.contextmanager
def _set_up(workdir: Path, setup: list[str]):
    """Run ``setup`` in ``workdir`` and stay there for the block."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        code, _ = _run(setup)
        if code != 0:
            raise RuntimeError(f"{' '.join(setup)} exited {code}")
        yield
    finally:
        os.chdir(here)


def run_walks(workdir: Path) -> tuple[dict, dict[str, str]]:
    """The manifest of the runs, made in ``workdir``, and the text of each
    file they wrote, by file name."""
    with _set_up(workdir, SETUP):
        frame, _ = continuation.tangent_frame(config.load_hadamard("f6.json"))
        manifest = {"setup": SETUP, "start_frame": frame.tolist(), "runs": {}}
        files = {}
        for name, argv in RUNS.items():
            code, stdout = _run(argv)
            out = argv[argv.index("--out") + 1]
            manifest["runs"][name] = {"argv": argv, "exit": code, "stdout": json.loads(stdout), "out": out}
            files[out] = Path(out).read_text()
        return manifest, files


def run_tangent(workdir: Path) -> dict:
    """The record of the moduli tangent report, made in ``workdir``."""
    with _set_up(workdir, PAIR_SETUP):
        code, stdout = _run(TANGENT)
        return {"setup": PAIR_SETUP, "argv": TANGENT, "exit": code, "stdout": json.loads(stdout)}


def run_commands(workdir: Path, group: str) -> dict:
    """The record of the runs of ``COMMANDS[group]``, made in ``workdir``
    in order after their setup."""
    setup, runs = COMMANDS[group]
    record = {"setup": setup, "runs": {}}
    with _set_up(workdir, setup):
        for name, argv in runs.items():
            code, stdout = _run(argv)
            record["runs"][name] = {"argv": argv, "exit": code, "stdout": json.loads(stdout)}
    return record


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest, files = run_walks(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        tangent = run_tangent(Path(tmp))
    commands = {}
    for group in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            commands[group] = run_commands(Path(tmp), group)
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    (GOLDEN / "tangent.json").write_text(json.dumps(tangent, indent=1) + "\n")
    (GOLDEN / "commands.json").write_text(json.dumps(commands, indent=1) + "\n")
    for name, text in files.items():
        (GOLDEN / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
