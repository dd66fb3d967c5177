"""Pinned sha256 digests of every file the CLI writes on fixed inputs.

A change that claims byte-identical outputs must leave these digests as they
are.  Floating-point results may differ in the last bits under another numpy
or on another machine, so the test runs only where the digests were recorded.
To re-record after a deliberate output change, print the table with

    PYTHONPATH=src python tests/test_golden.py

and replace DIGESTS with it.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from regretlab.cli import EXIT_OK, main

RECORDED_NUMPY = "2.4.6"
RECORDED_MACHINE = "x86_64"

CONFIG = {
    "system": {"A": [[1.0, 1.0], [0.0, 1.0]], "B": [[1.0], [0.5]]},
    "cost": {"Q": [[1.5, 0.0], [0.0, 1.5]], "R": [[1.0]]},
    "policies": [
        {"name": "K1", "K": [[0.2, 0.4]]},
        {"name": "K2", "K": [[0.0, 1.0]]},
        {"name": "K3", "K": [[-0.02, 0.5]]},
    ],
    "x0": [0.3, -0.2],
    "X": 1.0,
    "W": 1.0,
    "disturbance": {"recipe": "eigvec", "seed": 3},
    "horizons": "10:100:10",
}

# run name -> CLI arguments; "CONFIG" stands for the path of CONFIG written as JSON
RUNS = {
    "figure1": ["figure1"],
    "counterexample": ["counterexample"],
    "counterexample_seed4": ["counterexample", "--seed", "4"],
    "regret_eigvec": ["regret", "--config", "CONFIG", "--certificate", "--recipe", "eigvec"],
    "regret_phi": ["regret", "--config", "CONFIG", "--certificate", "--recipe", "phi"],
    "regret_random": ["regret", "--config", "CONFIG", "--certificate", "--recipe", "random"],
    "simulate": ["simulate", "--config", "CONFIG"],
    "stability": ["stability", "--config", "CONFIG"],
}

DIGESTS = {
    "counterexample": {
        "counterexample_report.json": "a7c31f95e9602e48aba5df2082244668eb56401bc9bf5fee363e98e87c2c9f84",
        "gamma_scan.csv": "d95783602e3004df98ecd87e363fe18078b14a8c836e28994fa37515b2ee96b1",
    },
    "counterexample_seed4": {
        "counterexample_report.json": "a7c31f95e9602e48aba5df2082244668eb56401bc9bf5fee363e98e87c2c9f84",
        "gamma_scan.csv": "d95783602e3004df98ecd87e363fe18078b14a8c836e28994fa37515b2ee96b1",
    },
    "figure1": {
        "curve_K1.csv": "be67a46e2e373ab88c48ba0717a34d3fa02d53e41356c10bb824fc0b8d8c7936",
        "curve_K2.csv": "85f5a9ae25c6fdc986203a711de254f0e4058d88502204bcde02fb1696b7ce54",
        "curve_K3.csv": "c64c71448787cff6daa23b8c3e0cfd0ba30b2867a1c316491a4c08ba6b5756d3",
        "figure1.svg": "7b1db488a7bb50f4b96e7ae6c37f15e0327e20a8a095da7fe74e638560fda62f",
        "metadata.json": "859485228e7b1572d96ccea906278e33d9d1d14c36f78d87f5123b9c62b60a3d",
    },
    "regret_eigvec": {
        "regret_K1.csv": "2bbb4598bb96591f88cf1ded37ff48bf4e67385b71dd319a709676545fd538b4",
        "regret_K2.csv": "75bee8dc4bb35fc45449d8575a27bde17602bb964fd72f205b3fb00f67ce6653",
        "regret_K3.csv": "e81014105d3c0d1e56196d749b442857a4203ccb0a5ec2a63e4dd20fef97d6c9",
        "regret_report.json": "2e5a8dede5e32822454ce6b7b20db0bc29db96ace579ac438e5b53be43fac386",
    },
    "regret_phi": {
        "regret_K1.csv": "570df13bf82de6417f27e3ef60a4fc6d7645ec03022896b74d774a9470e96802",
        "regret_K2.csv": "75bee8dc4bb35fc45449d8575a27bde17602bb964fd72f205b3fb00f67ce6653",
        "regret_K3.csv": "f73e6e0dc1d121f5baf534be2327287c160a98150cb23e9862bb48b192e375ca",
        "regret_report.json": "42a2f6636e85243ea5dc1f4306ddc5a4d4e3cbc6e56690fd946f162580693233",
    },
    "regret_random": {
        "regret_K1.csv": "0788f47d67112f2321ba81688015f75aaea3699c6dc4a2a84f80da1daecef2a8",
        "regret_K2.csv": "0f4e991fb739240e7a95b4a4d39da02bc47282b28a2f5ba22f352bac5abc65f5",
        "regret_K3.csv": "ad3c258a60a18dc90c4e64d3597fff8b3d7173d54c6164f948a8b8fc9caa3bff",
        "regret_report.json": "712aa5dc43444e4960d7926dacce3e679866fb0c1e92636c032b4011529082aa",
    },
    "simulate": {
        "simulate_K1.csv": "ab2ca9d0e7cbd107d16dffe3069addd3cea11fa2594901429e90a15994af29af",
        "simulate_K2.csv": "1a69545c6b1cbded929596bc7f9af9f069de82d715832792ec79603c5093d957",
        "simulate_K3.csv": "9ea931e03cecf62551d98bab2596013667d97c74a3015c730ca959b008afe347",
    },
    "stability": {
        "stability.json": "481c5374d2e74ce03e0cc2c89ee5513d075b49dc688752aaf15fdb4d9f08c7e9",
    },
}


def output_digests(workdir: Path, run: str) -> dict:
    """{file name: sha256} of everything one run writes into a fresh directory."""
    config = workdir / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    out = workdir / run
    argv = [str(config) if a == "CONFIG" else a for a in RUNS[run]]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY or platform.machine() != RECORDED_MACHINE,
    reason=f"digests recorded with numpy {RECORDED_NUMPY} on {RECORDED_MACHINE}",
)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_outputs_match_recorded_digests(tmp_path, run):
    assert output_digests(tmp_path, run) == DIGESTS[run]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {run: output_digests(Path(tmp), run) for run in sorted(RUNS)}
    json.dump(table, sys.stdout, indent=4)
    print()
