"""sha256 of every CSV that the benchmark workloads and four presets write.

Usage: python tools/artifact_hashes.py TREE > hashes.json

TREE is a checkout of this repository.  Every operation of
perfbench/workloads.build(workload, seed), for both workloads at seeds 0-2,
runs through `geodrive run`, and the presets fig4-chern, fig5-dipolar,
si-gt and si-ergodicity through `geodrive preset`.  Each runs in a
subprocess with TREE/src on PYTHONPATH and writes into a temporary
directory.  The operations come from this checkout's perfbench/, which is
imported and not changed, so two trees run the same configs.

Prints one JSON object that maps each CSV, as workload/seed/file or
preset/name/file, to the sha256 of its bytes.  Manifests are left out,
since they record wall times.  Two trees wrote the same artifacts when
their objects are equal.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SEEDS = (0, 1, 2)
PRESETS = ("fig4-chern", "fig5-dipolar", "si-gt", "si-ergodicity")


def geodrive(tree, *args):
    """Run the geodrive CLI of tree with args; raise if it fails."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    subprocess.run([sys.executable, "-m", "geodrive.cli", *args], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def csv_hashes(directory, key):
    """{key/relative path: sha256} for every CSV below directory."""
    return {f"{key}/{path.relative_to(directory)}":
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).rglob("*.csv"))}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    tree = argv[0]
    hashes = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                for op in workloads.build(workload, seed):
                    config = Path(out, op["label"] + "_config.json")
                    config.write_text(json.dumps(dict(
                        op["config"],
                        output={"prefix": str(Path(out, op["label"] + "_"))})))
                    geodrive(tree, "run", str(config))
                hashes.update(csv_hashes(out, f"{workload}/{seed}"))
    for name in PRESETS:
        with tempfile.TemporaryDirectory() as out:
            geodrive(tree, "preset", name, "--out", out)
            hashes.update(csv_hashes(out, f"preset/{name}"))
    json.dump(hashes, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
