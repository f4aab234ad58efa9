"""Set-up probe, run in a fresh interpreter: import selftrig, load the
workload's scenarios and deserialize its gain tables.

    python3 benchmarks/probe_setup.py <manifest.json>

The manifest lists ``scenarios`` and ``tables`` (file paths).  The caller
times the whole process; the exit code is non-zero if anything fails.
"""
import json
import sys

from selftrig import deserialize_gain_table, load_scenario


def main(manifest_path: str) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for path in manifest["scenarios"]:
        load_scenario(path)
    for path in manifest["tables"]:
        with open(path) as fh:
            deserialize_gain_table(fh.read())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
