"""Time one set-up in a fresh interpreter and print the seconds it took.

Usage: ``python3 perfbench/setup_probe.py INPUTS.json``, where the JSON file
lists a workload's distinct inputs as ``Workload.inputs`` returns them.  The
timed region imports ``polyteam`` and loads every input once through the
CLI's public loaders, so work moved into import time or into building teams
shows here.
"""

import json
import sys
import time
from pathlib import Path


def main(inputs_path: str) -> None:
    inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import polyteam
    from polyteam import cli

    teams = [cli.load_team_csv(path, sort) for sort, path in inputs["teams"]]
    for path in inputs["structures"]:
        cli.assemble_structure(cli.load_structure_json(path) if path else {}, teams)
    for path in inputs["formulas"]:
        polyteam.parse(Path(path).read_text(encoding="utf-8"))
    for path in inputs["atoms"]:
        cli.load_atoms_file(path)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])
