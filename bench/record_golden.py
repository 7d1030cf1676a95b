"""Write golden.json: the exact outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/record_golden.py

The values are mathematical facts about fixed inputs: census cells with
their witness counts, the realizable cells of a genus, and exact point
counts of the default-seed identity covers.  Recording again on any correct
version of the program must reproduce the checked-in file byte for byte.
"""

import json
from pathlib import Path

import workloads as W


def main():
    api = W.load_api()
    golden = {"census": {}, "verify_table": {}, "identity": {}}
    for size in ("smoke", "full"):
        for item in W.Census.make_inputs(api, W.DEFAULT_SEED, size):
            golden["census"][W.Census.golden_key(item, 0)] = \
                W.Census.run_item(api, item)
        genus = str(W.SIZES[size]["genus"])
        golden["verify_table"][genus] = W.VerifyTable.cell_list(
            W.VerifyTable.make_inputs(api, W.DEFAULT_SEED, size))
    inputs = W.Identity.make_inputs(api, W.DEFAULT_SEED, "full")
    for index, item in enumerate(inputs):
        output = W.Identity.run_item(api, item)
        error = W.Identity.check_item(item, output, {"identity": {}},
                                      W.DEFAULT_SEED, index)
        if error:
            raise SystemExit(f"refusing to record: {error}")
        golden["identity"][W.Identity.golden_key(item, index)] = \
            W.Identity.fingerprint(output)
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
