"""Generate the stored input pool and bracket digests of the ``statesum``
workload.

    python3 perfbench/make_reference.py [--jobs 2]

Writes ``perfbench/reference/statesum.json``: for each component count
(1 and 2), a pool of distinct random 13-crossing diagrams (distinct under
``canonical_form``) with the digest of each diagram's Kauffman bracket,
computed by the single-threaded ``bracket``.  A run of the workload
checks every ``bracket_parallel`` result against these digests.  The
file is regenerated only by a change to the benchmark, never by a change
that claims a gain.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import STATESUM_COMPONENTS, poly_digest, random_code  # noqa: E402

CROSSINGS = 13
PER_POOL = 1000  # a 30 s run uses about 190 inputs at the commit that added this file
POOL_SEED = 20000
OUTPUT = HERE / "reference" / "statesum.json"


def _digest(code: str) -> str:
    import vknots

    return poly_digest(vknots.bracket(vknots.parse_gauss(code)).to_pairs())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()

    import vknots

    rng = random.Random(POOL_SEED)
    pools: dict[str, list[str]] = {}
    for n in STATESUM_COMPONENTS:
        seen: set = set()
        codes: list[str] = []
        while len(codes) < PER_POOL:
            code = random_code(rng, CROSSINGS, n)
            key = vknots.canonical_form(vknots.parse_gauss(code))
            if key not in seen:
                seen.add(key)
                codes.append(code)
        pools[str(n)] = codes
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        digests = {n: pool.map(_digest, codes, chunksize=8) for n, codes in pools.items()}
    header = {
        "crossings": CROSSINGS,
        "pool_seed": POOL_SEED,
        "digest": "sha256 of the compact JSON [[exponent, coefficient], ...] of bracket(d), first 16 hex digits",
    }
    # one [code, digest] entry per line keeps the file reviewable
    pool_text = ",\n".join(
        f"{json.dumps(n)}: [\n" + ",\n".join(json.dumps([c, g]) for c, g in zip(pools[n], digests[n])) + "\n]"
        for n in pools
    )
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(header)[:-1] + ', "pools": {\n' + pool_text + "\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
