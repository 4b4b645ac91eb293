"""What the benchmark process needs from nlocus, computed in a child.

    python3 perfbench/oracle.py CACHE SEED DMIN DMAX

Prints one JSON object: the seed's weight spec, checked against the fixed
points in CACHE (`specs.py`), and the published closed form at
d = DMIN..DMAX as [d, "degree"] pairs.  Exits 1 when CACHE holds no
readable fixed points.

run.py asks a child for these so that it never loads nlocus itself: an
exec'd child starts with its parent's resident set as its peak RSS, so a
large benchmark process would inflate every peak_rss_mb it measures.
"""

from __future__ import annotations

import json
import sys

import specs


def main(argv):
    cache, seed, dmin, dmax = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    from nlocus.fixpoints import load_cache
    from nlocus.formula import closed_form

    points = load_cache(cache)
    if points is None:
        print(f"no readable fixed-point cache at {cache}", file=sys.stderr)
        return 1
    target = closed_form()
    print(json.dumps({
        "weights": specs.spec_for_seed(seed, points),
        "nodes": [[d, str(target(d))] for d in range(dmin, dmax + 1)],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
