"""Time one cold set-up in a fresh interpreter and print it in seconds.

The time is scaled to the reference host speed (host_speed.py) by probes
taken just after the set-up.  host_speed is imported only then, so the
modules it uses are not loaded for takiffalg in advance.

Set-up is what every `takiff` invocation pays before its first check:
`import takiffalg` and `catalog.load` of the entries it uses.

    python3 -I perfbench/setup_probe.py SRC_DIR ENTRY [ENTRY ...]
"""

import sys
import time
from pathlib import Path

PROBES = 8


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import takiffalg
    from takiffalg import catalog
    for name in sys.argv[2:]:
        catalog.load(name)
    elapsed = time.perf_counter() - t0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from host_speed import probe, scale, spin
    spin()   # the first call in a process runs slow
    probes = [probe() for _ in range(PROBES)]
    if src not in Path(takiffalg.__file__).resolve().parents:
        print(f"takiffalg imported from {takiffalg.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print(repr(scale(elapsed, probes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
