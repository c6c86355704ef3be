"""Cross-check against the baseline table in ROADMAP.md.

Run from the repository root:

    python3 perfbench/crosscheck.py

Builds the three baseline inputs gen_random(5, m, m, moves, plant), checks
their exact certificate lengths and frames, and times pi2_class,
verify_certificate and dump_certificate once each next to the recorded
single-run times.  load_certificate is left out: it is quadratic today and
takes minutes at I_40; the benchmark's formats.load_scaling tracks it.
Exits 1 if a count or frame differs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import ANCHORS, ANCHOR_SEED  # noqa: E402

# Recorded seconds for (pi2_class, verify, dump) at I_10, I_20 and I_40.
ROADMAP_S = {10: (0.12, 0.02, 0.23), 20: (0.52, 0.13, 0.93), 40: (2.57, 0.42, 3.90)}


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main() -> int:
    api = run.import_dpi2()
    bad = 0
    print(f"{'input':8s} {'moves':>9s} {'frame':>9s}   pi2_class      verify         dump (MB)")
    for m, plant, moves, n_moves, frame in ANCHORS:
        f = api.gen_random(ANCHOR_SEED, m, m, moves, plant)
        (c, cert), t_class = timed(api.pi2_class, f)
        verdict, t_verify = timed(api.verify_certificate, cert)
        text, t_dump = timed(api.dump_certificate, cert)
        got = (cert.common_rect.width, cert.common_rect.height)
        ok = (c, len(cert.moves), got, bool(verdict)) == (plant, n_moves, frame, True)
        bad += not ok
        r = ROADMAP_S[m]
        print(
            f"I_{m:<6d} {len(cert.moves):9,d} {got[0]:>4d}x{got[1]:<4d}"
            f"  {t_class:5.2f} ({r[0]:.2f})  {t_verify:5.2f} ({r[1]:.2f})"
            f"  {t_dump:5.2f} ({r[2]:.2f}) {len(text) / 1e6:.1f}"
            f"  {'ok' if ok else f'MISMATCH: want {n_moves:,d} moves on {frame}'}"
        )
    print("seconds measured now (ROADMAP baseline in parentheses)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
