"""Regenerate or check the closed-loop surrogate fixture.

    python3 bench/fixture.py           # rewrite bench/fixtures/msd_surrogate_seed0.txt
    python3 bench/fixture.py --check   # exit 1 unless regeneration reproduces it byte for byte

The fixture is the model that the ``fit_msd`` workload returns at seed 0,
written with ``save_model``. ``loop_msd`` only loads it, so a change to
training cannot move the loop's numbers; a change that moves this fit shows
up as a failed ``--check``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pin  # noqa: E402  (must come before anything that imports NumPy)

FIXTURE_SEED = 0


def regenerate() -> bytes:
    import workloads as W

    wl = W.WORKLOADS["fit_msd"]
    run = wl.run(wl.setup(FIXTURE_SEED))
    if run.error:
        raise RuntimeError(f"fit_msd failed at seed {FIXTURE_SEED}: {run.error}")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=W.ROOT) as tmp:
        path = Path(tmp) / "model.txt"
        W.pmodel.save_model(run.model, path)
        return path.read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed fixture instead of writing it")
    args = parser.parse_args(argv)
    pin.pin_threads()
    import workloads as W

    fresh = regenerate()
    if not args.check:
        W.FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        W.FIXTURE.write_bytes(fresh)
        print(f"wrote {W.FIXTURE.relative_to(W.ROOT)} ({len(fresh)} bytes)")
        return 0
    if fresh != W.FIXTURE.read_bytes():
        print(f"{W.FIXTURE.relative_to(W.ROOT)} differs from its regeneration", file=sys.stderr)
        return 1
    print(f"{W.FIXTURE.relative_to(W.ROOT)} reproduces byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
