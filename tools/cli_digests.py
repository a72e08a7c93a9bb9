"""Hash every file a fixed ewclab CLI session writes.

Usage: python tools/cli_digests.py OUT

Runs the session below into the directory OUT, which must not exist yet,
with whichever ``ewclab`` ``python -m ewclab`` imports (choose a tree with
PYTHONPATH), then prints one ``sha256  relative/path`` line per file under
OUT, sorted by path.  Each ``record.txt`` is hashed without its
``duration_s`` line, and the standard output of ``evaluate`` is kept in
``OUT/evaluate*.txt`` so that it is hashed too.

The session: ``generate-data --images``; a 3-epoch sweep of six regimes
over λ 0.5,150 and seeds 1,2, in which ``l2`` at λ=150 diverges, then the
same sweep again (all cache hits); ``fisher --fisher-mode sampled
--out-checkpoint`` on seed 1's ``dm-a`` checkpoint; ``evaluate``, plain
and with ``--tile 16``, on seed 1's ``ewc`` λ=150 checkpoint; ``report``
and ``plot``.

Two trees write the same bytes when their listings are identical.  Give
both the same OUT path (move the first OUT away before the second run):
``config.txt`` records the absolute output path.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

SWEEP = [
    "run-experiment", "--regime", "dm-a,dm-b,multitask,finetune,l2,ewc",
    "--lambda", "0.5,150", "--seeds", "1,2", "--epochs", "3",
]


def ewclab(*args: str) -> str:
    """Run one ewclab command in a fresh process; its standard output."""
    done = subprocess.run([sys.executable, "-m", "ewclab", *args], capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ewclab {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def run_dir(out: Path, regime: str, lam: str, seed: str) -> Path:
    for record in sorted(out.glob("runs/*/record.txt")):
        fields = dict(line.split("=", 1) for line in record.read_text().splitlines())
        if (fields["regime"], fields["lambda"], fields["seed"]) == (regime, lam, seed):
            return record.parent
    sys.exit(f"no completed {regime} λ={lam} seed {seed} run under {out}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "record.txt":
        data = b"".join(line for line in data.splitlines(True) if not line.startswith(b"duration_s="))
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1]).resolve()
    if out.exists():
        sys.exit(f"{out} exists; give a new directory")
    ewclab("generate-data", "--out", str(out), "--images")
    ewclab(*SWEEP, "--out", str(out))
    if not (out / "failures.txt").exists():
        sys.exit("the sweep diverged nowhere; the session expects l2 at λ=150 to")
    ewclab(*SWEEP, "--out", str(out))
    task_a = run_dir(out, "dm-a", "0", "1") / "final.ckpt"
    ewclab("fisher", "--checkpoint", str(task_a), "--fisher-mode", "sampled",
           "--out-checkpoint", str(out / "fisher-sampled.ckpt"))
    both = str(run_dir(out, "ewc", "150", "1") / "final.ckpt")
    (out / "evaluate.txt").write_text(ewclab("evaluate", "--checkpoint", both))
    (out / "evaluate-tile16.txt").write_text(ewclab("evaluate", "--checkpoint", both, "--tile", "16"))
    ewclab("report", "--out", str(out))
    ewclab("plot", "--out", str(out))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
