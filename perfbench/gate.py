"""Output gate: digests must match the golden values and each other.

* At the default seed and full scale, each workload's ``output_digest``
  must equal the golden value in ``golden.json`` (``serve`` and ``fleet``
  share one: sharding, shuffling and restore must not change a byte).
* At any seed, ``fleet`` must equal ``serve``.  The serving digest of a
  ``(code, seed, scale)`` is kept under the run's output directory by
  whichever of the two runs first; the other compares against it.  A
  ``fleet`` run that finds none computes it with one plain
  ``CordialService`` after its measurements.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def code_id(root: Path) -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    files = sorted(list((root / "src").rglob("*.py"))
                   + list(Path(__file__).parent.glob("*.py")))
    for path in files:
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def golden() -> Optional[str]:
    """The golden serving digest recorded in ``golden.json``."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get("serving")


def is_golden_run(seed: int, scale: float) -> bool:
    return seed == DEFAULT_SEED and scale == 1.0


def _reference_path(out_dir: Path, code: str, seed: int, scale: float
                    ) -> Path:
    return out_dir / "serving-digests" / f"{code[:16]}-s{seed}-x{scale}.txt"


def load_reference(out_dir: Path, code: str, seed: int, scale: float
                   ) -> Optional[str]:
    path = _reference_path(out_dir, code, seed, scale)
    return path.read_text(encoding="utf-8").strip() if path.exists() else None


def store_reference(out_dir: Path, code: str, seed: int, scale: float,
                    digest: str) -> None:
    path = _reference_path(out_dir, code, seed, scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n", encoding="utf-8")
