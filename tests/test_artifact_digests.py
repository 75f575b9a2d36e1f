"""Byte-for-byte pin on every registered artifact.

Renders each artifact of :func:`repro.api.registry.builtin_registry` at
the paper seed — its text form, and its CSV form where it has one — and
compares the SHA-256 digest of every rendition with
``goldens/artifact_digests.json``.  The golden-trace suite
(``tests/slurm/test_golden_traces.py``) pins scheduler traces at reduced
sizes; this suite pins what ``python -m repro all`` prints, at full
size, so a change that claims "behaviour unchanged" is checked on every
artifact.  The on-disk render store is detached and the in-memory result
cache cleared first, so every rendition is computed by the code under
test.  Regenerate after an *intentional* output change with::

    PYTHONPATH=src python tests/test_artifact_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.api.registry import builtin_registry

DIGESTS_PATH = Path(__file__).parent / "goldens" / "artifact_digests.json"
ARTIFACT_SEED = 2017


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_digests() -> Dict[str, Dict[str, str]]:
    """``{artifact: {"text": sha256, "csv": sha256}}`` rendered afresh."""
    registry = builtin_registry()
    registry.detach_store()
    registry.clear_cache()
    digests: Dict[str, Dict[str, str]] = {}
    for name in registry.names():
        forms = {"text": _sha256(registry.render(name, seed=ARTIFACT_SEED))}
        if registry.get(name).supports_csv:
            forms["csv"] = _sha256(
                registry.render_csv(name, seed=ARTIFACT_SEED)
            )
        digests[name] = forms
    return digests


def committed_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["artifacts"]


@pytest.fixture(scope="module")
def rendered() -> Dict[str, Dict[str, str]]:
    return render_digests()


@pytest.mark.parametrize("name", builtin_registry().names())
def test_artifact_renditions_match_their_digests(rendered, name):
    committed = committed_digests()
    assert name in committed, f"{name} has no committed digest"
    assert rendered[name] == committed[name], (
        f"{name}: rendered output changed; if intentional, regenerate with "
        "'python tests/test_artifact_digests.py --regen'"
    )


def regenerate() -> None:
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    payload = {"seed": ARTIFACT_SEED, "artifacts": render_digests()}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, forms in payload["artifacts"].items():
        print(f"{name}: " + ", ".join(
            f"{form} {digest[:12]}…" for form, digest in sorted(forms.items())
        ))


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        print(__doc__)
        raise SystemExit(2)
    regenerate()
