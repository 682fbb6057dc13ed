"""Every ``KEPT`` entry of the reach recorder names a live ``src`` function.

``tools/reach.py`` fails when a function no contract run reaches is missing
from its ``KEPT`` allowlist; this test keeps the allowlist from going stale
the other way.  A renamed or deleted function must take its entry with it,
and every entry must say why the code stays.  It only parses source: no
contract run happens here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()


def test_every_kept_entry_names_a_function_under_src():
    names = {key for key, _, _ in reach.functions().values()}
    stale = sorted(set(reach.KEPT) - names)
    assert not stale, f"KEPT names functions that no longer exist under src/: {stale}"


def test_every_kept_entry_has_a_reason():
    blank = sorted(key for key, reason in reach.KEPT.items() if not reason.strip())
    assert not blank, f"KEPT entries without a reason: {blank}"
