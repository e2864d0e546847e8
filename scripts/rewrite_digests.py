"""Rewrite tests/answer_digests.json from the answers of this checkout.

Run it only after a change that means to move answers, and name in the
change the entries whose digests moved:

    python scripts/rewrite_digests.py
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
spec = importlib.util.spec_from_file_location("answer_digests", ROOT / "tests" / "test_answer_digests.py")
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.DATA.write_text(json.dumps(module.all_digests(), indent=1, sort_keys=True) + "\n")
print(f"wrote {module.DATA.relative_to(ROOT)}")
