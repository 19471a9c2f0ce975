"""Time the set-up a fresh imapk process pays before its first report.

Reads a JSON list of spec texts on stdin, then times `import imapk` plus one
`parse_spec` of every text and prints the seconds.  run.py starts this script
several times and reports the median as `setup_s`.
"""

import json
import sys
import time
from pathlib import Path

texts = json.load(sys.stdin)
start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from imapk.specfile import parse_spec  # noqa: E402

for text in texts:
    parse_spec(text)
print(repr(time.perf_counter() - start))
