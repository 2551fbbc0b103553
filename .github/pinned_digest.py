"""Check a cubewalk JSON document on stdin against its pinned digest.

Usage:
  cubewalk ... | python .github/pinned_digest.py SHA256 [--redump] [KEY=N ...]

Two digests must equal SHA256: the manifest's payload_sha256 and the
sha256 of the document's bytes before ',"manifest":' and a closing brace.
With --redump, so must the sha256 of the document minus its manifest
re-dumped as canonical text (sorted keys, no whitespace), since the
payload's canonical text is what json.dumps writes.  Each KEY=N must
equal the survey summary's count under KEY.  Only --redump and the
counts parse the whole document, which at n = 20 runs to 120 MB.
Prints what it read; exits 1 on any mismatch.
"""

import hashlib
import json
import sys

pinned, *rest = sys.argv[1:]
redump = "--redump" in rest
counts = dict(arg.split("=") for arg in rest if arg != "--redump")
raw = sys.stdin.buffer.read()
head, _, tail = raw.partition(b',"manifest":')
digests = [json.loads(tail.rstrip()[:-1])["payload_sha256"],
           hashlib.sha256(head + b"}").hexdigest()]
summary = {}
if redump or counts:
    doc = json.loads(head + b"}")
    if redump:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    summary = {key: str(doc["report"]["summary"][key]) for key in counts}
print(*digests, summary)
sys.exit(digests != [pinned] * len(digests) or summary != counts)
