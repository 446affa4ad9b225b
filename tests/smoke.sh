#!/usr/bin/env bash
# End-to-end smoke test of the `lexdrift` command on PATH, given the path of
# the bundled sample corpus it ships:
#
#     bash tests/smoke.sh CORPUS
#
# It writes its files into the current directory and exits nonzero at the
# first check that fails. CI runs it against the installed package;
# tests/test_smoke.py runs it from source through a `lexdrift` shim.
set -euo pipefail

corpus=$1
here=$(cd "$(dirname "$0")" && pwd)
sample=$here/data/sample.idx
# tests/index_file.py reads an index file as the README describes it,
# sharing no code with lexdrift.
export PYTHONPATH="$here${PYTHONPATH:+:$PYTHONPATH}"
# The index format version that lexdrift writes and reads.
version=$(python -c 'import index_file; print(index_file.VERSION)')

lexdrift drift --format json > drift.json
lexdrift index --corpus "$corpus" --out sample.idx
# A fresh index holds the payload of the index file committed with the
# tests, byte for byte. Payloads are compared inflated, every zlib stream
# of them: deflate output may differ between zlib builds.
python -c '
import sys, index_file
fresh, kept = (index_file.streams(open(path, "rb").read()) for path in sys.argv[1:])
if fresh != kept:
    sys.exit(f"the payload of {sys.argv[1]} differs from that of {sys.argv[2]}")
' sample.idx "$sample"
# Its rows, read as the README describes the file, are the ones lexdrift
# gives back.
python -c '
import sys, index_file
from lexdrift import load_index
if index_file.rows(open(sys.argv[1], "rb").read()) != list(load_index(sys.argv[1]).doc_marks()):
    sys.exit(f"the rows of {sys.argv[1]} differ from its doc_marks()")
' sample.idx
# A fresh index, loaded and saved again through the library, keeps its bytes.
python -c '
import sys
from lexdrift import load_index, save_index
save_index(load_index(sys.argv[1]), sys.argv[2])
' sample.idx resaved.idx
cmp sample.idx resaved.idx
# A series name that is no group or entry is a query: its excess counts
# what the query counts in the last year.
lexdrift excess 'atleast(2, strong)' --index sample.idx --format json > excess.json
lexdrift query 'atleast(2, strong)' --index sample.idx --format json > query.json
python -c '
import json, sys
(excess,), query = (json.load(open(path)) for path in sys.argv[1:])
actual, matches = excess["actual"], query["matches"][-1]
if actual != matches:
    sys.exit(f"excess reports {actual} documents, the query counts {matches}")
' excess.json query.json
# A cold query imports no dataclasses: importing and using them costs
# more start-up time than the query itself. Nor hashlib: its OpenSSL
# library costs more memory than the rest.
python -X importtime "$(command -v lexdrift)" query 'any(strong)' --index sample.idx 2> importtime.txt > /dev/null
for module in dataclasses hashlib; do
  if grep -E "\| +$module\$" importtime.txt; then echo "a cold query imports $module"; exit 1; fi
done
# The index file committed with the tests answers as the fresh one does.
lexdrift query 'any(strong)' --index "$sample" > old.out
lexdrift query 'any(strong)' --index sample.idx > new.out
cat new.out
diff old.out new.out
for q in 'any(strong) AND any(disclosure)' intricate 'atleast(2, strong)' '"large language model"'; do
  lexdrift query "$q" --index "$sample" --format csv > old.out
  lexdrift query "$q" --index sample.idx --format csv > new.out
  diff old.out new.out
  # Every year, so each year's bit range of the columns is read from both files.
  for year in 2019 2020 2021 2022 2023; do
    lexdrift skew "$q" --index "$sample" --year $year --format csv > old.out
    lexdrift skew "$q" --index sample.idx --year $year --format csv > new.out
    diff old.out new.out
  done
done
# A file of the version before is refused in one line that says to rebuild it.
old=$((version - 1))
python -c '
import sys, index_file
payload = index_file.unframed(open(sys.argv[1], "rb").read())[1]
open(sys.argv[2], "wb").write(index_file.framed(payload, int(sys.argv[3])))
' sample.idx old.idx $old
code=0; lexdrift query 'any(strong)' --index old.idx 2> old.err || code=$?
test "$code" = 1
cat old.err
test "$(wc -l < old.err)" -eq 1
test "$(cat old.err)" = "error: old.idx: unsupported index version $old (supported: $version); rebuild the file with 'lexdrift index'"
lexdrift query 'outwith' --corpus "$corpus"
# A malformed query is one line on stderr and exit 1.
code=0; lexdrift query 'any(strong' --index sample.idx 2> malformed.err || code=$?
test "$code" = 1
cat malformed.err
test "$(cat malformed.err)" = "error: expected ')' (byte offset 10)"
# A corpus scan prints what the index of that corpus prints, whether
# it tests its query on substrings first (few words) or not (many).
for fmt in text csv json; do
  for q in 'any(strong) AND any(disclosure)' intricate 'any(adjective, adverb)' \
      'atleast(2, strong)' 'any(weak) OR (any(strong) AND any(extra))' \
      '"large language model"' '"artificial intelligence" OR intricate' \
      'atleast(1, strong)' 'atleast(1, adjective, adverb)'; do
    lexdrift query "$q" --index sample.idx --format $fmt > index.out
    lexdrift query "$q" --corpus "$corpus" --format $fmt > corpus.out
    diff index.out corpus.out
  done
  lexdrift skew 'any(strong)' --index sample.idx --year 2023 --format $fmt > index.out
  lexdrift skew 'any(strong)' --corpus "$corpus" --year 2023 --format $fmt > corpus.out
  diff index.out corpus.out
done
# any(NAMES) is atleast(1, NAMES): the same node, so the same bytes from
# an index and from a scan.
lexdrift query 'any(strong)' --index sample.idx --format csv > any.out
lexdrift query 'atleast(1, strong)' --index sample.idx --format csv > atleast.out
cmp any.out atleast.out
lexdrift query 'any(strong)' --corpus "$corpus" --format csv > any.out
lexdrift query 'atleast(1, strong)' --corpus "$corpus" --format csv > atleast.out
cmp any.out atleast.out
# The same under --on-error skip, with one malformed line of each
# kind the README names appended: not UTF-8, not JSON, a missing
# field, a repeated id, a year out of range, a lone surrogate.
cp "$corpus" skipped.jsonl
printf '{"id": "x1", "year": 2023, "text": "intricate \377"}\n' >> skipped.jsonl
printf '%s\n' garbage '{"id": "x2", "year": 2023}' \
  '{"id": "doc-2019-00", "year": 2023, "text": "intricate"}' \
  '{"id": "x3", "year": 1999, "text": "intricate"}' \
  '{"id": "x4", "year": 2023, "text": "intricate", "categories": ["\ud800"]}' >> skipped.jsonl
lexdrift index --corpus skipped.jsonl --out skipped.idx --on-error skip 2> index.err
cat index.err
test "$(cat index.err)" = "skipped 6 malformed records (lines 101, 102, 103, 104, 105, ...)"
for fmt in text csv json; do
  for q in 'any(strong) AND any(disclosure)' intricate 'any(adjective, adverb)'; do
    lexdrift query "$q" --index skipped.idx --format $fmt > index.out
    lexdrift query "$q" --corpus skipped.jsonl --on-error skip --format $fmt > corpus.out 2> corpus.err
    diff index.out corpus.out
    diff index.err corpus.err
  done
  lexdrift skew 'any(strong)' --index skipped.idx --year 2023 --format $fmt > index.out
  lexdrift skew 'any(strong)' --corpus skipped.jsonl --on-error skip --year 2023 --format $fmt > corpus.out 2> corpus.err
  diff index.out corpus.out
  diff index.err corpus.err
done
# A lexicon of case-sensitive entries and a phrase: a name in another
# case means the one entry equal to it ignoring case, on both sources.
printf '%s\n' '{"name": "cased", "entries": [' \
  '{"term": "ChatGPT", "role": "disclosure", "case_sensitive": true},' \
  '{"term": "GPT", "role": "disclosure", "case_sensitive": true},' \
  '{"term": "large language model", "role": "disclosure"}]}' > cased.json
lexdrift index --corpus "$corpus" --lexicon cased.json --out cased.idx
for fmt in text csv json; do
  for q in GPT chatgpt 'any(disclosure)' '"large language model"'; do
    lexdrift query "$q" --index cased.idx --format $fmt > index.out
    lexdrift query "$q" --corpus "$corpus" --lexicon cased.json --format $fmt > corpus.out
    diff index.out corpus.out
    lexdrift skew "$q" --index cased.idx --year 2023 --format $fmt > index.out
    lexdrift skew "$q" --corpus "$corpus" --lexicon cased.json --year 2023 --format $fmt > corpus.out
    diff index.out corpus.out
  done
done
# A year with no documents is the same one-line error either way.
code=0; lexdrift skew 'any(strong)' --index sample.idx --year 2030 2> index.err || code=$?
test "$code" = 1
code=0; lexdrift skew 'any(strong)' --corpus "$corpus" --year 2030 2> corpus.err || code=$?
test "$code" = 1
cat index.err
diff index.err corpus.err
# A scan that fails after skipping records reports them first, for query and skew alike.
printf '%s\n' '{"id": "a", "year": 2023, "text": "an intricate plan"}' garbage > skip.jsonl
code=0; lexdrift query 'any(strong)' --corpus skip.jsonl --on-error skip --from 2030 2> query.err || code=$?
test "$code" = 1
code=0; lexdrift skew 'any(strong)' --corpus skip.jsonl --on-error skip --year 2030 2> skew.err || code=$?
test "$code" = 1
cat query.err skew.err
diff <(head -n 1 query.err) <(head -n 1 skew.err)
test "$(head -n 1 skew.err)" = "skipped 1 malformed records (lines 2)"
