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

lexdrift drift --format json > drift.json
lexdrift index --corpus "$corpus" --out sample.idx
lexdrift query 'any(strong)' --index sample.idx > v2.txt
# A cold query imports no dataclasses: importing and using them costs
# more start-up time than the query itself.
python -X importtime "$(command -v lexdrift)" query 'any(strong)' --index sample.idx 2> importtime.txt > /dev/null
if grep -E '\| +dataclasses$' importtime.txt; then echo "a cold query imports dataclasses"; exit 1; fi
# An index file of the previous format, committed with the tests, answers the same.
lexdrift query 'any(strong)' --index "$here/data/sample-v1.idx" > v1.txt
cat v2.txt
diff v1.txt v2.txt
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
      'atleast(2, strong)' 'any(weak) OR (any(strong) AND any(extra))'; do
    lexdrift query "$q" --index sample.idx --format $fmt > index.out
    lexdrift query "$q" --corpus "$corpus" --format $fmt > corpus.out
    diff index.out corpus.out
  done
  lexdrift skew 'any(strong)' --index sample.idx --year 2023 --format $fmt > index.out
  lexdrift skew 'any(strong)' --corpus "$corpus" --year 2023 --format $fmt > corpus.out
  diff index.out corpus.out
done
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
  for q in GPT chatgpt 'any(disclosure)'; do
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
