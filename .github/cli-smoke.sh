#!/usr/bin/env bash
# CLI smoke test, run from the repository root with `bash -eo pipefail`.
#
# Every command of README's CLI block must exit 0, the exact and a seeded
# shots two-qubit report (whose state the rotation circuit prepares) have
# the bytes of a sha256 pin, the shots one by both launch paths (the
# installed command and python -m ringflow), a report streamed into a pipe
# that head closes on stdout and stderr together exits 2, a seeded shots
# run must repeat byte for byte, with and without a readout flip, and analyze must
# reproduce the j_estimate, j_std_error, j_exact and readout_flip of a
# grouped, a per-term, a readout-flip and a nonzero-angle report from the
# full report and from its counts alone (with the angle and the flip), and
# refuse counts that disagree with the probabilities beside them (exit 4,
# one diagnostic line); the 16-qubit
# expansion has the bytes of a sha256 pin in every format, and the 20-qubit
# one (MAX_QUBITS, the largest expansion built) has every line, its
# seven-digit weight 2^20 - 1 written in full and the bytes of a pin;
# exact and shots reports, grouped and per-term (one exact table of several
# blocks), re-dump through the stdlib json module to their own text; at
# the ring angle 1e300 the exact estimate reads the exact current; and the
# eight-qubit per-term exact report (1 279 settings) and its analysis have
# the bytes of a sha256 pin.  One refusal per exit code (current --n 0
# exits 2, current --range 19..21 exits 3 and analyze of an expectations
# file that covers no word exits 4) writes nothing to stdout, one
# "ringflow:" diagnostic line to stderr and no traceback.
set -eo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

sed -n '/^## CLI/,/^```$/p' README.md | grep '^ringflow ' | sed 's/ *#.*//' > "$tmp/cli-commands.txt"
test -s "$tmp/cli-commands.txt"
while read -r command; do
  echo "+ $command"
  $command < /dev/null > /dev/null
done < "$tmp/cli-commands.txt"
# sha256 of the two-qubit exact and seeded shots reports
test "$(ringflow current --n 2 | sha256sum | cut -d ' ' -f 1)" = 93e3323f015b92b391f843a75679711f6fc3377c587452836f6e78728180664c
test "$(ringflow current --n 2 --mode shots --seed 7 | sha256sum | cut -d ' ' -f 1)" = 5fc3bc68b91a6836a6a0e342018ed97bfe82e9426e3b549e2cf64965244f84c6
# the same bytes from the other launch path, python -m ringflow
test "$(python -m ringflow current --n 2 --mode shots --seed 7 | sha256sum | cut -d ' ' -f 1)" = 5fc3bc68b91a6836a6a0e342018ed97bfe82e9426e3b549e2cf64965244f84c6
# stdout and stderr on one pipe that head closes exit 2; under pipefail the
# pipeline fails, and its first status is ringflow's
codes=(0)
ringflow current --n 12 2>&1 | head -1 > /dev/null || codes=("${PIPESTATUS[@]}")
test "${codes[0]}" -eq 2
# one refusal per exit code: flags 2, computation 3, input data 4
printf '{"n": 3, "expectations": []}' > "$tmp/uncovered.json"
for refusal in "2:current --n 0" "3:current --range 19..21" "4:analyze --input $tmp/uncovered.json"; do
  code=0
  ringflow ${refusal#*:} > "$tmp/refused.txt" 2> "$tmp/error.txt" || code=$?
  test "$code" -eq "${refusal%%:*}"
  test ! -s "$tmp/refused.txt"
  test "$(grep -c '^ringflow: ' "$tmp/error.txt")" -eq 1
  test "$(grep -c Traceback "$tmp/error.txt")" -eq 0
done
# sha256 of each 16-qubit expansion, in json, csv and table
for pin in json:7126521241dca9e3ab9562d65a1e1e6519fd6c01d37189df1722ea6f834e9464 \
    csv:c970149c99a4dff14c603ba9475416d645137a3bd7f466de6b449d9c1568fd82 \
    table:5fcec4dffb893744421c2ccc2e1a193e1dbf547f3ef5b61ac4c7cf93ae19b15e; do
  test "$(ringflow decompose --n 16 --format "${pin%%:*}" | sha256sum | cut -d ' ' -f 1)" = "${pin#*:}"
done
# a header, the identity row and term_count(20) = 11 534 335 words
ringflow decompose --n 20 --format csv > "$tmp/terms-20.csv"
test "$(wc -l < "$tmp/terms-20.csv")" -eq 11534337
test "$(tail -n 1 "$tmp/terms-20.csv")" = "ZXXXXXXXXXXXXXXXXXXX,-524288"
# the identity weighs 2^20 - 1, which six significant digits round
test "$(sed -n 2p "$tmp/terms-20.csv")" = "IIIIIIIIIIIIIIIIIIII,1048575.0"
# and every word and weight, byte for byte
test "$(sha256sum < "$tmp/terms-20.csv" | cut -d ' ' -f 1)" = 9dc17422d01fe2f82356ad9dc53bd47e810ac3c3ed130c22c224a06d3de0ca1e
rm "$tmp/terms-20.csv"
ringflow current --n 3 --theta0 1e300 > "$tmp/theta0-huge.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); print(r["j_estimate"], r["j_exact"]); sys.exit(abs(r["j_estimate"] - r["j_exact"]) > 1e-12 * abs(r["j_exact"]))' "$tmp/theta0-huge.json"
ringflow current --mode shots --n 6 --seed 5 > "$tmp/shots-a.json"
ringflow current --mode shots --n 6 --seed 5 > "$tmp/shots-b.json"
cmp "$tmp/shots-a.json" "$tmp/shots-b.json"
ringflow current --mode shots --n 6 --seed 5 --readout-flip 0.01 > "$tmp/flip.json"
ringflow current --mode shots --n 6 --seed 5 --readout-flip 0.01 > "$tmp/flip-b.json"
cmp "$tmp/flip.json" "$tmp/flip-b.json"
ringflow current --mode shots --n 4 --per-term --seed 5 > "$tmp/per-term.json"
ringflow current --mode shots --n 4 --seed 5 --theta0 0.5 > "$tmp/theta0.json"
# the per-term settings repeat basis words, so its counts file keeps the
# terms lists: without them each word is read from the first setting that
# covers it, which is another estimate
keep='import json, sys; r = json.load(open(sys.argv[1])); json.dump({"n": r["n"], "theta0": r["theta0"], "readout_flip": r["readout_flip"], "settings": [{key: s[key] for key in sys.argv[3:]} for s in r["settings"]]}, open(sys.argv[2], "w"))'
python -c "$keep" "$tmp/shots-a.json" "$tmp/shots-a-counts.json" basis_word counts
python -c "$keep" "$tmp/per-term.json" "$tmp/per-term-counts.json" basis_word counts terms
python -c "$keep" "$tmp/theta0.json" "$tmp/theta0-counts.json" basis_word counts
python -c "$keep" "$tmp/flip.json" "$tmp/flip-counts.json" basis_word counts
for report in shots-a per-term theta0 flip; do
  for input in "$report.json" "$report-counts.json"; do
    ringflow analyze --input "$tmp/$input" > "$tmp/analyzed.json"
    python -c 'import json, sys; want, got = ([r[key] for key in ("j_estimate", "j_std_error", "j_exact", "readout_flip")] for r in map(json.load, map(open, sys.argv[1:]))); print(want, got); sys.exit(want != got)' "$tmp/$report.json" "$tmp/analyzed.json"
  done
done
# counts beside probabilities must give them at counts / total
python -c 'import json, sys; r = json.load(open(sys.argv[1])); s = r["settings"][0]; s["counts"] = {key: 2 * count + 1 for key, count in s["counts"].items()}; json.dump(r, open(sys.argv[2], "w"))' "$tmp/shots-a.json" "$tmp/disagreeing.json"
code=0
ringflow analyze --input "$tmp/disagreeing.json" > "$tmp/analyzed.json" 2> "$tmp/error.txt" || code=$?
test "$code" -eq 4
test ! -s "$tmp/analyzed.json"
test "$(cat "$tmp/error.txt")" = "ringflow: malformed measured data: settings[0]: counts disagree with the probabilities"
# sha256 of the analysis of the grouped and the per-term report
test "$(ringflow analyze --input "$tmp/shots-a.json" | sha256sum | cut -d ' ' -f 1)" = ec1395121b788ca803ae0bf040331b7b6848d2cf0a7b0bb2c74493760486d400
test "$(ringflow analyze --input "$tmp/per-term.json" | sha256sum | cut -d ' ' -f 1)" = 6420f34bf0f025221d93b89db348cbf1e48072e078b9e838a29fcda92f1b81c1
# a report cut short, and one with a byte damaged in its top-level term list
# (which analyze does not read but still checks), exit 4 with json's error
head -c 2000 "$tmp/shots-a.json" > "$tmp/cut.json"
python -c 'import sys; t = open(sys.argv[1]).read(); i = t.rindex("\"word\":") + 6; open(sys.argv[2], "w").write(t[:i] + ";" + t[i + 1:])' "$tmp/shots-a.json" "$tmp/damaged.json"
for pin in "cut:Unterminated string starting at: line 103 column 9 (char 1999)" \
    "damaged:Expecting ':' delimiter: line 2308 column 13 (char 51630)"; do
  code=0
  ringflow analyze --input "$tmp/${pin%%:*}.json" > "$tmp/analyzed.json" 2> "$tmp/error.txt" || code=$?
  test "$code" -eq 4
  test ! -s "$tmp/analyzed.json"
  test "$(cat "$tmp/error.txt")" = "ringflow: cannot read $tmp/${pin%%:*}.json: ${pin#*:}"
done
for argv in "--mode exact --n 12" "--mode shots --n 8 --seed 3" "--mode shots --n 6 --per-term --seed 11" "--mode exact --n 8 --per-term"; do
  ringflow current $argv > "$tmp/report.json"
  python -c 'import json, sys; text = open(sys.argv[1]).read(); sys.exit(json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" != text)' "$tmp/report.json"
done
# sha256 of the per-term eight-qubit exact report, one setting per word, and
# of its analysis, which groups every setting's words
ringflow current --mode exact --n 8 --per-term > "$tmp/per-term-8.json"
test "$(sha256sum < "$tmp/per-term-8.json" | cut -d ' ' -f 1)" = c6a5d43585d18017a302a25485f41c78d9fc03230bb56b576e624914df607284
test "$(ringflow analyze --input "$tmp/per-term-8.json" | sha256sum | cut -d ' ' -f 1)" = 124624f79a6df786d68e7385ad011b8dd6d8a9714ae2df14313122929594e4ac
