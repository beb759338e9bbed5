#!/usr/bin/env bash
# The exact commands of the pqk CLI, run with numpy made unimportable:
#   bash .github/exact-commands.sh exact   # every exact command and its exits
#   bash .github/exact-commands.sh ap      # AP bytes with repeated frequencies
# Each part runs in a fresh temporary directory and exits non-zero on the
# first command, exit status or digest that differs.
set -eu
src="$(cd "$(dirname "$0")/.." && pwd)/src"
cd "$(mktemp -d)"

# The exact commands never load numpy.  Any numpy import fails before pqk
# loads, so a stray import fails the run.
pqk() {
  PYTHONPATH="$src" python -c 'import sys; sys.modules["numpy"] = None; from pqk.cli import main; sys.exit(main(sys.argv[1:]))' "$@"
}

exact() {
  pqk dpg-demo --edges 3 --depth 2 --seed 7 --out sys.json
  pqk verify sys.json > verify.txt
  # A family is a set of labels and relations: the same document with its
  # five top-level lists reversed verifies to the same bytes.
  python -c 'import json; d = json.load(open("sys.json")); [d[k].reverse() for k in ("atomic_edges", "edges", "faces", "labels", "order")]; json.dump(d, open("rev.json", "w"))'
  pqk verify rev.json > verify-rev.txt
  cmp verify.txt verify-rev.txt
  pqk join --system sys.json --labels b0t,b1 --out joined.json
  pqk verify joined.json
  # A label joined with itself, and a join already present under the
  # swapped name, are malformed input: exit 2 naming --labels.
  for labels in b0,b0 b1,b0; do
    status=0
    pqk join --system sys.json --labels "$labels" --out no.json > err.json || status=$?
    test "$status" -eq 2
    grep -F '"detail": "--labels: ' err.json
    test ! -e no.json
  done
  # A reader that stops after one line gets no traceback: verify exits
  # with its own verdict and writes nothing to stderr.  The report of
  # this system (27 KB) spans several pipe pages, so head exits while
  # verify is still writing it.
  pqk dpg-demo --edges 6 --depth 5 --seed 0 --out med.json
  (set -o pipefail; pqk verify med.json 2> pipe-err.txt | head -1)
  test ! -s pipe-err.txt
  # c2's faces carry 1/3 and 2/3: a join of non-dyadic faces, with
  # the bytes the join has always written.
  pqk dpg-demo --edges 2 --depth 3 --seed 2 --out s3.json
  pqk join --system s3.json --labels c2,b0t --out s3j.json
  pqk verify s3j.json
  echo '1294c4d739b6e76c01542fdad739ed120173c66b523ff654eea6f2dc0f98d1a3  s3j.json' | sha256sum -c
  echo '{"frame": ["k1"], "terms": [{"freq": [1], "re": 2}]}' > v.json
  echo '{"target_frame": ["k1"], "source_frame": ["k1", "k2"], "entries": [[1, 1]]}' > p.json
  pqk ap --op inner --in v.json v.json
  pqk ap --op promote --in v.json p.json
  pqk ap --op limit-equal --in v.json v.json p.json p.json
  # Each ap op reads a fixed count of vector and projection files, and only
  # promote writes a vector: a wrong count, or --out on another op, exits 2
  # naming the flag and writes nothing.
  ap_refused() {
    detail=$1
    shift
    status=0
    pqk ap "$@" > err.json || status=$?
    test "$status" -eq 2
    grep -F "\"detail\": \"$detail\"" err.json
  }
  ap_refused "--in: inner expects two vector files" --op inner --in v.json
  ap_refused "--in: promote expects a vector and a projection" \
    --op promote --in v.json p.json p.json
  ap_refused "--in: limit-equal expects two vectors and two projections" \
    --op limit-equal --in v.json v.json p.json
  ap_refused "--out: inner writes no vector" \
    --op inner --in v.json v.json --out no.json
  ap_refused "--out: limit-equal writes no vector" \
    --op limit-equal --in v.json v.json p.json p.json --out no.json
  test ! -e no.json
  # A rank-deficient projection is malformed input: exit 2.
  echo '{"frame": ["k1", "k2"], "terms": [{"freq": [1, 0], "re": 1}]}' > v2.json
  echo '{"frame": ["k1", "k2"], "terms": [{"freq": [0, 1], "re": 1}]}' > w2.json
  echo '{"target_frame": ["k1", "k2"], "source_frame": ["s1", "s2"], "entries": [[1, 1], [1, 1]]}' > low.json
  status=0
  pqk ap --op limit-equal --in v2.json w2.json low.json low.json || status=$?
  test "$status" -eq 2
  # So are inputs over mismatched frames: vectors over (k1, k2) and
  # (k1, k3), a vector off its projection's target, and two projections
  # from different source frames.  Each exits 2 naming --in.
  echo '{"frame": ["k1", "k3"], "terms": [{"freq": [1, 0], "re": 1}]}' > w3.json
  echo '{"target_frame": ["k1", "k2"], "source_frame": ["s1", "s2"], "entries": [[1, 0], [0, 1]]}' > p2.json
  echo '{"target_frame": ["k1", "k2"], "source_frame": ["t1", "t2"], "entries": [[1, 0], [0, 1]]}' > q2.json
  for call in "inner v2.json w3.json" "promote w3.json p2.json" \
      "limit-equal v2.json v2.json p2.json q2.json"; do
    set -- $call
    op=$1
    shift
    status=0
    pqk ap --op "$op" --in "$@" > err.json || status=$?
    test "$status" -eq 2
    grep -F '"detail": "--in: ' err.json
  done
  # A label with no edges is malformed input: exit 2.
  python -c 'import json; d = json.load(open("sys.json")); d["labels"].append({"id": "empty", "graph": [], "flux_basis": []}); json.dump(d, open("sys.json", "w"))'
  status=0
  pqk verify sys.json || status=$?
  test "$status" -eq 2
  # A system file that is not UTF-8, and an --out in a missing directory,
  # exit 2 with one JSON line naming the path.
  printf '\xff\xfe garbage' > bad.json
  status=0
  pqk verify bad.json > err.json || status=$?
  test "$status" -eq 2
  grep -F '"detail": "bad.json: not UTF-8' err.json
  status=0
  pqk dpg-demo --out missing/sys.json > err.json || status=$?
  test "$status" -eq 2
  grep -F '"detail": "missing/sys.json: ' err.json
}

# v.json repeats the frequency (1/3, 2/3) three times, once written as
# (2/6, 4/6), and two of its amplitudes cancel on it; (1/2, -1/4) is
# written once in floats and once in strings, and cancels to nothing.
# The AP commands print the bytes they have always printed for it,
# promoted along a non-dyadic 2x3 projection.
ap() {
  echo '{"frame": ["k1", "k2"], "terms": [{"freq": ["1/3", "2/3"], "re": 2, "im": "-1/5"}, {"freq": [1, "-1/7"], "re": "3/2"}, {"freq": [0.5, -0.25], "re": 1}, {"freq": ["2/6", "4/6"], "re": -2, "im": "1/5"}, {"freq": [0, 0], "re": 1}, {"freq": ["1/2", "-1/4"], "re": -1}, {"freq": [1, "-2/14"], "im": "5/9"}, {"freq": ["1/3", "2/3"], "re": "1/3"}]}' > v.json
  echo '{"frame": ["k1", "k2"], "terms": [{"freq": [1, "-1/7"], "re": "3/2", "im": "5/9"}, {"freq": ["1/3", "2/3"], "re": "1/3"}, {"freq": [0, 0], "re": 1}]}' > same.json
  echo '{"frame": ["k1", "k2"], "terms": [{"freq": ["1/3", "2/3"], "re": "-1/11", "im": 3}, {"freq": [0, 0], "im": -1}, {"freq": ["1/2", "-1/4"], "re": 7}, {"freq": [1, "-1/7"], "re": "2/3"}]}' > w.json
  echo '{"target_frame": ["k1", "k2"], "source_frame": ["s1", "s2", "s3"], "entries": [[1, "1/3", 0], ["2/5", 1, "-3/7"]]}' > p.json
  {
    pqk ap --op inner --in v.json w.json
    pqk ap --op inner --in v.json v.json
    pqk ap --op promote --in v.json p.json
    pqk ap --op promote --in w.json p.json
    pqk ap --op limit-equal --in v.json same.json p.json p.json
    status=0
    pqk ap --op limit-equal --in v.json w.json p.json p.json || status=$?
    test "$status" -eq 1
  } > ap.txt
  echo '7a9cc091fcee8321d9ecb2caaeabceb0179afb2fb01019cf5c508afbce45ca58  ap.txt' | sha256sum -c
}

case "${1:-}" in
  exact) exact ;;
  ap) ap ;;
  *) echo "usage: $0 exact|ap" >&2; exit 2 ;;
esac
