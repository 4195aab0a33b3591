#!/bin/sh
# End-to-end CLI tour: generate, certify, tabulate, optimize.
# Run from anywhere; everything lands in a scratch directory.
set -e

# run a command that must fail with exit code 2 (a usage or data error)
# and print one JSON document with an "error" key on stderr
expect_2() {
    code=0; "$@" 2> error.json || code=$?
    cat error.json >&2
    [ "$code" -eq 2 ] &&
        python3 -c 'import json, sys; assert "error" in json.load(sys.stdin)' < error.json
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== catalog frame + certifications =="
fusionframes gen catalog mercedes -o mercedes.json
fusionframes check mercedes.json --p 2 --mode tight
fusionframes check mercedes.json --p 2 --mode cubature
fusionframes check mercedes.json --p 1 --mode equiangular

echo
echo "== p=3 is out of reach for 3 lines: expect exit 1 =="
fusionframes check mercedes.json --p 3 --mode tight || echo "exit code $?"

echo
echo "== the MUB planes are tight at p=2 but not a strength-4 cubature: expect exit 1 =="
fusionframes gen catalog mub-planes-r4 -o mub.json
fusionframes check mub.json --p 2 --mode tight
fusionframes check mub.json --p 2 --mode cubature || echo "exit code $?"

echo
echo "== numeric frame bounds at p=3: 27/32 and 33/32 =="
fusionframes check mercedes.json --p 3 --mode bounds

echo
echo "== orbit of the 20 degree line under the A2 Weyl group =="
cat > weyl.json <<'EOF'
[[[ -1.0, 0.0], [0.0, 1.0]],
 [[ 0.5, 0.8660254037844386], [0.8660254037844386, -0.5]]]
EOF
fusionframes gen orbit --generators weyl.json --seed-angle 20 -o orbit.json
fusionframes check orbit.json --p 2 --mode tight

echo
echo "== a malformed frame file is a data error: expect exit 2, not the exit 1 of not-tight =="
# a weight of 1 followed by 400 zeros: an integer too large for a float
printf '{"ambient_dim": 2, "entries": [{"basis": [[1.0, 0.0]], "weight": 1%0400d}]}\n' 0 > bad.json
expect_2 fusionframes check bad.json --p 1 --mode tight
# a boolean is not a number, not even next to a float
printf '{"ambient_dim": 2, "entries": [{"basis": [[true, 0.0]], "weight": 1.0}, {"basis": [[0.0, 1.0]], "weight": 1.0}]}\n' > bool.json
expect_2 fusionframes check bool.json --p 1 --mode tight

echo
echo "== a report that would hold an infinity is a data error: expect exit 2 =="
# the p = 2000 frame potential overflows
expect_2 fusionframes check mub.json --p 2000 --mode bounds

echo
echo "== an order below 1 is a usage error: expect exit 2 =="
expect_2 fusionframes check mercedes.json --p 0 --mode bounds
expect_2 fusionframes check mercedes.json --p -1 --mode bounds

echo
echo "== moment table for d=4, p=2 =="
fusionframes moments --d 4 --p 2

echo
echo "== optimize 3 lines in the plane at p=2 =="
fusionframes --seed 5 optimize --d 2 --k 1 --n 3 --p 2 \
    --restarts 8 -o packed.json --trace trace.csv
fusionframes check packed.json --p 2 --mode tight
head -3 trace.csv
