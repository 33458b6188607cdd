#!/bin/sh
# Every fuzz target in the repo, each given the same budget (default 10s):
# ci.sh's smoke stage and `make fuzz` share this one list, so a new decoder
# or parser is added in one place.
set -eu
budget=${1:-10s}
while read -r pkg target; do
	go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "$budget"
done <<LIST
./internal/transport/ FuzzDecode
./internal/transport/ FuzzDecodeTuple
./internal/stats/ FuzzDecodeDigest
./internal/sketch/ FuzzDecodeSketch
./internal/storage/ FuzzDecodeSegment
./internal/op/ FuzzCompiledExpr
./internal/cql/ FuzzCompile
./cmd/auroranode/ FuzzParseNetwork
LIST
