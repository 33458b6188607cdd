GO ?= go

.PHONY: build test check vet race chaos fuzz bench bench-smoke bench-edge bench-idle bench-compute

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: build, vet, tests, race detector.
check:
	./ci.sh

# chaos sweeps randomized fault schedules (see internal/chaos).
chaos:
	$(GO) run ./cmd/chaosrunner -seeds 1000

# fuzz gives every fuzz target (the list ci.sh also runs) a short budget.
fuzz:
	./fuzz.sh 30s

bench:
	$(GO) test -bench=. -benchtime=1x -run=XXX .

# bench-smoke vets and smoke-tests the cross-process benchmark, which is
# its own module under benchmark/ (ci.sh's "benchmark smoke" stage).
bench-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./... -count=1

# bench-edge runs the workload the node edge dominates, five times (two
# nodes of cheap boxes, closed loop; see BENCHMARK.json).
bench-edge:
	$(GO) run -C benchmark . -workload edge_sat -repeat 5

# bench-idle runs the workload wake-ups and syscalls dominate, five times
# (the same nodes at 5000 single-tuple messages/s, open loop).
bench-idle:
	$(GO) run -C benchmark . -workload edge_idle -repeat 5

# bench-compute runs the workload the engine and the operator kernels
# dominate, five times (one node, five boxes ending in a 256:1 tumble,
# closed loop).
bench-compute:
	$(GO) run -C benchmark . -workload compute_sat -repeat 5
