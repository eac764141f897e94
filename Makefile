GO ?= go

.PHONY: all build lint vet test race fuzz-smoke snapshot-golden bench

all: build lint test

build:
	$(GO) build ./...

# lint runs the stock go vet analyzers plus the repo's own bmlint suite
# (determinism, zero-alloc hot paths, context hygiene, error wrapping, and
# the struct-field completeness trio: Reset coverage, snapshot codec
# symmetry, pooled-Sim escape). The suite runs both standalone (go run,
# fast iteration) and as a vettool in CI; see DESIGN.md sections 11 and 16
# for the invariants and annotations.
lint: vet
	$(GO) run ./cmd/bmlint ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# fuzz-smoke runs each fuzz target briefly — a regression check over the
# accumulated corpus plus a short exploration burst, mirroring CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzLookup -fuzztime=10s ./internal/spec
	$(GO) test -run='^$$' -fuzz=FuzzTraceReader -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzSpec -fuzztime=10s ./internal/spec
	$(GO) test -run='^$$' -fuzz=FuzzWorkloadSpec -fuzztime=10s ./internal/spec
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotRoundTrip -fuzztime=10s ./internal/snapshot

# snapshot-golden runs the warm-state checkpointing gates on their own:
# restore-then-run byte identity for every registered scheme, the spec
# runner's warm-prefix sharing, and the warmup-exactly-once sweep
# contract. All of it also runs under `make test`; this target names the
# gate for CI and local iteration. Each alternative of a -run pattern must
# match at least one test, so a renamed or moved test fails the gate
# instead of leaving it to run nothing.
snapshot-golden:
	$(call run-golden,TestRestore|TestPrefixHash|TestRunner,./internal/sim)
	$(call run-golden,TestSweepWarmupRunsOnce|TestWarmRunner,./internal/service)

# run-golden runs the tests of package $(2) matching pattern $(1), after
# checking that every |-separated alternative of $(1) names some test.
define run-golden
	@for p in $(subst |, ,$(1)); do \
		n=$$($(GO) test -list "$$p" $(2) | grep -c '^Test'); \
		if [ "$$n" -eq 0 ]; then echo "snapshot-golden: -run $$p matches no test in $(2)" >&2; exit 1; fi; \
	done
	$(GO) test -run '$(1)' -v $(2)
endef

# bench is the same-host benchmark A/B: it builds the root package's test
# binary from HEAD and from the working tree, runs every registered
# microbenchmark from both in interleaved pairs, and fails when a case is
# slower beyond the pairs' noise (cmd/bmbench). Allocation counts are
# pinned exactly by internal/bench's tests, so `make test` covers them.
bench:
	$(GO) run ./cmd/bmbench -base HEAD
