# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet test test-short race cover bench figures examples serve fuzz-scenarios fuzz-soak loc clean

all: check

# The default gate: compile, static checks, full tests, race-checked
# short tests.
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -cover ./...

# The CI smoke: 500 seeded fault scenarios through the full resilient
# stack with every invariant checker armed, under the race detector.
fuzz-scenarios:
	$(GO) run -race ./cmd/m2mfuzz -n 500 -q

# Overnight soak: keep drawing seeds and checking invariants until the
# clock runs out (~400 scenarios/sec without -race, measured over 20 s on
# a 2-vCPU VM). Failing seeds are shrunk to repro-seed<N>.json in the
# working directory.
FUZZ_SOAK_DURATION ?= 10m
fuzz-soak:
	$(GO) run ./cmd/m2mfuzz -n 0 -duration $(FUZZ_SOAK_DURATION) -q

# One testing.B benchmark per paper figure/table plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Run the session server with default admission/deadline settings.
SERVE_ADDR ?= :8437
serve:
	$(GO) run ./cmd/m2md -addr $(SERVE_ADDR)

# Regenerate every evaluation figure and ablation at full scale.
figures:
	$(GO) run ./cmd/m2mbench -experiment all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sapflux
	$(GO) run ./examples/wildlife
	$(GO) run ./examples/dynamic
	$(GO) run ./examples/failover
	$(GO) run ./examples/motes

# Go line totals of the root module (perfbench/ is a module of its own),
# split into non-test and test files.
GO_FILES = find . \( -path ./perfbench -o -name '.*' -a ! -name . \) -prune -o -name '*.go'
loc:
	@echo "non-test: $$($(GO_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test:     $$($(GO_FILES) -name '*_test.go' -print | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
