.PHONY: build test race verify fuzz bench flake

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Tier-1 gate: build + vet + race tests + fuzz smoke (FUZZTIME=5s default).
verify:
	./scripts/verify.sh

fuzz:
	FUZZTIME=$${FUZZTIME:-30s} ./scripts/verify.sh

# Kernel + train-step microbenchmarks -> BENCH_kernels.json;
# striping/coalescing transfer benchmarks -> BENCH_transfer.json;
# obs overhead -> BENCH_obs.json; all-reduce ablation -> BENCH_allreduce.json;
# scale story -> BENCH_scale.json; serving plane -> BENCH_serve.json.
bench:
	./scripts/bench.sh

# Flake hunt: N race-detector runs, stopping at the first failure, which is
# named at the end. make flake N=50 PKG=./internal/rdma/ RUN='^TestLossy'
N ?= 10
PKG ?= ./...
RUN ?= .
flake:
	@out=$$(go test -race -count=$(N) -failfast -run '$(RUN)' $(PKG) 2>&1); status=$$?; \
	echo "$$out" | tail -n 30; \
	if [ $$status -ne 0 ]; then \
		echo "flake: failing test(s):"; echo "$$out" | grep -E -e '--- FAIL' | sort -u; \
	fi; exit $$status
