package netsim

import (
	"math"
	"testing"

	"repro/internal/distributed"
	"repro/internal/models"
)

func TestResourceSerializes(t *testing.T) {
	var r Resource
	s1, e1 := r.Use(0, 10)
	s2, e2 := r.Use(0, 5)
	if s1 != 0 || e1 != 10 || s2 != 10 || e2 != 15 {
		t.Errorf("resource: [%v,%v] [%v,%v]", s1, e1, s2, e2)
	}
	s3, _ := r.Use(100, 1)
	if s3 != 100 {
		t.Errorf("late request started at %v", s3)
	}
}

func TestPoolPicksEarliest(t *testing.T) {
	p := NewPool(2)
	p.Use(0, 10)
	p.Use(0, 2)
	s, _ := p.Use(0, 1) // second resource free at 2
	if s != 2 {
		t.Errorf("pool start = %v, want 2", s)
	}
	if NewPool(0) == nil {
		t.Error("zero pool should clamp to one resource")
	}
}

func TestTransferMonotoneInSize(t *testing.T) {
	for _, kind := range []distributed.Kind{distributed.GRPCTCP, distributed.GRPCRDMA,
		distributed.RDMA, distributed.RDMACopy} {
		p := ParamsFor(kind, false)
		prev := 0.0
		for size := int64(1 << 10); size <= 1<<30; size <<= 2 {
			tt := p.TransferUS(size)
			if tt <= prev {
				t.Errorf("%v: TransferUS not increasing at %d", kind, size)
			}
			prev = tt
		}
	}
}

func TestMechanismOrderingAlways(t *testing.T) {
	// zerocp <= cp <= gRPC.RDMA (micro path) and zerocp fastest overall.
	for size := int64(1 << 10); size <= 1<<30; size <<= 1 {
		z := MicroIterUS(distributed.RDMA, size)
		cp := MicroIterUS(distributed.RDMACopy, size)
		gr := MicroIterUS(distributed.GRPCRDMA, size)
		tc := MicroIterUS(distributed.GRPCTCP, size)
		if !(z < cp && z < gr && z < tc) {
			t.Errorf("size %d: zerocp %v not fastest (cp %v grpcrdma %v tcp %v)",
				size, z, cp, gr, tc)
		}
	}
}

// ratioRange scans the Figure 8 size axis and returns min/max speedup of
// RDMA.zerocp over the given mechanism.
func ratioRange(kind distributed.Kind) (lo, hi float64) {
	lo, hi = math.Inf(1), 0
	for size := int64(1 << 10); size <= 1<<30; size <<= 1 {
		r := MicroIterUS(kind, size) / MicroIterUS(distributed.RDMA, size)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return lo, hi
}

// TestFigure8Ranges asserts the §5.1 speedup claims: 1.7–61× over gRPC.TCP,
// 1.3–14× over gRPC.RDMA, 1.2–1.8× over RDMA.cp.
func TestFigure8Ranges(t *testing.T) {
	if lo, hi := ratioRange(distributed.GRPCTCP); lo < 1.4 || lo > 2.2 || hi < 40 || hi > 90 {
		t.Errorf("gRPC.TCP ratios [%.2f, %.2f], paper reports [1.7, 61]", lo, hi)
	}
	if lo, hi := ratioRange(distributed.GRPCRDMA); lo < 1.1 || lo > 1.6 || hi < 8 || hi > 20 {
		t.Errorf("gRPC.RDMA ratios [%.2f, %.2f], paper reports [1.3, 14]", lo, hi)
	}
	if lo, hi := ratioRange(distributed.RDMACopy); lo < 1.05 || lo > 1.45 || hi < 1.4 || hi > 2.1 {
		t.Errorf("RDMA.cp ratios [%.2f, %.2f], paper reports [1.2, 1.8]", lo, hi)
	}
}

func improvementOver(spec models.Spec, batch int, base distributed.Kind) float64 {
	r := NewClusterSim(8, distributed.RDMA, false)
	b := NewClusterSim(8, base, false)
	return r.ThroughputSamplesPerSec(spec, batch)/b.ThroughputSamplesPerSec(spec, batch) - 1
}

// TestFigure9Shape asserts the structural claims of §5.2: RDMA beats both
// gRPC baselines on every benchmark; the communication-bound models
// (AlexNet, VGG, FCN-5) improve the most; the gaps shrink once compute
// dominates at large batch sizes.
func TestFigure9Shape(t *testing.T) {
	for _, spec := range models.All() {
		for _, batch := range []int{1, 8, 32, 64} {
			if imp := improvementOver(spec, batch, distributed.GRPCRDMA); imp <= 0 {
				t.Errorf("%s b=%d: no improvement over gRPC.RDMA (%.2f)", spec.Name, batch, imp)
			}
			if imp := improvementOver(spec, batch, distributed.GRPCTCP); imp <= 0 {
				t.Errorf("%s b=%d: no improvement over gRPC.TCP (%.2f)", spec.Name, batch, imp)
			}
		}
	}
	// Communication-bound models gain more than compute-bound ones.
	vgg, _ := models.ByName("VGGNet-16")
	alex, _ := models.ByName("AlexNet")
	fcn, _ := models.ByName("FCN-5")
	incep, _ := models.ByName("Inception-v3")
	gru, _ := models.ByName("GRU")
	for _, heavyComm := range []models.Spec{vgg, alex, fcn} {
		for _, heavyComp := range []models.Spec{incep, gru} {
			if improvementOver(heavyComm, 32, distributed.GRPCRDMA) <=
				improvementOver(heavyComp, 32, distributed.GRPCRDMA) {
				t.Errorf("%s should gain more than %s", heavyComm.Name, heavyComp.Name)
			}
		}
	}
	// Gaps shrink as compute dominates (batch 64 vs 32) for the
	// compute-bound benchmarks, §5.2's observation.
	for _, name := range []string{"Inception-v3", "LSTM", "GRU"} {
		spec, _ := models.ByName(name)
		if improvementOver(spec, 64, distributed.GRPCRDMA) >=
			improvementOver(spec, 32, distributed.GRPCRDMA) {
			t.Errorf("%s: gap did not shrink at batch 64", name)
		}
	}
	// Magnitudes: paper reports 65%..169% average improvements over
	// gRPC.RDMA; our model lands each benchmark in a broad band around
	// that range.
	for _, spec := range models.All() {
		imp := improvementOver(spec, 32, distributed.GRPCRDMA)
		if imp < 0.2 || imp > 4.0 {
			t.Errorf("%s: improvement %.0f%% outside the plausible band", spec.Name, imp*100)
		}
	}
}

// TestFigure11Shape asserts the scalability claims: near-linear scaling for
// the compute-bound benchmarks, RDMA ≥ gRPC.RDMA everywhere, LSTM and
// Inception beating Local from 2 servers, and VGG the worst scaler.
func TestFigure11Shape(t *testing.T) {
	vgg, _ := models.ByName("VGGNet-16")
	incep, _ := models.ByName("Inception-v3")
	lstm, _ := models.ByName("LSTM")
	for _, spec := range []models.Spec{vgg, incep, lstm} {
		prev := 0.0
		for _, n := range []int{1, 2, 4, 8} {
			r := NewClusterSim(n, distributed.RDMA, false).ThroughputSamplesPerSec(spec, 32)
			g := NewClusterSim(n, distributed.GRPCRDMA, false).ThroughputSamplesPerSec(spec, 32)
			if r <= g {
				t.Errorf("%s n=%d: RDMA (%.0f) not faster than gRPC.RDMA (%.0f)", spec.Name, n, r, g)
			}
			if r <= prev {
				t.Errorf("%s: throughput not increasing at n=%d", spec.Name, n)
			}
			prev = r
		}
	}
	// Compute-bound models scale well: >4.5x on 8 servers vs 1.
	for _, spec := range []models.Spec{incep, lstm} {
		one := NewClusterSim(1, distributed.RDMA, false).ThroughputSamplesPerSec(spec, 32)
		eight := NewClusterSim(8, distributed.RDMA, false).ThroughputSamplesPerSec(spec, 32)
		if eight/one < 4.5 {
			t.Errorf("%s: 8-server speedup %.2f, want > 4.5", spec.Name, eight/one)
		}
		// And they beat the Local baseline from 2 servers (§5.2).
		two := NewClusterSim(2, distributed.RDMA, false).ThroughputSamplesPerSec(spec, 32)
		if two <= LocalThroughputSamplesPerSec(spec, 32) {
			t.Errorf("%s: 2 servers (%.0f) should beat Local (%.0f)",
				spec.Name, two, LocalThroughputSamplesPerSec(spec, 32))
		}
	}
	// VGG scales worst (communication bound).
	vggSpeed := NewClusterSim(8, distributed.RDMA, false).ThroughputSamplesPerSec(vgg, 32) /
		NewClusterSim(1, distributed.RDMA, false).ThroughputSamplesPerSec(vgg, 32)
	lstmSpeed := NewClusterSim(8, distributed.RDMA, false).ThroughputSamplesPerSec(lstm, 32) /
		NewClusterSim(1, distributed.RDMA, false).ThroughputSamplesPerSec(lstm, 32)
	if vggSpeed >= lstmSpeed {
		t.Errorf("VGG (%.2f) should scale worse than LSTM (%.2f)", vggSpeed, lstmSpeed)
	}
}

// TestFigure12Shape asserts the memory-copy ablation: zero-copy always
// wins, gains bounded (paper: up to 21% at batch 8), smallest for the
// compute-bound GRU.
func TestFigure12Shape(t *testing.T) {
	var worst, best float64 = 1e9, 0
	var bestName string
	for _, spec := range models.All() {
		z := NewClusterSim(8, distributed.RDMA, false).IterationUS(spec, 8)
		cp := NewClusterSim(8, distributed.RDMACopy, false).IterationUS(spec, 8)
		imp := cp/z - 1
		if imp <= 0 {
			t.Errorf("%s: zero-copy did not win (%.1f%%)", spec.Name, imp*100)
		}
		if imp < worst {
			worst = imp
		}
		if imp > best {
			best, bestName = imp, spec.Name
		}
	}
	if best > 0.30 {
		t.Errorf("largest zero-copy gain %.0f%% (%s) exceeds the paper's ~21%% scale", best*100, bestName)
	}
	if worst > 0.10 {
		t.Errorf("smallest gain %.0f%% should be small (compute-bound models)", worst*100)
	}
}

// TestTable3Shape asserts GPUDirect improvements: always non-negative,
// near zero for Inception-v3, largest for FCN-5, ordering of the paper's
// Table 3 broadly preserved.
func TestTable3Shape(t *testing.T) {
	imp := make(map[string]float64)
	for _, spec := range models.All() {
		no := NewClusterSim(8, distributed.RDMA, false).IterationUS(spec, 32)
		yes := NewClusterSim(8, distributed.RDMA, true).IterationUS(spec, 32)
		imp[spec.Name] = no/yes - 1
		if imp[spec.Name] < 0 {
			t.Errorf("%s: GPUDirect slowed things down (%.1f%%)", spec.Name, imp[spec.Name]*100)
		}
	}
	if imp["Inception-v3"] > 0.15 {
		t.Errorf("Inception GDR gain %.0f%%, paper reports ~0.4%%", imp["Inception-v3"]*100)
	}
	if imp["FCN-5"] < imp["Inception-v3"] || imp["FCN-5"] < imp["GRU"] {
		t.Error("FCN-5 should benefit most from GPUDirect (paper: 54%)")
	}
	if imp["AlexNet"] < 0.15 || imp["AlexNet"] > 0.8 {
		t.Errorf("AlexNet GDR gain %.0f%%, paper reports 32%%", imp["AlexNet"]*100)
	}
}

// TestTable3AbsoluteTimes sanity-checks the simulated minibatch times
// against the paper's Table 3 RDMA column (ms at batch 32, 8 workers):
// within a factor of two.
func TestTable3AbsoluteTimes(t *testing.T) {
	paper := map[string]float64{
		"AlexNet": 178.5, "FCN-5": 157.0, "VGGNet-16": 690.1,
		"Inception-v3": 172.5, "LSTM": 84.4, "GRU": 62.3,
	}
	for _, spec := range models.All() {
		got := NewClusterSim(8, distributed.RDMA, false).IterationUS(spec, 32) / 1000
		want := paper[spec.Name]
		if got < want/2 || got > want*2 {
			t.Errorf("%s: simulated %.1f ms, paper measured %.1f ms (want within 2x)",
				spec.Name, got, want)
		}
	}
}

func TestQPSweepImprovesThroughput(t *testing.T) {
	// The §3.1 design point: more QPs/CQ-pollers per peer improve
	// communication parallelism (up to saturation).
	spec, _ := models.ByName("AlexNet")
	one := NewClusterSim(8, distributed.RDMA, false)
	one.CPUThreads = 1
	four := NewClusterSim(8, distributed.RDMA, false)
	if one.ThroughputSamplesPerSec(spec, 32) >= four.ThroughputSamplesPerSec(spec, 32) {
		t.Error("4 QPs should beat 1 QP on a staging-heavy model")
	}
}

func TestLoopbackCheaperThanWire(t *testing.T) {
	spec, _ := models.ByName("LSTM")
	normal := NewClusterSim(1, distributed.RDMA, false)
	slow := NewClusterSim(1, distributed.RDMA, false)
	slow.LoopbackGBps = 1
	if normal.IterationUS(spec, 32) >= slow.IterationUS(spec, 32) {
		t.Error("loopback bandwidth should matter for single-server runs")
	}
}

// TestBandwidthSensitivity asserts the paper's premise: the faster the
// link, the larger the zero-copy mechanism's relative advantage (the RPC
// stack's software costs stop hiding behind the wire).
func TestBandwidthSensitivity(t *testing.T) {
	spec, _ := models.ByName("AlexNet")
	prev := 0.0
	for _, gbps := range []float64{1.2, 3, 6, 12, 24} {
		g := NewClusterSim(8, distributed.GRPCRDMA, false)
		g.Params.WireGBps = gbps
		r := NewClusterSim(8, distributed.RDMA, false)
		r.Params.WireGBps = gbps
		adv := g.IterationUS(spec, 32) / r.IterationUS(spec, 32)
		if adv < prev {
			t.Errorf("advantage shrank at %v GB/s: %.2f after %.2f", gbps, adv, prev)
		}
		prev = adv
	}
	if prev < 2 {
		t.Errorf("advantage at 24 GB/s = %.2f, expected substantial", prev)
	}
}

// TestBalancedPlacementHelpsHotspots: VGG's 392 MB fc6 makes the
// round-robin shard a NIC hotspot; largest-first balanced placement must
// not be slower, and for the skewed models it should clearly win.
func TestBalancedPlacementHelpsHotspots(t *testing.T) {
	for _, name := range []string{"VGGNet-16", "AlexNet", "FCN-5"} {
		spec, _ := models.ByName(name)
		rr := NewClusterSim(8, distributed.RDMA, false)
		bal := NewClusterSim(8, distributed.RDMA, false)
		bal.Placement = Balanced
		rrT := rr.IterationUS(spec, 32)
		balT := bal.IterationUS(spec, 32)
		// Balanced cannot split tensors, so it only roughly matches
		// round-robin when one tensor dominates.
		if balT > rrT*1.08 {
			t.Errorf("%s: balanced (%.1fms) much slower than round-robin (%.1fms)",
				name, balT/1000, rrT/1000)
		}
		part := NewClusterSim(8, distributed.RDMA, false)
		part.Placement = Partitioned
		partT := part.IterationUS(spec, 32)
		if partT >= rrT {
			t.Errorf("%s: partitioned (%.1fms) not faster than round-robin (%.1fms)",
				name, partT/1000, rrT/1000)
		}
	}
	// Balanced placement spreads bytes near-evenly.
	spec, _ := models.ByName("VGGNet-16")
	c := NewClusterSim(8, distributed.RDMA, false)
	c.Placement = Balanced
	shards := c.shardOf(spec.TensorSizes())
	load := make([]int64, 8)
	for vi, s := range spec.TensorSizes() {
		load[shards[vi]] += s
	}
	var min, max int64 = 1 << 62, 0
	for _, l := range load {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// fc6 alone is ~75% of VGG, so perfect balance is impossible; the
	// point is that no shard holds more than that single largest tensor
	// plus change.
	if max > 450<<20 {
		t.Errorf("balanced placement left a %d MB shard", max>>20)
	}
}
