package hotspot

import (
	"fmt"
	"sync"
	"testing"
)

// hash gives tests a stable, well-spread key per actor index.
func hash(i int) uint64 {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func TestTopRanksByCost(t *testing.T) {
	p := New(64)
	// 100 background actors with one cheap turn each, one hot actor with
	// heavy traffic: the hot actor must rank first despite evictions.
	for i := 0; i < 100; i++ {
		p.ObserveTurns(hash(i), "bg", fmt.Sprint(i), 1, 1000, 0, 10)
	}
	for i := 0; i < 50; i++ {
		p.ObserveTurns(hash(9999), "hot", "celebrity", 4, 400_000, 2000, 512)
	}
	top := p.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) returned %d entries", len(top))
	}
	if top[0].Actor != "hot/celebrity" {
		t.Fatalf("rank 1 = %+v, want hot/celebrity", top[0])
	}
	if top[0].Turns == 0 || top[0].ExecNs == 0 || top[0].BytesIn == 0 {
		t.Fatalf("stats not accumulated: %+v", top[0])
	}
	for i := 1; i < len(top); i++ {
		if top[i].Cost > top[i-1].Cost {
			t.Fatalf("not cost-descending at %d: %v then %v", i, top[i-1].Cost, top[i].Cost)
		}
	}
}

func TestBoundedMemoryAndErrorBound(t *testing.T) {
	p := New(32)
	if p.K() < 32 {
		t.Fatalf("K() = %d", p.K())
	}
	// Far more distinct actors than capacity: residency stays bounded and
	// evicted-slot reuse carries a non-zero error bound.
	for i := 0; i < 10_000; i++ {
		p.ObserveTurns(hash(i), "a", fmt.Sprint(i), 1, 2048, 0, 0)
	}
	if got := p.Tracked(); got > p.K() {
		t.Fatalf("Tracked() = %d > K %d", got, p.K())
	}
	var sawErr bool
	for _, e := range p.Top(0) {
		if e.Err > 0 {
			sawErr = true
		}
		if e.Err > e.Cost {
			t.Fatalf("error bound exceeds cost: %+v", e)
		}
	}
	if !sawErr {
		t.Fatal("no entry carries an eviction error bound after heavy churn")
	}
}

func TestOutAndMigrationOnlyTouchTracked(t *testing.T) {
	p := New(32)
	p.ObserveOut(hash(1), 5, 500) // untracked: ignored
	p.ObserveMigration(hash(1))   // untracked: ignored
	if got := p.Tracked(); got != 0 {
		t.Fatalf("outbound-only observation admitted an actor: Tracked=%d", got)
	}
	p.ObserveTurns(hash(1), "t", "k", 1, 0, 0, 0)
	p.ObserveOut(hash(1), 3, 300)
	p.ObserveMigration(hash(1))
	top := p.Top(1)
	if top[0].CallsOut != 3 || top[0].BytesOut != 300 || top[0].Migrations != 1 {
		t.Fatalf("tracked stats wrong: %+v", top[0])
	}
}

func TestDecayHalves(t *testing.T) {
	p := New(32)
	p.ObserveTurns(hash(1), "t", "k", 8, 8<<10, 400, 100)
	before := p.Top(1)[0]
	p.Decay()
	after := p.Top(1)[0]
	if after.Cost != before.Cost/2 || after.Turns != before.Turns/2 {
		t.Fatalf("decay: before %+v after %+v", before, after)
	}
	if p.TotalCost() != after.Cost {
		t.Fatalf("TotalCost = %d, want %d", p.TotalCost(), after.Cost)
	}
}

// TestConcurrent hammers every method from many goroutines — meaningful
// under -race, and checks the heap/map stay consistent.
func TestConcurrent(t *testing.T) {
	p := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h := hash(i % 300)
				p.ObserveTurns(h, "t", fmt.Sprint(i%300), 1, uint64(i), 1, 8)
				if i%7 == 0 {
					p.ObserveOut(h, 1, 16)
				}
				if i%31 == 0 {
					p.ObserveMigration(h)
				}
				if i%101 == 0 {
					p.Top(10)
					p.Decay()
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Tracked() > p.K() {
		t.Fatalf("Tracked %d > K %d", p.Tracked(), p.K())
	}
	// Heap invariant holds after the storm.
	for i := range p.stripes {
		st := &p.stripes[i]
		for j, e := range st.heap {
			if e.idx != j {
				t.Fatalf("stripe %d: heap[%d].idx = %d", i, j, e.idx)
			}
			if parent := (j - 1) / 2; j > 0 && st.heap[parent].cost > e.cost {
				t.Fatalf("stripe %d: heap order violated at %d", i, j)
			}
			if st.byID[e.hash] != e {
				t.Fatalf("stripe %d: map/heap divergence at %d", i, j)
			}
		}
	}
}
