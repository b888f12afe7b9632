package main

import (
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// reference is the harness's yardstick for the box: a pointer chase, the
// same 2^18 dependent loads through an 8 MiB table every time, timed
// before every untraced slice and after the last of each round — always
// just after the workload has streamed far more than the table through
// the caches, so a chase starts cold. It is the benchmark's own code,
// allocates nothing and calls nothing of the program; what moves it is the
// box — a neighbour in the shared cache or on the memory bus, the host
// taking the vCPU away — and that moves the program's timings with it, by
// the same factor to within a few percent (README.md has the
// measurements). A run's timings are divided by its box factor.
type reference struct {
	mem     []byte             // mapped outside the Go heap, so that heap_mb does not count it
	tables  [refChases][]int32 // mem as refChases tables, each one cycle through its entries
	samples []float64          // ms per chase
	sink    int32              // keeps the loads alive
}

const (
	refEntries = 1 << 21 // per table
	refSteps   = 1 << 18
	// refChases is how many chases one sample takes, each through a table
	// of its own so that each starts cold. A run's box factor comes from
	// its fastest chase, and a chase that shares the processor with a
	// collection still running from the slice before is not it: with one
	// chase per sample build_pipeline, which has the fewest slices, read
	// factors of 1.04–1.17 over runs whose raw timings agreed to 1%.
	refChases = 3
	// refQuietMS is what the fastest chase of a run takes on the quiet
	// 2-core reference box, so that there the box factor is 1 and a timing
	// reads in plain units.
	refQuietMS = 20.0
)

func newReference() (*reference, error) {
	mem, err := syscall.Mmap(-1, 0, refChases*refEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference's memory: %w", err)
	}
	r := &reference{mem: mem, samples: make([]float64, 0, 512)}
	all := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), refChases*refEntries)
	rng := rand.New(rand.NewSource(1))
	for c := range r.tables {
		t := all[c*refEntries : (c+1)*refEntries]
		// Sattolo's shuffle: a permutation that is a single cycle.
		for i := range t {
			t[i] = int32(i)
		}
		for i := refEntries - 1; i > 0; i-- {
			j := rng.Intn(i)
			t[i], t[j] = t[j], t[i]
		}
		r.tables[c] = t
	}
	return r, nil
}

func (r *reference) close() {
	r.tables = [refChases][]int32{}
	_ = syscall.Munmap(r.mem) // the mapping goes with the process anyway
}

// sample times one chase through each table.
func (r *reference) sample() {
	for _, t := range r.tables {
		t0 := time.Now()
		p := int32(0)
		for i := 0; i < refSteps; i++ {
			p = t[p]
		}
		r.sink += p
		r.samples = append(r.samples, ms(time.Since(t0)))
	}
}

// factor is how much slower than the quiet reference box this run's box
// was at its quietest: the run's fastest chase over refQuietMS. The
// fastest, because a run's timings are its quietest slice's.
func (r *reference) factor() float64 {
	return slices.Min(r.samples) / refQuietMS
}
