package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"
)

// The benchmark runs on shared machines whose speed drifts, by tens of
// percent over seconds to minutes, for every program on them alike. A
// time compared against a bound of a few tens of percent must not carry
// that drift. So every timed slice of work (a set-up, an anonymization, a
// job burst, one second of queries) is bracketed by a fixed reference
// kernel that no code under test touches, and each time is reported at the
// reference speed:
//
//	reported = measured × refNominal / mean(kernel time before, kernel time after)
//
// Regressions in the code under test still show in full: the kernel does
// not run the program's code, so only the host's speed cancels.

// refNominal is about the reference kernel's time on the 2-vCPU amd64
// host the baselines were measured on, so that reported times read close
// to measured ones there.
const refNominal = 20 * time.Millisecond

// refTableBits sizes the kernel's table: 1<<16 int32s, 256 KiB, so its
// dependent reads stay in the core's caches and the table adds nothing
// measurable to the round's memory or collector work.
const refTableBits = 16

// kernelIters sets the kernel's amount of work: about refNominal.
const kernelIters = 1_000_000

// hostClock measures the reference kernel between slices of work.
type hostClock struct {
	// table is one random cycle through all its indices; the kernels only
	// read it.
	table []int32
	// maps are the kernels' reused maps, one per worker.
	maps []map[int32]int32
	// setupStart is the one-goroutine kernel time that opens the set-up.
	setupStart time.Duration
	// prev is the kernel time measured at the end of the previous slice.
	prev time.Duration
	// factors holds refNominal over the bracketing kernel times, one per
	// slice.
	factors []float64
}

// newHostClock builds the kernel's table and opens the set-up slice: it
// locks the calling goroutine to its thread and runs the kernel there
// alone. The set-up must follow on the same goroutine, and setupLap must
// close it.
func newHostClock() *hostClock {
	h := &hostClock{table: make([]int32, 1<<refTableBits)}
	for i := range h.table {
		h.table[i] = int32(i)
	}
	// Sattolo's shuffle leaves a single cycle through every index.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := len(h.table) - 1; i > 0; i-- {
		j := rng.IntN(i)
		h.table[i], h.table[j] = h.table[j], h.table[i]
	}
	for range workers {
		h.maps = append(h.maps, make(map[int32]int32, 1<<12))
	}
	runtime.LockOSThread()
	h.kernel() // first touch of the table and the maps
	h.setupStart = h.quietSolo()
	return h
}

// quietKernel runs the kernel once no collection is in progress. A cycle
// left running by the slice that just ended takes CPU from the kernel and
// made its time track the host's speed far less closely: against a
// uniqueness computation it correlated 0.32 without the collection and
// 0.87 with it. The forced collection also starts every slice from a
// collected heap.
func (h *hostClock) quietKernel() time.Duration {
	runtime.GC()
	return h.kernel()
}

// quietSolo is quietKernel on the calling goroutine alone.
func (h *hostClock) quietSolo() time.Duration {
	runtime.GC()
	d, sink := h.run(h.maps[0])
	refSink += sink
	return d
}

// setupLap closes the set-up slice, returning its factor, and opens the
// first slice of operations. Set-up is mostly one thread decoding the
// inputs, at the speed of whichever vCPU that thread is on, so its factor
// comes from the kernel run alone on the same thread right before and
// after it. Against the two-goroutine kernel, the set-up of anon-search, a
// 2 ms decode, split into a fast and a slow mode and spread by 34% over
// ten seeds.
func (h *hostClock) setupLap() float64 {
	end := h.quietSolo()
	runtime.UnlockOSThread()
	f := h.record(h.setupStart, end)
	h.prev = h.quietKernel()
	return f
}

// lap closes the slice of operations that just ended: it measures the
// kernel again and returns the factor that scales the slice's times to the
// reference speed.
func (h *hostClock) lap() float64 {
	now := h.quietKernel()
	f := h.record(h.prev, now)
	h.prev = now
	return f
}

// record stores and returns the factor of a slice bracketed by kernel
// times before and after.
func (h *hostClock) record(before, after time.Duration) float64 {
	f := float64(refNominal) / (float64(before+after) / 2)
	h.factors = append(h.factors, f)
	return f
}

// refSink keeps the kernels' results alive.
var refSink float64

// kernel runs the fixed work on one goroutine per worker at once and
// returns the mean of their times. The vCPUs of a shared host slow down
// independently: threads pinned to the two vCPUs of one host measured 11
// and 21 ms for the same work for seconds at a time, then swapped. The
// workloads run two threads and so see the mean speed of both vCPUs,
// while a single kernel goroutine sees one of them at random.
func (h *hostClock) kernel() time.Duration {
	times := make([]time.Duration, len(h.maps))
	sinks := make([]float64, len(h.maps))
	var wg sync.WaitGroup
	for w, m := range h.maps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[w], sinks[w] = h.run(m)
		}()
	}
	wg.Wait()
	var total time.Duration
	for w := range times {
		total += times[w]
		refSink += sinks[w]
	}
	return total / time.Duration(len(times))
}

// run times one pass of the fixed work: it evaluates exponentials, follows
// the table's cycle and fills m.
func (h *hostClock) run(m map[int32]int32) (time.Duration, float64) {
	start := time.Now()
	x := 0.0
	for i := range kernelIters {
		x += math.Exp(-float64(i&1023) / 1024)
	}
	j := int32(0)
	for range kernelIters {
		j = h.table[j]
	}
	clear(m)
	for i := range kernelIters / 5 {
		m[h.table[i&(len(h.table)-1)]&0xfff] += int32(i)
	}
	return time.Since(start), x + float64(j) + float64(len(m))
}
