package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// allocTally accumulates allocation and GC deltas over measured work.
type allocTally struct {
	mallocs, bytes, gcs uint64
	ops                 int
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (a *allocTally) add(before, after runtime.MemStats, ops int) {
	a.mallocs += after.Mallocs - before.Mallocs
	a.bytes += after.TotalAlloc - before.TotalAlloc
	a.gcs += uint64(after.NumGC - before.NumGC)
	a.ops += ops
}

func (a *allocTally) set(r *report) {
	n := float64(max(a.ops, 1))
	r.Metrics["allocs_per_op"] = float64(a.mallocs) / n
	r.Metrics["alloc_bytes_per_op"] = float64(a.bytes) / n
	r.Metrics["gc_cycles_per_kop"] = float64(a.gcs) * 1000 / n
}

// heapPeak samples the live-and-unswept heap object bytes every 2 ms
// (runtime/metrics reads without stopping the world). The reported peak is
// the 99th percentile of the samples: the single largest sample moves with
// where a collection happens to fall, while a peak that lasts longer than
// one sample in a hundred is held by the workload itself.
type heapPeak struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // written by the sampler until done
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// done stops the sampler, waits for it, and returns the peak in MB.
func (h *heapPeak) done() float64 {
	close(h.stop)
	h.wg.Wait()
	p, _ := percentile(h.samples, 0.99)
	return p / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
