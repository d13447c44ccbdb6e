package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"snnmap/internal/obs"
)

// memSink keeps every telemetry event of a traced run in memory. The run
// writes them out as a Chrome trace only when it ends, so the file write
// never lands inside a timed stage. A nil *memSink holds no events.
type memSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *memSink) Event(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *memSink) Close() error { return nil }

func (s *memSink) len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// since returns the events recorded after the first n.
func (s *memSink) since(n int) []obs.Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events[n:]...)
}

// spanTotal sums the durations of every span with the given name, pairing
// each end with the innermost open begin of that name.
func spanTotal(events []obs.Event, name string) time.Duration {
	var open []time.Duration
	var total time.Duration
	for _, e := range events {
		if e.Name != name {
			continue
		}
		switch e.Kind {
		case obs.KindBegin:
			open = append(open, e.TS)
		case obs.KindEnd:
			if len(open) > 0 {
				total += e.TS - open[len(open)-1]
				open = open[:len(open)-1]
			}
		}
	}
	return total
}

// writeTrace writes the events as Chrome trace-event JSON through the
// program's own obs.TraceSink, then reads the file back through
// obs.ValidateTrace, the check cmd/tracecheck applies.
func writeTrace(path string, events []obs.Event) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	ts := obs.NewTraceSink(f)
	for _, e := range events {
		ts.Event(e)
	}
	if err := ts.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	if _, err := obs.ValidateTrace(f); err != nil {
		return fmt.Errorf("trace %s does not validate: %w", path, err)
	}
	return nil
}

// Heap and allocation counters, read through runtime/metrics so that
// sampling never stops the world. heap objects is the quantity
// runtime.MemStats.HeapAlloc reports; allocs plus tiny allocs is
// MemStats.Mallocs.
const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	allocsMetric      = "/gc/heap/allocs:objects"
	tinyAllocsMetric  = "/gc/heap/tiny/allocs:objects"
)

func heapBytes() uint64 {
	s := [1]rtmetrics.Sample{{Name: heapObjectsMetric}}
	rtmetrics.Read(s[:])
	return s[0].Value.Uint64()
}

func allocCount() uint64 {
	s := [2]rtmetrics.Sample{{Name: allocsMetric}, {Name: tinyAllocsMetric}}
	rtmetrics.Read(s[:])
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// heapSampler tracks the heap high-water mark with a background ticker plus
// a sample at each window edge, so a stage shorter than the tick still sees
// its entry and exit sizes.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	// gen discards a ticker sample that straddled a reset, so one window's
	// heap size never leaks into the next.
	gen  uint64
	quit chan struct{}
	done chan struct{}
}

const sampleInterval = 5 * time.Millisecond

func newHeapSampler() *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleInterval)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *heapSampler) sample() uint64 {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	b := heapBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == gen && b > s.peak {
		s.peak = b
	}
	return s.peak
}

// reset opens a new window at the current heap size.
func (s *heapSampler) reset() {
	b := heapBytes()
	s.mu.Lock()
	s.gen++
	s.peak = b
	s.mu.Unlock()
}

// stop ends the ticker goroutine and waits for it to exit.
func (s *heapSampler) stop() {
	close(s.quit)
	<-s.done
}

// measure times one call into a layer. It collects garbage first, outside
// the timed window, so each stage starts from the pipeline's live heap and
// its peak and allocation count are its own.
func measure(s *heapSampler, fn func() error) (stage, error) {
	runtime.GC()
	s.reset()
	a0 := allocCount()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	return stage{wall: wall, allocs: allocCount() - a0, peak: s.sample()}, err
}
