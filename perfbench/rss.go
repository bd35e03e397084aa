package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssSampler polls the process's resident set size while a run is timed.
// rss_peak_mb is the median over rssWindows equal windows of the peak in
// each, so one badly timed garbage collection does not set the figure.
// Set-up happens before it starts, so the figure is the working set of the
// measured load (resident corpora included).
type rssSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

// rssWindows is how many windows rss_peak_mb takes the median over.
const rssWindows = 5

// rssSamplePeriod is how often the sampler reads /proc/self/statm.
const rssSamplePeriod = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), samples: []float64{rssMB()}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.samples = append(s.samples, rssMB())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median window peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	s.wg.Wait()
	s.samples = append(s.samples, rssMB())
	n := len(s.samples)
	w := min(rssWindows, n)
	peaks := make([]float64, w)
	for i, v := range s.samples {
		k := i * w / n
		peaks[k] = max(peaks[k], v)
	}
	return median(peaks)
}

// rssMB reads the current resident set size in MiB (0 if unavailable).
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}
