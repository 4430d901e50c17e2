package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The machines this benchmark runs on are shared: on a 2-vCPU VM the speed
// of a fixed compute kernel was seen to drift by up to 2x over tens of
// seconds, so raw wall-clock figures of identical runs spread by a quarter.
// The benchmark therefore splits its window into short sub-windows and,
// between them, with every daemon stopped by SIGSTOP so that the program
// under test cannot run, idle work included, measures how fast the machine
// runs two fixed reference kernels on as many threads as the daemons use: a
// dense multiply (compute and cache) and a stream over a buffer far larger
// than any cache (memory bandwidth). The machine's speed is the geometric
// mean of the two, each relative to its reference rate, and every time and
// rate the benchmark reports is scaled by it:
//
//	reported time = measured time x speed
//	reported rate = measured rate / speed
//
// where speed is the mean of the calibrations just before and just after the
// sub-window (or set-up round) the figure comes from. On fresh-n96 runs
// across seeds, scaling by the multiply alone cut the spread of trees_per_s
// from 0.18 to 0.13, by the stream alone to 0.09, and by both to 0.08. The
// kernels are this file's own code, so they never change with the program
// under test: a change that makes the program faster moves the scaled
// figures exactly as it moves the raw ones, which every run also prints.

// Reference rates, over all calibration threads, that define speed 1: about
// the medians on a 2-vCPU Intel Xeon (2.0 GHz nominal) VM with go1.24.
const (
	refMulRate    = 3400 // 96x96 multiplies per second
	refStreamRate = 2e4  // 512 KiB chunks summed per second
)

// refN is the multiply's matrix side: 96x96 float64 matrices are the
// L2-sized operands of the sampler's n=96 dense kernels.
const refN = 96

// streamLen is each thread's stream buffer, 32 MiB of float64, and
// streamChunk the part summed per count, 512 KiB.
const (
	streamLen   = 4 << 20
	streamChunk = 64 << 10
)

// calibrateFor is how long each kernel runs in one calibration.
const calibrateFor = 100 * time.Millisecond

func refKernel(a, b, c []float64) {
	clear(c)
	for i := 0; i < refN; i++ {
		for k := 0; k < refN; k++ {
			f := a[i*refN+k]
			row := b[k*refN : k*refN+refN]
			out := c[i*refN : i*refN+refN]
			for j, x := range row {
				out[j] += f * x
			}
		}
	}
}

// refSink keeps the kernels' results live so the compiler cannot drop them.
var refSink atomic.Uint64

// calibrator holds the per-thread buffers of the reference kernels.
type calibrator struct {
	threads int
	mats    [][3][]float64
	streams [][]float64
}

func newCalibrator() *calibrator {
	c := &calibrator{threads: runtime.GOMAXPROCS(0)}
	for t := 0; t < c.threads; t++ {
		var m [3][]float64
		for i := range m {
			m[i] = make([]float64, refN*refN)
		}
		for i := range m[0] {
			m[0][i] = float64(i%7) / 7
			m[1][i] = float64(i%5) / 5
		}
		buf := make([]float64, streamLen)
		for i := range buf {
			buf[i] = float64(i % 11)
		}
		c.mats = append(c.mats, m)
		c.streams = append(c.streams, buf)
	}
	return c
}

// speed measures the machine now, relative to the reference rates. Call it
// only while no daemon can run: before any is started, or through
// cluster.calibrate.
func (c *calibrator) speed() float64 {
	mul := c.run(func(t int) {
		m := c.mats[t]
		refKernel(m[0], m[1], m[2])
		refSink.Add(uint64(m[2][refN+1]))
	})
	cursor := make([]int, c.threads) // each thread's next chunk
	stream := c.run(func(t int) {
		buf := c.streams[t]
		off := cursor[t]
		var sum float64
		for _, x := range buf[off : off+streamChunk] {
			sum += x
		}
		cursor[t] = (off + streamChunk) % streamLen
		refSink.Add(uint64(sum))
	})
	return math.Sqrt(mul / refMulRate * stream / refStreamRate)
}

// run calls step on every thread, each locked to its OS thread, for
// calibrateFor after one untimed warm-up call, and returns the calls per
// second over all threads.
func (c *calibrator) run(step func(t int)) float64 {
	counts := make([]int, c.threads)
	var ready, done sync.WaitGroup
	start := make(chan time.Time)
	for t := 0; t < c.threads; t++ {
		ready.Add(1)
		done.Add(1)
		go func(t int) {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			step(t) // warm-up: caches and clock
			ready.Done()
			deadline := <-start
			for time.Now().Before(deadline) {
				step(t)
				counts[t]++
			}
		}(t)
	}
	ready.Wait()
	begin := time.Now()
	for t := 0; t < c.threads; t++ {
		start <- begin.Add(calibrateFor)
	}
	done.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / time.Since(begin).Seconds()
}

// scaleTime scales a duration measured at the given speed to speed 1.
func scaleTime(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}
